"""Rewrite the asserts of ``helpers`` (its golden tests), as those of the test modules."""

import pytest

pytest.register_assert_rewrite("helpers")
