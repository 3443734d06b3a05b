"""Coefficient body of Schwarz functions: forward map, admissibility, the sampler.

The body-membership check ``is_admissible`` is test code (``helpers``): it
is the reference the library's unchecked ``schur_map`` and the oracle's
sampler are held against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SchwarzTriple, coeffs_to_schur, is_admissible

from toepsharp import oracle
from toepsharp.schwarz import SchurParams, schur_map

unit_disk = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


class TestForwardMap:
    def test_zero(self):
        assert schur_map(0j, 0j, 0j) == (0, 0, 0)

    def test_unimodular_first_parameter_freezes_tail(self):
        assert schur_map(1 + 0j, 0.3 + 0.4j, -0.9 + 0j) == (1, 0, 0)

    def test_rotation_point(self):
        assert schur_map(1j, 0j, 0j) == (1j, 0, 0)

    def test_truncated_map_is_bit_for_bit_the_first_two_coefficients(self):
        # Schur's recursion: c1 and c2 read only gamma0 and gamma1, so the
        # two-parameter map the T21 search runs loses nothing
        rng = np.random.default_rng(23)
        g0, g1, g2 = (rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200) for _ in range(3))
        got = schur_map(g0, g1)
        assert len(got) == 2
        for gamma2 in (g2, 0j, 1.0, -1j):
            for a, b in zip(got, schur_map(g0, g1, gamma2)[:2], strict=True):
                assert np.array_equal(a, b)
        for row in zip(g0[:20], g1[:20], g2[:20]):
            assert schur_map(*row[:2]) == schur_map(*row)[:2]

    def test_two_parameters_mean_gamma2_zero(self):
        p = SchurParams(0.5j, 0.25)
        assert p == SchurParams(0.5j, 0.25, 0j)
        assert repr(p) == "SchurParams(gamma0=0.5j, gamma1=0.25, gamma2=0j)"

    def test_rejects_out_of_disk(self):
        # schur_map is unchecked: a parameter outside the disk maps outside
        # the body, so the box of the oracle's search must be the closed disks
        for g in ((1.1 + 0j, 0j, 0j), (0j, 1.1j, 0j), (0j, 0j, -1.1 + 0j)):
            assert not is_admissible(SchwarzTriple(*schur_map(*g)))


class TestAdmissibility:
    def test_zero(self):
        assert is_admissible(SchwarzTriple(0, 0, 0))

    def test_boundary_case_with_compensating_c3(self):
        # |c2| = 1 - |c1|^2 forces c3 (1 - |c1|^2) = -conj(c1) c2^2
        assert is_admissible(SchwarzTriple(0.5, 0.75, -0.375))

    def test_boundary_case_without_compensation(self):
        assert not is_admissible(SchwarzTriple(0.5, 0.75, 0.0))

    def test_second_constraint(self):
        assert not is_admissible(SchwarzTriple(0.8, 0.5, 0.0))

    def test_first_constraint(self):
        assert not is_admissible(SchwarzTriple(1.5, 0.0, 0.0))


class TestSampler:
    """The oracle's block draws, the one sampler of the parameter box, and the
    parameters the screen forms from them.

    Run on the full box here and on each face ``maximize`` searches below.
    """

    face = oracle._FULL

    def draw(self, seed, budget):
        """The draws of a budget's sample, one column per row: whole blocks from one
        generator, cut to the budget, as the screen draws them."""
        rng = np.random.default_rng(seed)
        blocks = [oracle._draw(rng, self.face) for _ in range(0, budget, oracle._BLOCK)]
        return np.hstack(blocks)[:, :budget]

    def gammas(self, u):
        """(rows, parameters) complex parameters as the screen forms them from draws u."""
        phase = oracle._LATTICE_PHASES[oracle._lattice(self.face, u)]
        return np.stack(oracle._gammas(self.face, u, phase), axis=-1)

    def box(self, u):
        """The box coordinates of draws u, one column per row: radii as drawn, each
        angle the lattice angle k 2 pi / N of its uniform u, k = floor(u N)."""
        x = u.copy()
        k = np.floor(u[self.face.angle] * oracle._LATTICE_N).astype(int)
        x[self.face.angle] = oracle._LATTICE_ANGLES[k]
        return x

    def test_deterministic(self):
        assert np.array_equal(self.draw(9, 50), self.draw(9, 50))

    def test_prefix_stable(self):
        """A smaller budget's sample is the first columns of a larger one's."""
        block = oracle._BLOCK
        whole = self.draw(5, 2 * block + 5)
        for budget in (1, 10, block - 1, block, block + 1, 2 * block + 4):
            got = self.draw(5, budget)
            assert np.array_equal(got, whole[:, :budget])
            assert np.array_equal(self.box(got), self.box(whole)[:, :budget])

    def test_all_samples_admissible(self):
        g = self.gammas(self.draw(17, 10 ** 4))
        # disk parameters; circle ones are checked in test_circle_and_zero_parameters
        disks = [j for j, (kind, _) in enumerate(self.face.parts) if kind == "disk"]
        assert np.all(np.abs(g[:, disks]) <= 1.0)
        for row in g[:500]:
            p = SchurParams(*map(complex, row))  # gamma2 = 0 off the face
            assert is_admissible(SchwarzTriple(*schur_map(p.gamma0, p.gamma1, p.gamma2)),
                                 tol=1e-12)

    def test_boundary_bias_hits_the_face(self):
        g = self.gammas(self.draw(3, 10 ** 4))
        frac = np.mean(np.abs(g[:, 0]) >= 0.9)
        assert frac >= 0.40

    def test_circle_and_zero_parameters(self):
        """A circle parameter is the table entry of its drawn lattice angle,
        which is exp(1j t) of that angle, with no radius factor, so its
        modulus is 1 to within one rounding, 2**-52; a parameter the face
        leaves out has no coordinate and is not formed, and its report
        (``SchurParams``) holds exactly 0."""
        u = self.draw(8, 10 ** 4)
        x, g = self.box(u), self.gammas(u)
        box = list(self.face.box)
        assert g.shape[1] == len(self.face.parts)
        for j in range(len(self.face.parts), 3):
            assert 2 * j not in box and 2 * j + 1 not in box
            assert repr(SchurParams(*map(complex, g[0])).gamma2) == "0j"
        for j, (kind, _) in enumerate(self.face.parts):
            if kind == "circle":
                assert 2 * j not in box
                t = x[box.index(2 * j + 1)]
                k = np.rint(t / (2 * np.pi / oracle._LATTICE_N)).astype(int)
                assert np.array_equal(t, oracle._LATTICE_ANGLES[k])
                assert np.array_equal(g[:, j], oracle._LATTICE_PHASES[k])
                assert np.array_equal(g[:, j], np.exp(1j * t))
                assert np.all(np.abs(np.abs(g[:, j]) - 1) <= 2.0 ** -52)


class TestSamplerT21Face(TestSampler):
    face = oracle._T21_FACE


class TestSamplerT22Face(TestSampler):
    face = oracle._T22_FACE


@pytest.mark.parametrize("face, free", [(oracle._FULL, [0, 1, 2, 3, 4, 5]),
                                        (oracle._T21_FACE, [0, 1, 3]),
                                        (oracle._T22_FACE, [0, 1, 2, 3, 5])])
def test_draw_layout(face, free):
    """A block is one row of _BLOCK uniforms per free coordinate, in box order, each
    column a sample row: six rows on the full box, three on the T21 face, five on the
    T22 one.  An angle u becomes the lattice angle k 2 pi / N, k = floor(u N), with
    phase exp(2 pi i k / N) from the table; r0 is its uniform in the even columns and
    1 - 0.1 u^2 in the odd ones."""
    n = len(free)
    assert face.box.tolist() == free
    u = np.random.default_rng(4).random((n, oracle._BLOCK))
    draws = oracle._draw(np.random.default_rng(4), face)
    assert draws.shape == (n, oracle._BLOCK)
    x = draws.copy()  # box coordinates, built from the lattice indices of the angle rows
    x[face.angle] = oracle._LATTICE_ANGLES[oracle._lattice(face, draws)]
    phase = oracle._LATTICE_PHASES[oracle._lattice(face, draws)]
    k = np.floor(u * oracle._LATTICE_N).astype(int)
    is_angle = np.array(free) % 2 == 1
    want = np.where(is_angle[:, None], oracle._LATTICE_ANGLES[k], u)
    want[0, 1::2] = 1.0 - 0.1 * u[0, 1::2] ** 2
    assert np.array_equal(x, want)
    assert np.array_equal(phase, oracle._LATTICE_PHASES[k[is_angle]])


def test_parameter_recovery_roundtrip():
    """The forward map is onto: interior triples round-trip through recovery."""
    rng = np.random.default_rng(42)
    found = 0
    while found < 1000:
        c = rng.uniform(-1, 1, 6)
        t = SchwarzTriple(complex(c[0], c[1]), complex(c[2], c[3]),
                          complex(c[4], c[5]))
        if not is_admissible(t, tol=0.0):
            continue
        if abs(t.c1) >= 1 - 1e-6:
            continue
        g = coeffs_to_schur(t)
        if abs(g.gamma1) >= 1 - 1e-6:
            continue
        back = SchwarzTriple(*schur_map(g.gamma0, g.gamma1, g.gamma2))
        assert abs(back.c1 - t.c1) < 1e-10
        assert abs(back.c2 - t.c2) < 1e-10
        assert abs(back.c3 - t.c3) < 1e-10
        found += 1


def test_recovery_undefined_on_degenerate_layers():
    with pytest.raises(ValueError):
        coeffs_to_schur(SchwarzTriple(1.0, 0, 0))
    with pytest.raises(ValueError):
        coeffs_to_schur(SchwarzTriple(0.0, 1.0, 0))  # |gamma1| = 1


@given(g0=unit_disk, g1=unit_disk, g2=unit_disk)
@settings(max_examples=150)
def test_conjugation_symmetry(g0, g1, g2):
    c1, c2, c3 = schur_map(g0, g1, g2)
    d1, d2, d3 = schur_map(g0.conjugate(), g1.conjugate(), g2.conjugate())
    assert d1 == c1.conjugate()
    assert d2 == c2.conjugate()
    assert abs(d3 - c3.conjugate()) < 1e-15


@given(g0=unit_disk, g1=unit_disk, g2=unit_disk)
@settings(max_examples=150)
def test_forward_map_lands_in_the_body(g0, g1, g2):
    assert is_admissible(SchwarzTriple(*schur_map(g0, g1, g2)), tol=1e-12)
