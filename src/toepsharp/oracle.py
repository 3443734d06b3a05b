"""Independent numerical maximization over the Schwarz coefficient body.

Each functional is a smooth function of six real parameters (modulus and
argument of the three free unit-disk parameters), so a seeded random
multistart plus a derivative-free compass search on the box is enough to
hit the global maximum reliably.  The known extremal point omega(z) = iz
and its real rotations are always injected as starts, so the empirical
maximum can never fall below the attainment value, whatever the budget.

The screen streams the sample through blocks of ``_BLOCK`` rows, so its
memory is O(block) whatever the budget.  Each block is drawn from the one
generator seeded for the run; the generator fills row-major, so the
blocks concatenate to exactly the single (budget, 7) draw and the sample
stream stays prefix-stable in the budget.  The best rows of each block are
merged into a running top-k that equals a stable sort of the whole sample
(ties and NaN included: earlier rows first, NaN last), so the refinement
sees the same starts as a screen that held every row.

The objectives take (c1, c2, c3); ``_maximize_objective`` maps box rows
to them.  The compass search keeps each start's unit phases exp(1j t): a
radius probe reuses them and an angle probe recomputes only the one it
moved.  Every parameter is still the same product r * exp(1j t) of the
same two floats, so the results are bit-identical to recomputing all phases.

Everything is deterministic given (inputs, seed, budget): the refinement
itself uses no randomness at all, which also makes the per-start work
embarrassingly parallel with identical results in any execution order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import bounds
from .coeffs import ClassKind, FunctionalKind, PhiSpec, coeff_map, toeplitz
from .schwarz import SchurParams, schur_map

# verdict tolerances, in units of max(1, |bound|)
VIOLATION_TOL = 1e-9
SHARPNESS_TOL = 1e-4

_N_STARTS = 64
_BLOCK = 4096
_STEP_INIT = 0.1
_STEP_MIN = 1e-9
_MAX_ITERS = 400


class Verdict(Enum):
    SHARP_CONFIRMED = "SharpConfirmed"
    VALID_NOT_ATTAINED = "ValidNotAttained"
    VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class VerificationReport:
    functional: FunctionalKind
    class_kind: ClassKind
    phi: PhiSpec
    bound: float
    empirical_max: float
    argmax: SchurParams
    samples_used: int
    refinement_iters: int
    seed: int
    verdict: Verdict
    margin: float           # bound - empirical_max
    applicable: bool        # False = bound is a formula value only, unproven


def _gammas(x: np.ndarray) -> np.ndarray:
    """Box coordinates (r0,t0,r1,t1,r2,t2) -> the three complex parameters."""
    return x[..., 0::2] * np.exp(1j * x[..., 1::2])


# starts that are always injected: the extremal omega(z) = i z, its real
# rotations, and the pure-c3 corner (reaches |c3| = 1 when gamma0 = gamma1 = 0)
_SEED_POINTS = np.array([
    [1.0, np.pi / 2, 0.0, 0.0, 0.0, 0.0],   # gamma0 = i
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],          # gamma0 = 1
    [1.0, np.pi, 0.0, 0.0, 0.0, 0.0],        # gamma0 = -1
    [1.0, 3 * np.pi / 2, 0.0, 0.0, 0.0, 0.0],  # gamma0 = -i
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],          # gamma2 = 1
])


def _sample_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """The next m rows of the sample: half uniform-polar, half boundary-biased."""
    u = rng.random((m, 7))
    x = np.empty((m, 6))
    x[:, 0::2] = u[:, 0:5:2]
    x[:, 1::2] = 2.0 * np.pi * u[:, 1:6:2]
    r0 = u[:, 0]
    x[:, 0] = np.where(u[:, 6] < 0.5, 1.0 - 0.1 * r0 ** 2, r0)
    return x


def _top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest keys: ``np.argsort(keys, kind="stable")[:k]``.

    A partition finds the k-th smallest key; only keys not above it (NaN
    counts as above everything, as in the sort) are then sorted stably,
    so ties keep position order.
    """
    if len(keys) > k:
        kth = np.partition(keys, k - 1)[k - 1]
        pos = np.flatnonzero(~(keys > kth))
    else:
        pos = np.arange(len(keys))
    return pos[np.argsort(keys[pos], kind="stable")[:k]]


def _screen(obj, budget: int, seed: int) -> np.ndarray:
    """The min(_N_STARTS, budget) best sample rows, best first.

    Streams the sample in blocks and keeps a running top-k of the
    negated values.  The running top goes before the block's rows, all
    of which come later in the sample, so the stable selection keeps
    earlier rows first on ties.
    """
    rng = np.random.default_rng(seed)
    n_top = min(_N_STARTS, budget)
    top_keys = np.empty(0)
    top_x = np.empty((0, 6))
    for done in range(0, budget, _BLOCK):
        x = _sample_block(rng, min(_BLOCK, budget - done))
        keys = np.concatenate([top_keys, -obj(_gammas(x))])
        top = _top_k(keys, n_top)
        top_keys, top_x = keys[top], np.concatenate([top_x, x])[top]
    return top_x


def _project(x: np.ndarray) -> np.ndarray:
    x[..., 0::2] = np.clip(x[..., 0::2], 0.0, 1.0)
    x[..., 1::2] = np.mod(x[..., 1::2], 2.0 * np.pi)
    return x


# the probes that move an angle (2 d and 2 d + 1 for d = 1, 3, 5), the
# coordinate each moves, and the parameter whose phase that changes
_ANGLE_PROBES = np.array([2, 3, 6, 7, 10, 11])
_ANGLE_COORDS = _ANGLE_PROBES // 2
_ANGLE_PARAMS = _ANGLE_COORDS // 2


def _compass_search(obj, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Vectorized compass (pattern) search on the box, one row per start.

    Probes +-step along each coordinate, moves to the best improving
    probe, halves the step when nothing improves.  Deterministic.  Each
    start's phases exp(1j t) are kept alongside its coordinates, so only
    the angle probes evaluate exp, each for its one moved angle.  Start
    angles lie in [0, 2 pi), where the projection is the identity, so a
    kept phase is always that of the projected angle a probe would use.
    """
    x = x0.copy()
    phase = np.exp(1j * x[:, 1::2])
    f = obj(x[:, 0::2] * phase)
    step = np.full(len(x), _STEP_INIT)
    rows = np.arange(len(x))
    iters = 0
    while np.any(step >= _STEP_MIN) and iters < _MAX_ITERS:
        iters += 1
        cand = np.repeat(x[None, :, :], 12, axis=0)  # (12, S, 6)
        for d in range(6):
            cand[2 * d, :, d] += step
            cand[2 * d + 1, :, d] -= step
        _project(cand)
        cphase = np.repeat(phase[None, :, :], 12, axis=0)  # (12, S, 3)
        cphase[_ANGLE_PROBES, :, _ANGLE_PARAMS] = np.exp(
            1j * cand[_ANGLE_PROBES, :, _ANGLE_COORDS])
        fc = obj(cand[..., 0::2] * cphase)  # (12, S)
        best = np.argmax(fc, axis=0)  # first max wins: deterministic
        fbest = fc[best, rows]
        improved = fbest > f
        x[improved] = cand[best[improved], rows[improved]]
        phase[improved] = cphase[best[improved], rows[improved]]
        f = np.where(improved, fbest, f)
        step = np.where(improved, step, step / 2.0)
    return x, f, iters


def _maximize_objective(obj, budget: int, seed: int) -> tuple[SchurParams, float, int]:
    """The one search driver: (argmax, max, compass iterations) of obj(c1, c2, c3)."""
    budget = operator.index(budget)
    if budget < 1:
        raise ValueError("budget must be >= 1")

    def f(g: np.ndarray) -> np.ndarray:
        return obj(*schur_map(g[..., 0], g[..., 1], g[..., 2]))

    starts = np.vstack([_SEED_POINTS, _screen(f, budget, seed)])
    xr, fr, iters = _compass_search(f, starts)
    k = int(np.argmax(fr))
    return SchurParams(*map(complex, _gammas(xr[k]))), float(fr[k]), iters


def _verdict(bound: float, emp: float) -> Verdict:
    s = max(1.0, abs(bound))
    if emp > bound + VIOLATION_TOL * s:
        return Verdict.VIOLATION
    if bound - emp <= SHARPNESS_TOL * s:
        return Verdict.SHARP_CONFIRMED
    return Verdict.VALID_NOT_ATTAINED


def maximize(
    functional: FunctionalKind,
    kind: ClassKind,
    phi: PhiSpec,
    budget: int = 10 ** 5,
    seed: int = 0,
) -> VerificationReport:
    """Empirically maximize a functional and judge it against its bound.

    With s = max(1, |bound|), the verdict is VIOLATION iff the empirical
    maximum exceeds bound + VIOLATION_TOL * s, else SharpConfirmed iff it
    is within SHARPNESS_TOL * s of the bound, else ValidNotAttained.  An
    inapplicable bound (failed hypothesis) still produces a report: the
    formula value is judged as if it were a bound, flagged unproven via
    ``applicable=False``.
    """
    report = bounds.theorem_bound(functional, kind, phi)
    # A Fraction bound past the float range raises in float(); a float one
    # has overflowed to inf.  Either way it fails here, before the search.
    bound = float(report.bound)
    if not math.isfinite(bound):
        raise OverflowError(f"bound {bound} overflows a float")
    argmax, emp, iters = _maximize_objective(
        lambda *c: toeplitz(functional, coeff_map(kind, phi, *c)), budget, seed)
    return VerificationReport(
        functional=functional,
        class_kind=kind,
        phi=phi,
        bound=bound,
        empirical_max=emp,
        argmax=argmax,
        samples_used=int(budget),  # a valid budget: the search checked it
        refinement_iters=iters,
        seed=seed,
        verdict=_verdict(bound, emp),
        margin=bound - emp,
        applicable=report.applicable,
    )


def lemma1_scan(
    sigma: float,
    mu: float,
    budget: int = 10 ** 4,
    seed: int = 0,
) -> tuple[float, float | None, Verdict]:
    """Scan |c3 + sigma c1 c2 + mu c1^3| over the coefficient body.

    Returns (empirical max, bound, verdict); the bound is |mu| when
    (sigma, mu) lies in one of the Omega regions and None otherwise, in
    which case only the empirical value is meaningful and the verdict is
    ValidNotAttained.  A bound is judged as in ``maximize``: with s =
    max(1, |mu|), VIOLATION iff the maximum exceeds |mu| + VIOLATION_TOL * s,
    else SharpConfirmed iff it is within SHARPNESS_TOL * s of |mu|.  A NaN or
    infinite sigma or mu raises ValueError before the search.
    """
    sigma, mu = float(sigma), float(mu)
    if not (math.isfinite(sigma) and math.isfinite(mu)):
        raise ValueError(f"sigma and mu must be finite, got ({sigma!r}, {mu!r})")
    _, emp, _ = _maximize_objective(
        lambda c1, c2, c3: np.abs(c3 + sigma * c1 * c2 + mu * c1 ** 3), budget, seed)
    membership = bounds.omega_region(sigma, mu)
    if membership.region is bounds.Region.NONE:
        return emp, None, Verdict.VALID_NOT_ATTAINED
    bound = abs(mu)
    return emp, bound, _verdict(bound, emp)
