"""Independent numerical maximization over the Schwarz coefficient body.

The body is the image under ``schur_map`` of the box of three unit-disk
parameters gamma_j = r_j exp(i t_j).  By the maximum-modulus principle
``maximize`` searches only the face where its functional peaks: T21 reads only
c1 = gamma0 and c2 = (1 - |gamma0|^2) gamma1, a polynomial in gamma1 for fixed
gamma0, so it searches (gamma0, gamma1) with gamma1 on |gamma1| = 1 and maps
them to (c1, c2) alone; T22 is a polynomial in c3, which is affine in gamma2,
so it peaks on |gamma2| = 1.  ``lemma1_scan`` searches the whole box.  A
seeded random multistart plus a derivative-free compass search finds the
global maximum reliably.  The extremal omega(z) = iz and its real rotations
are always injected as starts, so the empirical maximum can never fall below
the attainment value, whatever the budget.

The screen streams the sample through blocks of ``_BLOCK`` rows, so its
memory is O(block) whatever the budget.  Each block is one draw from the
run's one seeded generator, laid out one coordinate per row: a contiguous
row of ``_BLOCK`` uniforms for each box coordinate, in box order, each
column one sample row.  The last block is cut to the budget, so the sample
is prefix-stable in the budget.  A block is evaluated straight from its
draws: r0 from its uniform in the even columns and boundary-biased to
1 - 0.1 u^2 in the odd ones, the other radii as drawn, and the phases from
a table of the lattice its angles lie on.  The running top-k is one stable
sort of the top followed by the block's kept rows, so it equals a stable
sort of the whole sample (ties and NaN included: earlier rows first, NaN
last), and the refinement sees the same starts as a screen holding every
row.

Once the running top is full, the screen evaluates only the rows that
can still enter it (the first block is merged in two parts, split after
``_HEAD`` rows, so that holds for most of it).  Each objective comes with
a majorant of its coefficients' moduli, which ``_moduli`` bounds from a
row's radii alone (1 on a circle) by the Schwarz body: |c1| = r0, |c2| =
(1 - r0^2) r1, |c3| <= (1 - r0^2)((1 - r1^2) r2 + r0 r1^2).  A row is
dropped only where majorant (1 + tol) + tol majorant(1, ..., 1) + tiny <
the k-th value (tol = ``_MAJORANT_TOL``, tiny the smallest normal float;
a NaN keeps it): its key lies above the running k-th key, which later
rows only lower, and the kept rows stay in sample order, so the selection
is bit for bit that of evaluating every row.  The tolerance bounds the
*computed* objective: rounding raises it by a few units of roundoff of
the majorant at the computed coefficients, whose moduli exceed their
bounds by a few units of roundoff, relative, plus a few absolute ones
from 1 - |gamma0|^2; and raising moduli at most 1 by delta raises a
polynomial of degree at most 6 with nonnegative coefficients by at most
about 6 delta majorant(1, ..., 1).  Each term is near 1e-15 of those
scales, far below 1e-12; tiny covers underflow.

The objectives take the coefficients their face generates, (c1, c2) or
(c1, c2, c3), ``maximize``'s from the rows of ``coeffs.table``;
``_maximize_objective`` maps face points to them.  The screen's phases come
from the lattice; the compass search's do not: it keeps each start's exp(1j
t) of continuous angles, reused by a radius probe and recomputed by an angle
probe for the one angle it moved.  A lattice phase is exp(1j t) of its
angle, so the results are bit-identical to recomputing every phase as
exp(1j t).

Everything is deterministic given (inputs, seed, budget): the refinement
itself uses no randomness at all.  Its starts are independent: each is
probed until its own step falls below ``_STEP_MIN`` (or ``_MAX_ITERS``),
so a start's result is the same whatever batch of starts it runs with.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import bounds
from .coeffs import PAIRS, ClassKind, FunctionalKind, PhiSpec, _graded, _real, table
from .schwarz import SchurParams, schur_map

# verdict tolerances, in units of max(1, |bound|)
VIOLATION_TOL = 1e-9
SHARPNESS_TOL = 1e-4

_N_STARTS = 64
_BLOCK = 4096
_LATTICE_N = 2 ** 12    # a power of 2, so the sampler's u * N is exact
_LATTICE_ANGLES = np.arange(_LATTICE_N) * (2.0 * np.pi / _LATTICE_N)
_LATTICE_PHASES = np.exp(1j * _LATTICE_ANGLES)
_STEP_INIT = 0.1
_STEP_MIN = 1e-9
_MAX_ITERS = 400
_HEAD = 512             # the first block's rows that fill the top before any is dropped
_MAJORANT_TOL = 1e-12   # relative, and in units of the majorant at moduli 1 (module docstring)


class Verdict(Enum):
    SHARP_CONFIRMED = "SharpConfirmed"
    VALID_NOT_ATTAINED = "ValidNotAttained"
    VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class VerificationReport:
    """A frozen dataclass, unlike the exact paths' ``coeffs.record`` types: only
    ``verify`` makes one, after importing numpy, which already loads ``inspect``,
    most of the cost of ``dataclasses``; and callers may ``dataclasses.replace`` it."""

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


class _Face:
    """The box coordinates (r0, t0, ..., t2) a face leaves free, in box order: it
    searches (gamma0, gamma1) or (gamma0, gamma1, gamma2), each in the closed disk
    ("disk": r_j, t_j) or on the unit circle ("circle": t_j).  gamma0 is always a
    disk, so r0 is column 0; gamma_j's phase is column j of its angles."""

    def __init__(self, *kinds: str):
        self.box = np.array([2 * j + k for j, kind in enumerate(kinds)
                             for k in {"disk": (0, 1), "circle": (1,)}[kind]])
        self.angle = np.flatnonzero(self.box % 2 == 1)
        self.parts = [(kind, np.searchsorted(self.box, 2 * j)) for j, kind in enumerate(kinds)]


_FULL = _Face("disk", "disk", "disk")
_T21_FACE, _T22_FACE = _Face("disk", "circle"), _Face("disk", "disk", "circle")
_FACES = {FunctionalKind.T21_INV: _T21_FACE, FunctionalKind.T21_LOG_INV: _T21_FACE,
          FunctionalKind.T22_INV: _T22_FACE, FunctionalKind.T22_LOG_INV: _T22_FACE}


def _gammas(face: _Face, x: np.ndarray, phase: np.ndarray | None = None) -> list:
    """The face's parameters at box coordinates x, one row per coordinate: a circle one
    is its phase, a disk one its radius row times its phase.  phase is exp(1j t) of x's
    angle rows; where it is given, only x's radius rows are read (``_draw``)."""
    if phase is None:
        phase = np.exp(1j * x[face.angle])
    return [phase[j] if kind == "circle" else x[r] * phase[j]
            for j, (kind, r) in enumerate(face.parts)]


# starts always injected, one column each in box coordinates (a face keeps its own rows): the
# extremal omega(z) = i z, its real rotations, and the pure-c3 corner (gamma1 = 1 on the T21 face)
_SEED_POINTS = np.array([
    [1.0, np.pi / 2, 0.0, 0.0, 0.0, 0.0],   # gamma0 = i
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],          # gamma0 = 1
    [1.0, np.pi, 0.0, 0.0, 0.0, 0.0],        # gamma0 = -1
    [1.0, 3 * np.pi / 2, 0.0, 0.0, 0.0, 0.0],  # gamma0 = -i
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],          # gamma2 = 1
]).T


def _draw(rng: np.random.Generator, face: _Face) -> np.ndarray:
    """The next block of draws, one column per sample row: a (len(face.box), _BLOCK)
    array, one contiguous row of uniforms per box coordinate, in box order.  r0 is
    its uniform in the even columns and boundary-biased to 1 - 0.1 u^2 in the odd ones."""
    u = rng.random((len(face.box), _BLOCK))
    u[0, 1::2] = 1.0 - 0.1 * u[0, 1::2] ** 2
    return u


def _lattice(face: _Face, u: np.ndarray) -> np.ndarray:
    """The lattice index floor(u N) of each angle uniform of draws u, per angle row."""
    return (u[face.angle] * _LATTICE_N).astype(np.intp)


def _moduli(face: _Face, u: np.ndarray) -> tuple:
    """Upper bounds of (|c1|, |c2|) or (|c1|, |c2|, |c3|) at draws u, from their radii
    alone (1 on a circle), by the Schwarz body: |c1| = r0, |c2| = (1 - r0^2) r1 and
    |c3| <= (1 - r0^2)((1 - r1^2) r2 + r0 r1^2), which is schur_map at (-r0, r1, r2)."""
    r = [u[i] if kind == "disk" else 1.0 for kind, i in face.parts]
    return (r[0], *schur_map(-r[0], *r[1:])[1:])


def _screen(obj, majorant, face: _Face, budget: int, seed: int) -> np.ndarray:
    """The min(_N_STARTS, budget) best sample rows in box coordinates, best first.

    Streams the sample in blocks and keeps a running top-k of the
    negated values with their draws, one stable sort per merge.  The
    running top goes before the block's rows, all of which come later in
    the sample, so ties keep earlier rows first.  Once the top is full,
    only rows whose majorant reaches the k-th value are evaluated.
    """
    rng = np.random.default_rng(seed)
    slack = _MAJORANT_TOL * majorant(*[1.0] * len(face.parts)) + np.finfo(float).tiny
    top_keys = np.empty(0)
    top_u = np.empty((len(face.box), 0))
    for done in range(0, budget, _BLOCK):
        draws = _draw(rng, face)[:, :budget - done]
        for u in np.split(draws, [_HEAD] if done == 0 else [], axis=1):
            if len(top_keys) == _N_STARTS:  # NaN in the majorant or the k-th value keeps the row
                u = np.compress(~(majorant(*_moduli(face, u)) * (1.0 + _MAJORANT_TOL) + slack
                                  < -top_keys[-1]), u, axis=1)
            phase = _LATTICE_PHASES[_lattice(face, u)]
            keys = np.concatenate([top_keys, -obj(*_gammas(face, u, phase))])
            top = np.argsort(keys, kind="stable")[:_N_STARTS]
            top_keys, top_u = keys[top], np.concatenate([top_u, u], axis=1)[:, top]
    top_u[face.angle] = _LATTICE_ANGLES[_lattice(face, top_u)]
    return top_u


def _compass_search(obj, face: _Face, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Vectorized compass (pattern) search on the face, one column per start.

    Probes +-step along each coordinate, moves to the best improving
    probe, halves the step when nothing improves.  Deterministic.  A start
    is probed while its own step is at least ``_STEP_MIN`` (for at most
    ``_MAX_ITERS`` iterations); then its (x, f) is written out and its column
    leaves the working arrays, so its result does not depend on the other
    starts.  The count returned is the last start's.  Probes 2 d and 2 d + 1
    move coordinate d, and only it is projected back into the box: the
    others are in the box already, where the projection is the identity.
    Each start's phases exp(1j t) are kept alongside its coordinates, so
    only the angle probes evaluate exp, each for its one moved angle; a
    kept phase is always that of the projected angle.
    """
    x = x0.copy()
    coord = np.repeat(np.arange(len(x)), 2)  # the coordinate each probe moves
    sign = np.tile([1.0, -1.0], len(x))[:, None]
    is_angle = np.isin(coord, face.angle)[:, None]
    angle_probes = np.flatnonzero(is_angle)
    rows = np.searchsorted(face.angle, coord[angle_probes])  # their phase rows
    phase = np.exp(1j * x[face.angle])
    f = obj(*_gammas(face, x, phase))
    x_out, f_out = np.empty_like(x), np.empty_like(f)
    step = np.full(len(f), _STEP_INIT)
    live = np.arange(len(f))  # the start of each working column
    iters = 0
    while len(live) and iters < _MAX_ITERS:
        iters += 1
        cols = np.arange(len(live))
        moved = x[coord] + sign * step  # (probes, S)
        moved = np.where(is_angle, np.mod(moved, 2.0 * np.pi), np.clip(moved, 0.0, 1.0))
        cand = np.repeat(x[:, None, :], len(coord), axis=1)  # (n, probes, S)
        cand[coord, np.arange(len(coord))] = moved
        cphase = np.repeat(phase[:, None, :], len(coord), axis=1)  # (angles, probes, S)
        cphase[rows, angle_probes] = np.exp(1j * moved[angle_probes])
        fc = obj(*_gammas(face, cand, cphase))  # (probes, S)
        best = np.argmax(fc, axis=0)  # first max wins: deterministic
        fbest = fc[best, cols]
        improved = fbest > f
        x[:, improved] = cand[:, best[improved], cols[improved]]
        phase[:, improved] = cphase[:, best[improved], cols[improved]]
        f = np.where(improved, fbest, f)
        step = np.where(improved, step, step / 2.0)
        stopped = step < _STEP_MIN
        if stopped.any():
            x_out[:, live[stopped]], f_out[live[stopped]] = x[:, stopped], f[stopped]
            keep = ~stopped
            x, phase, f, step, live = x[:, keep], phase[:, keep], f[keep], step[keep], live[keep]
    x_out[:, live], f_out[live] = x, f
    return x_out, f_out, iters


def _maximize_objective(obj, majorant, face: _Face, budget: int,
                        seed: int) -> tuple[SchurParams, float, int]:
    """The one search: (argmax, max, compass iterations) on a face of obj of the
    coefficients its parameters generate, (c1, c2) or (c1, c2, c3); majorant bounds
    obj from those coefficients' moduli (``_MAJORANT_TOL``)."""
    budget, seed = operator.index(budget), operator.index(seed)
    if budget < 1 or seed < 0:
        raise ValueError(f"need budget >= 1 and seed >= 0, got budget={budget}, seed={seed}")

    def f(*g):
        return obj(*schur_map(*g))

    starts = np.hstack([_SEED_POINTS[face.box], _screen(f, majorant, face, budget, seed)])
    xr, fr, iters = _compass_search(f, face, starts)
    k = int(np.argmax(fr))
    return SchurParams(*map(complex, _gammas(face, xr[:, k]))), float(fr[k]), iters


def _objective(functional: FunctionalKind, kind: ClassKind, phi: PhiSpec):
    """(objective, majorant), elementwise.  The objective is |x_n^2 - x_{n+1}^2| from
    the pair's table rows in floats by ``coeffs._graded``, of (c1, c2) for T21 and of
    (c1, c2, c3) for T22.  The majorant is |x_n|^2 + |x_{n+1}|^2 with |rows| at the
    coefficients' moduli, by the same polynomials."""
    rows = [[n / d for n, d in r] for r in table(kind, phi, *PAIRS[functional])]
    moduli_rows = [[abs(t) for t in r] for r in rows]
    return (lambda *c: abs(_graded(rows[0], *c) ** 2 - _graded(rows[1], *c) ** 2),
            lambda *m: _graded(moduli_rows[0], *m) ** 2 + _graded(moduli_rows[1], *m) ** 2)


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
        *_objective(functional, kind, phi), _FACES[functional], budget, seed)
    return VerificationReport(
        functional=functional,
        class_kind=kind,
        phi=phi,
        bound=bound,
        empirical_max=emp,
        argmax=argmax,
        samples_used=int(budget),  # a valid budget and seed: the search checked them
        refinement_iters=iters,
        seed=int(seed),
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
    else SharpConfirmed iff it is within SHARPNESS_TOL * s of |mu|.  A sigma or mu that
    is not an integer, Fraction or float raises TypeError, a NaN or infinite one
    ValueError, before the search.
    """
    sigma, mu = float(_real("sigma", sigma)), float(_real("mu", mu))
    if not (math.isfinite(sigma) and math.isfinite(mu)):
        raise ValueError(f"sigma and mu must be finite, got ({sigma!r}, {mu!r})")
    _, emp, _ = _maximize_objective(
        lambda c1, c2, c3: np.abs(c3 + sigma * c1 * c2 + mu * c1 ** 3),
        lambda *m: _graded((abs(mu), abs(sigma), 1.0), *m), _FULL, budget, seed)
    membership = bounds.omega_region(sigma, mu)
    if membership.region is bounds.Region.NONE:
        return emp, None, Verdict.VALID_NOT_ATTAINED
    bound = abs(mu)
    return emp, bound, _verdict(bound, emp)
