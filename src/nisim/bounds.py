"""Closed-form and optimized bounds on the agreement probability.

Everything here works on a normalized instance: densities at most 1/2, first
at most the second, correlation nonnegative.  ``normalize_instance`` reduces
an arbitrary instance to that cell and returns the affine map that carries
bounds back to the original coordinates; ``combined_report`` runs every bound
family and intersects them.

Three families are implemented: the quadratic-in-rho envelope bounds (two
lower, two upper), the maximal-correlation bounds (linear in rho), and a
reverse-hypercontractivity family obtained by numerically optimizing a
three-parameter certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, DecimalException, localcontext
from typing import NamedTuple

import numpy as np

from .distance import _golden_min
from .errors import ConvergenceError, NumericalConsistencyError, ParameterRangeError, as_real


@dataclass(frozen=True)
class TransformRecord:
    """Affine bookkeeping for instance normalization.

    ``steps`` lists the reductions applied; the agreement probability of the
    original instance is ``alpha * q_normalized + beta``.
    """

    steps: tuple[str, ...]
    alpha: float
    beta: float

    def map_value(self, q: float) -> float:
        return self.alpha * q + self.beta

    def map_interval(self, lo: float, hi: float) -> tuple[float, float]:
        if self.alpha >= 0:
            return self.map_value(lo), self.map_value(hi)
        return self.map_value(hi), self.map_value(lo)


def normalize_instance(a: float, b: float, rho: float) -> tuple[float, float, float, TransformRecord]:
    """Reduce (a, b, rho) to the cell a <= b <= 1/2, rho >= 0.

    Negative correlation is absorbed by reflecting one function's input (the
    agreement probability is unchanged); a density above 1/2 is absorbed by
    complementing that function (q maps affinely); finally the two densities
    are swapped into sorted order.
    """
    a, b = as_real("density", a, 0.0, 1.0), as_real("density", b, 0.0, 1.0)
    rho = as_real("correlation", rho, -1.0, 1.0)
    steps: list[str] = []
    alpha, beta = 1.0, 0.0

    def compose(step_alpha: float, step_beta: float) -> None:
        # q_outer = alpha * q_inner + beta, with q_inner = step_alpha * q_next + step_beta
        nonlocal alpha, beta
        beta = alpha * step_beta + beta
        alpha = alpha * step_alpha

    if rho < 0:
        rho = -rho
        steps.append("reflect-second-input")
    if a > 0.5:
        a = 1.0 - a
        steps.append("complement-first")
        compose(-1.0, b)
    if b > 0.5:
        b = 1.0 - b
        steps.append("complement-second")
        compose(-1.0, a)
    if a > b:
        a, b = b, a
        steps.append("swap")
    return a, b, rho, TransformRecord(tuple(steps), alpha, beta)


class Theorem1Bounds(NamedTuple):
    upsilon1_lb: float
    upsilon2_lb: float
    upsilon1_ub: float
    upsilon2_ub: float


def theta_plus(t: float, rho: float) -> float:
    """Upper envelope t^2 + (t/2) rho + (t/2 - t^2) rho^2 for density t."""
    return t * t + 0.5 * t * rho + (0.5 * t - t * t) * rho * rho


def theta_minus(t: float, rho: float) -> float:
    """Lower envelope t^2 - (t/2) rho - (t/2 - t^2) rho^2, clamped at zero."""
    return max(0.0, t * t - 0.5 * t * rho - (0.5 * t - t * t) * rho * rho)


def theorem1_bounds(a: float, b: float, rho: float) -> Theorem1Bounds:
    """The four quadratic envelope bounds for a normalized instance.

    Two lower and two upper bounds; neither member of a pair dominates the
    other across the whole parameter range, so callers should intersect them.
    """
    a, b = as_real("density", a, 0.0, 1.0), as_real("density", b, 0.0, 1.0)
    if not (a <= b <= 0.5):
        raise ParameterRangeError(
            f"expected a normalized instance with a <= b <= 1/2, got ({a}, {b})"
        )
    rho = as_real("normalized correlation", rho, 0.0, 1.0)
    ab = a * b
    root_ab = math.sqrt(ab)
    cross = math.sqrt(a * (1.0 - a) * b * (1.0 - b))
    r2 = rho * rho
    u1_lb = max(0.0, ab - 0.5 * root_ab * rho - 0.5 * (ab + cross) * r2)
    u2_lb = max(0.0, ab - 0.5 * root_ab * rho - 0.5 * (a + b - 2.0 * ab - root_ab) * r2)
    u1_ub = min(a, ab + 0.5 * root_ab * rho + 0.5 * (a * (1.0 - b) + cross - root_ab) * r2)
    u2_ub = math.sqrt(theta_plus(a, rho) * theta_plus(b, rho))
    return Theorem1Bounds(u1_lb, u2_lb, u1_ub, u2_ub)


def symmetric_bounds(a: float, rho: float) -> tuple[float, float]:
    """Two-sided envelope for equal densities: (lower, upper)."""
    a = as_real("density", a, 0.0, 1.0)
    if not 0.0 < a <= 0.5:
        raise ParameterRangeError(f"density must be in (0, 1/2], got {a}")
    rho = as_real("normalized correlation", rho, 0.0, 1.0)
    return theta_minus(a, rho), theta_plus(a, rho)


def maximal_correlation_bounds(a: float, b: float, rho: float) -> tuple[float, float]:
    """Linear-in-rho bounds ab -+ sqrt(a(1-a)b(1-b)) rho, clamped to the
    trivial range [0, min(a, b)]."""
    a, b = as_real("density", a, 0.0, 1.0), as_real("density", b, 0.0, 1.0)
    rho = as_real("normalized correlation", rho, 0.0, 1.0)
    dev = math.sqrt(a * (1.0 - a) * b * (1.0 - b)) * rho
    cap = min(a, b)
    lb = min(cap, max(0.0, a * b - dev))
    ub = min(cap, max(0.0, a * b + dev))
    return lb, ub


# Certificate optimizer settings: coarse log-grid points per axis; half-width
# of the excluded band around the removable singularities at s = 1 and t = 1
# (log coordinates); and the pattern-search step at which a start has
# converged.
_GRID_POINTS = 33
_EXCLUSION = 1e-4
_REL_TOL = 1e-6
# Equal densities: scan points and half-width of the u range on the ridge, and
# the golden-section tolerance in u.  The range reaches past _LOG_LIMIT because
# the lower side's optima lie at u of about 8 to 12.  Densities this close
# count as equal, which covers a decimal density and its complement.  Unequal
# densities keep |u| and |v| below _RIDGE_LIMIT too.
_RIDGE_POINTS = 4001
_RIDGE_LIMIT = 40.0
_RIDGE_TOL = 1e-9
_SAME_DENSITY = 2.0**-53
# Decimal digits of the exact re-evaluation of each winning point.
_EXACT_DIGITS = 50

_LOG_LIMIT = math.log(1e3)
_KAPPA_MIN = 1e-3
_KAPPA_MAX = 1e3

# Pattern-search moves in (log|u|, log|v|, z): every mix of -1, 0 and +1 steps
# but the null move.  Along the optima's valleys v kappa or u kappa' stays
# nearly fixed, which is a straight diagonal in these coordinates.  Shape
# (3, 1, 26): coordinate, start, move.
_STENCIL = np.array(
    [move for move in itertools.product((-1, 0, 1), repeat=3) if any(move)], dtype=float
).T[:, None, :]


def _certificate(u, v, k, a, b, rho):
    """The certificate functional at s = e^u, t = e^v, kappa = k, elementwise.

    With kappa' = 1 + rho^2/(kappa - 1), F_s = (a s^kappa' + 1 - a)^(1/kappa')
    and F_t = (b t^kappa + 1 - b)^(1/kappa), the functional is
    (F_s F_t - 1)/((s - 1)(t - 1)) - a/(t - 1) - b/(s - 1).  It is evaluated
    as ((E_s - a e_s) + (E_t - b e_t) + E_s E_t)/(e_s e_t) with E = F - 1 and
    e = s - 1 or t - 1 taken from expm1/log1p, so no O(eps) difference is
    formed by subtracting near-equal large terms; the naive form loses eight
    digits near the excluded band.  Each side is computed on its own broadcast
    shape, that of (u, k) or of (v, k), and the two are combined once.  The
    value is nan at kappa' = 0, where the point counts as infeasible.
    """
    def side(x, p, d):
        # ln(d e^y + 1 - d): past y = 700 the exponential would overflow, and
        # the excess y - 700 adds to the logarithm up to a relative e^-700/d.
        y = p * x
        big_e = np.expm1(
            (np.log1p(d * np.expm1(np.minimum(y, 700.0))) + np.maximum(y - 700.0, 0.0)) / p
        )
        eps = np.expm1(x)
        return big_e - d * eps, big_e, eps

    with np.errstate(all="ignore"):
        head_s, big_s, eps_s = side(u, 1.0 + rho * rho / (k - 1.0), a)
        head_t, big_t, eps_t = side(v, k, b)
        return (head_s + head_t + big_s * big_t) / (eps_s * eps_t)


def _scores(u, v, z, branch, sign, a, b, rho):
    """``sign`` times the certificate where it bounds that side, else +inf.

    The point (u, v, kappa = 1 + branch e^z) bounds the agreement probability
    from above (sign +1) where u v (kappa - 1) > 0 and from below (sign -1)
    where it is negative; either side minimizes its score.  The point is
    infeasible for a side unless it lies on that side, kappa is in
    [_KAPPA_MIN, _KAPPA_MAX] and the value is finite.  Callers keep u and v
    outside the excluded band.
    """
    k = 1.0 + branch * np.exp(z)
    score = sign * _certificate(u, v, k, a, b, rho)
    on_side = u * v * branch * sign > 0.0
    ok = on_side & (k >= _KAPPA_MIN) & (k <= _KAPPA_MAX) & np.isfinite(score)
    return np.where(ok, score, np.inf)


def _hc_search(a, b, rho):
    """Both certificate points: a grid scan, then one lockstep pattern search.

    The grid is scored once per kappa branch, over the layers whose kappa lies
    in [_KAPPA_MIN, _KAPPA_MAX], each cell for the side it lies on; the best
    two cells of each side and branch start a pattern search.  The grid is
    passed as open axes, so each side of the certificate is evaluated once
    per axis point, not once per cell.  Each start moves in (log|u|, log|v|,
    z) within its own quadrant of (u, v), over the full ``_STENCIL``, and
    within a box: |u| and |v| in [_EXCLUSION, _RIDGE_LIMIT], and |kappa - 1|
    at least rho^2/(_KAPPA_MAX - 1), so that kappa' is capped like kappa.  All
    starts move together, each with its own step, and one ``_scores`` call
    per sweep evaluates every move of every start.  A start stops when its
    step falls to ``_REL_TOL``.

    Returns the upper and then the lower point (u, v, kappa).  ``hc_bounds``
    uses it for unequal densities; at equal densities the tests use it as the
    reference for ``_ridge_search``.
    """
    axis = np.linspace(-_LOG_LIMIT, _LOG_LIMIT, _GRID_POINTS)
    axis = axis[np.abs(axis) >= _EXCLUSION]
    starts = []
    for branch in (1.0, -1.0):
        z_hi = math.log(_KAPPA_MAX - 1.0) if branch > 0 else math.log(1.0 - _KAPPA_MIN)
        z = np.linspace(math.log(1e-4), z_hi, _GRID_POINTS)
        kappa = 1.0 + branch * np.exp(z)
        grid = (axis, axis, z[(kappa >= _KAPPA_MIN) & (kappa <= _KAPPA_MAX)])
        cells = np.meshgrid(*grid, indexing="ij", sparse=True)
        side = np.sign(cells[0] * cells[1] * branch)
        score = _scores(*cells, branch, side, a, b, rho)
        for sign in (1.0, -1.0):
            flat = np.where(side == sign, score, np.inf).ravel()
            for idx in np.argpartition(flat, 1)[:2]:
                if np.isfinite(flat[idx]):
                    cell = np.unravel_index(idx, score.shape)
                    starts.append((sign, branch, flat[idx], [g[i] for g, i in zip(grid, cell)]))
    if {start[0] for start in starts} != {1.0, -1.0}:
        raise ConvergenceError(
            f"no feasible certificate grid cell for densities ({a}, {b}) at rho {rho}"
        )

    sign, branch, best, pos = (np.array(col) for col in zip(*starts))
    pos = pos.T
    quadrant = np.sign(pos[:2])
    pos[:2] = np.log(np.abs(pos[:2]))
    # The box in (log|u|, log|v|, z), shaped to broadcast over (start, move).
    z_low = 2.0 * math.log(rho) - math.log(_KAPPA_MAX - 1.0)  # rho^2 may underflow
    low = np.append(np.log([_EXCLUSION, _EXCLUSION]), z_low)[:, None, None]
    high = np.log([_RIDGE_LIMIT, _RIDGE_LIMIT, np.inf])[:, None, None]
    step = np.full(len(starts), 0.7)
    rows = np.arange(len(starts))
    # There is no sweep cap, yet the loop ends.  A start only moves to a point
    # of strictly lower score, and kappa outside [_KAPPA_MIN, _KAPPA_MAX]
    # scores +inf, so it stays in a bounded box; at one step size it can
    # therefore visit only finitely many points before the step halves, down
    # to _REL_TOL.
    while (live := step > _REL_TOL).any():
        cand = np.clip(pos[:, :, None] + _STENCIL * step[:, None], low, high)
        uv = quadrant[:, :, None] * np.exp(cand[:2])
        score = _scores(*uv, cand[2], branch[:, None], sign[:, None], a, b, rho)
        pick = score.argmin(1)
        found = score[rows, pick]
        moved = live & (found < best - 1e-15)
        best = np.where(moved, found, best)
        pos = np.where(moved, cand[:, rows, pick], pos)
        step = np.where(moved, step, 0.5 * step)

    out = []
    for side in (1.0, -1.0):
        mine = np.flatnonzero(sign == side)
        win = mine[np.argmin(best[mine])]
        u, v = quadrant[:, win] * np.exp(pos[:2, win])
        out.append((u, v, 1.0 + branch[win] * np.exp(pos[2, win])))
    return out


def _ridge_search(a, b, rho):
    """Both certificate points for equal densities, on the ridge u = v with
    kappa = kappa' = 1 + rho (upper side) or 1 - rho (lower side).

    Every optimum the three-dimensional search finds at a = b lies on this
    ridge, so each side is one scan of u over [-_RIDGE_LIMIT, _RIDGE_LIMIT]
    outside the excluded band, then a golden-section refinement between the
    neighbours of the best scan point.  There is no budget to run out of.
    Returns the upper and then the lower point (u, v, kappa).
    """
    axis = np.linspace(-_RIDGE_LIMIT, _RIDGE_LIMIT, _RIDGE_POINTS)
    axis = axis[np.abs(axis) >= _EXCLUSION]
    sign = np.array([[1.0], [-1.0]])
    k = 1.0 + sign * rho
    score = sign * _certificate(axis, axis, k, a, b, rho)
    score = np.where(np.isfinite(score), score, np.inf)
    points = []
    for side, kappa, row in zip(sign[:, 0], k[:, 0], score):
        i = int(np.argmin(row))
        lo, hi = axis[max(i - 1, 0)], axis[min(i + 1, axis.size - 1)]
        # the bracket stays on the best point's side of the excluded band
        lo, hi = (max(lo, _EXCLUSION), hi) if axis[i] > 0 else (lo, min(hi, -_EXCLUSION))
        f = lambda x, side=side, kappa=kappa: side * _certificate(x, x, kappa, a, b, rho)
        _, best = min((row[i], axis[i]), _golden_min(f, lo, hi, _RIDGE_TOL))
        points.append((best, best, kappa))
    return points


def _certify(u, v, k, a, b, rho, sign):
    """The certificate at one point in exact inputs and _EXACT_DIGITS-digit
    decimal arithmetic, rounded outward to a float: up for the upper side
    (sign 1), down for the lower side (sign -1).

    The functional is taken in its textbook form, (F_s F_t - 1)/((s - 1)(t - 1))
    - a/(t - 1) - b/(s - 1), with kappa' = 1 + rho^2/(kappa - 1) computed in
    decimal.  Raises NumericalConsistencyError if the point does not lie on
    that side, kappa' is 0 or the value is not finite.
    """
    u, v, k, a, b, rho = map(float, (u, v, k, a, b, rho))
    point = f"certificate point (u {u!r}, v {v!r}, kappa {k!r})"
    # u and v lie outside the excluded band, so the float product has its true sign
    if not sign * u * v * (k - 1.0) > 0.0:
        raise NumericalConsistencyError(f"{point} is not on the {'upper' if sign > 0 else 'lower'} side")
    with localcontext(Context(prec=_EXACT_DIGITS)):
        u, v, k, a, b, rho = map(Decimal, (u, v, k, a, b, rho))
        try:
            kp = 1 + rho * rho / (k - 1)
            e_s, e_t = u.exp() - 1, v.exp() - 1
            f_s = ((a * (kp * u).exp() + 1 - a).ln() / kp).exp()
            f_t = ((b * (k * v).exp() + 1 - b).ln() / k).exp()
            terms = (f_s * f_t / (e_s * e_t), 1 / (e_s * e_t), a / e_t, b / e_s)
            # Every operation is correct to 10^-_EXACT_DIGITS relative.  The four terms
            # cancel, and exp and ln amplify relative errors by up to |u|, |v|,
            # 1/|kappa| and 1/|kappa'|; pad by ten digits more than that.
            gain = 1 + abs(u) + abs(v) + 1 / abs(k) + 1 / abs(kp)
            pad = sum(map(abs, terms)) * gain * Decimal(10) ** (10 - _EXACT_DIGITS)
        except DecimalException as exc:
            raise NumericalConsistencyError(f"{point} has no finite value: {exc!r}") from exc
        value = terms[0] - terms[1] - terms[2] - terms[3]
        target = value + pad if sign > 0 else value - pad
    out = float(target)
    if Decimal(out) < target if sign > 0 else Decimal(out) > target:
        out = math.nextafter(out, sign * math.inf)
    if not math.isfinite(out):
        raise NumericalConsistencyError(f"certificate bound {target} is not a finite float")
    return out


def hc_bounds(a: float, b: float, rho: float) -> tuple[float, float]:
    """Certificate bounds (lower, upper) from the three-parameter family.

    The upper bound is the infimum of the certificate over its feasible
    region, the lower bound the supremum over the complementary region; any
    feasible certificate point already gives a valid one-sided bound.

    - Equal densities (to within 2^-53, so that 0.3 and 1 - 0.7 count as
      equal) take ``_ridge_search``: a scan of u = v over [-40, 40] at
      kappa = 1 +- rho and a golden-section refinement.
    - Unequal densities take ``_hc_search``, with fixed settings: a 33-point
      grid, then a pattern search in (log|u|, log|v|, log|kappa - 1|) down to
      a step of 1e-6, with 1e-4 <= |u|, |v| <= 40, kappa in [1e-3, 1e3] and
      |kappa' - 1| at most 999.

    Neither search has a budget, and neither warns.

    Either way the winning point of each side is re-evaluated once in
    50-digit decimal arithmetic and rounded outward, so each side is a
    certified bound, not one that holds only to float precision.  At rho = 0
    both collapse to ab.  At rho = 1 the two inputs coincide, so the
    agreement probability is the overlap of two sets of measures a and b,
    and the exact range (max(0, a + b - 1), min(a, b)) is returned without a
    search.  The result always satisfies
    max(0, a + b - 1) <= lower <= upper <= min(a, b).
    """
    a, b = as_real("density", a, 0.0, 1.0), as_real("density", b, 0.0, 1.0)
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ParameterRangeError(f"densities must be in (0, 1), got ({a}, {b})")
    rho = as_real("normalized correlation", rho, 0.0, 1.0)
    if rho == 0.0:
        return a * b, a * b
    if rho == 1.0:
        return max(0.0, a + b - 1.0), min(a, b)
    search = _ridge_search if abs(a - b) <= _SAME_DENSITY else _hc_search
    upper, lower = search(a, b, rho)
    ub = _certify(*upper, a, b, rho, 1.0)
    lb = _certify(*lower, a, b, rho, -1.0)
    # Intersect with the bounds that hold for every joint distribution with
    # these marginals.
    lb = min(max(lb, 0.0, a + b - 1.0), a, b)
    ub = min(ub, a, b)
    return lb, max(lb, ub)


# The bound families in report order, also BoundsReport's family fields and raw's
# first keys; the suffix _lb or _ub puts each on its side of the intersection.
FAMILIES = ("upsilon1_lb", "upsilon2_lb", "upsilon1_ub", "upsilon2_ub",
            "mc_lb", "mc_ub", "hc_lb", "hc_ub")


@dataclass(frozen=True)
class BoundsReport:
    """Every bound family for one instance, plus their intersection.

    The family fields are those of ``FAMILIES``, declared in its order, in
    normalized coordinates and clamped to the trivial range [0, min(a, b)];
    ``combined_lb``/``combined_ub`` are mapped back to the original
    coordinates.  ``raw`` keeps the pre-clamp values under the same names,
    then the combined bounds before and after de-normalization.
    """

    a: float
    b: float
    rho: float
    original_a: float
    original_b: float
    original_rho: float
    transform: TransformRecord
    upsilon1_lb: float
    upsilon2_lb: float
    upsilon1_ub: float
    upsilon2_ub: float
    mc_lb: float
    mc_ub: float
    hc_lb: float
    hc_ub: float
    combined_lb: float
    combined_ub: float
    raw: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.combined_lb > self.combined_ub + 1e-9:
            raise NumericalConsistencyError(
                f"combined bounds crossed: [{self.combined_lb}, {self.combined_ub}]"
            )


def combined_report(a: float, b: float, rho: float) -> BoundsReport:
    """Normalize, run every family, intersect, and map back.

    The intersection is the largest clamped ``_lb`` and smallest clamped
    ``_ub`` of ``FAMILIES``.  The de-normalization uses only the affine record
    from normalization; no family formula is re-derived in original coordinates.
    """
    a, b = as_real("density", a, 0.0, 1.0), as_real("density", b, 0.0, 1.0)
    rho = as_real("correlation", rho, -1.0, 1.0)
    na, nb, nrho, record = normalize_instance(a, b, rho)
    notes: list[str] = []
    if na == 0.0:
        # one marginal is degenerate: the agreement probability is forced
        t1 = Theorem1Bounds(0.0, 0.0, 0.0, 0.0)
        mc = (0.0, 0.0)
        hc = (0.0, 0.0)
        notes.append("degenerate marginal: agreement probability is determined exactly")
    else:
        t1 = theorem1_bounds(na, nb, nrho)
        mc = maximal_correlation_bounds(na, nb, nrho)
        hc = hc_bounds(na, nb, nrho)

    cap = min(na, nb)
    raw = dict(zip(FAMILIES, (*t1, *mc, *hc)))
    c = {k: min(cap, max(0.0, v)) for k, v in raw.items()}
    combined_lb_n = max(v for k, v in c.items() if k.endswith("_lb"))
    combined_ub_n = min(v for k, v in c.items() if k.endswith("_ub"))
    raw["combined_lb_normalized"] = combined_lb_n
    raw["combined_ub_normalized"] = combined_ub_n

    lo_o, hi_o = record.map_interval(combined_lb_n, combined_ub_n)
    raw["combined_lb_original"] = lo_o
    raw["combined_ub_original"] = hi_o
    sandwich_lo = max(0.0, a + b - 1.0)
    sandwich_hi = min(a, b)
    lo_o = min(sandwich_hi, max(sandwich_lo, lo_o))
    hi_o = min(sandwich_hi, max(sandwich_lo, hi_o))

    return BoundsReport(
        a=na,
        b=nb,
        rho=nrho,
        original_a=a,
        original_b=b,
        original_rho=rho,
        transform=record,
        **c,
        combined_lb=lo_o,
        combined_ub=hi_o,
        raw=raw,
        warnings=tuple(notes),
    )
