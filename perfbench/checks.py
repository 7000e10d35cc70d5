"""Independent arithmetic the output checks compare against.

Nothing here calls nisim: these are the harness's own formulas for values
that any correct answer must agree with or respect.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

TOL = 1e-9  # the package's stated tolerance for probabilities and bounds

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(96)
_NORMAL = statistics.NormalDist()


def close(value, ref, tol: float = TOL) -> bool:
    if value is None or ref is None:
        return value is None and ref is None
    return abs(float(value) - float(ref)) <= tol


def gaussian_quadrant(h: float, k: float, r: float) -> float:
    """P(Z1 <= h, Z2 <= k) for standard normals with correlation |r| < 1.

    Uses the arcsine form of the bivariate normal integral, which is smooth
    in the angle, with 96-point Gauss-Legendre quadrature.
    """
    base = _NORMAL.cdf(h) * _NORMAL.cdf(k)
    if r == 0.0:
        return base
    top = math.asin(r)
    theta = 0.5 * top * (_NODES + 1.0)
    cos2 = np.cos(theta) ** 2
    integrand = np.exp(-(h * h - 2.0 * h * k * np.sin(theta) + k * k) / (2.0 * cos2))
    return base + 0.5 * top * float(np.dot(_WEIGHTS, integrand)) / (2.0 * math.pi)


def _dyadic_exponent(x: float) -> int | None:
    for i in range(1, 60):
        if x == 0.5**i:
            return i
    return None


def achievable_values(a: float, b: float, rho: float) -> list[float]:
    """Agreement probabilities that sets of densities a and b attain, or
    approach as the dimension grows, at correlation rho.

    Parallel and antiparallel half-spaces approach the bivariate normal
    values at +rho and -rho; when both densities are powers of two, the
    subcube pair and its mirror image attain theirs exactly.  A valid lower
    bound lies below all of these and a valid upper bound above all of them.
    """
    out = []
    if 0.0 < a < 1.0 and 0.0 < b < 1.0 and abs(rho) < 1.0:
        ha, hb = _NORMAL.inv_cdf(a), _NORMAL.inv_cdf(b)
        out += [gaussian_quadrant(ha, hb, rho), gaussian_quadrant(ha, hb, -rho)]
    i, j = _dyadic_exponent(a), _dyadic_exponent(b)
    if i is not None and j is not None:
        shared, spare = min(i, j), abs(i - j)
        out += [
            ((1.0 + rho) / 4.0) ** shared * 0.5**spare,
            ((1.0 - rho) / 4.0) ** shared * 0.5**spare,
        ]
    return out


def bound_problem(name, lb, ub, ref_lb, ref_ub, achievable) -> str | None:
    """A bound pair passes if each side equals the reference to TOL, or is
    tighter than the reference and still brackets every achievable value."""
    if lb > ub + TOL:
        return f"{name}: crossed bounds [{lb!r}, {ub!r}]"
    low = min(achievable, default=math.inf)
    high = max(achievable, default=-math.inf)
    if not close(lb, ref_lb) and not (lb > ref_lb and lb <= low + TOL):
        return f"{name}_lb {lb!r}: reference {ref_lb!r}, achievable minimum {low!r}"
    if not close(ub, ref_ub) and not (ub < ref_ub and ub >= high - TOL):
        return f"{name}_ub {ub!r}: reference {ref_ub!r}, achievable maximum {high!r}"
    return None


def subcube_value(i: int, rho: float, sign: int) -> float:
    """((1 +- rho)/4)^i: both codes pin i coordinates, equal or opposite."""
    return ((1.0 + sign * rho) / 4.0) ** i


def collision_from_words(n: int, words_a, words_b, rho: float) -> float:
    """P(X in A, Y in B) summed over every pair of words by distance."""
    aw = np.asarray(words_a, dtype=np.int64)
    bw = np.asarray(words_b, dtype=np.int64)
    counts = np.zeros(n + 1, dtype=np.int64)
    step = max(1, (1 << 22) // max(1, bw.size))
    for start in range(0, aw.size, step):
        block = np.bitwise_count(aw[start : start + step, None] ^ bw[None, :])
        counts += np.bincount(block.ravel(), minlength=n + 1)
    lo, hi = (1.0 - rho) / 4.0, (1.0 + rho) / 4.0
    return math.fsum(int(c) * lo**d * hi ** (n - d) for d, c in enumerate(counts) if c)


def parse_code_text(text: str) -> tuple[int, list[int]]:
    """``n=<dim>`` header then one 0/1 word per line, most significant first."""
    lines = text.split()
    if not lines or not lines[0].startswith("n="):
        raise ValueError(f"bad code text {text[:40]!r}")
    return int(lines[0][2:]), [int(line, 2) for line in lines[1:]]
