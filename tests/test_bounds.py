"""Closed-form bounds, instance normalization, and the certificate optimizer."""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

import nisim.bounds
from nisim import (
    collision_prob,
    combined_report,
    complement,
    hc_bounds,
    make_code,
    maximal_correlation_bounds,
    normalize_instance,
    star,
    subcube,
    symmetric_bounds,
    theorem1_bounds,
    theta_minus,
    theta_plus,
)
from nisim.bounds import _certificate, _certify, _hc_search
from nisim.cli import default_a_grid
from nisim.errors import NumericalConsistencyError, ParameterRangeError

from conftest import random_code


def apply_steps_to_codes(steps, code_a, code_b):
    """Mirror an instance normalization on explicit membership sets."""
    for step in steps:
        if step == "reflect-second-input":
            code_b = star(code_b)
        elif step == "complement-first":
            code_a = complement(code_a)
        elif step == "complement-second":
            code_b = complement(code_b)
        elif step == "swap":
            code_a, code_b = code_b, code_a
        else:
            raise AssertionError(f"unknown step {step}")
    return code_a, code_b


class TestNormalizeInstance:
    def test_already_normalized_is_untouched(self):
        a, b, rho, record = normalize_instance(0.2, 0.4, 0.7)
        assert (a, b, rho) == (0.2, 0.4, 0.7)
        assert record.steps == ()
        assert record.alpha == 1.0
        assert record.beta == 0.0

    def test_frozen_composite_case(self):
        a, b, rho, record = normalize_instance(0.7, 0.25, -0.4)
        assert abs(a - 0.25) <= 1e-15
        assert abs(b - 0.3) <= 1e-15
        assert rho == 0.4
        assert record.steps == (
            "reflect-second-input",
            "complement-first",
            "swap",
        )
        assert record.alpha == -1.0
        assert abs(record.beta - 0.25) <= 1e-15

    def test_output_always_normalized(self, rng):
        for _ in range(50):
            a = float(rng.uniform(0.01, 0.99))
            b = float(rng.uniform(0.01, 0.99))
            rho = float(rng.uniform(-1, 1))
            na, nb, nrho, _ = normalize_instance(a, b, rho)
            assert 0.0 <= na <= nb <= 0.5 + 1e-15
            assert 0.0 <= nrho <= 1.0

    def test_affine_map_tracks_explicit_codes(self, rng):
        for _ in range(30):
            n = 4
            code_a = random_code(rng, n)
            code_b = random_code(rng, n)
            rho = float(rng.uniform(-1, 1))
            a, b = code_a.density, code_b.density
            na, nb, nrho, record = normalize_instance(a, b, rho)
            if code_a.size == 16 or code_b.size == 16:
                continue
            norm_a, norm_b = apply_steps_to_codes(record.steps, code_a, code_b)
            assert abs(norm_a.density - na) <= 1e-12
            assert abs(norm_b.density - nb) <= 1e-12
            q_orig = collision_prob(code_a, code_b, rho)
            q_norm = collision_prob(norm_a, norm_b, nrho)
            assert abs(record.map_value(q_norm) - q_orig) <= 1e-12

    def test_map_interval_orders_endpoints(self):
        _, _, _, record = normalize_instance(0.7, 0.25, -0.4)
        lo, hi = record.map_interval(0.1, 0.2)
        assert lo <= hi
        assert abs(lo - (0.25 - 0.2)) <= 1e-15
        assert abs(hi - (0.25 - 0.1)) <= 1e-15


class TestThetaEnvelope:
    def test_balanced_values(self):
        for rho in (0.1, 0.5, 0.9):
            assert abs(theta_plus(0.5, rho) - (1 + rho) / 4) <= 1e-15
            assert abs(theta_minus(0.5, rho) - (1 - rho) / 4) <= 1e-15

    def test_order(self):
        for t in (0.05, 0.2, 0.5):
            for rho in (0.0, 0.3, 0.8, 1.0):
                lo = theta_minus(t, rho)
                hi = theta_plus(t, rho)
                assert 0.0 <= lo <= t * t <= hi <= t + 1e-15

    def test_perfect_correlation_reaches_density(self):
        for t in (0.1, 0.3, 0.5):
            assert abs(theta_plus(t, 1.0) - t) <= 1e-15
            assert theta_minus(t, 1.0) == 0.0

    def test_symmetric_bounds_are_the_envelope(self):
        for a in (0.125, 0.25, 0.5):
            for rho in (0.2, 0.6):
                lo, hi = symmetric_bounds(a, rho)
                assert lo == theta_minus(a, rho)
                assert hi == theta_plus(a, rho)


class TestTheorem1Bounds:
    def test_frozen_quarter_density(self):
        t = theorem1_bounds(0.25, 0.25, 0.5)
        assert t.upsilon1_lb == 0.0
        assert t.upsilon2_lb == 0.0
        assert abs(t.upsilon1_ub - 0.140625) <= 1e-15
        assert abs(t.upsilon2_ub - 0.140625) <= 1e-15

    def test_frozen_mild_correlation(self):
        t = theorem1_bounds(0.25, 0.25, 0.3)
        assert abs(t.upsilon1_lb - 0.01375) <= 1e-15
        assert abs(t.upsilon2_lb - 0.019375) <= 1e-15

    def test_balanced_case(self):
        for rho in (0.1, 0.5, 0.9):
            t = theorem1_bounds(0.5, 0.5, rho)
            assert abs(t.upsilon2_lb - (1 - rho) / 4) <= 1e-15
            assert abs(t.upsilon1_ub - (1 + rho) / 4) <= 1e-15
            assert abs(t.upsilon2_ub - (1 + rho) / 4) <= 1e-15

    def test_independent_case_collapses(self):
        t = theorem1_bounds(0.2, 0.3, 0.0)
        product = 0.2 * 0.3
        for value in t:
            assert abs(value - product) <= 1e-16

    def test_lower_bounds_incomparable(self):
        skew = theorem1_bounds(0.05, 0.45, 0.2)
        assert skew.upsilon1_lb > skew.upsilon2_lb + 1e-4
        even = theorem1_bounds(0.25, 0.25, 0.3)
        assert even.upsilon2_lb > even.upsilon1_lb + 1e-4

    def test_bounds_bracket_each_other(self, rng):
        for _ in range(50):
            a = float(rng.uniform(0.01, 0.5))
            b = float(rng.uniform(a, 0.5))
            rho = float(rng.uniform(0, 1))
            t = theorem1_bounds(a, b, rho)
            lb = max(t.upsilon1_lb, t.upsilon2_lb)
            ub = min(t.upsilon1_ub, t.upsilon2_ub)
            assert 0.0 <= lb <= ub <= min(a, b) + 1e-12

    def test_requires_normalized_input(self):
        with pytest.raises(ParameterRangeError):
            theorem1_bounds(0.6, 0.7, 0.5)
        with pytest.raises(ParameterRangeError):
            theorem1_bounds(0.4, 0.3, 0.5)
        with pytest.raises(ParameterRangeError):
            theorem1_bounds(0.3, 0.4, -0.5)


class TestMaximalCorrelationBounds:
    def test_balanced_frozen(self):
        assert maximal_correlation_bounds(0.5, 0.5, 0.5) == (0.125, 0.375)

    def test_general_form(self):
        a, b, rho = 0.25, 0.5, 0.4
        lo, hi = maximal_correlation_bounds(a, b, rho)
        dev = math.sqrt(a * (1 - a) * b * (1 - b)) * rho
        assert abs(lo - (a * b - dev)) <= 1e-15
        assert abs(hi - (a * b + dev)) <= 1e-15

    def test_clamped_to_sandwich(self):
        lo, hi = maximal_correlation_bounds(0.05, 0.05, 0.9)
        assert lo == 0.0
        assert hi <= 0.05

    def test_contains_theorem1_interval(self, rng):
        for _ in range(30):
            a = float(rng.uniform(0.02, 0.5))
            b = float(rng.uniform(a, 0.5))
            rho = float(rng.uniform(0, 1))
            mlo, mhi = maximal_correlation_bounds(a, b, rho)
            t = theorem1_bounds(a, b, rho)
            assert t.upsilon1_ub <= mhi + 1e-12

    def test_rejects_negative_rho(self):
        with pytest.raises(ParameterRangeError):
            maximal_correlation_bounds(0.3, 0.6, -0.8)


class TestHcBounds:
    def test_independent_case_is_exact(self):
        product = 0.2 * 0.4
        assert hc_bounds(0.2, 0.4, 0.0) == (product, product)

    def test_upper_bound_respects_achievable_points(self):
        for rho in (0.3, 0.6):
            lb, ub = hc_bounds(0.25, 0.25, rho)
            attain_hi = ((1 + rho) / 4) ** 2
            attain_lo = ((1 - rho) / 4) ** 2
            assert ub >= attain_hi - 1e-9
            assert lb <= attain_lo + 1e-9
            assert lb >= 0.0

    def test_balanced_case_matches_closed_form(self):
        lb, ub = hc_bounds(0.5, 0.5, 0.5)
        assert abs(lb - 0.125) <= 1e-4
        assert abs(ub - 0.375) <= 1e-4

    def test_perfect_correlation_is_exact_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hc_bounds(0.25, 0.25, 1.0) == (0.0, 0.25)
            assert hc_bounds(0.5, 0.5, 1.0) == (0.0, 0.5)
            assert hc_bounds(0.3, 0.9, 1.0) == (0.3 + 0.9 - 1.0, 0.3)
            assert hc_bounds(0.75, 0.5, 1.0) == (0.25, 0.5)

    def test_interval_ordered(self, rng):
        for _ in range(10):
            a = float(rng.uniform(0.05, 0.5))
            b = float(rng.uniform(a, 0.5))
            rho = float(rng.uniform(0.05, 0.95))
            lb, ub = hc_bounds(a, b, rho)
            assert 0.0 <= lb <= ub <= min(a, b) + 1e-9

    def test_coarse_config_still_valid(self, monkeypatch):
        monkeypatch.setattr(nisim.bounds, "_GRID_POINTS", 9)
        lb, ub = hc_bounds(0.25, 0.25, 0.5)
        # unequal densities take the three-dimensional search the setting shrinks
        skew_lb, skew_ub = hc_bounds(0.125, 0.25, 0.5)
        assert lb <= 0.140625 + 1e-9 <= ub + 2e-1
        assert ub >= 0.140625 - 1e-9
        assert skew_lb <= 0.0078125 and skew_ub >= 0.0703125

    def test_parameter_guards(self):
        with pytest.raises(ParameterRangeError):
            hc_bounds(0.0, 0.5, 0.5)
        for rho in (1.5, True, "0.5"):
            with pytest.raises(ParameterRangeError):
                hc_bounds(0.3, 0.4, rho)
        assert hc_bounds(0.3, 0.3, np.float64(0.5)) == hc_bounds(0.3, 0.3, 0.5)


def naive_certificate_60_digits(u, v, k, a, b, rho):
    """The certificate functional in its textbook form, in 60-digit decimal:
    (F_s F_t - 1)/((s-1)(t-1)) - a/(t-1) - b/(s-1) with s = e^u, t = e^v,
    F_s = (a s^k' + 1 - a)^(1/k'), F_t = (b t^k + 1 - b)^(1/k), k' = 1 + rho^2/(k-1)."""
    with localcontext() as ctx:
        ctx.prec = 60
        u, v, k, a, b, rho = (Decimal(x) for x in (u, v, k, a, b, rho))
        s, t = u.exp(), v.exp()
        kp = 1 + rho * rho / (k - 1)
        f_s = ((a * (kp * u).exp() + 1 - a).ln() / kp).exp()
        f_t = ((b * (k * v).exp() + 1 - b).ln() / k).exp()
        return (f_s * f_t - 1) / ((s - 1) * (t - 1)) - a / (t - 1) - b / (s - 1)


def achievable_pair_values(a, b, rho):
    """Agreement probabilities some pair of sets attains (in the limit of
    large n), as (low, high): opposite and nested subcubes when both
    densities are powers of two, else parallel Gaussian half-spaces
    P(X <= h_a, +-Y <= h_b) by Simpson's rule."""
    ka, kb = -math.log2(a), -math.log2(b)
    if ka.is_integer() and kb.is_integer():
        common, extra = min(ka, kb), abs(ka - kb)
        return ((1 - rho) / 4) ** common / 2**extra, ((1 + rho) / 4) ** common / 2**extra
    normal = NormalDist()
    h_a, h_b = normal.inv_cdf(a), normal.inv_cdf(b)

    def joint(r, steps=2000):
        lo = -12.0
        width = (h_a - lo) / steps
        f = lambda x: normal.pdf(x) * normal.cdf((h_b - r * x) / math.sqrt(1 - r * r))
        inner = sum((4 if i % 2 else 2) * f(lo + i * width) for i in range(1, steps))
        return (f(lo) + f(h_a) + inner) * width / 3

    return joint(-rho), joint(rho)


class TestCertificateFunctional:
    @pytest.mark.parametrize(
        "u, v, k",
        [
            (2e-4, -2.1e-4, 3.0),  # next to the excluded band: the naive form cancels
            (2.1e-4, 1.9e-4, 0.4),
            (2.0, 0.5, 1.0005),  # kappa' u = 1002: e^(kappa' u) overflows a float
            (0.9, 1.0, 60.0),  # kappa v = 60
            (0.7, -0.4, 0.75 + 1e-10),  # kappa near 1 - rho^2, so kappa' near 0
            (0.3, -0.5, 2.0),
        ],
    )
    def test_matches_sixty_digit_naive_formula(self, u, v, k):
        a, b, rho = 0.25, 0.3, 0.5
        want = float(naive_certificate_60_digits(u, v, k, a, b, rho))
        got = float(_certificate(u, v, k, a, b, rho))
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_certified_value_is_rounded_outward(self, rng):
        """Up on the upper side and down on the lower side of the 60-digit
        value, by at most a few units in the last place."""
        a, b, rho = 0.25, 0.3, 0.5
        hard = [(2e-4, -2.1e-4, 3.0), (2.1e-4, 1.9e-4, 0.4), (2.0, 0.5, 1.0005), (0.7, -0.4, 0.75 + 1e-10)]
        drawn = [
            (float(u), float(v), float(k))
            for u, v, k in zip(rng.uniform(-5, 5, 40), rng.uniform(-5, 5, 40), rng.uniform(0.01, 4, 40))
        ]
        for u, v, k in hard + drawn:
            side = 1.0 if u * v * (k - 1.0) > 0 else -1.0
            want = naive_certificate_60_digits(u, v, k, a, b, rho)
            got = _certify(u, v, k, a, b, rho, side)
            assert (Decimal(got) >= want) if side > 0 else (Decimal(got) <= want), (u, v, k)
            assert abs(got - float(want)) <= 1e-15 * abs(float(want)), (u, v, k)
            with pytest.raises(NumericalConsistencyError, match="is not on the"):
                _certify(u, v, k, a, b, rho, -side)

    def test_certify_refuses_a_point_without_a_value(self):
        # kappa = 1 - rho^2 makes kappa' exactly 0
        with pytest.raises(NumericalConsistencyError, match="no finite value"):
            _certify(0.7, -0.4, 0.75, 0.25, 0.3, 0.5, 1.0)


# hc_bounds(a, b, rho) as the scalar pattern search computed it before the
# grid and the refinement shared one array evaluator: (a, b, rho, lb, ub).
# The last two rows hold the values of the search in log coordinates: the
# first is the benchmark instance it tightened most, the second needs the
# floor on |kappa - 1| to scale with rho^2 (a fixed floor of 1e-4 is looser
# there by 2.9e-8).
PINNED_HC_BOUNDS = (
    (0.02, 0.02, 0.1, 0.00016840544230889548, 0.000811997394080575),
    (0.02, 0.02, 0.5, 0.0, 0.005384003391949923),
    (0.02, 0.02, 0.9, 0.0, 0.016233035238948285),
    (0.03125, 0.03125, 0.1, 0.0004550351247561878, 0.0018249423029717366),
    (0.03125, 0.03125, 0.5, 0.0, 0.009726839205962904),
    (0.03125, 0.03125, 0.9, 0.0, 0.02594001761872663),
    (0.0625, 0.0625, 0.1, 0.002135652718174444, 0.00640958669470694),
    (0.0625, 0.0625, 0.5, 1.7284292033257683e-05, 0.024310160227467327),
    (0.0625, 0.0625, 0.9, 0.0, 0.05368823735985246),
    (0.125, 0.125, 0.1, 0.010065970290177452, 0.02245597125918672),
    (0.125, 0.125, 0.5, 0.00031249999999922236, 0.060530155647129213),
    (0.125, 0.125, 0.9, 0.0, 0.11103031093026872),
    (0.25, 0.25, 0.1, 0.04767052241670224, 0.07848756119264942),
    (0.25, 0.25, 0.5, 0.006249999999977945, 0.15029689449066058),
    (0.25, 0.25, 0.9, 0.0, 0.22950753514374847),
    (0.5, 0.5, 0.1, 0.22499999999138803, 0.27500000000951264),
    (0.5, 0.5, 0.5, 0.12499999996171887, 0.3750000000385329),
    (0.5, 0.5, 0.9, 0.024999999983285042, 0.4750000000176019),
    (0.125, 0.25, 0.5, 0.001470536046920197, 0.09023141246561396),
    (0.0625, 0.5, 0.3, 0.011106214150045556, 0.051393785849954444),
    (0.25164401947216597, 0.3962280496304686, 0.5456409981732933,
     0.01337674584982901, 0.2062690001942782),
    (0.3, 0.99, 1e-6, 0.29699998689586576, 0.29700001310411034),
)


class TestPinnedHcBounds:
    def test_matches_or_tightens_pinned_values(self):
        for a, b, rho, old_lb, old_ub in PINNED_HC_BOUNDS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lb, ub = hc_bounds(a, b, rho)
            low, high = achievable_pair_values(a, b, rho)
            assert abs(lb - old_lb) <= 1e-9 or old_lb < lb <= low + 1e-12, (a, b, rho, lb)
            assert abs(ub - old_ub) <= 1e-9 or high - 1e-12 <= ub < old_ub, (a, b, rho, ub)


class TestRidgeSearch:
    def test_never_looser_than_the_three_dimensional_search(self):
        """Equal densities on a sample of the panel of 40 densities in
        [0.005, 0.5] and rho in {0.05, ..., 0.95, 0.99}."""
        for a in np.geomspace(0.005, 0.5, 40)[::4].tolist():
            for rho in (0.05, 0.3, 0.6, 0.9, 0.99):
                lb, ub = hc_bounds(a, a, rho)
                upper, lower = _hc_search(a, a, rho)
                search_ub = min(_certify(*upper, a, a, rho, 1.0), a)
                search_lb = min(max(_certify(*lower, a, a, rho, -1.0), 0.0), a)
                assert ub <= search_ub + 1e-9, (a, rho, ub, search_ub)
                assert lb >= search_lb - 1e-9, (a, rho, lb, search_lb)

    def test_default_grid_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rho in (0.1, 0.5, 0.9):
                for a in default_a_grid():
                    lb, ub = hc_bounds(a, a, rho)
                    assert 0.0 <= lb <= ub <= a

    def test_subcube_values_are_bracketed_exactly(self):
        """At a = b = 2^-i the nested and the opposite subcubes attain
        ((1 +- rho)/4)^i; the bounds hold them in exact arithmetic."""
        for i in range(1, 6):
            for rho in (0.1, 0.5, 0.9):
                lb, ub = hc_bounds(0.5**i, 0.5**i, rho)
                assert Fraction(ub) >= ((1 + Fraction(rho)) / 4) ** i, (i, rho, ub)
                assert Fraction(lb) <= ((1 - Fraction(rho)) / 4) ** i, (i, rho, lb)

    def test_complementary_densities_take_the_ridge(self, monkeypatch):
        """(0.3, 0.7) normalizes to densities 0.3 and 1 - 0.7, which differ in
        the last bit; they still count as equal."""

        def no_search(*args):
            raise AssertionError("the three-dimensional search ran")

        monkeypatch.setattr(nisim.bounds, "_hc_search", no_search)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = combined_report(0.3, 0.7, 0.4)
        assert rep.transform.steps == ("complement-second",)
        assert rep.a == 0.3 and rep.b == 1.0 - 0.7
        assert 0.0 <= rep.hc_lb <= rep.hc_ub <= rep.a
        assert rep.warnings == ()

    def test_grid_layers_stay_in_kappa_range(self, monkeypatch):
        scored = []
        scores = nisim.bounds._scores

        def spy(u, v, z, branch, sign, a, b, rho):
            if np.ndim(z) == 3:  # a grid call, not a sweep
                scored.append(1.0 + branch * np.exp(z[0, 0]))
            return scores(u, v, z, branch, sign, a, b, rho)

        monkeypatch.setattr(nisim.bounds, "_scores", spy)
        hc_bounds(0.2, 0.3, 0.5)
        assert len(scored) == 2
        for kappa in scored:
            assert np.all((kappa >= nisim.bounds._KAPPA_MIN) & (kappa <= nisim.bounds._KAPPA_MAX))
        assert len(scored[0]) == nisim.bounds._GRID_POINTS - 1  # kappa > 1 loses its top layer


class TestCombinedReport:
    def test_interval_well_formed_across_grid(self):
        for a in (0.1, 0.35, 0.75, 1.0):
            for b in (0.2, 0.5, 0.9):
                for rho in (-0.7, 0.0, 0.4):
                    rep = combined_report(a, b, rho)
                    lo_sandwich = max(0.0, a + b - 1.0)
                    hi_sandwich = min(a, b)
                    assert lo_sandwich - 1e-12 <= rep.combined_lb
                    assert rep.combined_lb <= rep.combined_ub + 1e-9
                    assert rep.combined_ub <= hi_sandwich + 1e-12

    def test_full_density_pins_the_answer(self):
        """A set of density 0 or 1 forces the agreement probability to 0 or
        to the other density, in either order and at every correlation."""
        for edge in (0.0, 1.0):
            for b in (0.3, 0.5):
                for rho in (-1.0, 0.0, 0.3, 1.0):
                    forced = edge * b
                    for pair in ((edge, b), (b, edge)):
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            rep = combined_report(*pair, rho)
                        assert rep.combined_lb == rep.combined_ub == forced, (pair, rho)
                        assert rep.warnings == (
                            "degenerate marginal: agreement probability is determined exactly",
                        )

    def test_independent_case_pins_the_answer(self):
        rep = combined_report(0.3, 0.8, 0.0)
        assert abs(rep.combined_lb - 0.24) <= 1e-12
        assert abs(rep.combined_ub - 0.24) <= 1e-12

    def test_report_carries_normalization(self):
        rep = combined_report(0.5, 0.25, -0.6)
        assert rep.transform.steps == ("reflect-second-input", "swap")
        assert rep.original_a == 0.5
        assert rep.original_rho == -0.6
        assert (rep.a, rep.b) == (0.25, 0.5)
        assert rep.rho == 0.6

    def test_raw_holds_prenormalized_interval(self):
        rep = combined_report(0.25, 0.25, 0.5)
        assert "combined_lb_normalized" in rep.raw
        assert "combined_ub_original" in rep.raw

    def test_symmetric_point_value(self):
        rep = combined_report(0.25, 0.25, 0.5)
        assert abs(rep.combined_ub - 0.140625) <= 1e-12
        assert rep.combined_lb <= 0.00625 + 1e-9
