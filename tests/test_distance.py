"""Distance histograms, dual weights, transform pairs, and rate bounds."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import nisim.distance
from nisim import (
    chang_bound,
    collision_prob,
    complement,
    cross_distance_bounds,
    distance_distribution,
    distance_enumerator,
    distance_moment,
    dual_distribution,
    dual_enumerator,
    fwht,
    fwy_lower_bound,
    hamming_ball,
    macwilliams_forward,
    macwilliams_inverse,
    make_code,
    psi,
    psi_bound,
    star,
    subcube,
)
from nisim.codes import MAX_TRANSFORM_DIM
from nisim.distance import (
    _counted_pairwise,
    _krawtchouk,
    _pairwise_counts,
    _psi_objective,
    _transform_counts,
)
from nisim.errors import (
    DimensionMismatchError,
    DimensionRangeError,
    NumericalConsistencyError,
    ParameterRangeError,
)

from conftest import (
    brute_distance_distribution,
    brute_dual_distribution,
    random_code,
)


class TestDistanceDistribution:
    def test_matches_reference_loop(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = random_code(rng, n)
            b = random_code(rng, n)
            got = distance_distribution(a, b)
            ref = brute_distance_distribution(a, b)
            assert np.allclose(got.p, ref, atol=1e-13)

    @pytest.mark.parametrize("n", [63, 64])
    def test_pairwise_at_the_widest_words(self, rng, n):
        """Words at and above 2^63 are counted like any other."""
        top = (1 << n) - 1
        edges = [0, 1 << (n - 1), top, top ^ 1]
        drawn = [int(w) for w in rng.integers(0, 1 << 62, 20, dtype=np.int64)]
        a = make_code(n, edges + [w << (n - 62) for w in drawn[:10]])
        b = make_code(n, edges[1:] + [top - w for w in drawn[10:]])
        for x, y in ((a, b), (a, a), (b, a)):
            assert distance_distribution(x, y).p == tuple(brute_distance_distribution(x, y))

    def test_self_distribution_default(self):
        code = make_code(2, [0, 3])
        dist = distance_distribution(code)
        assert dist.p == (0.5, 0.0, 0.5)

    def test_both_count_paths_agree(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 9))
            a = random_code(rng, n)
            b = random_code(rng, n)
            pw = _pairwise_counts(a, b)
            tr = _transform_counts(a, b)
            assert np.array_equal(pw, tr)

    @pytest.mark.parametrize("n, m", [(8, 256), (12, 256), (16, 4096)])
    def test_path_choice_by_cost(self, rng, monkeypatch, n, m):
        """At most max(n 2^n / 8, 2^13) pairs are counted pairwise, one more
        goes through the transform; both give the exact counts of a double loop."""
        used = []
        for fn in (_pairwise_counts, _transform_counts):
            spy = lambda a, b, fn=fn: used.append(fn.__name__) or fn(a, b)
            monkeypatch.setattr(f"nisim.distance.{fn.__name__}", spy)
        threshold = max(n << n >> 3, 1 << 13)
        code_a = random_code(rng, n, size=m)
        sides = ((threshold // m, "_pairwise_counts"), (threshold // m + 1, "_transform_counts"))
        for size_b, path in sides:
            code_b = random_code(rng, n, size=size_b)
            used.clear()
            got = distance_distribution(code_a, code_b)
            assert used == [path]
            assert got.p == tuple(brute_distance_distribution(code_a, code_b))

    def test_non_integer_level_sum_is_caught(self, rng, monkeypatch):
        """One transform product off by 0.6 leaves its level sum off the
        integers, which exact arithmetic never does."""
        transforms = []

        def skewed(values):
            out = fwht(values)
            transforms.append(out)
            if len(transforms) == 2:
                out[0b11111] += 0.6 / transforms[0][0b11111]  # weight 5
            return out

        monkeypatch.setattr(nisim.distance, "fwht", skewed)
        a = random_code(rng, 12, size=512)
        b = random_code(rng, 12, size=512)
        assert fwht(a.indicator())[0b11111] != 0
        with pytest.raises(NumericalConsistencyError, match="not all integers"):
            distance_distribution(a, b)

    def test_indivisible_count_is_caught(self, rng, monkeypatch):
        """Level sums off by +1 and -1 at two weights keep the count total,
        L_0, but leave a count that 2^n does not divide."""
        products = nisim.distance._level_products

        def skewed(a, b):
            levels = products(a, b)
            levels[5] += 1.0
            levels[6] -= 1.0
            return levels

        monkeypatch.setattr(nisim.distance, "_level_products", skewed)
        a = random_code(rng, 12, size=512)
        b = random_code(rng, 12, size=512)
        with pytest.raises(NumericalConsistencyError, match="not all multiples"):
            distance_distribution(a, b)

    def test_coefficient_off_by_2n_is_caught(self, rng, monkeypatch):
        """A's transform off by 2^n at one weight-1 mask moves L_1 by 2^n F_B(mask).
        The counts stay integers, divisible by 2^n, with total |A| |B|; only the
        Parseval total 2^n |A & B| sees the fault, on every output that reads the
        level sums."""
        n = 12
        a = random_code(rng, n, size=512)
        b = random_code(rng, n, size=512)
        assert not _counted_pairwise(a, b)
        mask = next(1 << i for i in range(n) if fwht(b.indicator())[1 << i] != 0)
        first = a.indicator()

        def skewed(values):
            out = fwht(values)
            if np.array_equal(values, first):
                out[mask] += 1 << n
            return out

        monkeypatch.setattr(nisim.distance, "fwht", skewed)
        message = f"do not total 2\\^{n} \\|A & B\\|"
        collision = lambda x, y: collision_prob(x, y, 0.5)
        for call in (distance_distribution, dual_distribution, collision):
            with pytest.raises(NumericalConsistencyError, match=message):
                call(a, b)

    def test_moments(self):
        code = subcube(3, 1)
        dist = distance_distribution(code, complement(code))
        assert distance_moment(dist, 0) == 1.0
        avg = distance_moment(dist, 1)
        assert abs(avg - 2.0) <= 1e-14
        assert distance_moment(dist, 2) >= avg**2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            distance_distribution(make_code(2, [0]), make_code(3, [0]))

    def test_enumerator_values(self):
        code = make_code(2, [0, 3])
        dist = distance_distribution(code)
        assert abs(distance_enumerator(dist, 1.0) - 1.0) <= 1e-15
        assert abs(distance_enumerator(dist, 0.0) - 0.5) <= 1e-15
        assert abs(distance_enumerator(dist, 2.0) - 2.5) <= 1e-15
        with pytest.raises(ParameterRangeError):
            distance_enumerator(dist, -0.5)


class TestKrawtchoukCounts:
    @pytest.mark.parametrize("n", range(1, 25))
    def test_table_identities(self, n):
        """K K = 2^n I, K_d(0) = C(n, d), and the columns sum to 2^n [k = 0]."""
        K = _krawtchouk(n)
        for d in range(n + 1):
            for j in range(n + 1):
                assert sum(K[d][k] * K[k][j] for k in range(n + 1)) == (d == j) << n
            assert K[d][0] == math.comb(n, d)
        for k in range(n + 1):
            assert sum(K[d][k] for d in range(n + 1)) == (k == 0) << n

    def test_level_sums_stay_exact_at_the_transform_limit(self):
        """Parseval bounds the absolute transform products of two {-1, 0, 1}
        tables by 4^n in total, which must stay below float's 2^53."""
        assert 4**MAX_TRANSFORM_DIM < 2**53

    def test_full_cube_meets_the_parseval_bound(self):
        """The full cube's only product is 4^n, at the empty mask."""
        n = 20
        cube = subcube(n, 0)
        counts = _transform_counts(cube, cube)
        assert counts.tolist() == [math.comb(n, d) << n for d in range(n + 1)]

    def test_subcube_against_a_ball(self):
        """subcube(18, 1) is invariant under flipping any coordinate but the
        first, so a ball word y sees it as the word y & 1 does: the pairwise
        counts of those two single words, weighted by how many ball words
        share them, are the full 2^17 x 63004 pairwise counts."""
        n = 18
        cube, ball = subcube(n, 1), hamming_ball(n, 0, 7)
        odd = int(np.count_nonzero(ball.word_array() & np.uint64(1)))
        pairwise = sum(
            share * _pairwise_counts(cube, make_code(n, [word]))
            for word, share in ((0, ball.size - odd), (1, odd))
        )
        assert np.array_equal(_transform_counts(cube, ball), pairwise)


class TestDualDistribution:
    def test_matches_reference_character_sums(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            a = random_code(rng, n)
            b = random_code(rng, n)
            got = dual_distribution(a, b)
            ref = brute_dual_distribution(a, b)
            assert np.allclose(got.q, ref, atol=1e-9)

    def test_zero_level_is_one(self, rng):
        for _ in range(10):
            code = random_code(rng, 5)
            assert abs(dual_distribution(code).q[0] - 1.0) <= 1e-12

    def test_self_dual_is_nonnegative_with_known_mass(self, rng):
        for _ in range(10):
            code = random_code(rng, 5)
            dual = dual_distribution(code)
            assert min(dual.q) >= -1e-12
            total = sum(dual.q)
            expected = (1 << code.n) / code.size
            assert abs(total - expected) <= 1e-9

    @pytest.mark.parametrize("n", [8, 12])
    def test_product_off_by_four_is_caught(self, rng, monkeypatch, n):
        """A zero transform coefficient at weight 3 set to 2 makes its squared
        product 4, so a self pair's level sums no longer total 2^n |A| (Parseval)."""
        a = random_code(rng, n, size=100)
        coeffs = fwht(a.indicator())
        mask = next(s for s in range(1 << n) if s.bit_count() == 3 and coeffs[s] == 0)

        def skewed(values):
            out = fwht(values)
            out[mask] += 2.0
            return out

        monkeypatch.setattr(nisim.distance, "fwht", skewed)
        with pytest.raises(NumericalConsistencyError, match=f"total 2\\^{n} \\|A & B\\|"):
            dual_distribution(a, a)

    def test_dual_enumerator_at_one_accumulates_all_mass(self):
        code = subcube(4, 2)
        dual = dual_distribution(code)
        assert abs(dual_enumerator(dual, 1.0) - sum(dual.q)) <= 1e-12


class TestMacwilliams:
    def test_forward_identity(self, rng):
        for _ in range(15):
            a = random_code(rng, 5)
            b = random_code(rng, 5)
            for z in (0.0, 0.2, 1.0, 3.0):
                lhs, rhs = macwilliams_forward(a, b, z)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_inverse_identity(self, rng):
        for _ in range(15):
            a = random_code(rng, 5)
            b = random_code(rng, 5)
            for z in (0.0, 0.2, 1.0, 3.0):
                lhs, rhs = macwilliams_inverse(a, b, z)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_round_trip_through_both_directions(self, rng):
        a = random_code(rng, 6)
        b = random_code(rng, 6)
        for z in (0.1, 0.5, 0.9):
            w = (1 - z) / (1 + z)
            assert abs((1 - w) / (1 + w) - z) <= 1e-12
            fl, fr = macwilliams_forward(a, b, z)
            il, ir = macwilliams_inverse(a, b, w)
            assert abs(fl - fr) <= 1e-9 * max(1.0, abs(fl))
            assert abs(il - ir) <= 1e-9 * max(1.0, abs(il))


class TestStructuralIdentities:
    def test_complement_average_distance(self, rng):
        for _ in range(10):
            code = random_code(rng, 5)
            if code.size == 1 << code.n:
                continue
            other = random_code(rng, 5)
            d_ab = distance_moment(distance_distribution(other, code), 1)
            d_abc = distance_moment(
                distance_distribution(other, complement(code)), 1
            )
            a = code.density
            combined = a * d_ab + (1 - a) * d_abc
            assert abs(combined - code.n / 2) <= 1e-12

    def test_star_reflects_average_distance(self, rng):
        for _ in range(10):
            a = random_code(rng, 5)
            b = random_code(rng, 5)
            d = distance_moment(distance_distribution(a, b), 1)
            d_star = distance_moment(distance_distribution(a, star(b)), 1)
            assert abs(d + d_star - a.n) <= 1e-12

    def test_star_reverses_distribution(self, rng):
        a = random_code(rng, 4)
        b = random_code(rng, 4)
        p = distance_distribution(a, b).p
        p_star = distance_distribution(a, star(b)).p
        assert np.allclose(p, p_star[::-1], atol=1e-15)


class TestAverageDistanceBounds:
    def test_frozen_band(self):
        band = cross_distance_bounds(4, 0.25, 0.5)
        assert abs(band.lower - (2.0 - math.sqrt(2) / 2)) <= 1e-12
        assert abs(band.upper - (2.0 + math.sqrt(2) / 2)) <= 1e-12

    def test_band_clamped_to_valid_range(self):
        band = cross_distance_bounds(1, 0.5, 0.5)
        assert band.lower >= 0.0
        assert band.upper <= 1.0

    def test_parameter_guards(self):
        with pytest.raises(ParameterRangeError):
            cross_distance_bounds(4, 0.0, 0.5)
        with pytest.raises(ParameterRangeError):
            cross_distance_bounds(4, 0.5, 1.5)
        for n in (True, 4.0, 4.5):
            with pytest.raises(DimensionRangeError):
                cross_distance_bounds(n, 0.25, 0.5)
        band = cross_distance_bounds(np.int64(4), 0.25, 0.5)
        assert band == cross_distance_bounds(4, 0.25, 0.5)
        assert type(band.n) is int and type(band.lower) is float and type(band.upper) is float

    def test_floor_values(self):
        assert abs(fwy_lower_bound(3, 0.5) - 1.0) <= 1e-15
        assert abs(fwy_lower_bound(4, 0.25) - 1.0) <= 1e-15
        assert fwy_lower_bound(1, 0.5) == 0.0

    def test_floor_never_beats_band(self):
        for n in (2, 4, 8):
            for a in (0.05, 0.25, 0.5):
                floor = fwy_lower_bound(n, a)
                band = cross_distance_bounds(n, a, a)
                assert floor <= band.lower + 1e-12


class TestRateBounds:
    def test_chang_frozen_value(self):
        assert abs(chang_bound(4, 0.25) - (2.0 - math.log(4.0))) <= 1e-12

    def test_chang_clamps_at_zero(self):
        assert chang_bound(2, 0.05) == 0.0

    def test_chang_full_density(self):
        assert chang_bound(6, 1.0) == 3.0

    def test_psi_limits(self):
        assert psi(0.5) <= 0.5 + 1e-9
        assert psi(0.5) >= 0.49
        assert psi(0.999) <= math.log(1 / 0.999) + 1e-9

    def test_psi_objective_matches_60_digit_decimal(self):
        """The functional (1 + a eps)(a t u - (1 + a eps) ln(1 + a eps)) / (a eps)^2,
        t = e^u, eps = t - 1, in 60-digit decimal, on both sides of u = 0 from
        1e-8 to 14: the raw float form cancels for |eps| just above 1e-5."""

        def reference(a, u):
            with localcontext() as ctx:
                ctx.prec = 60
                a, u = Decimal(a), Decimal(u)
                t = u.exp()
                eps = t - 1
                g = a * t * u - (1 + a * eps) * (1 + a * eps).ln()
                return (1 + a * eps) * g / (a * eps) ** 2

        worst = 0.0
        for a in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            for mag in np.logspace(-8, math.log10(14.0), 120):
                for u in (float(mag), -float(mag)):
                    ref = reference(a, u)
                    worst = max(worst, float(abs((Decimal(_psi_objective(a, u)) - ref) / ref)))
        assert worst <= 1e-12
        assert _psi_objective(0.3, 0.0) == (1.0 - 0.3) / (2.0 * 0.3)

    def test_psi_half_density_not_below_half(self):
        """psi(1/2) = 1/2, so psi_bound(4, 1/2) must not pass 3/2, the average
        self-distance of the half cube."""
        assert psi(0.5) >= 0.5 - 1e-15
        assert psi_bound(4, 0.5) <= 1.5

    def test_psi_matches_dense_scan(self):
        for a in (0.1, 0.37, 0.5, 0.8):
            grid = np.linspace(-14.0, 14.0, 200001)
            dense = min(_psi_objective(a, float(u)) for u in grid)
            assert abs(psi(a) - dense) <= 1e-6

    def test_psi_monotone_decreasing_in_a(self):
        values = [psi(a) for a in (0.1, 0.2, 0.35, 0.5, 0.75, 0.9)]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_psi_bound_dominates_chang(self):
        for n in (2, 4, 8, 16):
            for a in (0.05, 0.2, 0.35, 0.5):
                assert psi_bound(n, a) >= chang_bound(n, a) - 1e-12

    def test_psi_bound_full_density(self):
        assert abs(psi_bound(4, 1.0) - 2.0) <= 1e-9

    def test_guards(self):
        with pytest.raises(ParameterRangeError):
            psi(0.0)
        with pytest.raises(ParameterRangeError):
            psi(1.0)
        with pytest.raises(ParameterRangeError):
            chang_bound(4, 0.0)


class TestHammingBallShapes:
    def test_ball_distribution_mass(self):
        ball = hamming_ball(6, 0, 2)
        dist = distance_distribution(ball)
        assert abs(sum(dist.p) - 1.0) <= 1e-12
        assert max(dist.p[5:]) <= 1e-15
