"""Exhaustive and heuristic searches for extremal code pairs."""

import json
import math

import pytest

from nisim import (
    canonical_pair,
    collision_prob,
    construction_value,
    distance_distribution,
    distance_moment,
    exhaustive_distance_extremes,
    exhaustive_extremes,
    hamming_ball,
    local_search,
    make_code,
    subcube,
)
from nisim.errors import (
    DimensionRangeError,
    ParameterRangeError,
    SearchBudgetError,
)
from nisim.oracle import _orbit_reps

from conftest import brute_extremes_no_symmetry, brute_orbit_minima


class TestExhaustiveCollision:
    def test_matches_reference_enumeration_at_n2(self, extremes_cache):
        for m in range(1, 5):
            for n_second in range(1, 5):
                for rho in (0.3, 0.7):
                    ref_min, ref_max = brute_extremes_no_symmetry(
                        2, m, n_second, rho
                    )
                    res = extremes_cache(2, m, n_second, rho)
                    assert abs(res.max_q - ref_max) <= 1e-12
                    assert abs(res.min_q - ref_min) <= 1e-12

    def test_witnesses_reproduce_reported_values(self, extremes_cache):
        for n, m, n_second, rho in (
            (2, 2, 2, 0.5),
            (3, 2, 6, 0.3),
            (4, 4, 4, 0.9),
            (3, 5, 3, 0.7),
        ):
            res = extremes_cache(n, m, n_second, rho)
            wa, wb = res.witness_max
            assert abs(collision_prob(wa, wb, rho) - res.max_q) <= 1e-12
            wa, wb = res.witness_min
            assert abs(collision_prob(wa, wb, rho) - res.min_q) <= 1e-12

    def test_witnesses_are_jointly_canonical(self, extremes_cache):
        res = extremes_cache(3, 3, 5, 0.5)
        for pair in (res.witness_max, res.witness_min):
            canon = canonical_pair(*pair)
            assert canon[0].words == pair[0].words
            assert canon[1].words == pair[1].words

    def test_witness_sizes_respect_request(self, extremes_cache):
        res = extremes_cache(3, 3, 5, 0.5)
        assert res.witness_max[0].size == 3
        assert res.witness_max[1].size == 5

    def test_full_cube_forces_constant_objective(self):
        res = exhaustive_extremes(3, 8, 4, 0.5)
        assert res.max_q == res.min_q == 0.5

    def test_negative_rho_supported(self):
        res = exhaustive_extremes(2, 2, 2, -0.5)
        mirror = exhaustive_extremes(2, 2, 2, 0.5)
        assert abs(res.max_q - mirror.max_q) <= 1e-12
        assert abs(res.min_q - mirror.min_q) <= 1e-12

    def test_monotone_in_dimension_at_fixed_densities(self, extremes_cache):
        for rho in (0.3, 0.7):
            q2 = extremes_cache(2, 2, 1, rho).max_q
            q3 = extremes_cache(3, 4, 2, rho).max_q
            q4 = extremes_cache(4, 8, 4, rho).max_q
            assert q2 <= q3 + 1e-12
            assert q3 <= q4 + 1e-12

    def test_result_counts_are_plausible(self, extremes_cache):
        res = extremes_cache(3, 3, 5, 0.5)
        assert res.exhaustive
        assert res.orbits_enumerated >= 1
        assert res.pairs_evaluated >= math.comb(8, 5)

    def test_budget_refusal_is_immediate(self):
        with pytest.raises(SearchBudgetError) as err:
            exhaustive_extremes(5, 4, 4, 0.5)
        assert "local" in str(err.value)

    def test_parameter_guards(self):
        with pytest.raises(ParameterRangeError):
            exhaustive_extremes(3, 9, 4, 0.5)
        with pytest.raises(ParameterRangeError):
            exhaustive_extremes(3, 0, 4, 0.5)
        with pytest.raises(ParameterRangeError):
            exhaustive_extremes(3, 4, 4, 1.5)


class TestOrbitRepresentatives:
    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in (1, 2, 3) for m in range(1, (1 << n) + 1)] + [(4, 4), (4, 8)]
    )
    def test_match_brute_force_orbit_minima(self, n, m):
        assert _orbit_reps(n, m) == brute_orbit_minima(n, m)


class TestExhaustiveDistance:
    def test_matches_reference_enumeration_at_n2(self):
        from itertools import combinations

        for m in (1, 2, 3):
            for n_second in (1, 2, 3):
                best_max, best_min = -1.0, 99.0
                for wa in combinations(range(4), m):
                    for wb in combinations(range(4), n_second):
                        ca = make_code(2, wa)
                        cb = make_code(2, wb)
                        d = distance_moment(distance_distribution(ca, cb), 1)
                        best_max = max(best_max, d)
                        best_min = min(best_min, d)
                res = exhaustive_distance_extremes(2, m, n_second)
                assert abs(res.max_d - best_max) <= 1e-12
                assert abs(res.min_d - best_min) <= 1e-12

    def test_witnesses_reproduce_values(self):
        res = exhaustive_distance_extremes(3, 3, 4)
        wa, wb = res.witness_min
        d = distance_moment(distance_distribution(wa, wb), 1)
        assert abs(d - res.min_d) <= 1e-12

    def test_objective_field(self):
        res = exhaustive_distance_extremes(2, 2, 2)
        assert res.objective == "distance"
        assert res.rho is None
        assert res.max_q is None


class TestResultSerialization:
    def test_json_dict_round_trips_and_hides_timing(self):
        res = exhaustive_extremes(3, 2, 2, 0.5)
        d = res.to_json_dict()
        assert "wall_time_s" not in d
        text = json.dumps(d, sort_keys=True)
        again = json.loads(text)
        assert again["max_q"] == res.max_q
        assert again["witness_max"]["first"].startswith("n=3\n")

    def test_two_runs_serialize_identically(self):
        a = exhaustive_extremes(3, 3, 3, 0.3).to_json_dict()
        b = exhaustive_extremes(3, 3, 3, 0.3).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestLocalSearch:
    def test_reproducible_for_fixed_seed(self):
        a = local_search(6, 8, 8, 0.5, direction="max", seed=7, iters=5)
        b = local_search(6, 8, 8, 0.5, direction="max", seed=7, iters=5)
        assert a.max_q == b.max_q
        assert a.witness_max[0].words == b.witness_max[0].words

    def test_never_worse_than_subcube_start(self):
        for rho in (0.3, 0.8):
            res = local_search(6, 16, 16, rho, direction="max", seed=1, iters=4)
            floor = construction_value("symmetric-subcube", 6, 2, rho)
            assert res.max_q >= floor - 1e-12

    def test_never_better_than_exhaustive_optimum(self, extremes_cache):
        truth = extremes_cache(4, 4, 4, 0.5)
        res = local_search(4, 4, 4, 0.5, direction="max", seed=3, iters=6)
        assert res.max_q <= truth.max_q + 1e-12
        res_min = local_search(4, 4, 4, 0.5, direction="min", seed=3, iters=6)
        assert res_min.min_q >= truth.min_q - 1e-12

    def test_finds_exact_optimum_on_small_instance(self, extremes_cache):
        truth = extremes_cache(4, 8, 8, 0.5)
        res = local_search(4, 8, 8, 0.5, direction="max", seed=0, iters=8)
        assert abs(res.max_q - truth.max_q) <= 1e-12

    def test_not_exhaustive_flag(self):
        res = local_search(5, 6, 6, 0.4, direction="max", seed=0, iters=2)
        assert not res.exhaustive
        assert res.witness_max is not None
        assert res.min_q is None

    def test_min_direction_populates_min_fields(self):
        res = local_search(5, 4, 4, 0.4, direction="min", seed=0, iters=2)
        assert res.min_q is not None
        assert res.max_q is None

    def test_guards(self):
        with pytest.raises(ParameterRangeError):
            local_search(3, 4, 4, 0.5, direction="sideways")
        with pytest.raises(ParameterRangeError):
            local_search(3, 4, 4, 0.5, iters=-1)
        with pytest.raises(DimensionRangeError):
            local_search(17, 4, 4, 0.5)

    def test_zero_iters_returns_construction_start(self):
        res = local_search(3, 4, 4, 0.5, direction="max", seed=0, iters=0)
        assert abs(res.max_q - 0.375) <= 1e-15


class TestFullCorrelation:
    """At rho = 1 the strings agree and q = |A & B| / 2^n; at rho = -1 they are
    antipodal and q = |A & star(B)| / 2^n.  Either way the extremes are the
    largest and smallest possible overlaps."""

    SIZES = [(n, m, m2) for n in (1, 2, 3) for m in range(1, (1 << n) + 1)
             for m2 in range(1, (1 << n) + 1)]

    @staticmethod
    def overlap_range(n, m, m2):
        size = 1 << n
        return max(0, m + m2 - size) / size, min(m, m2) / size

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_exhaustive_extremes_are_overlap_extremes(self, rho):
        for n, m, m2 in self.SIZES:
            lo, hi = self.overlap_range(n, m, m2)
            res = exhaustive_extremes(n, m, m2, rho)
            assert abs(res.max_q - hi) <= 1e-15, (n, m, m2)
            assert abs(res.min_q - lo) <= 1e-15, (n, m, m2)

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_local_search_stays_inside_overlap_extremes(self, rho):
        for n, m, m2 in self.SIZES:
            lo, hi = self.overlap_range(n, m, m2)
            for direction in ("max", "min"):
                res = local_search(n, m, m2, rho, direction=direction, seed=n + m, iters=2)
                q = res.max_q if direction == "max" else res.min_q
                assert lo - 1e-15 <= q <= hi + 1e-15, (n, m, m2, direction)


class TestConstructions:
    def test_symmetric_subcube_chain(self):
        for i in (1, 2, 3):
            for rho in (0.2, 0.5):
                expected = ((1 + rho) / 4) ** i
                got = construction_value("symmetric-subcube", 6, i, rho)
                assert abs(got - expected) <= 1e-15

    def test_antisymmetric_subcube_chain(self):
        for i in (1, 2):
            for rho in (0.2, 0.5):
                expected = ((1 - rho) / 4) ** i
                got = construction_value("antisymmetric-subcube", 6, i, rho)
                assert abs(got - expected) <= 1e-15

    def test_ball_pair_matches_direct_evaluation(self):
        got = construction_value("hamming-ball-pair", 6, 1, 0.3)
        ball = hamming_ball(6, 0, 1)
        assert abs(got - collision_prob(ball, ball, 0.3)) <= 1e-15

    def test_ball_pair_beats_subcube_curve_at_low_correlation(self):
        n, radius, rho = 14, 1, 0.3
        ball = hamming_ball(n, 0, radius)
        q_ball = construction_value("hamming-ball-pair", n, radius, rho)
        exponent = -math.log2(ball.density)
        q_curve = ((1 + rho) / 4) ** exponent
        assert q_ball > q_curve * 1.01

    def test_ball_pair_loses_at_high_correlation(self):
        n, radius, rho = 10, 2, 0.9
        ball = hamming_ball(n, 0, radius)
        q_ball = construction_value("hamming-ball-pair", n, radius, rho)
        exponent = -math.log2(ball.density)
        q_curve = ((1 + rho) / 4) ** exponent
        assert q_ball < q_curve

    def test_unknown_kind(self):
        with pytest.raises(ParameterRangeError):
            construction_value("nope", 4, 1, 0.5)
