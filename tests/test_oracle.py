"""Exhaustive and heuristic searches for extremal code pairs."""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from nisim import (
    canonical_pair,
    collision_prob,
    combined_report,
    construction_value,
    distance_distribution,
    distance_moment,
    exhaustive_distance_extremes,
    exhaustive_extremes,
    fwht,
    hamming_ball,
    local_search,
    make_code,
    subcube,
    symmetry_group,
)
from nisim.errors import (
    DimensionRangeError,
    ParameterRangeError,
    SearchBudgetError,
)
from nisim import oracle
from nisim.model import _pair_weights
from nisim.oracle import MAX_LOCAL_DIM, _orbit_reps

from conftest import brute_extremes_no_symmetry, brute_orbit_minima, fraction_collision_prob


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

    def test_witnesses_reproduce_reported_values(self):
        """The reported extreme, the integer optimum over the common
        denominator, is bit for bit the witness's correctly rounded value: on
        every size pair at n <= 3 over a panel of rho, and at n = 4, rho 0.3.
        At n <= 3 it is also float of the witness's Fraction."""
        panel = (-1.0, -0.7, -0.5, -0.3, 0.0, 0.1, 0.3, 0.5, 0.9, 1.0)
        for n, rhos in ((1, panel), (2, panel), (3, panel), (4, (0.3,))):
            for m, n_second, rho in product(range(1, (1 << n) + 1), range(1, (1 << n) + 1), rhos):
                res = exhaustive_extremes(n, m, n_second, rho)
                assert res.max_q == collision_prob(*res.witness_max, rho), (n, m, n_second, rho)
                assert res.min_q == collision_prob(*res.witness_min, rho), (n, m, n_second, rho)
                if n <= 3:
                    for value, (a, b) in ((res.max_q, res.witness_max), (res.min_q, res.witness_min)):
                        assert value == float(fraction_collision_prob(n, a.words, b.words, rho))

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
        assert res.pairs_evaluated == res.orbits_enumerated * math.comb(8, 5)
        # orbits of m-subsets of the n-cube under its symmetry group (Burnside);
        # with the empty set they total 22 and 402 (OEIS A000616)
        for n, counts, total in (
            (3, [1, 3, 3, 6, 3, 3, 1, 1], 22),
            (4, [1, 4, 6, 19, 27, 50, 56, 74, 56, 50, 27, 19, 6, 4, 1, 1], 402),
        ):
            found = []
            for m in range(1, (1 << n) + 1):
                res = exhaustive_extremes(n, m, 2, 0.5)
                assert res.pairs_evaluated == res.orbits_enumerated * math.comb(1 << n, 2)
                found.append(res.orbits_enumerated)
            assert found == counts
            assert 1 + sum(counts) == total

    def test_every_pair_tied_at_zero_correlation(self):
        # At rho = 0 every pair of sizes (m, m) ties at q = (m / 16)^2: every
        # word of every column is tied, and the witness is the fill that the
        # first representative's stabilizer moves to the smallest words.
        for m, q, pairs, orbits in ((4, 0.0625, 34580, 19), (8, 0.25, 952380, 74)):
            res = exhaustive_extremes(4, m, m, 0.0)
            assert res.max_q == res.min_q == q
            for pair in (res.witness_max, res.witness_min):
                assert (pair[0].words, pair[1].words) == (tuple(range(m)), tuple(range(m)))
            assert (res.pairs_evaluated, res.orbits_enumerated) == (pairs, orbits)

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
        with pytest.raises(ParameterRangeError):
            exhaustive_extremes(2, 2.0, 2, 0.5)
        with pytest.raises(ParameterRangeError):
            exhaustive_extremes(2, 2, 2.0, 0.5)
        with pytest.raises(ParameterRangeError):
            exhaustive_extremes(2, 2, 2, "0.5")
        with pytest.raises(DimensionRangeError):
            exhaustive_extremes(True, 1, 1, 0.5)
        for args in ((2, True, 2, 0.5), (2, 2, True, 0.5), (2, 2, 2, True)):
            with pytest.raises(ParameterRangeError):
                exhaustive_extremes(*args)

    def test_numpy_integer_sizes_run(self):
        res = exhaustive_extremes(np.int64(2), np.int64(2), np.uint8(3), 0.5)
        text = json.dumps(res.to_json_dict(), sort_keys=True)
        assert text == json.dumps(exhaustive_extremes(2, 2, 3, 0.5).to_json_dict(), sort_keys=True)


# sha256 of json.dumps([r.to_json_dict() ...], sort_keys=True) over every size
# pair at n <= 3, each at rho -1, -0.5, 0.1, 0.9, 1 and then the distance
# objective, as produced by scoring every representative against all
# C(2^n, n2) second codes.  Re-recorded when the agreement extremes became
# the exact kernel sums rounded once: 245 values moved (by a few ulp), no
# witness or count did.  Re-recorded when the average distances became the
# witness's distance sum over m * n2 rounded once: 26 values moved by 1 ulp,
# no witness or count did.
EXHAUSTIVE_PANEL_SHA256 = "af15880b2bc8f5a534fc90bf060bf10c8134b8b913c3ef6762ced4fdfd4c11c7"


def test_exhaustive_outputs_are_pinned():
    results = []
    for n in (1, 2, 3):
        for m in range(1, (1 << n) + 1):
            for n_second in range(1, (1 << n) + 1):
                for rho in (-1.0, -0.5, 0.1, 0.9, 1.0):
                    results.append(exhaustive_extremes(n, m, n_second, rho).to_json_dict())
                results.append(exhaustive_distance_extremes(n, m, n_second).to_json_dict())
    assert len(results) == 504
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EXHAUSTIVE_PANEL_SHA256


# sha256 of the same dump over every size pair at n = 4, at rho 0.3, at rho 0
# (where every pair ties) and for the distance objective (rho None).  The
# rho 0.3 entry was re-recorded with the panel above: 211 values moved.  The
# None entry was re-recorded when the panel's average distances were: 135
# values moved by 1 ulp, no witness or count did.
EXHAUSTIVE_N4_SHA256 = {
    0.3: "55ef9e4cdb340e8cf379eb4e9e809d3a7e00edc32b3417d25136ebe9d1c1a51b",
    0.0: "58e8cab8be450dd7844ac31745afc650fa836faf13c2b7e372142997cbd79b2d",
    None: "255ca2069ad486d8702d2cb7f14aa8a33ef860b58bee42622a535a51d1be38cb",
}


@pytest.mark.parametrize("rho", list(EXHAUSTIVE_N4_SHA256))
def test_exhaustive_outputs_at_n4_are_pinned(rho):
    objective = "collision" if rho is not None else "distance"
    results = [
        exhaustive_extremes(4, m, n_second, rho, objective).to_json_dict()
        for m in range(1, 17)
        for n_second in range(1, 17)
    ]
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EXHAUSTIVE_N4_SHA256[rho]


# 0.1 is 3602879701896397 / 2^55; at rho = +-1 one pair weight holds 0^0.
TIE_BREAK_RHOS = [0.0, 0.1, 0.3, -0.5, 1.0, -1.0]


def fills(above, tied, n_second):
    """Every second code made of the words above and the rest from the tied."""
    above = above.tolist()
    return [
        tuple(sorted(above + list(fill)))
        for fill in combinations(tied.tolist(), n_second - len(above))
    ]


def check_best_responses(n, m, n_second, rho):
    """Against each representative, _best_responses' (above, tied) expand to
    exactly the optimal second codes, each once; overall it returns the first
    representative holding an optimal pair.  Optimal as ranked by a Fraction
    reference (rho None: the total distance)."""
    reps = _orbit_reps(n, m)
    kernel = oracle._exact_kernel(n, None if rho is None else _pair_weights(n, rho)[0])
    exact = {
        a: {
            b: fraction_collision_prob(n, a, b, rho)
            if rho is not None
            else sum(bin(x ^ y).count("1") for x in a for y in b)
            for b in combinations(range(1 << n), n_second)
        }
        for a in reps
    }
    for sign in (1, -1):
        for a, own in exact.items():
            top = max(sign * v for v in own.values())
            found, above, tied = oracle._best_responses([a], kernel, n_second, sign)
            assert found == a
            assert sorted(fills(above, tied, n_second)) == [
                b for b, v in own.items() if sign * v == top
            ]
        best = max(sign * v for own in exact.values() for v in own.values())
        first = next(a for a, own in exact.items() if max(sign * v for v in own.values()) == best)
        found = oracle._best_responses(reps, kernel, n_second, sign)[0]
        assert found == first, (n, m, n_second, rho, sign)


class TestBestResponses:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("rho", [0.3, 0.7, None] + [r for r in TIE_BREAK_RHOS if r != 0.3])
    def test_candidates_cover_every_exact_optimum(self, n, rho):
        """The best responses are every exact optimum and nothing else, at
        every size pair."""
        for m in range(1, (1 << n) + 1):
            for n_second in range(1, (1 << n) + 1):
                check_best_responses(n, m, n_second, rho)


class TestExactTieBreak:
    @pytest.mark.parametrize("rho", TIE_BREAK_RHOS)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_every_pair_at_n3_matches_fraction_reference(self, rho, sign):
        """The reported witness is the least canonical pair among the pairs a
        Fraction evaluation of every pair, with no symmetry reduction, ranks
        best."""
        for m, n_second in ((2, 3), (4, 2)):
            cands = list(product(combinations(range(8), m), combinations(range(8), n_second)))
            exact = [sign * fraction_collision_prob(3, a, b, rho) for a, b in cands]
            top = max(exact)
            expected = min(
                tuple(c.words for c in canonical_pair(make_code(3, a), make_code(3, b)))
                for (a, b), v in zip(cands, exact)
                if v == top
            )
            res = exhaustive_extremes(3, m, n_second, rho)
            wa, wb = res.witness_max if sign == 1 else res.witness_min
            assert (wa.words, wb.words) == expected

    @pytest.mark.parametrize("rho", TIE_BREAK_RHOS + [None])
    def test_best_responses_at_n4_match_fraction_reference(self, rho):
        for m, n_second in ((2, 3), (5, 2)):
            check_best_responses(4, m, n_second, rho)


class TestStabilizerWitness:
    @pytest.mark.parametrize("seed", range(4))
    def test_witness_is_least_canonical_pair_over_fills(self, seed):
        """_witness is the least canonical_pair over every fill, for random
        canonical A and disjoint above and tied words; at even seeds nothing
        is above, so every word of B is tied."""
        rng = np.random.default_rng(seed)
        for _ in range(30):
            reps = _orbit_reps(4, int(rng.integers(1, 17)))
            a = reps[rng.integers(len(reps))]
            words = rng.permutation(16)
            n_tied = int(rng.integers(1, 9))
            n_above = int(rng.integers(0, 17 - n_tied)) if seed % 2 else 0
            above, tied = np.sort(words[:n_above]), np.sort(words[n_above : n_above + n_tied])
            n_second = n_above + int(rng.integers(0 if n_above else 1, n_tied + 1))
            pairs = [canonical_pair(make_code(4, a), make_code(4, b))
                     for b in fills(above, tied, n_second)]
            wa, wb = oracle._witness(4, a, above, tied, n_second)
            assert (wa.words, wb.words) == min((ca.words, cb.words) for ca, cb in pairs)


@pytest.mark.parametrize("n", [3, 8, 12])
@pytest.mark.parametrize("rho", [-1.0, -0.3, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("direction, sign", [("max", 1.0), ("min", -1.0)])
def test_local_search_weights_are_the_transform_of_the_pair_weights(
    monkeypatch, n, rho, direction, sign
):
    """local_search's closed form sign rho^|S| / 4^n against the transform of
    the textbook float pair weights ((1 - rho)/4)^d ((1 + rho)/4)^(n - d),
    times sign / 2^n."""
    seen = []

    def spy(g_hat, a, b):
        seen.append(g_hat)
        return alternate(g_hat, a, b)

    alternate = oracle._alternate
    monkeypatch.setattr(oracle, "_alternate", spy)
    local_search(n, 2, 2, rho, direction=direction, iters=0)
    apart, alike = (1.0 - rho) / 4.0, (1.0 + rho) / 4.0
    weights = np.array([apart**d * alike ** (n - d) for d in range(n + 1)])
    want = fwht(weights[np.bitwise_count(np.arange(1 << n))]) * (sign / (1 << n))
    assert seen
    for got in seen:
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_top_equals_stable_argsort_on_ties(rng):
    scores = np.round(rng.normal(size=120), 2)
    scores[:5] = [0.0, -0.0, 0.0, -0.0, 0.0]
    for m in range(1, len(scores) + 1):
        expected = np.argsort(-scores, kind="stable")[:m]
        assert np.array_equal(oracle._top(scores, m), expected), m


def burnside_orbit_count(n, m):
    """Orbits of m-subsets of the n-cube by Burnside's lemma: the mean over
    the group of the x^m coefficient of prod(1 + x^len) over the cycle lengths
    of each element's action on the words, with the element applied word by
    word."""
    total = 0
    for g in symmetry_group(n):
        image, seen, poly = [g.apply(w) for w in range(1 << n)], set(), [1]
        for w in range(1 << n):
            length = 0
            while w not in seen:
                seen.add(w)
                w, length = image[w], length + 1
            if length:
                poly = [a + (poly[i - length] if i >= length else 0)
                        for i, a in enumerate(poly + [0] * length)]
        total += poly[m]
    assert total % len(symmetry_group(n)) == 0
    return total // len(symmetry_group(n))


class TestOrbitRepresentatives:
    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in (1, 2, 3) for m in range(1, (1 << n) + 1)] + [(4, 4), (4, 8)]
    )
    def test_match_brute_force_orbit_minima(self, n, m):
        assert list(_orbit_reps(n, m)) == brute_orbit_minima(n, m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_match_burnside(self, n):
        """One representative per orbit at every size, counted independently;
        over m >= 1 the totals are 2, 5, 21 and 401."""
        counts = [len(_orbit_reps(n, m)) for m in range(1, (1 << n) + 1)]
        assert counts == [burnside_orbit_count(n, m) for m in range(1, (1 << n) + 1)]
        assert sum(counts) == {1: 2, 2: 5, 3: 21, 4: 401}[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_memo_is_one_immutable_value(self, n):
        for m in range(1, (1 << n) + 1):
            reps = _orbit_reps(n, m)
            assert _orbit_reps(n, m) is reps
            assert type(reps) is tuple and all(type(rep) is tuple for rep in reps)

    @pytest.mark.parametrize(
        "n,m,n_second,rho", [(3, 3, 5, 0.3), (4, 8, 8, 0.3), (4, 5, 11, -0.7), (4, 6, 4, None)]
    )
    def test_exhaustive_results_do_not_depend_on_the_memo(self, n, m, n_second, rho):
        objective = "collision" if rho is not None else "distance"
        _orbit_reps.cache_clear()
        cold = exhaustive_extremes(n, m, n_second, rho, objective)
        warm = exhaustive_extremes(n, m, n_second, rho, objective)
        assert _orbit_reps.cache_info().hits >= 1
        assert repr(dataclasses.replace(cold, wall_time_s=0.0)) == repr(
            dataclasses.replace(warm, wall_time_s=0.0)
        )


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
        """Every extreme at n <= 4 is bit for bit float of the witness's
        Fraction: its summed distance over m * n2."""
        res = exhaustive_distance_extremes(3, 3, 4)
        wa, wb = res.witness_min
        d = distance_moment(distance_distribution(wa, wb), 1)
        assert abs(d - res.min_d) <= 1e-12
        for n in (1, 2, 3, 4):
            for m, n_second in product(range(1, (1 << n) + 1), repeat=2):
                res = exhaustive_distance_extremes(n, m, n_second)
                for value, (a, b) in ((res.max_d, res.witness_max), (res.min_d, res.witness_min)):
                    total = sum(bin(x ^ y).count("1") for x in a.words for y in b.words)
                    assert value == float(Fraction(total, m * n_second)), (n, m, n_second)

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

    def test_json_dict_has_every_field_but_the_timing(self):
        """A field added to OracleResult is serialized with no other edit."""
        names = [f.name for f in dataclasses.fields(oracle.OracleResult) if f.name != "wall_time_s"]
        for res in (exhaustive_extremes(3, 2, 2, 0.5), local_search(3, 4, 4, 0.5, seed=2, iters=1)):
            assert list(res.to_json_dict()) == names

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
        with pytest.raises(ParameterRangeError):
            local_search(4, 4, 4, 0.5, iters=1.5)
        with pytest.raises(ParameterRangeError):
            local_search(4, 4.0, 4, 0.5)
        with pytest.raises(ParameterRangeError):
            local_search(4, 4, 4.0, 0.5)
        for seed in (1.5, -1):
            with pytest.raises(ParameterRangeError):
                local_search(4, 4, 4, 0.5, seed=seed)
        with pytest.raises(ParameterRangeError):
            local_search(4, 4, 4, "0.5")
        with pytest.raises(DimensionRangeError):
            local_search(17, 4, 4, 0.5)
        with pytest.raises(DimensionRangeError):
            local_search(True, 1, 1, 0.5)
        for args, kwargs in (
            ((3, True, 4, 0.5), {}),
            ((3, 4, True, 0.5), {}),
            ((3, 4, 4, True), {}),
            ((3, 4, 4, 0.5), {"iters": True}),
            ((3, 4, 4, 0.5), {"seed": True}),
        ):
            with pytest.raises(ParameterRangeError):
                local_search(*args, **kwargs)

    def test_numpy_integer_arguments_run(self):
        res = local_search(
            np.int64(3), np.int64(4), np.uint8(4), 0.5, seed=np.int64(2), iters=np.int32(1)
        )
        text = json.dumps(res.to_json_dict(), sort_keys=True)
        want = local_search(3, 4, 4, 0.5, seed=2, iters=1).to_json_dict()
        assert text == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.1, 0.8, 1.0])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_alternation_scores_match_exact_arithmetic(self, monkeypatch, n, rho):
        # Every score _alternate returns is sign * q of the pair it returns; at
        # rho = +-1 one cell mass is 0 and the weight needs 0^0 = 1.
        returned = []

        def spy(*args):
            returned.append(alternate(*args))
            return returned[-1]

        alternate = oracle._alternate
        monkeypatch.setattr(oracle, "_alternate", spy)
        size = 1 << n
        for m, m2 in ((size // 4, size // 4), (3, size // 2 + 1)):
            for direction, sign in (("max", 1), ("min", -1)):
                returned.clear()
                local_search(n, m, m2, rho, direction=direction, seed=n, iters=2)
                assert returned
                for a, b, score, _, _ in returned:
                    want = sign * fraction_collision_prob(n, a.tolist(), b.tolist(), rho)
                    assert abs(score - want) <= 1e-12, (m, m2, direction, score, float(want))

    def test_zero_iters_returns_construction_start(self):
        res = local_search(3, 4, 4, 0.5, direction="max", seed=0, iters=0)
        assert abs(res.max_q - 0.375) <= 1e-15

    def test_round_cap_warns_and_names_the_start(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_LOCAL_ROUNDS", 1)
        with pytest.warns(RuntimeWarning) as caught:
            res = local_search(6, 16, 16, 0.5, direction="max", seed=0, iters=2)
        messages = [str(w.message) for w in caught]
        assert any(
            "n=6 m=16 n2=16 rho=0.5 max" in msg and "random restart 0" in msg
            and "1 rounds" in msg
            for msg in messages
        ), messages
        wa, wb = res.witness_max
        assert (wa.size, wb.size) == (16, 16)
        assert abs(collision_prob(wa, wb, 0.5) - res.max_q) <= 1e-15

    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_quarter_density_at_max_local_dim(self, direction):
        n, rho = MAX_LOCAL_DIM, 0.5
        m = 1 << (n - 2)
        res = local_search(n, m, m, rho, direction=direction, iters=1)
        report = combined_report(0.25, 0.25, rho)
        if direction == "max":
            q, (wa, wb) = res.max_q, res.witness_max
            assert q >= construction_value("symmetric-subcube", n, 2, rho) - 1e-12
        else:
            q, (wa, wb) = res.min_q, res.witness_min
            assert q <= construction_value("antisymmetric-subcube", n, 2, rho) + 1e-12
        assert report.combined_lb - 1e-9 <= q <= report.combined_ub + 1e-9
        assert (wa.n, wa.size, wb.n, wb.size) == (n, m, n, m)


def _best_single_swap_gain(a, b, rho, sign):
    """Largest gain in sign * q from replacing one word of a or of b, by brute force."""
    n = a.n
    base = sign * collision_prob(a, b, rho)
    best = -math.inf
    for side, code in enumerate((a, b)):
        outside = sorted(set(range(1 << n)) - set(code.words))
        for w_out in code.words:
            for w_in in outside:
                moved = make_code(n, [w_in if w == w_out else w for w in code.words])
                pair = (moved, b) if side == 0 else (a, moved)
                best = max(best, sign * collision_prob(*pair, rho) - base)
    return best


SWAP_SIZES = {
    3: [(m, m2) for m in range(1, 9) for m2 in range(1, 9)],
    4: [(6, 4), (8, 4), (3, 5), (11, 7)],
    5: [(8, 8), (3, 5), (15, 9)],
    6: [(3, 5), (16, 16)],
}


class TestLocalSearchOptimality:
    @pytest.mark.parametrize("n", sorted(SWAP_SIZES))
    def test_witness_is_single_swap_optimal(self, n):
        for m, m2 in SWAP_SIZES[n]:
            for direction, sign in (("max", 1.0), ("min", -1.0)):
                for rho in (0.3, 0.8):
                    res = local_search(n, m, m2, rho, direction=direction, seed=m + m2, iters=2)
                    pair = res.witness_max if direction == "max" else res.witness_min
                    gain = _best_single_swap_gain(*pair, rho, sign)
                    assert gain <= 1e-12, (n, m, m2, direction, rho, gain)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_never_worse_than_swap_climber(self, n):
        for (n_key, m, m2, direction, rho), values in SWAP_CLIMBER_PANEL.items():
            if n_key != n:
                continue
            sign = 1.0 if direction == "max" else -1.0
            for seed, old in enumerate(values):
                res = local_search(n, m, m2, rho, direction=direction, seed=seed, iters=2)
                q = res.max_q if direction == "max" else res.min_q
                assert sign * (q - old) >= -1e-12, (n, m, m2, direction, rho, seed, q, old)


# Values the single-swap climber (local_search before alternating best response)
# reached on the n=4..6 part of the ROADMAP panel: sizes (2^(n-2), 2^(n-2)),
# (2^(n-1), 2^(n-3)), (3*2^(n-3), 2^(n-2)), (2^(n-1), 2^(n-2)), (3, 5) and
# (2^(n-1)-1, 2^(n-2)+1), iters=2, seeds 0-4 in order.  Without the Hamming-ball
# start, alternating best response loses to the climber on n=4 (6, 4) min at seed 3
# and (8, 4) max at seed 2, at both correlations.
SWAP_CLIMBER_PANEL = {
    (4, 4, 4, "max", 0.3): (
        0.10562500000000001, 0.10562500000000001, 0.10562500000000001, 0.10562500000000001,
        0.10562500000000001,
    ),
    (4, 4, 4, "max", 0.8): (0.2025, 0.2025, 0.2025, 0.2025, 0.2025),
    (4, 4, 4, "min", 0.3): (
        0.030624999999999996, 0.030624999999999996, 0.030624999999999996, 0.030624999999999996,
        0.030624999999999996,
    ),
    (4, 4, 4, "min", 0.8): (
        0.0024999999999999988, 0.0024999999999999988, 0.0024999999999999988, 0.0024999999999999988,
        0.0024999999999999988,
    ),
    (4, 8, 2, "max", 0.3): (0.08978125, 0.08978125, 0.08978125, 0.08978125, 0.08978125),
    (4, 8, 2, "max", 0.8): (0.1215, 0.1215, 0.1215, 0.1215, 0.1215),
    (4, 8, 2, "min", 0.3): (
        0.03521874999999999, 0.03521874999999999, 0.03521874999999999, 0.03521874999999999,
        0.03521874999999999,
    ),
    (4, 8, 2, "min", 0.8): (
        0.0034999999999999983, 0.0034999999999999983, 0.0034999999999999983, 0.0034999999999999983,
        0.0034999999999999983,
    ),
    (4, 6, 4, "max", 0.3): (0.1327828125, 0.124940625, 0.1340625, 0.1340625, 0.1340625),
    (4, 6, 4, "max", 0.8): (0.21015, 0.20155, 0.21375, 0.21015, 0.21375),
    (4, 6, 4, "min", 0.3): (
        0.07533749999999999, 0.061359374999999994, 0.061359374999999994, 0.05778281249999999,
        0.06621562499999999,
    ),
    (4, 6, 4, "min", 0.8): (
        0.04634999999999999, 0.03144999999999999, 0.022349999999999995, 0.010149999999999998,
        0.021949999999999997,
    ),
    (4, 8, 4, "max", 0.3): (0.1625, 0.1625, 0.1637796875, 0.1625, 0.1625),
    (4, 8, 4, "max", 0.8): (0.225, 0.225, 0.2286, 0.225, 0.225),
    (4, 8, 4, "min", 0.3): (0.0875, 0.0875, 0.0875, 0.08323437499999999, 0.0875),
    (4, 8, 4, "min", 0.8): (
        0.024999999999999994, 0.024999999999999994, 0.024999999999999994, 0.020499999999999994,
        0.024999999999999994,
    ),
    (4, 3, 5, "max", 0.3): (
        0.091695703125, 0.091695703125, 0.090202734375, 0.088923046875, 0.090202734375,
    ),
    (4, 3, 5, "max", 0.8): (0.15744375, 0.15744375, 0.15699375000000002, 0.15339375, 0.14889375),
    (4, 3, 5, "min", 0.3): (
        0.031180078124999993, 0.047455078124999994, 0.045371484375, 0.03267304687499999,
        0.04110585937499999,
    ),
    (4, 3, 5, "min", 0.8): (
        0.011543749999999998, 0.023343749999999996, 0.019693749999999996, 0.015193749999999997,
        0.015193749999999997,
    ),
    (4, 7, 5, "max", 0.3): (
        0.167427734375, 0.182898828125, 0.185671484375, 0.185671484375, 0.17782929687500001,
    ),
    (4, 7, 5, "max", 0.8): (
        0.21821875, 0.26701874999999997, 0.27511874999999997, 0.25071875, 0.26651874999999997,
    ),
    (4, 7, 5, "min", 0.3): (
        0.096991015625, 0.09421835937499999, 0.129212890625, 0.09421835937499999, 0.113955078125,
    ),
    (4, 7, 5, "min", 0.8): (
        0.029668749999999994, 0.025618749999999996, 0.029668749999999994, 0.025618749999999996,
        0.07396874999999999,
    ),
    (5, 8, 8, "max", 0.3): (
        0.10562500000000001, 0.10562500000000001, 0.10562500000000001, 0.10562500000000001,
        0.10562500000000001,
    ),
    (5, 8, 8, "max", 0.8): (0.2025, 0.2025, 0.2025, 0.2025, 0.2025),
    (5, 8, 8, "min", 0.3): (
        0.030624999999999996, 0.030624999999999996, 0.030624999999999996, 0.030624999999999996,
        0.030624999999999996,
    ),
    (5, 8, 8, "min", 0.8): (
        0.0024999999999999988, 0.0024999999999999988, 0.0024999999999999988, 0.0024999999999999988,
        0.0024999999999999988,
    ),
    (5, 16, 4, "max", 0.3): (0.08978125, 0.08978125, 0.08978125, 0.08978125, 0.08978125),
    (5, 16, 4, "max", 0.8): (0.09486, 0.09486, 0.09486, 0.09486, 0.09486),
    (5, 16, 4, "min", 0.3): (
        0.03521874999999999, 0.03521874999999999, 0.03521874999999999, 0.03521874999999999,
        0.03521874999999999,
    ),
    (5, 16, 4, "min", 0.8): (
        0.018709999999999997, 0.030139999999999993, 0.030139999999999993, 0.030139999999999993,
        0.030139999999999993,
    ),
    (5, 12, 8, "max", 0.3): (
        0.10211296875, 0.1036059375, 0.1036059375, 0.108148828125, 0.10211296875,
    ),
    (5, 12, 8, "max", 0.8): (
        0.170775, 0.16227000000000003, 0.16204500000000002, 0.16204500000000002,
        0.16182000000000002,
    ),
    (5, 12, 8, "min", 0.3): (
        0.083013984375, 0.0844003125, 0.085786640625, 0.0844003125, 0.083013984375,
    ),
    (5, 12, 8, "min", 0.8): (
        0.04880499999999999, 0.04880499999999999, 0.050829999999999986, 0.04880499999999999,
        0.04880499999999999,
    ),
    (5, 16, 8, "max", 0.3): (0.1625, 0.1625, 0.1625, 0.1625, 0.1625),
    (5, 16, 8, "max", 0.8): (0.225, 0.225, 0.225, 0.225, 0.225),
    (5, 16, 8, "min", 0.3): (0.0875, 0.0875, 0.0875, 0.0875, 0.0875),
    (5, 16, 8, "min", 0.8): (
        0.024999999999999994, 0.024999999999999994, 0.024999999999999994, 0.024999999999999994,
        0.024999999999999994,
    ),
    (5, 3, 5, "max", 0.3): (
        0.023493310546875, 0.022000341796875003, 0.027513662109375003, 0.019760888671875,
        0.023493310546875,
    ),
    (5, 3, 5, "max", 0.8): (
        0.05809218750000001, 0.05786718750000001, 0.0706471875, 0.05741718750000001,
        0.07084968750000001,
    ),
    (5, 3, 5, "min", 0.3): (
        0.0072854003906249985, 0.0076873535156249985, 0.0072854003906249985, 0.0072854003906249985,
        0.0072854003906249985,
    ),
    (5, 3, 5, "min", 0.8): (
        0.0003296874999999998, 0.00035468749999999975, 0.00030468749999999984,
        0.00030468749999999984, 0.00030468749999999984,
    ),
    (5, 15, 9, "max", 0.3): (
        0.13929512695312501, 0.13523745117187502, 0.134490966796875, 0.133744482421875,
        0.13523745117187502,
    ),
    (5, 15, 9, "max", 0.8): (0.1853296875, 0.1857796875, 0.1855546875, 0.1853296875, 0.1855546875),
    (5, 15, 9, "min", 0.3): (
        0.128256884765625, 0.128256884765625, 0.128256884765625, 0.128256884765625,
        0.128256884765625,
    ),
    (5, 15, 9, "min", 0.8): (
        0.08419218749999999, 0.08419218749999999, 0.08419218749999999, 0.08419218749999999,
        0.08419218749999999,
    ),
    (6, 16, 16, "max", 0.3): (
        0.10562500000000001, 0.10562500000000001, 0.10562500000000001, 0.10562500000000001,
        0.10562500000000001,
    ),
    (6, 16, 16, "max", 0.8): (0.2025, 0.2025, 0.2025, 0.2025, 0.2025),
    (6, 16, 16, "min", 0.3): (
        0.030624999999999996, 0.030624999999999996, 0.030624999999999996, 0.030624999999999996,
        0.030624999999999996,
    ),
    (6, 16, 16, "min", 0.8): (
        0.0024999999999999988, 0.0024999999999999988, 0.0024999999999999988, 0.0024999999999999988,
        0.0024999999999999988,
    ),
    (6, 32, 8, "max", 0.3): (0.08978125, 0.08978125, 0.08978125, 0.08978125, 0.08978125),
    (6, 32, 8, "max", 0.8): (0.078884, 0.078884, 0.107587, 0.08321875, 0.078884),
    (6, 32, 8, "min", 0.3): (
        0.03521874999999999, 0.03521874999999999, 0.03521874999999999, 0.03521874999999999,
        0.03521874999999999,
    ),
    (6, 32, 8, "min", 0.8): (
        0.046116, 0.046116, 0.04168, 0.032118249999999994, 0.031611999999999994,
    ),
    (6, 24, 16, "max", 0.3): (
        0.10101547265625, 0.10125808007812499, 0.100115384765625, 0.10108581445312499,
        0.100945130859375,
    ),
    (6, 24, 16, "max", 0.8): (0.151946, 0.15143725, 0.15255225, 0.1525535, 0.15234975),
    (6, 24, 16, "min", 0.3): (
        0.084062671875, 0.08419330664062499, 0.0832202109375, 0.08419330664062499,
        0.083932037109375,
    ),
    (6, 24, 16, "min", 0.8): (
        0.05447024999999999, 0.0553815, 0.05351399999999999, 0.053536499999999994,
        0.05449274999999999,
    ),
    (6, 32, 16, "max", 0.3): (0.1625, 0.1625, 0.1625, 0.1625, 0.1625),
    (6, 32, 16, "max", 0.8): (0.225, 0.225, 0.225, 0.225, 0.225),
    (6, 32, 16, "min", 0.3): (0.0875, 0.0875, 0.0875, 0.0875, 0.0875),
    (6, 32, 16, "min", 0.8): (
        0.024999999999999994, 0.024999999999999994, 0.024999999999999994, 0.024999999999999994,
        0.024999999999999994,
    ),
    (6, 3, 5, "max", 0.3): (
        0.008941940185546875, 0.009392496826171876, 0.008271303955078125, 0.008271303955078125,
        0.009392496826171876,
    ),
    (6, 3, 5, "max", 0.8): (
        0.031062234375, 0.031062234375, 0.031791234375000005, 0.028601859375000004, 0.031062234375,
    ),
    (6, 3, 5, "min", 0.3): (
        0.0015839465332031246, 0.0019758508300781246, 0.0022371203613281245, 0.0015839465332031246,
        0.002498389892578125,
    ),
    (6, 3, 5, "min", 0.8): (
        8.085937499999996e-05, 0.00011460937499999994, 0.00013710937499999992,
        0.00010335937499999995, 0.0001258593749999999,
    ),
    (6, 31, 17, "max", 0.3): (
        0.13032513256835937, 0.12959731030273436, 0.12935470288085937, 0.12983991772460937,
        0.12959731030273436,
    ),
    (6, 31, 17, "max", 0.8): (
        0.16700073437500002, 0.16700073437500002, 0.16679823437500002, 0.16700073437500002,
        0.16669698437500002,
    ),
    (6, 31, 17, "min", 0.3): (
        0.12688472583007812, 0.12701536059570312, 0.12701536059570312, 0.12701536059570312,
        0.12688472583007812,
    ),
    (6, 31, 17, "min", 0.8): (
        0.092335359375, 0.092346609375, 0.092357859375, 0.092346609375, 0.092357859375,
    ),
}


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
