"""Joint law of the two output bits for explicit membership sets."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nisim.model
from nisim import (
    DsbsInstance,
    collision_prob,
    complement,
    dyadic_round,
    joint_cells,
    make_code,
    star,
    subcube,
)
from nisim.errors import (
    DimensionMismatchError,
    DimensionRangeError,
    NumericalConsistencyError,
    ParameterRangeError,
)

from conftest import fraction_collision_prob, random_code


class TestDsbsInstance:
    def test_pair_probability_normalizes(self):
        inst = DsbsInstance(0.5, 3)
        total = sum(
            math.comb(3, d) * inst.pair_probability(d) * (1 << 3)
            for d in range(4)
        )
        assert abs(total - 1.0) <= 1e-12

    def test_pair_probability_value(self):
        inst = DsbsInstance(0.5, 2)
        assert inst.pair_probability(1) == 0.125 * 0.375

    def test_guards(self):
        with pytest.raises(ParameterRangeError):
            DsbsInstance(1.2, 3)
        with pytest.raises(DimensionRangeError):
            DsbsInstance(0.5, 0)
        with pytest.raises(ParameterRangeError):
            DsbsInstance(0.5, 3).pair_probability(4)


class TestCollisionProb:
    def test_matches_reference_loop(self, rng):
        """The exact value rounded once: equal to float of the Fraction sum."""
        for _ in range(40):
            n = int(rng.integers(1, 7))
            a = random_code(rng, n)
            b = random_code(rng, n)
            for rho in (-1.0, -0.7, -0.3, 0.0, 0.1, 0.3, 0.9, 1.0):
                exact = float(fraction_collision_prob(n, a.words, b.words, rho))
                assert collision_prob(a, b, rho) == exact, (n, rho)
                assert joint_cells(a, b, rho).q_pp == exact, (n, rho)

    @pytest.mark.parametrize("n", [63, 64])
    def test_widest_words(self, n):
        top = (1 << n) - 1
        a = make_code(n, [0, 1 << (n - 1), top, 12345 << (n - 20)])
        b = make_code(n, [top, top ^ 1, 1 << (n - 1), (1 << (n - 1)) - 1])
        for rho in (-0.9, -0.3, 0.0, 0.1, 0.5, 1.0, 1e-300):
            exact = fraction_collision_prob(n, a.words, b.words, rho)
            assert collision_prob(a, b, rho) == float(exact), rho

    @pytest.mark.parametrize("level", [1, 4])
    def test_spectral_check_catches_a_wrong_level_sum(self, rng, monkeypatch, level):
        """A level sum off by 4 moves the spectral route away from the exact
        value, and the two routes' check raises."""
        products = nisim.model._level_products

        def skewed(a, b):
            levels = products(a, b)
            levels[level] += 4.0
            return levels

        monkeypatch.setattr(nisim.model, "_level_products", skewed)
        a, b = random_code(rng, 4, size=3), random_code(rng, 4, size=5)
        with pytest.raises(NumericalConsistencyError, match="disagree"):
            collision_prob(a, b, 0.5)

    def test_independent_case_factorizes(self, rng):
        a = random_code(rng, 5)
        b = random_code(rng, 5)
        assert collision_prob(a, b, 0.0) == a.density * b.density

    def test_perfect_correlation_is_overlap(self, rng):
        for _ in range(10):
            a = random_code(rng, 4)
            b = random_code(rng, 4)
            overlap = len(set(a.words) & set(b.words)) / 16
            assert collision_prob(a, b, 1.0) == overlap

    def test_perfect_anticorrelation_is_mirrored_overlap(self, rng):
        for _ in range(10):
            a = random_code(rng, 4)
            b = random_code(rng, 4)
            mirrored = len(set(a.words) & set(star(b).words)) / 16
            assert collision_prob(a, b, -1.0) == mirrored

    def test_sandwich(self, rng):
        for _ in range(20):
            a = random_code(rng, 5)
            b = random_code(rng, 5)
            rho = float(rng.uniform(-1, 1))
            q = collision_prob(a, b, rho)
            assert max(0.0, a.density + b.density - 1.0) <= q <= min(a.density, b.density)

    def test_complement_shift(self, rng):
        for _ in range(10):
            a = random_code(rng, 4)
            b = random_code(rng, 4)
            if b.size == 16:
                continue
            rho = float(rng.uniform(-1, 1))
            q = collision_prob(a, b, rho)
            q_comp = collision_prob(a, complement(b), rho)
            assert abs(q + q_comp - a.density) <= 1e-12

    def test_negation_via_star(self, rng):
        for _ in range(10):
            a = random_code(rng, 4)
            b = random_code(rng, 4)
            rho = float(rng.uniform(0, 1))
            assert collision_prob(a, b, -rho) == collision_prob(a, star(b), rho)

    def test_guards(self):
        with pytest.raises(DimensionMismatchError):
            collision_prob(make_code(2, [0]), make_code(3, [0]), 0.5)
        with pytest.raises(ParameterRangeError):
            collision_prob(make_code(2, [0]), make_code(2, [1]), 1.5)


class TestJointCells:
    def test_cells_form_a_distribution(self, rng):
        for _ in range(15):
            a = random_code(rng, 4)
            b = random_code(rng, 4)
            rho = float(rng.uniform(-1, 1))
            jc = joint_cells(a, b, rho)
            total = jc.q_pp + jc.q_pm + jc.q_mp + jc.q_mm
            assert abs(total - 1.0) <= 1e-12
            assert min(jc.q_pp, jc.q_pm, jc.q_mp, jc.q_mm) >= -1e-12

    def test_marginals(self, rng):
        a = random_code(rng, 4)
        b = random_code(rng, 4)
        jc = joint_cells(a, b, 0.3)
        assert abs(jc.q_pp + jc.q_pm - jc.a) <= 1e-12
        assert abs(jc.q_pp + jc.q_mp - jc.b) <= 1e-12

    def test_top_cell_is_collision_probability(self, rng):
        a = random_code(rng, 4)
        b = random_code(rng, 4)
        jc = joint_cells(a, b, -0.7)
        assert jc.q_pp == collision_prob(a, b, -0.7)


class TestDyadicRound:
    def test_exact_targets_have_zero_gap(self):
        assert dyadic_round(0.25, 4) == (0.25, 0.0)
        assert dyadic_round(1.0, 3) == (1.0, 0.0)

    def test_rounds_down_with_small_gap(self):
        value, gap = dyadic_round(0.3, 2)
        assert value == 0.25
        assert abs(gap - 0.05) <= 1e-15

    @given(st.floats(0.0, 1.0), st.integers(1, 20))
    def test_gap_below_resolution(self, target, n):
        value, gap = dyadic_round(target, n)
        assert 0.0 <= value <= 1.0
        assert 0.0 <= gap < 2.0**-n
        assert abs(value + gap - target) <= 1e-15
        assert value * (1 << n) == int(value * (1 << n))

    def test_guards(self):
        with pytest.raises(ParameterRangeError):
            dyadic_round(-0.1, 2)
        with pytest.raises(DimensionRangeError):
            dyadic_round(0.5, 0)


class TestSubcubeLaw:
    def test_nested_subcube_collision(self):
        for n in (3, 4):
            for i in (1, 2):
                code = subcube(n, i)
                for rho in (0.2, 0.7):
                    expected = ((1.0 + rho) / 4.0) ** i
                    assert abs(collision_prob(code, code, rho) - expected) <= 1e-12

    def test_mirrored_subcube_collision(self):
        for n in (3, 4):
            code = subcube(n, 2)
            for rho in (0.2, 0.7):
                expected = ((1.0 - rho) / 4.0) ** 2
                assert abs(collision_prob(code, star(code), rho) - expected) <= 1e-12
