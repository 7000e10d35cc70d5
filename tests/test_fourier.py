"""Transform identities: self-inversion, Parseval, level sums, tail splits."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nisim.fourier
from nisim import (
    collision_prob,
    distance_distribution,
    distance_moment,
    fwht,
    level_sums,
    make_code,
    spectrum,
    subcube,
    tail_sign_sums,
    theta_from_levels,
)
from nisim.errors import DimensionMismatchError, ParameterRangeError
from nisim.fourier import _hadamard, _transform

from conftest import radix2_fwht, random_code


def spy_on_routes(monkeypatch):
    """Record the dtype each fwht call hands to the transform kernel."""
    routes = []

    def spy(values):
        routes.append(values.dtype)
        return _transform(values)

    monkeypatch.setattr(nisim.fourier, "_transform", spy)
    return routes


class TestFwht:
    def test_double_application_scales_by_length(self, rng):
        for n in (1, 3, 6):
            values = rng.normal(size=1 << n)
            twice = fwht(fwht(values))
            assert np.allclose(twice, values * (1 << n), atol=1e-9)

    def test_known_small_transform(self):
        out = fwht(np.array([1.0, 0.0]))
        assert out.tolist() == [1.0, 1.0]
        out = fwht(np.array([0.0, 1.0]))
        assert out.tolist() == [1.0, -1.0]

    def test_input_unchanged(self):
        values = np.array([3.0, 1.0, 4.0, 1.0])
        fwht(values)
        assert values.tolist() == [3.0, 1.0, 4.0, 1.0]

    @pytest.mark.parametrize("n", [3, 8, 12, 17])
    @pytest.mark.parametrize("kind", ["float64", "int", "list"])
    def test_result_is_a_new_array(self, rng, n, kind):
        """1, 2, 3 and 4 passes: the input is never written and no result
        shares memory with the input or with an earlier result."""
        bits = rng.integers(-3, 4, 1 << n)
        values = {"float64": bits.astype(np.float64), "int": bits, "list": bits.tolist()}[kind]
        before = np.array(values, dtype=np.float64)
        first, second = fwht(values), fwht(values)
        assert np.array_equal(np.asarray(values), before)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        if kind != "list":
            assert not np.shares_memory(first, values)
            assert not np.shares_memory(second, values)

    @pytest.mark.parametrize("n", [0, 1, 5, 6, 10, 11, 16, 17])
    def test_in_place_kernel_matches_fwht(self, rng, n):
        values = rng.normal(size=1 << n)
        assert _transform(values.copy()).tobytes() == fwht(values).tobytes()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterRangeError):
            fwht(np.ones(3))
        with pytest.raises(ParameterRangeError):
            fwht(np.ones(0))

    @given(st.integers(1, 5), st.integers(0, 10**6))
    def test_self_inverse_property(self, n, seed):
        values = np.random.default_rng(seed).uniform(-1, 1, 1 << n)
        assert np.allclose(fwht(fwht(values)), values * (1 << n), atol=1e-9)

    def test_rejects_input_that_is_not_one_dimensional(self):
        with pytest.raises(ParameterRangeError, match="1-D"):
            fwht(np.ones((4, 8)))
        with pytest.raises(ParameterRangeError, match="1-D"):
            fwht(np.float64(1.0))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_blocked_is_exact_on_integer_input(self, rng, n):
        """Every product is +-1 times an input, so on 0/1 and +-1 vectors the
        blocked sums equal the radix-2 sums exactly."""
        bits = rng.integers(0, 2, 1 << n).astype(np.float64)
        assert np.array_equal(fwht(bits), radix2_fwht(bits))
        signs = 2.0 * bits - 1.0
        assert np.array_equal(fwht(signs), radix2_fwht(signs))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_blocked_rounds_float_input_within_tolerance(self, rng, n):
        values = rng.normal(size=1 << n)
        err = np.max(np.abs(fwht(values) - radix2_fwht(values)))
        assert err <= 1e-15 * np.abs(values).sum()

    @pytest.mark.parametrize("n", range(1, 21))
    def test_integer_tables_match_float64_bit_for_bit(self, rng, monkeypatch, n):
        """0/1 and +-1 tables take the float32 route and give the float64
        route's bytes, signed zeros included, in a fresh float64 array."""
        routes = spy_on_routes(monkeypatch)
        bits = rng.integers(0, 2, 1 << n, dtype=np.int8)
        for table in (bits, 2 * bits - 1, bits.astype(bool), bits.astype(np.uint8)):
            got = fwht(table)
            assert got.dtype == np.float64 and got.flags.writeable and got.flags.c_contiguous
            assert not np.shares_memory(got, table)
            assert got.tobytes() == fwht(table.astype(np.float64)).tobytes()
        assert routes == [np.float32, np.float64] * 4

    def test_float32_route_up_to_its_bound(self, monkeypatch):
        """Entries 16 at n = 20 give F(empty) = 2^24, on the float32 route's
        bound; one entry 17 takes the float64 route."""
        routes = spy_on_routes(monkeypatch)
        table = np.full(1 << 20, 16, dtype=np.int8)
        edge = fwht(table)
        assert edge[0] == 1 << 24 and not edge[1:].any()
        table[12345] = 17
        past = fwht(table)
        assert past[0] == (1 << 24) + 1
        assert routes == [np.float32, np.float64]
        for values, got in ((np.full(1 << 20, 16.0), edge), (table.astype(np.float64), past)):
            assert got.tobytes() == fwht(values).tobytes()

    def test_hadamard_blocks_are_read_only(self):
        for k, dtype in itertools.product(range(6), (np.float32, np.float64)):
            h = _hadamard(k, np.dtype(dtype))
            assert h.shape == (1 << k, 1 << k) and h.dtype == dtype
            with pytest.raises(ValueError):
                h[0, 0] = 2.0
            assert np.array_equal(h @ h, (1 << k) * np.eye(1 << k))


class TestSpectrum:
    def test_mean_coefficient_is_signed_density(self, rng):
        for _ in range(10):
            code = random_code(rng, 4)
            f = spectrum(code)
            assert abs(f.coeffs[0] - (2 * code.density - 1)) <= 1e-15

    def test_single_coordinate_code_is_a_dictator(self):
        for n in (2, 3, 5):
            f = spectrum(subcube(n, 1))
            expected = np.zeros(1 << n)
            expected[1] = 1.0
            assert np.allclose(f.coeffs, expected, atol=1e-15)
            for mask in range(1 << n):
                value = f.coefficient(mask)
                assert type(value) is float and value == float(f.coeffs[mask])

    def test_parseval(self, rng):
        for _ in range(20):
            code = random_code(rng, 5)
            f = spectrum(code)
            assert abs(np.dot(f.coeffs, f.coeffs) - 1.0) <= 1e-12

    def test_coeffs_are_read_only(self):
        f = spectrum(make_code(2, [0, 3]))
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0


class TestLevelSums:
    def test_zero_level_is_product_of_signed_densities(self, rng):
        for _ in range(10):
            a = random_code(rng, 4)
            b = random_code(rng, 4)
            lv = level_sums(spectrum(a), spectrum(b))
            expected = (2 * a.density - 1) * (2 * b.density - 1)
            assert abs(lv.s[0] - expected) <= 1e-13
            assert len(lv.s) == 5

    def test_absolute_level_mass_at_most_one(self, rng):
        for _ in range(20):
            a = random_code(rng, 5)
            b = random_code(rng, 5)
            lv = level_sums(spectrum(a), spectrum(b))
            assert sum(abs(s) for s in lv.s) <= 1.0 + 1e-12

    def test_level_one_matches_average_distance(self, rng):
        for _ in range(20):
            a = random_code(rng, 5)
            b = random_code(rng, 5)
            lv = level_sums(spectrum(a), spectrum(b))
            avg = distance_moment(distance_distribution(a, b), 1)
            expected = 4 * a.density * b.density * (a.n - 2 * avg)
            assert abs(lv.s[1] - expected) <= 1e-12

    def test_dimension_mismatch(self):
        f = spectrum(make_code(3, [0]))
        g = spectrum(make_code(4, [0]))
        with pytest.raises(DimensionMismatchError):
            level_sums(f, g)


class TestTheta:
    def test_matches_collision_probability(self, rng):
        for _ in range(15):
            a = random_code(rng, 5)
            b = random_code(rng, 5)
            lv = level_sums(spectrum(a), spectrum(b))
            for rho in (-1.0, -0.4, 0.0, 0.3, 0.8, 1.0):
                direct = collision_prob(a, b, rho)
                via_levels = a.density * b.density + theta_from_levels(lv, rho)
                assert abs(direct - via_levels) <= 1e-12

    def test_zero_correlation_gives_zero_shift(self, rng):
        lv = level_sums(
            spectrum(random_code(rng, 4)), spectrum(random_code(rng, 4))
        )
        assert theta_from_levels(lv, 0.0) == 0.0

    def test_rho_range_guard(self):
        lv = level_sums(spectrum(make_code(2, [0])), spectrum(make_code(2, [1])))
        with pytest.raises(ParameterRangeError):
            theta_from_levels(lv, 1.5)
        with pytest.raises(ParameterRangeError):
            theta_from_levels(lv, -1.0001)


class TestTailSignSums:
    def test_signs_and_reassembly(self, rng):
        for _ in range(20):
            a = random_code(rng, 4)
            b = random_code(rng, 4)
            f, g = spectrum(a), spectrum(b)
            pos, neg = tail_sign_sums(f, g)
            assert pos >= 0.0
            assert neg <= 0.0
            lv = level_sums(f, g)
            theta_at_one = theta_from_levels(lv, 1.0)
            assert abs(0.25 * lv.s[1] + pos + neg - theta_at_one) <= 1e-12

    def test_dictator_pair_has_no_tail(self):
        f = spectrum(subcube(4, 1))
        pos, neg = tail_sign_sums(f, f)
        assert abs(pos) <= 1e-15
        assert abs(neg) <= 1e-15
