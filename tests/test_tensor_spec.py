"""Unit tests for problem/tensor index algebra (repro.core.tensor_spec)."""

import math

import pytest

from repro.core.tensor_spec import (
    LOOP_INDICES,
    PARALLEL_INDICES,
    REDUCTION_INDICES,
    TENSOR_INDICES,
    TENSOR_NAMES,
    ConvSpec,
    InvalidSpecError,
    TensorAccess,
    clamp_tiles,
    divisor_tiles,
    num_tiles,
    tensor_accesses,
    total_footprint,
    validate_tiles,
)
from repro.workloads.benchmarks import all_benchmarks


class TestConstants:
    def test_seven_loop_indices(self):
        assert len(LOOP_INDICES) == 7
        assert set(LOOP_INDICES) == {"n", "k", "c", "r", "s", "h", "w"}

    def test_three_tensors(self):
        assert TENSOR_NAMES == ("Out", "In", "Ker")

    def test_each_index_present_in_exactly_two_tensors(self):
        # Section 4: "each of the seven loop indices is present in exactly two
        # of the three tensors and absent in one".
        for index in LOOP_INDICES:
            count = sum(1 for tensor in TENSOR_NAMES if index in TENSOR_INDICES[tensor])
            assert count == 2, index

    def test_reduction_and_parallel_indices_partition(self):
        assert set(REDUCTION_INDICES) | set(PARALLEL_INDICES) == set(LOOP_INDICES)
        assert not set(REDUCTION_INDICES) & set(PARALLEL_INDICES)


class TestConvSpec:
    def test_output_extent_same_padding(self, small_spec):
        assert small_spec.out_height == 14
        assert small_spec.out_width == 14

    def test_output_extent_stride_two(self, strided_spec):
        assert strided_spec.out_height == 8
        assert strided_spec.out_width == 8

    def test_pointwise_output_matches_input(self, pointwise_spec):
        assert pointwise_spec.out_height == pointwise_spec.in_height

    def test_loop_extents_keys(self, small_spec):
        assert set(small_spec.loop_extents) == set(LOOP_INDICES)

    def test_macs_and_flops(self, tiny_spec):
        expected_macs = 1 * 8 * 4 * 3 * 3 * 6 * 6
        assert tiny_spec.macs == expected_macs
        assert tiny_spec.flops == 2 * expected_macs

    def test_macs_is_the_loop_extent_product_for_every_table1_spec(self):
        for spec in all_benchmarks():
            assert spec.macs == math.prod(spec.loop_extents.values()), spec.name

    def test_element_counts(self, tiny_spec):
        assert tiny_spec.out_elements == 1 * 8 * 6 * 6
        assert tiny_spec.ker_elements == 8 * 4 * 3 * 3
        # padded input: (6 + 2*1)^2 spatial
        assert tiny_spec.in_elements == 1 * 4 * 8 * 8
        assert tiny_spec.total_elements == (
            tiny_spec.out_elements + tiny_spec.ker_elements + tiny_spec.in_elements
        )

    def test_total_bytes(self, tiny_spec):
        assert tiny_spec.total_bytes == tiny_spec.total_elements * 4

    def test_invalid_negative_dimension(self):
        with pytest.raises(InvalidSpecError):
            ConvSpec("bad", 0, 8, 8, 8, 8, 3, 3)

    def test_invalid_padding(self):
        with pytest.raises(InvalidSpecError):
            ConvSpec("bad", 1, 8, 8, 8, 8, 3, 3, padding=-1)

    def test_invalid_kernel_larger_than_input(self):
        with pytest.raises(InvalidSpecError):
            ConvSpec("bad", 1, 8, 8, 4, 4, 7, 7)

    def test_scaled_reduces_spatial(self):
        spec = ConvSpec("big", 1, 64, 64, 128, 128, 3, 3, padding=1)
        smaller = spec.scaled(0.25)
        assert smaller.in_height < spec.in_height
        assert smaller.out_channels == spec.out_channels
        assert smaller.kernel_h == spec.kernel_h

    def test_scaled_invalid_factor(self, small_spec):
        with pytest.raises(InvalidSpecError):
            small_spec.scaled(0.0)

    def test_with_batch(self, small_spec):
        assert small_spec.with_batch(4).batch == 4

    def test_describe_mentions_stride_star(self, strided_spec, small_spec):
        assert "*" in strided_spec.describe()
        assert "*" not in small_spec.describe()

    def test_effective_kernel_with_dilation(self):
        spec = ConvSpec("dilated", 1, 8, 8, 16, 16, 3, 3, dilation=2)
        assert spec.effective_kernel_h == 5
        assert spec.out_height == 16 - 5 + 1


class TestTensorAccess:
    def test_present_absent_partition(self, small_spec):
        for tensor in TENSOR_NAMES:
            access = TensorAccess(tensor, small_spec)
            assert set(access.present_indices) | set(access.absent_indices) == set(LOOP_INDICES)
            assert not set(access.present_indices) & set(access.absent_indices)

    def test_k_absent_only_in_input(self, small_spec):
        assert not TensorAccess("In", small_spec).is_present("k")
        assert TensorAccess("Out", small_spec).is_present("k")
        assert TensorAccess("Ker", small_spec).is_present("k")

    def test_unknown_tensor_rejected(self, small_spec):
        with pytest.raises(InvalidSpecError):
            TensorAccess("Bogus", small_spec)

    def test_unknown_index_rejected(self, small_spec):
        with pytest.raises(InvalidSpecError):
            TensorAccess("Out", small_spec).is_present("z")

    def test_out_footprint(self, small_spec, sample_tiles):
        access = TensorAccess("Out", small_spec)
        assert access.footprint(sample_tiles) == 1 * 8 * 7 * 7

    def test_ker_footprint(self, small_spec, sample_tiles):
        access = TensorAccess("Ker", small_spec)
        assert access.footprint(sample_tiles) == 8 * 4 * 3 * 3

    def test_in_footprint_halo(self, small_spec, sample_tiles):
        # (Th + Tr - 1)(Tw + Ts - 1) for stride 1.
        access = TensorAccess("In", small_spec)
        assert access.footprint(sample_tiles) == 1 * 4 * (7 + 3 - 1) * (7 + 3 - 1)

    def test_in_footprint_stride(self, strided_spec):
        tiles = {"n": 1, "k": 4, "c": 2, "r": 3, "s": 3, "h": 4, "w": 4}
        access = TensorAccess("In", strided_spec)
        # extent = (4-1)*2 + (3-1)*1 + 1 = 9 per spatial dim
        assert access.footprint(tiles) == 1 * 2 * 9 * 9

    def test_full_footprint_matches_tensor_size(self, small_spec):
        out = TensorAccess("Out", small_spec)
        assert out.full_footprint() == small_spec.out_elements

    def test_total_footprint_is_sum(self, small_spec, sample_tiles):
        expected = sum(
            TensorAccess(t, small_spec).footprint(sample_tiles) for t in TENSOR_NAMES
        )
        assert total_footprint(small_spec, sample_tiles) == expected

    def test_tensor_accesses_builder(self, small_spec):
        accesses = tensor_accesses(small_spec)
        assert set(accesses) == set(TENSOR_NAMES)


class TestTileValidation:
    def test_validate_accepts_good_tiles(self, small_spec, sample_tiles):
        validate_tiles(small_spec, sample_tiles)

    def test_validate_rejects_missing_index(self, small_spec, sample_tiles):
        bad = dict(sample_tiles)
        del bad["w"]
        with pytest.raises(InvalidSpecError):
            validate_tiles(small_spec, bad)

    def test_validate_rejects_oversized(self, small_spec, sample_tiles):
        bad = dict(sample_tiles, h=100)
        with pytest.raises(InvalidSpecError):
            validate_tiles(small_spec, bad)

    def test_validate_rejects_sub_one(self, small_spec, sample_tiles):
        bad = dict(sample_tiles, c=0.5)
        with pytest.raises(InvalidSpecError):
            validate_tiles(small_spec, bad)

    def test_validate_integral(self, small_spec, sample_tiles):
        bad = dict(sample_tiles, h=3.5)
        validate_tiles(small_spec, bad)  # ok when not integral
        with pytest.raises(InvalidSpecError):
            validate_tiles(small_spec, bad, integral=True)

    def test_clamp_tiles(self, small_spec):
        tiles = {i: 1000.0 for i in LOOP_INDICES}
        clamped = clamp_tiles(small_spec, tiles)
        for index in LOOP_INDICES:
            assert clamped[index] == small_spec.loop_extents[index]

    def test_num_tiles_full_problem_is_one(self, small_spec):
        tiles = {i: float(e) for i, e in small_spec.loop_extents.items()}
        assert num_tiles(small_spec, tiles) == pytest.approx(1.0)

    def test_num_tiles_unit_tiles(self, tiny_spec):
        tiles = {i: 1.0 for i in LOOP_INDICES}
        assert num_tiles(tiny_spec, tiles) == pytest.approx(tiny_spec.macs)


class TestDivisorTiles:
    def test_divisors_of_12(self):
        assert divisor_tiles(12) == (1, 2, 3, 4, 6, 12)

    def test_divisors_capped(self):
        capped = divisor_tiles(360, max_values=5)
        assert len(capped) <= 5
        assert 1 in capped and 360 in capped

    def test_divisors_of_prime(self):
        assert divisor_tiles(13) == (1, 13)

    def test_divisors_invalid(self):
        with pytest.raises(InvalidSpecError):
            divisor_tiles(0)

    def test_repeated_calls_return_equal_tuples(self):
        first = divisor_tiles(360)
        assert divisor_tiles(360) == first
        assert divisor_tiles(360, max_values=5) == divisor_tiles(360, max_values=5)
        assert divisor_tiles(360) == first  # capping does not touch the memo
        assert first == tuple(d for d in range(1, 361) if 360 % d == 0)

    def test_invalid_extent_raises_after_cached_calls(self):
        divisor_tiles(1)
        divisor_tiles(12)
        for bad in (0, -12, True, 12.0):
            with pytest.raises(InvalidSpecError):
                divisor_tiles(bad)
