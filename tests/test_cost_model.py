"""Unit tests for the single-level analytical cost model (repro.core.cost_model)."""

import math

import pytest

from repro.core.config import TilingConfig
from repro.core.cost_model import (
    OUT_TRAFFIC_FACTOR,
    CompiledPermutationCost,
    combined_footprint,
    data_volume,
    matmul_reference_volume,
    per_tensor_volumes,
    reuse_position,
    tensor_data_volume,
    tensor_footprint,
    total_data_volume,
    volume_general,
)
from repro.core.tensor_spec import LOOP_INDICES, TENSOR_NAMES, ConvSpec

INNER_W_PERM = ("k", "c", "r", "s", "n", "h", "w")  # class <{k,c,r,s},{n,h},w>
INNER_S_PERM = ("n", "k", "h", "w", "c", "r", "s")  # class <{n,k,h,w},{c,r},s>


def full_extents(spec):
    return {i: float(e) for i, e in spec.loop_extents.items()}


class TestReusePosition:
    def test_out_reuse_with_w_innermost(self, small_spec, sample_tiles):
        config = TilingConfig(INNER_W_PERM, sample_tiles)
        position, iterator = reuse_position(config, "Out")
        assert (position, iterator) == (1, "w")

    def test_ker_reuse_with_w_innermost(self, small_spec, sample_tiles):
        config = TilingConfig(INNER_W_PERM, sample_tiles)
        position, iterator = reuse_position(config, "Ker")
        # k, c, r, s occupy positions 7..4; innermost present is s at 4.
        assert (position, iterator) == (4, "s")

    def test_in_reuse_with_s_innermost(self, small_spec, sample_tiles):
        config = TilingConfig(INNER_S_PERM, sample_tiles)
        assert reuse_position(config, "In") == (1, "s")
        assert reuse_position(config, "Out") == (4, "w")


class TestFootprints:
    def test_combined_footprint_matches_eq4(self, small_spec, sample_tiles):
        t = sample_tiles
        expected = (
            t["n"] * t["c"] * (t["h"] + t["r"] - 1) * (t["w"] + t["s"] - 1)
            + t["k"] * t["c"] * t["r"] * t["s"]
            + t["n"] * t["k"] * t["h"] * t["w"]
        )
        assert combined_footprint(sample_tiles) == pytest.approx(expected)

    def test_footprint_monotone_in_tile_size(self, sample_tiles):
        bigger = dict(sample_tiles, h=sample_tiles["h"] + 2)
        for tensor in TENSOR_NAMES:
            assert tensor_footprint(tensor, bigger) >= tensor_footprint(tensor, sample_tiles)

    def test_unknown_tensor(self, sample_tiles):
        with pytest.raises(Exception):
            tensor_footprint("Nope", sample_tiles)


class TestPaperEquation5:
    """The closed-form of Eq. (5) for permutation ⟨kt,ct,rt,st,nt,ht,wt⟩."""

    def equation5(self, spec, t):
        n = spec.loop_extents
        outer = (n["k"] / t["k"]) * (n["c"] / t["c"]) * (n["r"] / t["r"]) * (n["s"] / t["s"])
        inner = (n["n"] / t["n"]) * (n["h"] / t["h"]) * (
            2 * (n["w"] / t["w"]) * t["n"] * t["k"] * t["h"] * t["w"]
            + t["n"] * t["c"] * (t["h"] + t["r"] - 1) * (n["w"] + t["s"] - 1)
        )
        return outer * (t["k"] * t["c"] * t["r"] * t["s"] + inner)

    def test_matches_generic_model(self, small_spec, sample_tiles):
        config = TilingConfig(INNER_W_PERM, sample_tiles)
        assert total_data_volume(small_spec, config) == pytest.approx(
            self.equation5(small_spec, sample_tiles)
        )

    def test_matches_for_divisor_tiles(self, small_spec):
        tiles = {"n": 1, "k": 16, "c": 8, "r": 1, "s": 3, "h": 2, "w": 14}
        config = TilingConfig(INNER_W_PERM, tiles)
        assert total_data_volume(small_spec, config) == pytest.approx(
            self.equation5(small_spec, tiles)
        )


class TestInnermostSClass:
    """Closed forms for the ⟨{n,k,h,w},{c,r},s⟩ class (Section 4, innermost st)."""

    def test_out_ker_in_terms(self, small_spec, sample_tiles):
        n = small_spec.loop_extents
        t = sample_tiles
        config = TilingConfig(INNER_S_PERM, sample_tiles)
        volumes = per_tensor_volumes(small_spec, config)

        ratio = lambda i: n[i] / t[i]  # noqa: E731
        expected_ker = (
            ratio("n") * ratio("k") * ratio("c") * ratio("r") * ratio("s")
            * ratio("w") * ratio("h") * (t["k"] * t["c"] * t["r"] * t["s"])
        )
        expected_in = (
            ratio("n") * ratio("k") * ratio("c") * ratio("r") * ratio("w") * ratio("h")
            * t["n"] * t["c"] * (t["h"] + t["r"] - 1) * (t["w"] + n["s"] - 1)
        )
        expected_out = 2 * ratio("n") * ratio("k") * ratio("h") * ratio("w") * (
            t["n"] * t["k"] * t["h"] * t["w"]
        )
        assert volumes["Ker"] == pytest.approx(expected_ker)
        assert volumes["In"] == pytest.approx(expected_in)
        assert volumes["Out"] == pytest.approx(expected_out)


class TestCostModelProperties:
    def test_out_has_factor_two(self, small_spec, sample_tiles):
        config = TilingConfig(INNER_W_PERM, sample_tiles)
        cost = tensor_data_volume(small_spec, config, "Out")
        assert not cost.partial_reuse
        # Removing the factor 2 should halve it.
        assert cost.volume / OUT_TRAFFIC_FACTOR == pytest.approx(cost.volume / 2)

    def test_full_problem_tiles_lower_bound(self, small_spec):
        """With tiles == problem sizes, the model gives the compulsory traffic."""
        tiles = full_extents(small_spec)
        config = TilingConfig(INNER_W_PERM, tiles)
        volumes = per_tensor_volumes(small_spec, config)
        assert volumes["Ker"] == pytest.approx(small_spec.ker_elements)
        assert volumes["Out"] == pytest.approx(2 * small_spec.out_elements)

    def test_volume_at_least_compulsory(self, small_spec, sample_tiles):
        for permutation in (INNER_W_PERM, INNER_S_PERM):
            config = TilingConfig(permutation, sample_tiles)
            volumes = per_tensor_volumes(small_spec, config)
            assert volumes["Ker"] >= small_spec.ker_elements - 1e-6
            assert volumes["Out"] >= 2 * small_spec.out_elements - 1e-6

    def test_band_members_have_equal_cost(self, small_spec, sample_tiles):
        """Permutations within one band-class share the same cost expression."""
        member_a = ("k", "c", "r", "s", "n", "h", "w")
        member_b = ("s", "r", "c", "k", "h", "n", "w")
        cost_a = total_data_volume(small_spec, TilingConfig(member_a, sample_tiles))
        cost_b = total_data_volume(small_spec, TilingConfig(member_b, sample_tiles))
        assert cost_a == pytest.approx(cost_b)

    def test_larger_cache_friendly_tiles_reduce_ker_reloads(self, small_spec):
        small = {"n": 1, "k": 4, "c": 2, "r": 3, "s": 3, "h": 2, "w": 2}
        large = {"n": 1, "k": 4, "c": 2, "r": 3, "s": 3, "h": 14, "w": 14}
        config_small = TilingConfig(INNER_W_PERM, small)
        config_large = TilingConfig(INNER_W_PERM, large)
        ker_small = per_tensor_volumes(small_spec, config_small)["Ker"]
        ker_large = per_tensor_volumes(small_spec, config_large)["Ker"]
        assert ker_large <= ker_small

    def test_line_size_scaling_increases_volume(self, small_spec):
        tiles = {"n": 1, "k": 8, "c": 4, "r": 3, "s": 3, "h": 7, "w": 7}
        config = TilingConfig(INNER_W_PERM, tiles)
        element_volume = total_data_volume(small_spec, config, line_size=1)
        line_volume = total_data_volume(small_spec, config, line_size=16)
        assert line_volume >= element_volume

    def test_capacity_recorded_in_breakdown(self, small_spec, sample_config):
        breakdown = data_volume(small_spec, sample_config, capacity=1e9)
        assert breakdown.capacity == 1e9
        assert breakdown.fits_capacity
        tight = data_volume(small_spec, sample_config, capacity=10.0)
        assert not tight.fits_capacity

    def test_volume_bytes(self, small_spec, sample_config):
        breakdown = data_volume(small_spec, sample_config)
        assert breakdown.volume_bytes(4) == pytest.approx(4 * breakdown.total_volume)


class TestStrideAndDilation:
    def test_strided_in_footprint_used(self, strided_spec):
        tiles = {"n": 1, "k": 8, "c": 4, "r": 3, "s": 3, "h": 4, "w": 4}
        config = TilingConfig(INNER_W_PERM, tiles)
        volumes = per_tensor_volumes(strided_spec, config)
        # In footprint per tile: 1*4*9*9; it must show up in the volume.
        assert volumes["In"] > 0
        assert volumes["Ker"] >= strided_spec.ker_elements - 1e-9

    def test_stride_increases_in_traffic_vs_same_output(self):
        base = ConvSpec("s1", 1, 16, 8, 16, 16, 3, 3, padding=1)
        strided = ConvSpec("s2", 1, 16, 8, 31, 31, 3, 3, stride=2, padding=1)
        assert base.out_height == strided.out_height
        tiles = {"n": 1, "k": 8, "c": 4, "r": 3, "s": 3, "h": 4, "w": 4}
        v1 = per_tensor_volumes(base, TilingConfig(INNER_W_PERM, tiles))["In"]
        v2 = per_tensor_volumes(strided, TilingConfig(INNER_W_PERM, tiles))["In"]
        assert v2 > v1


class TestMatmulAnalogy:
    def test_eq3_formula(self):
        assert matmul_reference_volume(100, 80, 60, 10, 8) == pytest.approx(
            100 * 80 * 60 * (1 / 10 + 1 / 8 + 2 / 60)
        )


class TestCompiledCostModel:
    def test_matches_generic_for_all_pruned_classes(self, small_spec, sample_tiles):
        import numpy as np

        from repro.core.pruning import pruned_representatives

        problem = full_extents(small_spec)
        problem_array = np.array([problem[i] for i in LOOP_INDICES])
        tiles_array = np.array([float(sample_tiles[i]) for i in LOOP_INDICES])
        for permutation in pruned_representatives():
            compiled = CompiledPermutationCost(permutation)
            config = TilingConfig(permutation, sample_tiles)
            reference = total_data_volume(small_spec, config)
            assert compiled.volume_floats(
                problem_array.tolist(), tiles_array.tolist()
            ) == pytest.approx(reference)

    def test_footprint_floats_matches(self, sample_tiles):
        compiled = CompiledPermutationCost(INNER_W_PERM)
        tiles = [float(sample_tiles[i]) for i in LOOP_INDICES]
        assert compiled.footprint_floats(tiles) == pytest.approx(
            combined_footprint(sample_tiles)
        )

    def test_volume_general_matches_spec_wrapper(self, small_spec, sample_tiles):
        config = TilingConfig(INNER_S_PERM, sample_tiles)
        problem = full_extents(small_spec)
        assert volume_general(problem, config) == pytest.approx(
            total_data_volume(small_spec, config)
        )
