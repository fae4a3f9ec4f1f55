"""Tests for benchmark definitions and configuration sampling (repro.workloads)."""

import pytest

from repro.core.tensor_spec import LOOP_INDICES, ConvSpec, InvalidSpecError
from repro.workloads import benchmarks as benchmarks_module
from repro.workloads.benchmarks import (
    all_benchmarks,
    benchmark_by_name,
    figure6_operators,
    network_benchmarks,
    network_names,
    scaled_benchmarks,
    table1_rows,
    uniformly_scaled,
)
from repro.workloads.sampling import (
    SamplerOptions,
    grid_configurations,
    sample_configurations,
)


class TestTable1:
    def test_operator_counts(self):
        assert len(network_benchmarks("yolo9000")) == 11
        assert len(network_benchmarks("resnet18")) == 12
        assert len(network_benchmarks("mobilenet")) == 9
        assert len(all_benchmarks()) == 32

    def test_y0_row(self):
        y0 = benchmark_by_name("Y0")
        assert y0.out_channels == 32
        assert y0.in_channels == 3
        assert y0.in_height == 544
        assert y0.kernel_h == 3
        assert y0.stride == 1

    def test_stride2_rows_marked(self):
        r1 = benchmark_by_name("R1")
        assert r1.stride == 2 and r1.kernel_h == 7
        m2 = benchmark_by_name("M2")
        assert m2.stride == 2

    def test_y23_large_output_channels(self):
        assert benchmark_by_name("Y23").out_channels == 28269

    def test_batch_size_default_one(self):
        assert all(spec.batch == 1 for spec in all_benchmarks())

    def test_unknown_names(self):
        with pytest.raises(KeyError):
            benchmark_by_name("Z1")
        with pytest.raises(KeyError):
            network_benchmarks("vgg")

    def test_table1_rows_structure(self):
        rows = table1_rows()
        assert len(rows) == 32
        assert {"network", "layer", "K", "C", "H/W", "R/S", "stride"} <= set(rows[0])

    def test_figure6_operators(self):
        ops = figure6_operators()
        assert set(ops) == {"Resnet9", "Mobnet2", "Yolo5"}
        assert ops["Resnet9"].name == "R9"

    def test_network_names(self):
        assert set(network_names()) == {"yolo9000", "resnet18", "mobilenet"}

    def test_custom_batch(self):
        assert benchmark_by_name("R2", batch=4).batch == 4

    def test_specs_are_built_once_per_network_and_batch(self, monkeypatch):
        built = []
        post_init = ConvSpec.__post_init__

        def counting(self):
            built.append(self.name)
            post_init(self)

        monkeypatch.setattr(ConvSpec, "__post_init__", counting)
        benchmarks_module._network_specs.cache_clear()
        first = network_benchmarks("mobilenet")
        assert len(built) == 9
        second = network_benchmarks("MobileNet")
        assert len(built) == 9
        assert second == first and second is not first
        first.clear()
        assert len(network_benchmarks("mobilenet")) == 9
        benchmark_by_name("R3")
        benchmark_by_name("Y13")
        assert len(built) == 9 + 12 + 11

    def test_memoized_specs_keep_batch_validation(self):
        network_benchmarks("resnet18", batch=1)
        for batch in (True, 1.0, 0):
            with pytest.raises(InvalidSpecError):
                network_benchmarks("resnet18", batch=batch)


class TestScaling:
    def test_scaled_benchmarks_reduce_macs(self):
        specs = [benchmark_by_name("Y0")]
        scaled = scaled_benchmarks(specs, max_macs=1e7)
        assert scaled[0].macs < specs[0].macs
        assert scaled[0].in_channels == specs[0].in_channels

    def test_scaled_benchmarks_channel_cap(self):
        scaled = scaled_benchmarks([benchmark_by_name("M9")], max_macs=1e7, max_channels=64)
        assert scaled[0].out_channels == 64

    def test_small_operator_unchanged(self):
        spec = benchmark_by_name("R12")
        assert scaled_benchmarks([spec], max_macs=1e12)[0] is spec

    def test_uniform_scaling_preserves_character(self):
        big = benchmark_by_name("M9")
        small = uniformly_scaled(big, max_macs=2e6)
        assert small.macs <= 3e6
        assert small.out_channels == small.in_channels  # M9 has K == C
        assert small.kernel_h == big.kernel_h

    def test_uniform_scaling_noop_for_small(self, tiny_spec):
        assert uniformly_scaled(tiny_spec, max_macs=1e12) is tiny_spec


class TestSampling:
    def test_sample_count_and_determinism(self, small_spec):
        a = sample_configurations(small_spec, count=20, options=SamplerOptions(seed=3))
        b = sample_configurations(small_spec, count=20, options=SamplerOptions(seed=3))
        assert len(a) == 20
        assert [c.configs[0].tiles for c in a] == [c.configs[0].tiles for c in b]

    def test_different_seeds_differ(self, small_spec):
        a = sample_configurations(small_spec, count=20, options=SamplerOptions(seed=1))
        b = sample_configurations(small_spec, count=20, options=SamplerOptions(seed=2))
        assert [c.configs[0].tiles for c in a] != [c.configs[0].tiles for c in b]

    def test_samples_are_valid_and_nested(self, small_spec):
        for config in sample_configurations(small_spec, count=30):
            config.validate(small_spec, integral=True)

    def test_tile_sizes_divide_extents(self, small_spec):
        for config in sample_configurations(small_spec, count=15):
            for level_config in config.configs:
                for index in LOOP_INDICES:
                    assert small_spec.loop_extents[index] % int(level_config.tiles[index]) == 0

    def test_no_duplicates(self, small_spec):
        configs = sample_configurations(small_spec, count=40)
        keys = [tuple(cfg.key() for cfg in c.configs) for c in configs]
        assert len(keys) == len(set(keys))

    def test_levels_option(self, small_spec):
        configs = sample_configurations(
            small_spec, count=5, options=SamplerOptions(levels=("L1",))
        )
        assert all(c.levels == ("L1",) for c in configs)

    def test_grid_configurations(self, small_spec):
        configs = grid_configurations(small_spec, ("n", "k", "c", "r", "s", "h", "w"))
        assert len(configs) >= 7
        for config in configs:
            config.validate(small_spec, integral=True)
