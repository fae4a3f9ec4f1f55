"""Differential test harness: screened vs. exact solver modes.

A property-style sweep over a *seeded random family* of conv and
matmul-like operator shapes (channel counts, spatial extents, kernel
sizes, strides, dilations, batch sizes) pins **screened ≡ exact**: the
mopt solve path runs on ``single_basin`` (epigraph selection) and
``polish_all`` (hypothesis refine) problems only, neither of which
consults ``SolverOptions.polish_starts``, so the default (screened) mode
and ``polish_starts=0`` (exact mode) must return identical integerized
configurations and identical predicted times, per permutation class.
The historical gap pins for the layers where the old greedy screening
cascade settled in a different basin are part of the same contract.

Whether the answers themselves stay unchanged across commits is checked
by ``benchmarks/answer_digest.py`` (base vs. head at
``OPENBLAS_NUM_THREADS=1``): answers depend on scipy's OpenBLAS thread
count, so no golden answers are committed here.

The generator is deterministic per seed, so a failure is reproducible
from the test id alone.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.optimizer import MOptOptimizer, OptimizerSettings, fast_settings
from repro.core.solver import SolverOptions
from repro.core.tensor_spec import ConvSpec

QUICK = SolverOptions(multistarts=0, maxiter=40, fallback_samples=50)

#: Seeds of the fast default sweep (every tier-1 run).
FAST_SEEDS = tuple(range(6))
#: Extra seeds of the extended nightly sweep.
SLOW_SEEDS = tuple(range(6, 24))


# ----------------------------------------------------------------------
# Seeded spec generator
# ----------------------------------------------------------------------
def random_operator_spec(seed: int) -> ConvSpec:
    """One random-but-reproducible operator shape.

    Cycles through four families: plain conv2d, strided conv, dilated
    conv and matmul-like (1x1 kernel over a 1x1 image: only the
    ``n/k/c`` loops have extent > 1, exactly a GEMM).  Extents are kept
    small so a full two-path optimization stays in unit-test budget
    while still exercising capacity pressure on the tiny machine.
    """
    rng = np.random.default_rng(12345 + seed)
    family = ("conv", "strided", "dilated", "matmul")[seed % 4]
    batch = int(rng.choice([1, 1, 2, 3]))
    out_channels = int(rng.choice([8, 16, 24, 32]))
    in_channels = int(rng.choice([4, 8, 12, 16]))
    if family == "matmul":
        # (K x C) @ (C x N): spatial extents collapse to 1.
        return ConvSpec(
            name=f"matmul-{seed}",
            batch=int(rng.choice([8, 16, 32])),
            out_channels=out_channels,
            in_channels=in_channels,
            in_height=1,
            in_width=1,
            kernel_h=1,
            kernel_w=1,
        )
    kernel = int(rng.choice([1, 3, 5])) if family == "conv" else 3
    stride = 2 if family == "strided" else 1
    dilation = int(rng.choice([2, 3])) if family == "dilated" else 1
    size = int(rng.choice([8, 10, 14, 16, 20]))
    padding = (kernel - 1) // 2 * dilation
    return ConvSpec(
        name=f"{family}-{seed}",
        batch=batch,
        out_channels=out_channels,
        in_channels=in_channels,
        in_height=size,
        in_width=size,
        kernel_h=kernel,
        kernel_w=kernel,
        stride=stride,
        dilation=dilation,
        padding=padding,
    )


def _settings(**overrides) -> OptimizerSettings:
    defaults = dict(
        levels=("L1", "L2"),
        fix_register_tile=False,
        solver=QUICK,
        top_k=8,
        permutation_class_names=None,
    )
    defaults.update(overrides)
    return OptimizerSettings(**defaults)


def _assert_screened_equals_exact(machine, settings: OptimizerSettings, spec) -> None:
    screened = MOptOptimizer(machine, settings).optimize(spec)
    exact = MOptOptimizer(
        machine, settings.with_solver(replace(settings.solver, polish_starts=0))
    ).optimize(spec)
    screened.best.config.validate(spec, integral=True)
    by_name = {c.class_name: c for c in screened.candidates}
    assert set(by_name) == {c.class_name for c in exact.candidates}
    for expected in exact.candidates:
        got = by_name[expected.class_name]
        assert got.config == expected.config, (
            f"{spec.name}/{expected.class_name}: screened != exact configuration"
        )
        assert got.predicted_time_seconds == expected.predicted_time_seconds, (
            f"{spec.name}/{expected.class_name}: screened != exact predicted "
            f"time ({got.predicted_time_seconds:.17e} vs "
            f"{expected.predicted_time_seconds:.17e})"
        )


# ----------------------------------------------------------------------
# Fast default sweep
# ----------------------------------------------------------------------
class TestDifferentialSweep:
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_screened_equals_exact(self, tiny_machine, seed):
        _assert_screened_equals_exact(
            tiny_machine, _settings(), random_operator_spec(seed)
        )

    def test_generator_is_deterministic(self):
        for seed in FAST_SEEDS + SLOW_SEEDS:
            assert random_operator_spec(seed) == random_operator_spec(seed)

    def test_generator_covers_all_families(self):
        names = [
            random_operator_spec(seed).name.split("-")[0]
            for seed in FAST_SEEDS + SLOW_SEEDS
        ]
        assert set(names) == {"conv", "strided", "dilated", "matmul"}

    def test_matmul_specs_are_gemms(self):
        matmuls = [
            random_operator_spec(seed)
            for seed in FAST_SEEDS + SLOW_SEEDS
            if (seed % 4) == 3
        ]
        assert matmuls
        for spec in matmuls:
            extents = spec.loop_extents
            assert extents["r"] == extents["s"] == 1
            assert extents["h"] == extents["w"] == 1
            assert extents["n"] > 1 and extents["k"] > 1 and extents["c"] > 1


# ----------------------------------------------------------------------
# Extended nightly sweep
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestDifferentialSweepExtended:
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_screened_equals_exact(self, tiny_machine, seed):
        _assert_screened_equals_exact(
            tiny_machine, _settings(), random_operator_spec(seed)
        )


# ----------------------------------------------------------------------
# Screened ≡ exact (formerly: gap regression on known divergent layers)
# ----------------------------------------------------------------------
#: Layers where the *old* greedy screening cascade settled in a
#: different basin than the unscreened multistart on the paper's 4-level
#: machine (see ROADMAP, "screened-mode robustness").  The loss-free
#: screening rework removed that divergence entirely: the mopt path is
#: built from ``single_basin`` and ``polish_all`` problems only, so
#: ``polish_starts`` never changes which starts get polished.  These
#: layers stay pinned — now at bitwise equality — so a future screening
#: shortcut cannot silently reintroduce a gap.
KNOWN_DIVERGENT_LAYERS = (
    ConvSpec("golden-r4", 1, 32, 32, 7, 7, 3, 3, padding=1),
    ConvSpec("r12-like", 1, 64, 64, 7, 7, 3, 3, padding=1),
)


class TestScreenedModeEqualsExact:
    @pytest.mark.parametrize(
        "spec", KNOWN_DIVERGENT_LAYERS, ids=lambda spec: spec.name
    )
    def test_screened_equals_exact_on_formerly_divergent_layers(
        self, i7_machine, spec
    ):
        base = fast_settings(
            solver=QUICK,
            permutation_class_names=("inner-w", "inner-s", "inner-wk", "inner-sk"),
        )
        _assert_screened_equals_exact(i7_machine, base, spec)
