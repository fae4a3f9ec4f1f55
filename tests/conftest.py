"""Shared fixtures for the test-suite.

Tests run against deliberately small conv specs and a tiny machine so the
whole suite stays fast while still exercising every code path (capacity
effects, multi-level tiling, parallel planning, simulation, code
generation).
"""

from __future__ import annotations

# Imported eagerly so hypothesis's pytest plugin never lazily imports it
# from deep inside the terminal-summary hook stack: on CPython 3.11 the
# assertion-rewrite `compile()` of hypothesis's modules can hit the "AST
# constructor recursion depth mismatch" interpreter bug when the import
# happens that deep.  At collection time (shallow stack) it is safe —
# which is also why running the full suite (where test_properties.py
# imports hypothesis at collection) never showed the crash.
import hypothesis  # noqa: F401

import pytest

from repro.core.config import MultiLevelConfig, TilingConfig
from repro.core.solver import pin_blas_threads
from repro.core.tensor_spec import ConvSpec
from repro.machine.presets import coffee_lake_i7_9700k, tiny_test_machine


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    """Pin scipy's OpenBLAS to one thread before any test runs.

    The solver pins it at its first solve, so a test that calls
    ``scipy.optimize.minimize`` (the oracles of ``test_batched.py``)
    before any solve ran in the process would otherwise use the host's
    thread count, and its bitwise comparison would depend on test order.
    """
    pin_blas_threads()


@pytest.fixture(scope="session")
def tiny_machine():
    """A small machine (4 KiB L1 / 32 KiB L2 / 256 KiB L3, 4 cores)."""
    return tiny_test_machine()


@pytest.fixture(scope="session")
def i7_machine():
    """The paper's first evaluation platform."""
    return coffee_lake_i7_9700k()


@pytest.fixture(scope="session")
def small_spec():
    """A small 3x3 convolution used throughout the unit tests."""
    return ConvSpec(
        name="small",
        batch=1,
        out_channels=32,
        in_channels=16,
        in_height=14,
        in_width=14,
        kernel_h=3,
        kernel_w=3,
        padding=1,
    )


@pytest.fixture(scope="session")
def tiny_spec():
    """A very small convolution for exhaustive / element-level checks."""
    return ConvSpec(
        name="tiny",
        batch=1,
        out_channels=8,
        in_channels=4,
        in_height=6,
        in_width=6,
        kernel_h=3,
        kernel_w=3,
        padding=1,
    )


@pytest.fixture(scope="session")
def strided_spec():
    """A stride-2 convolution (like the * rows of Table 1)."""
    return ConvSpec(
        name="strided",
        batch=1,
        out_channels=16,
        in_channels=8,
        in_height=16,
        in_width=16,
        kernel_h=3,
        kernel_w=3,
        stride=2,
        padding=1,
    )


@pytest.fixture(scope="session")
def pointwise_spec():
    """A 1x1 convolution (like Y5/Y13 of Table 1)."""
    return ConvSpec(
        name="pointwise",
        batch=1,
        out_channels=32,
        in_channels=32,
        in_height=8,
        in_width=8,
        kernel_h=1,
        kernel_w=1,
    )


@pytest.fixture
def sample_tiles(small_spec):
    """A mid-sized tile assignment valid for ``small_spec``."""
    return {"n": 1, "k": 8, "c": 4, "r": 3, "s": 3, "h": 7, "w": 7}


@pytest.fixture
def sample_config(small_spec, sample_tiles):
    """A single-level configuration for ``small_spec``."""
    return TilingConfig(("k", "c", "r", "s", "n", "h", "w"), sample_tiles)


@pytest.fixture
def sample_multilevel(small_spec, sample_config):
    """A two-level configuration for ``small_spec`` (L1 nested in L2)."""
    outer = TilingConfig(
        sample_config.permutation,
        {"n": 1, "k": 16, "c": 16, "r": 3, "s": 3, "h": 14, "w": 14},
    )
    return MultiLevelConfig(("L1", "L2"), (sample_config, outer))
