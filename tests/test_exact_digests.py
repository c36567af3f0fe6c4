"""Byte-identity gate for the exact and limit layers, at both benchmark sizes.

Runs every pool entry of the benchmark's `exact` and `limits` workloads and
checks each output against its recorded SHA-256 digest and its independent
route (the operator route of add_conv, the parameter-tuple merge of
mult_conv, exact Beta orthogonality, the direct KdF expansion, series
reversion against composition, the free convolutions against the product
S-transform, densities against the r = 2 closed forms, support candidates
against the discriminant, ...).  Reads `bench/` and writes nothing there.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.child import check_pass, run_pass  # noqa: E402
from bench.common import load_digests  # noqa: E402
from bench.workloads import exact, limits  # noqa: E402

POOL_SIZE = max(len(slot.pool) for module in (exact, limits) for slot in module.slots("tiny"))


def _failures(module, size, entry):
    ops = [op for slot in module.slots(size) for op in slot.make(slot.pool[entry % len(slot.pool)])]
    env, errors, _, _ = run_pass(ops)
    failures, _ = check_pass(ops, env, errors, load_digests())
    return failures


@pytest.mark.parametrize("entry", range(POOL_SIZE))
@pytest.mark.parametrize("size", ["tiny", "full"])
def test_exact_outputs_match_digests_and_routes(size, entry):
    assert _failures(exact, size, entry) == {}


@pytest.mark.parametrize("entry", range(POOL_SIZE))
@pytest.mark.parametrize("size", ["tiny", "full"])
def test_limits_outputs_match_digests_and_routes(size, entry):
    assert _failures(limits, size, entry) == {}
