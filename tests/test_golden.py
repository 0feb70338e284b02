"""The committed golden digests (tests/golden.json) still hold: every
bundled CLI output and every seed-41/42 benchmark record is byte-identical
to the committed run, and to a run on another OpenBLAS kernel.  A change
that moves an output on purpose rewrites the file with
`python3 tests/golden.py` and says which entries moved."""

import json
import platform

import pytest

import golden


@pytest.fixture(scope="module")
def fresh():
    """The digests on the kernel OpenBLAS picks for this CPU."""
    return golden.generate()["digests"]


def test_digests_agree_across_blas_kernels(fresh):
    """Prescott, OpenBLAS's SSE3 kernel, runs on any x86-64 CPU; no BLAS
    product enters a value, so it gives every digest the same bits."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OpenBLAS's Prescott kernel is x86-64 only, this host "
                    f"is {platform.machine()}")
    moved = golden.moved(fresh, golden.generate("Prescott")["digests"])
    assert not moved, f"{len(moved)} of {len(fresh)} digests moved: {moved}"


def test_outputs_match_the_golden_digests(fresh):
    stored = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    reason = golden.skip_reason(stored)
    if reason is not None:
        pytest.skip(reason)
    want = stored["digests"]
    moved = golden.moved(want, fresh)
    assert not moved, f"{len(moved)} of {len(want)} digests moved: {moved}"
