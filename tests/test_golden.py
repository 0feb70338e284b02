"""The committed golden digests (tests/golden.json) still hold: every
bundled CLI output and every seed-41/42 benchmark record is byte-identical
to the committed run.  A change that moves an output on purpose rewrites
the file with `python3 tests/golden.py` and says which entries moved."""

import json

import pytest

import golden


def test_outputs_match_the_golden_digests():
    stored = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    reason = golden.skip_reason(stored)
    if reason is not None:
        pytest.skip(reason)
    fresh = golden.generate()["digests"]
    want = stored["digests"]
    moved = sorted(k for k in want.keys() | fresh.keys()
                   if want.get(k) != fresh.get(k))
    assert not moved, f"{len(moved)} of {len(want)} digests moved: {moved}"
