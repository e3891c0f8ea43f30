"""Golden trajectories: both digests of every solver cell and of one
compare CSV, the trajectory and the residual digest, as recorded in
tests/golden.json (see tests/golden.py for what each hashes).

The determinism contract holds within one build, so the digests are
checked only on the numpy version and BLAS stamped in the file; on any
other build the test skips and says which build the file was made on.
Regenerate it there with `PYTHONPATH=src python3 tests/golden.py` to
get a baseline for that build.  A mismatch on the stamped build means a
random stream or a rounding changed: a change that means it regenerates
the file and names the changed digests in CHANGES.md.
"""

import json

import pytest

from golden import GOLDEN, differences, digests, stamp


def test_trajectories_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    made_on = {key: golden[key] for key in stamp()}
    if made_on != stamp():
        pytest.skip(f"golden digests were made on {made_on}, this build is {stamp()}")
    changed = differences(golden, digests())
    assert not changed, f"{len(changed)} digests changed: {changed}"
