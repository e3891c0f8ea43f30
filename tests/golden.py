"""Golden trajectories: one SHA-256 digest per solver cell, and one of a
CLI compare CSV.

    PYTHONPATH=src python3 tests/golden.py

rewrites tests/golden.json from the current tree, after printing the
digests that differ from the old file; tests/test_golden.py recomputes
every digest and compares.  A change that alters a random stream or a
rounding on purpose regenerates the file and names the changed cells
(the printed list) in CHANGES.md; every other cell must stay equal.

A cell is (system, method, s, seed): 1000 steps at tol 1e-10 with the
squared error recorded, every step up to 500 and every 7th after that,
so both the dense and the thinned stretch of the trace are covered (and
the gaussian runs stop on the residual rule before the end).  Its digest
hashes the final iterate's bytes, the status and every record's
(iter, error_sq, residual_norm); wall times are left out.

The digests hold for one build: another numpy, BLAS or CPU kernel may
round a matrix-vector product differently.  The file therefore stamps
the numpy version and BLAS it was made with (see stamp()).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import struct
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from sketchsolve import ModelSpec, SolverConfig, generate_system, run
from sketchsolve.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

SYSTEMS = (("gaussian", 200, 20, 11), ("coherent", 1000, 50, 12))
METHOD_CELLS = (("kaczmarz", 1), ("motzkin", 1), *((m, s) for m in ("skm", "gsm", "sgsm") for s in (1, 7, 25)))
SEEDS = (0, 1)
RUN = dict(max_iters=1000, tol=1e-10, record_error=True, record_dense_limit=500, record_stride=7)

# generate, then compare every method for two trials; the elapsed_ns column is dropped.
COMPARE_SYSTEM = ["--model", "coherent", "--rows", "120", "--cols", "12", "--seed", "5"]
COMPARE = ["--methods", "kaczmarz,motzkin,skm:7,gsm:7,sgsm:7", "--trials", "2", "--max-iters", "400",
           "--record-dense", "100", "--record-stride", "9", "--tol", "1e-10"]


def stamp() -> dict:
    """The build the digests hold for: numpy's version and its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def cell_digests() -> dict:
    digests = {}
    for kind, m, n, model_seed in SYSTEMS:
        system = generate_system(ModelSpec(kind, m, n, model_seed))
        for method, s in METHOD_CELLS:
            for seed in SEEDS:
                x, trace = run(system, SolverConfig(method, s=s, seed=seed, **RUN))
                h = hashlib.sha256(x.a.tobytes())
                h.update(trace.status.encode())
                for rec in trace.records:
                    h.update(struct.pack("<qdd", rec.iter, rec.error_sq, rec.residual_norm))
                digests[f"{kind}-{m}x{n}/{method}/s{s}/seed{seed}"] = h.hexdigest()
    return digests


def compare_digest() -> str:
    """Digest of the compare CSV without its elapsed_ns column."""
    with tempfile.TemporaryDirectory() as tmp:
        system, out = str(Path(tmp) / "system.bin"), str(Path(tmp) / "compare.csv")
        campaign = (["generate", *COMPARE_SYSTEM, "--out", system], ["compare", "--system", system, *COMPARE, "--out", out])
        with redirect_stdout(io.StringIO()):
            for argv in campaign:
                if main(argv):
                    raise RuntimeError(f"golden campaign step failed: {argv}")
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
    drop = rows[0].index("elapsed_ns")
    text = "\n".join(",".join(v for j, v in enumerate(row) if j != drop) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict:
    return {"cells": cell_digests(), "compare_csv": compare_digest()}


def differences(old: dict, new: dict) -> list:
    """The cells whose digests differ between two digest sets (a cell in
    only one of them counts), then "compare_csv" if the CSV digest does."""
    cells = old["cells"].keys() | new["cells"].keys()
    changed = sorted(cell for cell in cells if old["cells"].get(cell) != new["cells"].get(cell))
    return changed + ["compare_csv"] * (old["compare_csv"] != new["compare_csv"])


if __name__ == "__main__":
    new = {**stamp(), **digests()}
    if GOLDEN.exists():
        old = json.loads(GOLDEN.read_text())
        made_on = {key: old[key] for key in stamp()}
        if made_on != stamp():
            print(f"the old file was made on another build: {made_on}", file=sys.stderr)
        changed = differences(old, new)
        print(f"{len(changed)} digests differ from the old file: {' '.join(changed)}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
