"""Test-problem generation and system I/O.

Two synthetic models, both with a planted solution x* ~ N(0, I) and
b = A x* (so the system is consistent by construction):

  * gaussian: A_ij iid N(0, 1) -- well conditioned, incoherent rows;
  * coherent: A_ij iid Unif[0.8, 1) -- rows nearly parallel, which makes
    kappa_tilde orders of magnitude larger at the same size.

Systems round-trip losslessly through a small self-describing binary
format; matrices can also be imported from delimited text, either with
a designated target column as b or with a freshly planted solution.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError, _index
from .linalg import _own
from .rng import RngState
from .solvers import LinearSystem

__all__ = [
    "MODEL_KINDS",
    "ModelSpec",
    "generate_system",
    "load_csv_matrix",
    "save_system",
    "load_system",
]

MODEL_KINDS = ("gaussian", "coherent")

_MAGIC = b"SKSY"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQQ")  # magic, version, flags, rows, cols
_FLAG_X_STAR = 1


@dataclass(frozen=True)
class ModelSpec:
    """A synthetic problem: model kind, integer shape m-by-n, and generator seed."""

    kind: str
    m: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InputError(f"unknown model {self.kind!r}, expected one of {MODEL_KINDS}")
        for name in ("m", "n"):
            _index(getattr(self, name), name)
        if self.n < 1 or self.m < self.n:
            raise InputError(f"need m >= n >= 1, got m={self.m}, n={self.n}")


def _plant(A: np.ndarray, rng: RngState) -> LinearSystem:
    # Redraw on the (measure-zero) chance of an exactly zero solution.
    while True:
        xs = rng.gen.standard_normal(A.shape[1])
        if float(xs @ xs) > 0.0:
            break
    return LinearSystem(A, _own(A @ xs), _own(xs))


def generate_system(spec: ModelSpec) -> LinearSystem:
    """Draw A per the model, then plant x* from the same stream.

    Deterministic in spec.seed: matrix entries are drawn first
    (row-major), then the n entries of x*.
    """
    rng = RngState(spec.seed)
    if spec.kind == "gaussian":
        arr = rng.gen.standard_normal((spec.m, spec.n))
    else:
        arr = 0.8 + 0.2 * rng.gen.random((spec.m, spec.n))
    return _plant(_own(arr), rng)


def load_csv_matrix(
    path,
    delimiter: str = ",",
    skip_rows: int = 0,
    target_column: int | None = None,
    plant_seed: int = 0,
) -> LinearSystem:
    """Load a numeric delimited file as a LinearSystem.

    With target_column (0-based), that column becomes b and the rest
    become A; no solution is planted and nothing guarantees consistency,
    so error tracking is unavailable for such systems.  Without it, b is
    planted from plant_seed.

    skip_rows and target_column must be integers.  The file must be
    UTF-8 text, the delimiter one character, rows equally wide, and
    every field must parse as a finite float (decimal point '.', no
    locale handling).  Row and column numbers in error messages are
    1-based file coordinates.
    """
    if _index(skip_rows, "skip_rows") < 0:
        raise InputError(f"skip_rows must be nonnegative, got {skip_rows}")
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise InputError(f"delimiter must be exactly one character, got {delimiter!r}")
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start}); is it a binary system file?") from None
    rows = []
    width = None
    first_data_line = None
    for lineno, fields in enumerate(csv.reader(io.StringIO(text, newline=""), delimiter=delimiter), start=1):
        if lineno <= skip_rows or not fields:
            continue
        if width is None:
            width = len(fields)
            first_data_line = lineno
        elif len(fields) != width:
            raise FormatError(
                f"row {lineno} has {len(fields)} fields, expected {width} (as in row {first_data_line})"
            )
        values = np.empty(width)
        for j, field in enumerate(fields):
            try:
                values[j] = float(field)
            except ValueError:
                raise FormatError(f"cannot parse {field.strip()!r} as a number at row {lineno}, column {j + 1}") from None
            if not np.isfinite(values[j]):
                raise FormatError(f"non-finite value {field.strip()!r} at row {lineno}, column {j + 1}")
        rows.append(values)
    if not rows:
        raise FormatError(f"no data rows in {path}")
    full = np.vstack(rows)

    if target_column is not None:
        if not 0 <= _index(target_column, "target_column") < full.shape[1]:
            raise InputError(f"target_column {target_column} out of range [0, {full.shape[1]})")
        if full.shape[1] < 2:
            raise InputError("target_column would leave an empty matrix")
        b = np.ascontiguousarray(full[:, target_column])
        A = np.ascontiguousarray(np.delete(full, target_column, axis=1))
        return LinearSystem(_own(A), _own(b))
    return _plant(_own(full), RngState(plant_seed))


def _le_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr).astype("<f8", copy=False).tobytes()


def save_system(system: LinearSystem, path):
    """Write a system to the binary format (lossless, little-endian)."""
    flags = _FLAG_X_STAR if system.x_star is not None else 0
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, _VERSION, flags, system.A.rows, system.A.cols))
        handle.write(_le_bytes(system.A.a))
        handle.write(_le_bytes(system.b.a))
        if system.x_star is not None:
            handle.write(_le_bytes(system.x_star.a))


def load_system(path) -> LinearSystem:
    """Read a system written by save_system; bit-identical round trip."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, flags, m, n = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise FormatError(f"{path}: not a system file (bad magic {magic!r})")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if flags not in (0, _FLAG_X_STAR):
        raise FormatError(f"{path}: unknown flags {flags:#x}")
    has_x_star = bool(flags & _FLAG_X_STAR)
    expected = _HEADER.size + 8 * (m * n + m + (n if has_x_star else 0))
    if len(blob) != expected:
        raise FormatError(f"{path}: file holds {len(blob)} bytes, header implies {expected} (truncated or corrupt)")
    offset = _HEADER.size
    A = np.frombuffer(blob, "<f8", m * n, offset).reshape(m, n)
    offset += 8 * m * n
    b = np.frombuffer(blob, "<f8", m, offset)
    offset += 8 * m
    xs = np.frombuffer(blob, "<f8", n, offset) if has_x_star else None
    try:
        return LinearSystem(A, b, xs)
    except InputError as exc:
        raise FormatError(f"{path}: invalid system content: {exc}") from exc
