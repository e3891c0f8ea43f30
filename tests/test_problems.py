"""Problem generation and persistence tests.

Round-trip checks are bitwise: the binary format stores little-endian
float64 payloads exactly, and the CSV files written here hold repr()
floats, which round-trip through Python's parser.
"""

import time

import numpy as np
import pytest

from sketchsolve import (
    DenseMatrix,
    FormatError,
    InputError,
    LinearSystem,
    ModelSpec,
    RealVector,
    condition_kappa_tilde,
    generate_system,
    load_csv_matrix,
    load_system,
    save_system,
)


def write_csv(path, rows):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))


# ------------------------------------------------------------------ models

def test_model_spec_validation():
    ModelSpec("gaussian", 10, 5)
    with pytest.raises(InputError):
        ModelSpec("laplace", 10, 5)
    with pytest.raises(InputError):
        ModelSpec("gaussian", 4, 5)
    with pytest.raises(InputError):
        ModelSpec("gaussian", 4, 0)


def test_generate_is_consistent_and_planted():
    sy = generate_system(ModelSpec("gaussian", 50, 10, seed=1))
    assert (sy.A.rows, sy.A.cols) == (50, 10)
    assert sy.x_star is not None
    gap = float(np.linalg.norm(sy.A.a @ sy.x_star.a - sy.b.a))
    assert gap <= 1e-10 * (1.0 + float(np.linalg.norm(sy.b.a)))


def test_generate_deterministic_per_seed():
    first = generate_system(ModelSpec("coherent", 30, 6, seed=9))
    second = generate_system(ModelSpec("coherent", 30, 6, seed=9))
    other = generate_system(ModelSpec("coherent", 30, 6, seed=10))
    assert np.array_equal(first.A.a, second.A.a)
    assert np.array_equal(first.b.a, second.b.a)
    assert np.array_equal(first.x_star.a, second.x_star.a)
    assert not np.array_equal(first.A.a, other.A.a)


def test_coherent_entries_live_in_narrow_band():
    sy = generate_system(ModelSpec("coherent", 40, 8, seed=2))
    assert float(sy.A.a.min()) >= 0.8
    assert float(sy.A.a.max()) < 1.0


def test_gaussian_entries_are_centered():
    sy = generate_system(ModelSpec("gaussian", 200, 40, seed=3))
    assert abs(float(sy.A.a.mean())) < 0.05
    assert 0.9 < float(sy.A.a.var()) < 1.1


def test_coherent_model_is_much_worse_conditioned():
    # The narrow-band rows are nearly parallel, which inflates the
    # conditioning ratio by orders of magnitude over the centered model.
    ratios = []
    for seed in range(5):
        gauss = condition_kappa_tilde(generate_system(ModelSpec("gaussian", 1000, 50, seed=seed)).A)
        coher = condition_kappa_tilde(generate_system(ModelSpec("coherent", 1000, 50, seed=seed)).A)
        ratios.append(coher.kappa_tilde / gauss.kappa_tilde)
    assert np.median(ratios) > 10.0


def test_plant_solution_identity_carries_x_star_to_b(tmp_path):
    path = tmp_path / "eye.csv"
    write_csv(path, np.eye(4))
    sy = load_csv_matrix(path, plant_seed=5)
    assert np.array_equal(sy.b.a, sy.x_star.a)


def test_plant_solution_deterministic_and_consistent(tmp_path):
    a = np.random.default_rng(0).standard_normal((100, 20))
    path = tmp_path / "a.csv"
    write_csv(path, a)
    first = load_csv_matrix(path, plant_seed=3)
    second = load_csv_matrix(path, plant_seed=3)
    assert np.array_equal(first.A.a, a)
    assert np.array_equal(first.x_star.a, second.x_star.a)
    gap = float(np.linalg.norm(a @ first.x_star.a - first.b.a))
    assert gap <= 1e-12 * float(np.linalg.norm(first.b.a))


# --------------------------------------------------------------------- csv

def test_csv_basic_load_plants_a_solution(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    sy = load_csv_matrix(path)
    assert sy.A.a.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert sy.x_star is not None
    assert np.array_equal(sy.b.a, sy.A.a @ sy.x_star.a)


def test_csv_plant_seed_changes_target(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    first = load_csv_matrix(path, plant_seed=1)
    second = load_csv_matrix(path, plant_seed=2)
    assert not np.array_equal(first.b.a, second.b.a)


def test_csv_target_column_extraction(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    sy = load_csv_matrix(path, target_column=1)
    assert sy.A.a.tolist() == [[1.0], [3.0], [5.0]]
    assert sy.b.a.tolist() == [2.0, 4.0, 6.0]
    assert sy.x_star is None


def test_csv_skip_rows_and_delimiter(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text("col_a;col_b\n1;2\n3;4\n5;6\n")
    sy = load_csv_matrix(path, delimiter=";", skip_rows=1)
    assert sy.A.a.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text("1,2\n\n3,4\n\n5,6\n")
    assert load_csv_matrix(path).A.rows == 3


def test_csv_parse_error_names_row_and_column(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text("1,2\nabc,4\n5,6\n")
    with pytest.raises(FormatError, match="row 2"):
        load_csv_matrix(path)


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(FormatError, match="row 2"):
        load_csv_matrix(path)


def test_csv_non_finite_rejected(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text("1,2\nnan,4\n5,6\n")
    with pytest.raises(FormatError):
        load_csv_matrix(path)


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text("")
    with pytest.raises(FormatError):
        load_csv_matrix(path)


def test_csv_target_column_validation(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    with pytest.raises(InputError):
        load_csv_matrix(path, target_column=2)
    single = tmp_path / "single.csv"
    single.write_text("1\n2\n")
    with pytest.raises(InputError):
        load_csv_matrix(single, target_column=0)


def test_csv_underdetermined_rejected(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(InputError):
        load_csv_matrix(path)


def test_csv_export_reload_round_trip(tmp_path):
    sy = generate_system(ModelSpec("gaussian", 15, 4, seed=8))
    path = tmp_path / "out.csv"
    write_csv(path, np.column_stack([sy.A.a, sy.b.a]))
    back = load_csv_matrix(path, target_column=4)
    assert np.array_equal(back.A.a, sy.A.a)
    assert np.array_equal(back.b.a, sy.b.a)


# ------------------------------------------------------------------ binary

def test_binary_round_trip_with_planted_solution(tmp_path):
    sy = generate_system(ModelSpec("coherent", 25, 6, seed=11))
    path = tmp_path / "sys.bin"
    save_system(sy, path)
    back = load_system(path)
    assert np.array_equal(back.A.a, sy.A.a)
    assert np.array_equal(back.b.a, sy.b.a)
    assert np.array_equal(back.x_star.a, sy.x_star.a)


def test_binary_round_trip_without_solution(tmp_path):
    sy = LinearSystem(DenseMatrix([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]), RealVector([1.0, 2.0, 3.0]))
    path = tmp_path / "sys.bin"
    save_system(sy, path)
    back = load_system(path)
    assert back.x_star is None
    assert np.array_equal(back.A.a, sy.A.a)


def test_binary_save_load_save_is_idempotent(tmp_path):
    sy = generate_system(ModelSpec("gaussian", 12, 3, seed=12))
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    save_system(sy, first)
    save_system(load_system(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_binary_large_round_trip_is_fast(tmp_path):
    sy = generate_system(ModelSpec("gaussian", 5000, 100, seed=13))
    path = tmp_path / "big.bin"
    t0 = time.perf_counter()
    save_system(sy, path)
    back = load_system(path)
    elapsed = time.perf_counter() - t0
    assert np.array_equal(back.A.a, sy.A.a)
    assert elapsed < 1.0


def test_binary_truncated_rejected(tmp_path):
    sy = generate_system(ModelSpec("gaussian", 10, 3, seed=14))
    path = tmp_path / "sys.bin"
    save_system(sy, path)
    raw = path.read_bytes()
    for cut in (0, 5, len(raw) // 2, len(raw) - 1):
        clipped = tmp_path / f"cut{cut}.bin"
        clipped.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            load_system(clipped)


def test_binary_trailing_junk_rejected(tmp_path):
    sy = generate_system(ModelSpec("gaussian", 10, 3, seed=15))
    path = tmp_path / "sys.bin"
    save_system(sy, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_system(path)


def test_binary_bad_magic_rejected(tmp_path):
    sy = generate_system(ModelSpec("gaussian", 10, 3, seed=16))
    path = tmp_path / "sys.bin"
    save_system(sy, path)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_system(path)


def test_binary_unsupported_version_rejected(tmp_path):
    sy = generate_system(ModelSpec("gaussian", 10, 3, seed=17))
    path = tmp_path / "sys.bin"
    save_system(sy, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_system(path)


def test_binary_underdetermined_payload_rejected(tmp_path):
    # A file can be well-formed byte-wise but describe rows < cols.
    import struct

    path = tmp_path / "bad.bin"
    header = struct.pack("<4sHHQQ", b"SKSY", 1, 0, 2, 3)
    payload = np.arange(2 * 3 + 2, dtype="<f8").tobytes()
    path.write_bytes(header + payload)
    with pytest.raises(FormatError):
        load_system(path)
