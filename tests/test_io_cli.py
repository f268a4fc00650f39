import json
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from stpcs import (aocm, cli, compress, horizontal_expand, io, ocm, sign_matrix_check,
                   vertical_expand_star)
from stpcs.bibd import SignKind
from stpcs.cli import main
from stpcs.errors import BadShape
from stpcs.golden import EMBED_SIGNS_3X4, SENSING_7X16, STAR_ALPHA4, VERTICAL_ALPHA4


# --- file formats ---------------------------------------------------------------

def test_csv_round_trip_integer_matrix(tmp_path):
    path = tmp_path / "m.csv"
    a = np.array([[1.0, -3.0, 0.0], [7.0, 2.0, 5.0]])
    io.save_matrix(path, a)
    b, meta = io.load_matrix(path)
    assert np.array_equal(a, b)
    assert meta["kind"] == "real" and meta["rows"] == 2 and meta["cols"] == 3


def test_csv_round_trip_real_matrix_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    path = tmp_path / "m.csv"
    io.save_matrix(path, a)
    b, _ = io.load_matrix(path)
    assert np.array_equal(a, b)  # shortest-roundtrip rendering is lossless


def test_csv_header_is_parsed_and_validated(tmp_path):
    path = tmp_path / "m.csv"
    io.save_matrix(path, np.eye(2), kind="boolean")
    assert path.read_text().splitlines()[0] == "# 2,2,boolean"
    path.write_text("# 3,2,boolean\n1,0\n0,1\n")
    with pytest.raises(BadShape):
        io.load_matrix(path)


def test_kind_constraints_are_enforced(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(BadShape):
        io.save_matrix(path, np.array([[0.5]]), kind="sign")
    io.save_matrix(path, np.array([[1.0, -1.0]]), kind="sign")
    path.write_text("# 1,2,sign\n1,0\n")
    with pytest.raises(BadShape):
        io.load_matrix(path)


def test_json_round_trip_with_provenance(tmp_path):
    path = tmp_path / "m.json"
    io.save_matrix(path, STAR_ALPHA4, kind="boolean", name="star4",
                   provenance={"alpha": 4})
    b, meta = io.load_matrix(path)
    assert np.array_equal(b, STAR_ALPHA4)
    assert meta["name"] == "star4" and meta["provenance"] == {"alpha": 4}


@pytest.mark.parametrize("doc", [[1, 2], {"entries": [[1, 2], [3, 4]]}])
def test_json_without_matrix_fields_is_a_bad_shape(tmp_path, capsys, doc):
    path = tmp_path / "l.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(BadShape, match="l.json.*rows, cols"):
        io.load_matrix(path)
    assert main(["metrics", "-i", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: BadShape:")


@pytest.mark.parametrize("doc,field", [
    ({"rows": 1, "cols": 1, "entries": [[{}]]}, "entries"),
    ({"rows": None, "cols": 1, "entries": [[1]]}, "rows"),
])
def test_json_field_of_the_wrong_type_is_a_bad_shape(tmp_path, capsys, doc, field):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert main(["metrics", "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadShape:") and f"t.json: JSON field '{field}'" in err


@pytest.mark.parametrize("field,value", [("rows", 1.9), ("rows", True), ("cols", "2")])
def test_json_shape_must_be_an_integer(tmp_path, capsys, field, value):
    # int() would read each of these as the shape of [[1, 2]]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [[1, 2]], field: value}))
    assert main(["metrics", "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadShape:") and f"t.json: JSON field '{field}'" in err


def test_signal_round_trip(tmp_path):
    path = tmp_path / "x.csv"
    x = np.array([1.5, -2.0, 0.25])
    io.save_signal(path, x)
    assert np.array_equal(io.load_signal(path), x)


def test_load_signal_rejects_wide_files(tmp_path):
    path = tmp_path / "m.csv"
    io.save_matrix(path, np.eye(2))
    with pytest.raises(BadShape):
        io.load_signal(path)


def _row_by_entry(row, kind="real"):
    """One CSV line by the per-entry rule the writers must reproduce byte for byte."""
    whole = kind in ("sign", "boolean")
    return ",".join(str(int(v)) if whole or float(v).is_integer() else repr(float(v))
                    for v in row)


# integral floats at and beyond 2^53 (written as all their digits), the
# smallest subnormal, and -0.0, whose integer form is "0"
EDGES = [-0.0, 0.1, 1e16, 2.0 ** 53, 2.0 ** 53 + 2, 1e300, -1e300, 5e-324, -7.0, 1 / 3]


def _seeded_matrices():
    rng = np.random.default_rng(26)
    for shape in [(1, 1), (1, 9), (9, 1), (5, 7)]:
        yield rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape), "real"
        yield rng.choice(EDGES, shape), "real"
        yield rng.integers(-1000, 1000, shape).astype(float), "real"
        yield rng.choice([-1.0, 1.0], shape), "sign"
        yield rng.integers(0, 2, shape).astype(float), "boolean"
    # more than one of the writer's 2^16-entry blocks, as a matrix and as a signal
    yield rng.choice(EDGES, (300, 250)), "real"


@pytest.mark.parametrize("a,kind", list(_seeded_matrices()))
def test_writers_match_the_per_entry_rule_byte_for_byte(tmp_path, a, kind):
    csv, js, xf = tmp_path / "a.csv", tmp_path / "a.json", tmp_path / "x.csv"
    io.save_matrix(csv, a, kind=kind)
    rows = "".join(_row_by_entry(r, kind) + "\n" for r in a.tolist())
    assert csv.read_text() == f"# {a.shape[0]},{a.shape[1]},{kind}\n" + rows
    io.save_matrix(js, a, kind=kind, name="a", provenance={"seed": 26})
    doc = {"name": "a", "rows": a.shape[0], "cols": a.shape[1], "kind": kind,
           "provenance": {"seed": 26}, "entries": [[float(v) for v in r] for r in a]}
    assert js.read_text() == json.dumps(doc, indent=2) + "\n"
    x = a.ravel()
    io.save_signal(xf, x)
    assert xf.read_text() == f"# {x.size},1,real\n" + "".join(_row_by_entry([v]) + "\n"
                                                              for v in x.tolist())
    assert np.array_equal(io.load_matrix(csv)[0], a)
    assert np.array_equal(io.load_signal(xf), x)


@pytest.mark.parametrize("kind", io.KINDS)
def test_gen_and_compress_print_the_per_entry_rule_byte_for_byte(tmp_path, capsys, kind):
    af, xf = tmp_path / "A.csv", tmp_path / "x.csv"
    gen = ["gen", "random", "--rows", "3", "--cols", "4", "--seed", "26", "--kind", kind]
    assert main([*gen, "-o", str(af)]) == 0 and main(gen) == 0
    a, _ = io.load_matrix(af)
    assert capsys.readouterr().out == "".join(_row_by_entry(r, kind) + "\n" for r in a)
    x = np.array([*EDGES[:7], 0.0]) * np.random.default_rng(26).standard_normal(8)
    io.save_signal(xf, x)
    assert main(["compress", "-A", str(af), "-x", str(xf)]) == 0
    y = compress(a, x)
    assert capsys.readouterr().out == ",".join(repr(float(v)) for v in y) + "\n"


def test_csv_reader_skips_blank_lines_crlf_and_padding(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"\r\n  # 2,3,real \r\n\r\n 1 , 2.5,-3\r\n   \r\n4,\t5 ,6  \r\n\n")
    a, meta = io.load_matrix(path)
    assert np.array_equal(a, [[1.0, 2.5, -3.0], [4.0, 5.0, 6.0]]) and meta["kind"] == "real"


@pytest.mark.parametrize("text,error,message", [
    ("# 2,2,real\n\n", BadShape, "no matrix rows after the header"),
    ("# 3,2,real\n1,2\n\n3,4\n5\n", BadShape, "row 3 has 1 entries, declared cols 2"),
    ("# 2,2,real\n1,2\n3,4,5\n", BadShape, "row 2 has 3 entries, declared cols 2"),
    ("# 3,2,real\n1,2\n3,4\n", BadShape, r"declared shape \(3, 2\) != parsed \(2, 2\)"),
    ("# 1,2,real\n1,2\n3,4\n", BadShape, r"declared shape \(1, 2\) != parsed \(2, 2\)"),
    ("# 1,2,real\n1,2,\n", ValueError, "could not convert string to float: ''"),
])
def test_csv_reader_errors_name_what_is_wrong(tmp_path, capsys, text, error, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(error, match=message):
        io.load_matrix(path)
    assert main(["metrics", "-i", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error.__name__}:")


@pytest.mark.parametrize("cols", [0, -2])
def test_csv_reader_takes_a_header_with_no_columns_as_a_ragged_row(tmp_path, cols):
    path = tmp_path / "m.csv"
    path.write_text(f"# 1,{cols},real\n1\n")
    with pytest.raises(BadShape, match=f"row 1 has 1 entries, declared cols {cols}"):
        io.load_matrix(path)


def test_csv_reader_numbers_rows_across_its_blocks_and_parses_before_it_counts(tmp_path):
    # more rows than one block of 2^16 entries: the ragged row is named by its place
    # in the file, and an unparsable entry anywhere wins over it, as in one pass
    rows = ["1.5"] * 70000
    rows[69998] = "1,2"
    path = tmp_path / "m.csv"
    path.write_text("# 70000,1,real\n" + "\n".join(rows) + "\n")
    with pytest.raises(BadShape, match="row 69999 has 2 entries, declared cols 1"):
        io.load_matrix(path)
    rows[3] = "1,2"
    path.write_text("# 70000,1,real\n" + "\n".join(rows) + "\n")
    with pytest.raises(BadShape, match="row 4 has 2 entries, declared cols 1"):
        io.load_matrix(path)
    rows[69999] = "x"
    path.write_text("# 70000,1,real\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        io.load_matrix(path)


def test_csv_reader_peak_memory_is_a_fraction_of_a_long_file(tmp_path):
    # 2^20 Gaussian entries: a 20 MB file, whose lines and entries all held as strings
    # at once took about 9 times its size.  The peak is the growth of the peak RSS
    # (VmHWM, which exec resets) of a fresh interpreter over the load: tracemalloc,
    # which sees the same allocations, makes this load about 20 times slower.
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs /proc/self/status")
    x = np.random.default_rng(0).standard_normal(1 << 20)
    path = tmp_path / "x.csv"
    io.save_signal(path, x)
    assert path.stat().st_size > 19 << 20
    assert io.load_signal(path).tobytes() == x.tobytes()
    code = ("from stpcs import io\n"
            f"peak = lambda: int(open({str(status)!r}).read().split('VmHWM:')[1].split()[0])\n"
            f"before = peak(); io.load_signal({str(path)!r}); print(peak() - before)")
    env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert int(out) << 10 < 32 << 20  # VmHWM is in kB


# --- CLI ----------------------------------------------------------------------

def test_gen_bibd_star_writes_reference_design(tmp_path):
    out = tmp_path / "H.csv"
    assert main(["gen", "bibd", "--alpha", "4", "--expansion", "star",
                 "-o", str(out)]) == 0
    h, meta = io.load_matrix(out)
    assert np.array_equal(h, STAR_ALPHA4) and meta["kind"] == "boolean"


def test_gen_and_expand_pipeline_reproduces_sensing_matrix(tmp_path):
    h = tmp_path / "H.csv"
    hv = tmp_path / "Hv.csv"
    b = tmp_path / "B.csv"
    phi = tmp_path / "Phi.csv"
    assert main(["gen", "bibd", "--alpha", "4", "-o", str(h)]) == 0
    assert main(["expand", "vertical", "-i", str(h), "-o", str(hv)]) == 0
    io.save_matrix(b, np.array([[1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]],
                               dtype=float), kind="sign")
    assert main(["expand", "horizontal", "-i", str(hv), "--embed", str(b),
                 "-o", str(phi)]) == 0
    got, _ = io.load_matrix(phi)
    assert np.array_equal(got, SENSING_7X16)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_expand_horizontal_cli_rejects_non_finite_diag(tmp_path, capsys, bad):
    hv, b, phi = tmp_path / "Hv.csv", tmp_path / "B.csv", tmp_path / "Phi.csv"
    io.save_matrix(hv, VERTICAL_ALPHA4, kind="boolean")
    io.save_matrix(b, EMBED_SIGNS_3X4, kind="sign")
    for out in ([], ["-o", str(phi)]):
        assert main(["expand", "horizontal", "-i", str(hv), "--embed", str(b),
                     "--diag", f"1,{bad},2,3", *out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: BadDiag:") and captured.out == ""
    assert not phi.exists()


def test_expand_horizontal_cli_scales_the_embedding_by_diag(tmp_path):
    hv, b, phi = tmp_path / "Hv.csv", tmp_path / "B.csv", tmp_path / "Phi.csv"
    io.save_matrix(hv, VERTICAL_ALPHA4, kind="boolean")
    io.save_matrix(b, EMBED_SIGNS_3X4, kind="sign")
    assert main(["expand", "horizontal", "-i", str(hv), "--embed", str(b),
                 "--diag", "1,2,3,4", "-o", str(phi)]) == 0
    got, _ = io.load_matrix(phi)
    assert np.array_equal(got, SENSING_7X16 * np.tile([1.0, 2.0, 3.0, 4.0], 4))


def test_metrics_report_json(tmp_path, capsys):
    phi = tmp_path / "Phi.csv"
    io.save_matrix(phi, SENSING_7X16)
    assert main(["metrics", "-i", str(phi)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coherence"] == pytest.approx(1 / 3, abs=1e-12)
    assert doc["welch_bound"] == pytest.approx(0.29277, abs=5e-6)
    assert doc["max_k"] == 1
    assert doc["spark"] == 4 and doc["spark_infinite"] is False


def test_metrics_reports_which_bound_decided_spark(tmp_path, capsys, monkeypatch):
    # the 55x22 alpha=11 star design has nullity one; enumerating its
    # spark would need C(22, 3) = 1540 subsets at the third size already
    phi = tmp_path / "Phi11.csv"
    io.save_matrix(phi, horizontal_expand(vertical_expand_star(11), aocm(10)))
    monkeypatch.setenv("STPCS_BUDGET", "1000")
    assert main(["metrics", "-i", str(phi), "--rip-k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spark"] == 20 and doc["spark_by"] == "nullity"
    assert doc["rip"]["delta"] == pytest.approx(0.1, abs=1e-12)


def test_metrics_class_reduction(tmp_path, capsys):
    lifted = tmp_path / "A.csv"
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    io.save_matrix(lifted, np.kron(a, np.eye(2)))
    assert main(["metrics", "-i", str(lifted), "--class"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spark"] == 3


def test_compress_recover_round_trip_via_files(tmp_path):
    a = tmp_path / "Phi.csv"
    xf = tmp_path / "x.csv"
    yf = tmp_path / "y.csv"
    rf = tmp_path / "xhat.csv"
    io.save_matrix(a, SENSING_7X16)
    x = np.zeros(32)
    x[21] = -2.0
    io.save_signal(xf, x)
    assert main(["compress", "-A", str(a), "-x", str(xf), "--side", "left",
                 "-o", str(yf)]) == 0
    for method in ("oracle", "omp"):
        assert main(["recover", "-A", str(a), "-y", str(yf), "--k", "1", "--side", "left",
                     "-s", "2", "--method", method, "-o", str(rf)]) == 0
        assert np.allclose(io.load_signal(rf), x, atol=1e-8)


def test_recover_with_signal_dimension_plan(tmp_path):
    a = tmp_path / "A.csv"
    yf = tmp_path / "y.csv"
    rf = tmp_path / "xhat.csv"
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((4, 6))
    io.save_matrix(a, mat)
    x = np.zeros(9)  # lcm(6, 9) = 18: replication factor 2
    x[4] = 3.0
    y = np.kron(mat, np.eye(3)) @ np.kron(x, np.ones(2))
    io.save_signal(yf, y)
    for method in ("oracle", "omp"):
        assert main(["recover", "-A", str(a), "-y", str(yf), "--k", "2", "--side", "left",
                     "-p", "9", "--method", method, "-o", str(rf)]) == 0
        assert np.allclose(io.load_signal(rf), x, atol=1e-8)


@pytest.mark.parametrize("side", ["left", "right"])
def test_compress_then_recover_with_signal_dimension_through_a_lifted_matrix(tmp_path, side):
    # A = the 7x16 atom lifted twice: compress lifts A itself to lcm(32, p)
    a = tmp_path / "big.csv"
    xf = tmp_path / "x.csv"
    yf = tmp_path / "y.csv"
    rf = tmp_path / "xhat.csv"
    big = np.kron(SENSING_7X16, np.eye(2)) if side == "left" else np.kron(np.eye(2), SENSING_7X16)
    io.save_matrix(a, big)
    x = np.zeros(24)  # lcm(32, 24) = 96: lift factor 3 on A, replication 4 on x
    x[5] = 3.0
    io.save_signal(xf, x)
    assert main(["compress", "-A", str(a), "-x", str(xf), "--side", side, "-o", str(yf)]) == 0
    assert main(["recover", "-A", str(a), "-y", str(yf), "--k", "1", "--side", side,
                 "-p", "24", "-o", str(rf)]) == 0
    assert np.allclose(io.load_signal(rf), x, atol=1e-8)


def test_project_cli(tmp_path):
    xf = tmp_path / "x.csv"
    yf = tmp_path / "y.csv"
    io.save_signal(xf, np.array([1.0, 2.0, 3.0, 4.0]))
    assert main(["project", "-i", str(xf), "-n", "2", "-o", str(yf)]) == 0
    assert np.allclose(io.load_signal(yf), [1.5, 3.5], atol=1e-12)


def test_signal_verbs_print_to_stdout_without_output(tmp_path, capsys):
    row, eye = tmp_path / "row.csv", tmp_path / "eye.csv"
    xf = tmp_path / "x.csv"
    yf = tmp_path / "y.csv"
    io.save_matrix(row, np.array([[1.0, 1.0]]))
    io.save_matrix(eye, np.eye(2))
    io.save_signal(xf, np.array([1.0, 2.0, 3.0, 4.0]))
    io.save_signal(yf, np.array([0.0, -2.5]))
    for argv, printed in [
        (["project", "-i", str(xf), "-n", "2"], "1.5,3.5"),
        (["compress", "-A", str(row), "-x", str(xf)], "4.0,6.0"),
        (["recover", "-A", str(eye), "-y", str(yf), "--k", "1"], "0.0,-2.5"),
        (["gen", "aocm", "-t", "4"], "1,1,1,1\n1,-1,1,-1\n1,1,-1,-1\n1,-1,-1,1"),
    ]:
        assert main(argv) == 0
        assert capsys.readouterr().out == printed + "\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("to_file", [False, True])
def test_compress_refuses_an_overflowing_result_on_stdout_as_in_a_file(tmp_path, capsys,
                                                                       to_file):
    a, xf = tmp_path / "A.csv", tmp_path / "x.csv"
    io.save_matrix(a, np.array([[1e300, 1e300]]))
    io.save_signal(xf, np.array([1e100, 1e100]))
    out = ["-o", str(tmp_path / "y.csv")] if to_file else []
    assert main(["compress", "-A", str(a), "-x", str(xf), *out]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "error: ValueError: signal entries must be finite\n"


@pytest.mark.parametrize("to_file", [False, True])
def test_writers_check_before_they_print_as_before_they_save(tmp_path, capsys, to_file):
    args = Namespace(output=str(tmp_path / "m.csv") if to_file else None)
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        cli._write_matrix(args, np.array([[1.0, np.inf]]))
    with pytest.raises(BadShape, match="boolean matrix must contain only 0 and 1"):
        cli._write_matrix(args, np.array([[1.0, 2.0]]), kind="boolean")
    with pytest.raises(ValueError, match="^signal entries must be finite$"):
        cli._write_signal(args, np.array([np.nan, 1.0]))
    assert capsys.readouterr().out == "" and not (tmp_path / "m.csv").exists()


def test_basis_cli_json(tmp_path):
    out = tmp_path / "basis.json"
    assert main(["basis", "-m", "5", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 9 and doc["side"] == "right"
    assert doc["elements"][1] == [1.0, -1.0]
    assert doc["labels"][:3] == [[1, 1], [2, 1], [3, 1]]


@pytest.mark.parametrize("side,count", [("right", 69), ("left", 80)])
def test_basis_cli_m16(tmp_path, side, count):
    out = tmp_path / "basis.json"
    assert main(["basis", "-m", "16", "--side", side, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == len(doc["elements"]) == len(doc["labels"]) == count


def test_basis_cli_refuses_oversized_elements(tmp_path, capsys):
    # the LEFT elements through m=61 hold 18359183 entries, above 2^24
    out = tmp_path / "basis.json"
    assert main(["basis", "-m", "61", "--side", "left", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadShape: the 1162 elements span 18359183 entries")
    assert not out.exists()


def test_gen_random_is_seed_deterministic(tmp_path):
    a1 = tmp_path / "a1.csv"
    a2 = tmp_path / "a2.csv"
    for out in (a1, a2):
        assert main(["gen", "random", "--rows", "3", "--cols", "4",
                     "--seed", "42", "-o", str(out)]) == 0
    m1, _ = io.load_matrix(a1)
    m2, _ = io.load_matrix(a2)
    assert np.array_equal(m1, m2)


def test_gen_ocm_writes_an_orthogonal_sign_matrix(tmp_path):
    out = tmp_path / "U.csv"
    assert main(["gen", "ocm", "-t", "4", "-o", str(out)]) == 0
    u, meta = io.load_matrix(out)
    assert meta["kind"] == "sign" and np.array_equal(u, ocm(4))
    assert sign_matrix_check(u) is SignKind.OCM


@pytest.mark.parametrize("kind,values", [("sign", {-1.0, 1.0}), ("boolean", {0.0, 1.0})])
def test_gen_random_of_a_kind(tmp_path, kind, values):
    out = tmp_path / "a.csv"
    assert main(["gen", "random", "--rows", "5", "--cols", "6", "--kind", kind,
                 "-o", str(out)]) == 0
    a, meta = io.load_matrix(out)
    assert meta["kind"] == kind and a.shape == (5, 6) and set(a.ravel()) <= values


def test_gen_bibd_vertical_writes_the_expanded_design(tmp_path):
    out = tmp_path / "Hv.csv"
    assert main(["gen", "bibd", "--alpha", "4", "--expansion", "vertical", "-o", str(out)]) == 0
    h, meta = io.load_matrix(out)
    assert meta["kind"] == "boolean" and np.array_equal(h, VERTICAL_ALPHA4)


def test_unparsable_csv_header_exits_one(tmp_path, capsys):
    path = tmp_path / "a.csv"
    path.write_text("# a,1,real\n1\n")
    assert main(["metrics", "-i", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ValueError:")


@pytest.mark.parametrize("name, text", [
    ("ragged.csv", "# 2,2,real\n1,2\n3\n"),
    ("ragged.json", '{"rows": 2, "cols": 2, "kind": "real", "entries": [[1, 2], [3]]}'),
])
def test_ragged_rows_are_a_bad_shape_naming_the_file(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["metrics", "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadShape:") and str(path) in err


@pytest.mark.parametrize("entries", [[[1, 2], 3], [3, [1, 2]], [[1, 2], [3, [4]]]])
def test_json_rows_mixed_with_scalars_are_a_bad_shape_naming_the_row(tmp_path, capsys, entries):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": entries}))
    assert main(["metrics", "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadShape:") and f"{path}: row " in err
    # a flat list is the one row of a one-row matrix
    path.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [1, 2]}))
    assert np.array_equal(io.load_matrix(path)[0], [[1.0, 2.0]])


def test_domain_error_exits_one(capsys):
    assert main(["gen", "aocm", "-t", "9"]) == 1
    assert "Unsupported" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "bibd"])  # missing --alpha
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["expand star", "gen incidence"])
def test_expand_star_is_gone(verb):
    # `gen bibd` builds the incidence pattern, and with `--expansion star`
    # the pair-incidence design
    with pytest.raises(SystemExit) as exc:
        main([*verb.split(), "--alpha", "4"])
    assert exc.value.code == 2


def test_recover_refuses_both_lift_factor_and_signal_dim(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recover", "-A", str(tmp_path / "A.csv"), "-y", str(tmp_path / "y.csv"),
              "--k", "1", "-s", "2", "-p", "24"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_budget_env_var_is_honored(tmp_path, capsys, monkeypatch):
    path = tmp_path / "A.csv"
    rng = np.random.default_rng(0)
    io.save_matrix(path, rng.standard_normal((4, 12)))
    monkeypatch.setenv("STPCS_BUDGET", "10")
    assert main(["metrics", "-i", str(path)]) == 1
    assert "BudgetExceeded" in capsys.readouterr().err


@pytest.mark.parametrize("raw,message", [
    ("-5", "budget -5 must be non-negative"),
    ("abc", "budget 'abc' must be an integer"),
    ("1.5", "budget '1.5' must be an integer"),
])
def test_a_budget_that_is_not_a_count_is_a_domain_error(tmp_path, capsys, monkeypatch,
                                                         raw, message):
    path = tmp_path / "A.csv"
    io.save_matrix(path, SENSING_7X16)
    monkeypatch.setenv("STPCS_BUDGET", raw)
    assert main(["metrics", "-i", str(path)]) == 1
    assert capsys.readouterr().err == f"error: BadShape: {message}\n"


def test_paper_examples_all_ok(tmp_path, capsys):
    assert main(["paper-examples", "--outdir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert (tmp_path / "out" / "sensing-7x16.csv").exists()
