import json

import numpy as np
import pytest

from stpcs import io
from stpcs.cli import main
from stpcs.errors import BadShape
from stpcs.golden import SENSING_7X16, STAR_ALPHA4


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
    assert main(["gen", "incidence", "--alpha", "4", "-o", str(h)]) == 0
    assert main(["expand", "vertical", "-i", str(h), "-o", str(hv)]) == 0
    io.save_matrix(b, np.array([[1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]],
                               dtype=float), kind="sign")
    assert main(["expand", "horizontal", "-i", str(hv), "--embed", str(b),
                 "-o", str(phi)]) == 0
    got, _ = io.load_matrix(phi)
    assert np.array_equal(got, SENSING_7X16)


def test_metrics_report_json(tmp_path, capsys):
    phi = tmp_path / "Phi.csv"
    io.save_matrix(phi, SENSING_7X16)
    assert main(["metrics", "-i", str(phi)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coherence"] == pytest.approx(1 / 3, abs=1e-12)
    assert doc["welch_bound"] == pytest.approx(0.29277, abs=5e-6)
    assert doc["max_k"] == 1
    assert doc["spark"] == 4 and doc["spark_infinite"] is False


def test_metrics_class_reduction(tmp_path, capsys):
    lifted = tmp_path / "A.csv"
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    io.save_matrix(lifted, np.kron(a, np.eye(2)))
    assert main(["metrics", "-i", str(lifted), "--class", "--side", "left"]) == 0
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


def test_basis_cli_json(tmp_path):
    out = tmp_path / "basis.json"
    assert main(["basis", "-m", "5", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 9 and doc["side"] == "right"
    assert doc["elements"][1] == [1.0, -1.0]
    assert doc["labels"][:3] == [[1, 1], [2, 1], [3, 1]]


def test_gen_random_is_seed_deterministic(tmp_path):
    a1 = tmp_path / "a1.csv"
    a2 = tmp_path / "a2.csv"
    for out in (a1, a2):
        assert main(["gen", "random", "--rows", "3", "--cols", "4",
                     "--seed", "42", "-o", str(out)]) == 0
    m1, _ = io.load_matrix(a1)
    m2, _ = io.load_matrix(a2)
    assert np.array_equal(m1, m2)


def test_domain_error_exits_one(capsys):
    assert main(["gen", "aocm", "-t", "9"]) == 1
    assert "Unsupported" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "bibd"])  # missing --alpha
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


def test_paper_examples_all_ok(tmp_path, capsys):
    assert main(["paper-examples", "--outdir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert (tmp_path / "out" / "sensing-7x16.csv").exists()
