import json

import pytest

from skewplus.cli import run
from skewplus.fields import Field
from skewplus.pfaffian import SkewMatrix
from skewplus.symplectic import psi_matrix

Q = Field.rationals()


@pytest.fixture
def psi8_file(tmp_path):
    path = tmp_path / "psi8.json"
    psi8 = SkewMatrix.from_matrix(psi_matrix(Q, 8))
    path.write_text(json.dumps(psi8.to_json()))
    return str(path)


@pytest.fixture
def rows6_file(tmp_path):
    path = tmp_path / "rows6.json"
    m = SkewMatrix.from_upper(Q, 6, [1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5])
    path.write_text(json.dumps(m.to_json()))
    return str(path)


def test_compute_pf_psi8(capsys, psi8_file):
    assert run(["compute", "pf", "--input", psi8_file]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_compute_gamma(capsys, rows6_file):
    assert run(["compute", "gamma", "--input", rows6_file]) == 0
    out = json.loads(capsys.readouterr().out)
    # the rows family collects to exactly seven terms
    assert len(out) == 7
    assert {"coefficient", "generator"} == set(out[0])


def test_compute_section(capsys, tmp_path):
    path = tmp_path / "a3.json"
    m = SkewMatrix.from_upper(Q, 3, [1, 2, 3])
    path.write_text(json.dumps(m.to_json()))
    assert run(["compute", "section", "--input", str(path), "--ambient", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["vectors"]) == 3
    assert all(len(v) == 4 for v in out["vectors"])


def test_compute_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["compute", "pf", "--input", str(path)]) == 2
    assert run(["compute", "pf", "--input", str(tmp_path / "missing.json")]) == 2


def test_verify_report_schema(capsys):
    assert run(["verify", "sm", "--trials", "4", "--seed", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["config"] == {"seed": 7, "trials": 4, "field": "q"}
    report = payload["reports"][0]
    assert set(report) == {"check", "field", "trials", "failures", "elapsed_ms"}


def test_verify_deterministic(capsys):
    assert run(["verify", "units", "--trials", "2", "--seed", "5"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert run(["verify", "units", "--trials", "2", "--seed", "5"]) == 0
    second = json.loads(capsys.readouterr().out)
    for a, b in zip(first["reports"], second["reports"]):
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert first["reports"] == second["reports"]


def test_verify_refuses_finite_prime_field(capsys):
    assert run(["verify", "sm", "--field", "fp:5"]) == 2
    assert "infinite" in capsys.readouterr().err


def test_verify_function_field_accepted(capsys):
    assert run(["verify", "sm", "--trials", "3", "--field", "fpt:3",
                "--seed", "1"]) == 0


def test_verify_writes_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "sm", "--trials", "2", "--output", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["passed"] is True


def test_bench_small(capsys):
    assert run(["bench", "pfaffian", "--max-n", "3", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = payload["result"]["rows"]
    assert len(rows) == 3
    assert all(row["agree"] for row in rows)


def test_usage_error():
    assert run(["verify", "nonsense"]) == 2
    assert run([]) == 2
    assert run(["verify", "sm", "--field", "fp:4"]) == 2  # 4 is not prime


def test_seed_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("SKEWPLUS_SEED", "99")
    assert run(["verify", "sm", "--trials", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] == 99


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_verify_rejects_trials_below_one(capsys, trials):
    assert run(["verify", "witt", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials" in captured.err


def test_verify_rejects_non_integer_seed(capsys):
    assert run(["verify", "sm", "--seed", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed" in captured.err


def test_report_without_trials_fails():
    from skewplus.gamma import Report
    assert not Report(check="empty", field="q", trials=0).passed
    assert Report(check="one", field="q", trials=1).passed


@pytest.mark.parametrize("text", [
    "[[0, 1], [-1, 0]]",
    '{"field": {"kind": "rationals"}, "rows": 2}',
    '{"field": {"kind": "rationals"}, "rows": 2, "cols": 2, "entries": 5, "skew": true}',
], ids=["array", "missing-entries", "entries-not-a-grid"])
def test_compute_rejects_malformed_matrix_json(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["compute", "pf", "--input", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_compute_section_rejects_odd_ambient(capsys, tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(SkewMatrix.from_upper(Q, 3, [1, 2, 3]).to_json()))
    assert run(["compute", "section", "--input", str(path), "--ambient", "3"]) == 2
    assert "ambient" in capsys.readouterr().err


def test_compute_rejects_skew_grid_of_other_shape(tmp_path, capsys):
    obj = SkewMatrix.from_upper(Q, 3, [1, 2, 3]).to_json()
    obj["rows"] = obj["cols"] = 2
    path = tmp_path / "declared2.json"
    path.write_text(json.dumps(obj))
    assert run(["compute", "pf", "--input", str(path)]) == 2
    assert "shape" in capsys.readouterr().err
