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


@pytest.mark.parametrize("flag", ["--max-n", "--recursive-max"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_bench_rejects_bounds_below_one(capsys, flag, value):
    assert run(["bench", "pfaffian", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("flag", ["fp:5", "fpt:3"])
def test_bench_field(capsys, flag):
    assert run(["bench", "pfaffian", "--max-n", "3", "--field", flag, "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["field"] == flag
    assert all(row["agree"] for row in payload["result"]["rows"])


# the default cap follows the field: the recursive Pfaffian over F_p(t)
# would take about an hour up to 24x24; an explicit flag wins
@pytest.mark.parametrize("flags, cap", [(["--field", "q"], 13), (["--field", "fp:5"], 13),
                                        (["--field", "fpt:3"], 7),
                                        (["--field", "fpt:3", "--recursive-max", "1"], 1)])
def test_bench_recursive_cap(capsys, flags, cap):
    assert run(["bench", "pfaffian", "--max-n", "2", "--seed", "1"] + flags) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["recursive_max"] == cap
    assert ["recursive_ms" in row for row in payload["result"]["rows"]] == [1 <= cap, 2 <= cap]


@pytest.mark.parametrize("command", [["bench", "pfaffian"], ["verify", "sm"]])
def test_malformed_field_flag_is_usage_error(capsys, command):
    assert run(command + ["--field", "fp:x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "field" in captured.err


@pytest.mark.parametrize("command", [["bench", "pfaffian"], ["verify", "sm"]])
@pytest.mark.parametrize("kind", ["fp", "fpt"])
def test_field_flag_past_the_digit_limit_is_usage_error(capsys, command, kind):
    assert run(command + ["--field", f"{kind}:{'1' * 5000}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


F3T = {"kind": "function_field", "p": 3}
BIG = "1" * 5000


def _skew2(field, entries):
    return json.dumps({"field": field, "rows": 2, "cols": 2, "entries": entries, "skew": True})


@pytest.mark.parametrize("text", [
    "[[0, 1], [-1, 0]]",
    '{"field": {"kind": "rationals"}, "rows": 2}',
    '{"field": {"kind": "rationals"}, "rows": 2, "cols": 2, "entries": 5, "skew": true}',
    _skew2({"kind": "rationals"}, [[0, 1], [0, 0]]),
    _skew2({"kind": "prime", "p": "x"}, [["0", "1"], ["-1", "0"]]),
    _skew2({"kind": "prime", "p": 5.5}, [["0", "1"], ["-1", "0"]]),
    _skew2("q", [["0", "1"], ["-1", "0"]]),
    _skew2({"kind": "rationals"}, [["0", "1 mod 5"], ["-1", "0"]]),
    _skew2({"kind": "rationals"}, [["0", "1/0"], ["-1", "0"]]),
    b"\xff\xfe{}",
    "[" * 100000 + "]" * 100000,
    # degrees that fail before anything is allocated; never test one that
    # could be (about 10^9 to 10^11), it fills memory
    _skew2(F3T, [["0", "(1+t^4611686018427387904)/(1) over F_3[t]"], ["0", "0"]]),
    _skew2(F3T, [["0", "(t^99999999999999999999) over F_3[t]"], ["0", "0"]]),
    json.dumps({"field": {"kind": "rationals"}, "rows": 2, "cols": 3,
                "entries": [["0", "1", "2"], ["-1", "0", "3"]]}),
    json.dumps({"field": {"kind": "rationals"}, "rows": True, "cols": True,
                "entries": [["0"]], "skew": True}),
    json.dumps({"field": {"kind": "rationals"}, "rows": True, "cols": True,
                "entries": [["0"]]}),
    # integers past Python's 4300-digit conversion limit
    _skew2({"kind": "rationals"}, [["0", BIG], ["0", "0"]]),
    _skew2({"kind": "prime", "p": 5}, [["0", f"1 mod {BIG}"], ["0", "0"]]),
    _skew2({"kind": "prime", "p": 5}, [["0", f"{BIG} mod 5"], ["0", "0"]]),
    _skew2(F3T, [["0", f"(t^{BIG}) over F_3[t]"], ["0", "0"]]),
    _skew2(F3T, [["0", f"({BIG}*t) over F_3[t]"], ["0", "0"]]),
    _skew2(F3T, [["0", f"(t) over F_{BIG}[t]"], ["0", "0"]]),
    _skew2({"kind": "prime", "p": "P"}, [["0", "1"], ["-1", "0"]]).replace('"P"', BIG),
    json.dumps({"field": {"kind": "rationals"}, "rows": 2, "cols": 2,
                "entries": [["0", "1"], ["-1", "0"]]}).replace('"rows": 2', f'"rows": {BIG}'),
], ids=["array", "missing-entries", "entries-not-a-grid", "numeric-entries",
        "string-characteristic", "fractional-characteristic", "field-not-an-object",
        "literal-of-another-field", "zero-denominator", "not-utf8", "nested-100000-deep",
        "degree-2^62", "degree-10^20", "non-square", "boolean-shape", "boolean-shape-full",
        "5000-digit-literal", "5000-digit-modulus", "5000-digit-residue",
        "5000-digit-degree", "5000-digit-coefficient", "5000-digit-function-field",
        "5000-digit-json-p", "5000-digit-json-rows"])
def test_compute_rejects_malformed_matrix_json(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    for command in ("pf", "gamma", "section"):
        assert run(["compute", command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


# the shape and ambient checks come before certification, so an
# uncertified matrix (the zero 3x3) gets the usage error too
def test_compute_section_rejects_odd_ambient(capsys, tmp_path):
    path = tmp_path / "a3.json"
    for upper in ([1, 2, 3], [0, 0, 0]):
        path.write_text(json.dumps(SkewMatrix.from_upper(Q, 3, upper).to_json()))
        assert run(["compute", "section", "--input", str(path), "--ambient", "3"]) == 2
        assert "ambient" in capsys.readouterr().err


def test_compute_rejects_skew_grid_of_other_shape(tmp_path, capsys):
    obj = SkewMatrix.from_upper(Q, 3, [1, 2, 3]).to_json()
    obj["rows"] = obj["cols"] = 2
    path = tmp_path / "declared2.json"
    path.write_text(json.dumps(obj))
    assert run(["compute", "pf", "--input", str(path)]) == 2
    assert "shape" in capsys.readouterr().err


def test_compute_pf_rejects_odd_size(tmp_path, capsys):
    path = tmp_path / "a3.json"
    for upper in ([1, 2, 3], [0, 0, 0]):
        path.write_text(json.dumps(SkewMatrix.from_upper(Q, 3, upper).to_json()))
        for command in ("pf", "gamma"):
            assert run(["compute", command, "--input", str(path)]) == 2
            assert "even size" in capsys.readouterr().err
