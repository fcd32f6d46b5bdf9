import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from linnikgeo import linnik
from linnikgeo.cli import main
from linnikgeo.forms import RealForm
from linnikgeo.linnik import ProjInterval, enumerate_W, equid_report


def run(tmp_path, *argv):
    return main(list(argv))


def test_wset_csv_golden(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["wset", "-A", "1", "-B", "0", "-C", "1", "--delta", "2",
                 "--lo", "-1", "--hi", "1", "--out", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text == (
        "m,n,t,value,extra\n"
        "-1,1,-1,2,\n"
        "0,1,0,1,\n"
        "1,1,1,2,\n"
    )
    assert "\r" not in text


def test_wset_empty(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["wset", "-A", "1", "-B", "0", "-C", "1", "--delta", "0",
                 "--lo", "-1", "--hi", "1", "--out", str(out)])
    assert code == 0
    assert out.read_text() == "m,n,t,value,extra\n"


def test_wset_json_schema(tmp_path):
    out = tmp_path / "w.json"
    code = main(["wset", "-A", "1", "-B", "0", "-C", "1", "--delta", "10",
                 "--lo", "-1", "--hi", "1", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["config"]["command"] == "wset"
    assert doc["report"]["empirical"] == len(doc["records"])
    for m, n, t, value in doc["records"]:
        assert value == m * m + n * n
        assert abs(t - m / n) < 1e-15


def test_wset_bad_interval():
    # endpoint sits on a root of the form
    code = main(["wset", "-A", "1", "-B", "0", "-C", "-1", "--delta", "10",
                 "--lo", "1", "--hi", "2"])
    assert code == 2


def test_wrap_needs_lo_gt_hi():
    code = main(["wset", "-A", "1", "-B", "0", "-C", "-2", "--delta", "10",
                 "--lo", "-1", "--hi", "1", "--wrap"])
    assert code == 2


def test_wset_wrap_ok(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["wset", "-A", "1", "-B", "0", "-C", "-2", "--delta", "50",
                 "--lo", "1.5", "--hi", "-1.5", "--wrap", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert lines  # the wrapped window is nonempty at delta 50
    for line in lines:
        m, n, t = line.split(",")[:3]
        assert float(t) >= 1.5 or float(t) <= -1.5


def test_verify_pass(capsys):
    code = main(["verify", "-A", "1", "-B", "0", "-C", "1", "--case", "definite",
                 "--lo", "-1", "--hi", "1", "--delta-ladder", "1e3,1e4"])
    assert code == 0
    got = capsys.readouterr().out
    assert got.count(" ok") == 2
    assert "failures=0" in got


def test_verify_tolerance_failure(capsys):
    code = main(["verify", "-A", "1", "-B", "0", "-C", "1", "--case", "definite",
                 "--lo", "-1", "--hi", "1", "--delta-ladder", "1e3",
                 "--tol", "1e-12"])
    assert code == 4


def test_verify_rejects_delta_at_most_one():
    code = main(["verify", "-A", "1", "-B", "0", "-C", "1", "--case", "definite",
                 "--lo", "-1", "--hi", "1", "--delta-ladder", "1,100"])
    assert code == 2


def test_non_finite_delta_is_bad_input():
    for delta in ("inf", "nan"):
        assert main(["wset", "-A", "1", "-B", "0", "-C", "1", "--delta", delta,
                     "--lo", "0", "--hi", "1"]) == 2
    assert main(["verify", "-A", "1", "-B", "0", "-C", "1", "--case", "definite",
                 "--lo", "-1", "--hi", "1", "--delta-ladder", "100,inf"]) == 2
    assert main(["render", "-A", "1", "-B", "1", "-C", "-1", "--delta", "inf",
                 "--arc", "0.5,2"]) == 2


def test_verify_wrong_case():
    code = main(["verify", "-A", "1", "-B", "0", "-C", "1", "--case", "cap",
                 "--lo", "-1", "--hi", "1"])
    assert code == 2


def test_render_five_glyphs(tmp_path):
    out = tmp_path / "a.svg"
    code = main(["render", "-A", "1", "-B", "0", "-C", "-1", "--delta", "7",
                 "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert svg.count("<circle") == 5
    assert svg.startswith("<svg ")


def test_render_empty_has_curves_only(tmp_path):
    out = tmp_path / "a.svg"
    code = main(["render", "-A", "1", "-B", "0", "-C", "-1", "--delta", "2",
                 "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert svg.count("<circle") == 0
    assert "<path" in svg  # the base geodesic is still drawn


def test_render_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    argv = ["render", "-A", "1", "-B", "1", "-C", "-1", "--delta", "60",
            "--mode", "rm-perp", "--arc", "0.5,2.6", "--fd"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_json_roundtrip(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    cfg = tmp_path / "cfg.json"
    code = main(["render", "-A", "1", "-B", "0", "-C", "1", "--delta", "20",
                 "--mode", "rm-point", "--out", str(a), "--dump-json", str(cfg)])
    assert code == 0
    doc = json.loads(cfg.read_text())
    assert doc["schema"] == 1
    code = main(["render", "--from-json", str(cfg), "--out", str(b)])
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_missing_args():
    assert main(["render", "-A", "1", "-B", "0", "-C", "-1"]) == 2


def test_cycle_square_discriminant():
    code = main(["cycle", "-A", "1", "-B", "0", "-C", "-1", "--delta-ladder", "1e3"])
    assert code == 2


def test_cycle_rejects_bad_ladder_delta():
    for ladder in ("0", "100,-5", "100,inf", "nan"):
        assert main(["cycle", "-A", "1", "-B", "1", "-C", "-1",
                     "--delta-ladder", ladder]) == 2


def test_cycle_json(tmp_path):
    out = tmp_path / "c.json"
    code = main(["cycle", "-A", "1", "-B", "1", "-C", "-1",
                 "--delta-ladder", "1e3,1e4", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["pell"]["D"] == 5
    assert (doc["pell"]["t0"], doc["pell"]["u0"]) == (3, 1)
    assert len(doc["estimates"]) == 2
    # constant function: estimates approach the quadrature value (the length)
    q = doc["quadrature"][0]
    assert abs(doc["estimates"][-1][1] - q) < 0.1 * q


def test_verify_nan_tol_is_bad_input(capsys):
    code = main(["verify", "-A", "1", "-B", "0", "-C", "1", "--case", "definite",
                 "--lo", "-1", "--hi", "1", "--delta-ladder", "1e3", "--tol", "nan"])
    assert code == 2
    assert "--tol" in capsys.readouterr().err


def test_verify_status_and_failure_count_agree(capsys):
    code = main(["verify", "-A", "1", "-B", "0", "-C", "1", "--case", "definite",
                 "--lo", "-1", "--hi", "1", "--delta-ladder", "1e3,1e4", "--tol", "-1"])
    assert code == 4
    out = capsys.readouterr().out
    assert out.count(" FAIL") == 2 and "failures=2" in out


def test_wset_huge_bucket_count_is_a_guard(capsys):
    code = main(["wset", "-A", "1", "-B", "0", "-C", "1", "--delta", "1e4",
                 "--lo", "0", "--hi", "1", "--buckets", "100000000000"])
    assert code == 3
    assert "100000000000" in capsys.readouterr().err


# (A, B, C, lo, hi, wrap, delta): the five sign cases, one of them wrapping
# through infinity, a non-dyadic real form, an empty set, and coefficients
# near 2^31 whose values leave int64 (the Python-int path)
WSET_CASES = [
    (0.0, 1.5, 0.25, 1.0, 1.0625, False, 2e4),
    (1.0, 0.0, -2.0, 24.0, math.inf, False, 2e4),
    (1.0, 0.0, 1.0, 48.0, -48.0, True, 2e4),
    (0.25, -1.0, 1.0, 6.0, 6.1875, False, 2e4),
    (-1.0, 1.0, 1.0, 0.5, 0.546875, False, 2e4),
    (0.3, 1.7, -0.1, 0.5, 3.0, False, 3e3),
    (1.0, 0.0, 1.0, -1.0, 1.0, False, 0.5),
    (2147483647.0, 1.0, 2147483647.0, 40000.0, 40002.0, False, 1.4e19),
]


def _wset_argv(A, B, C, lo, hi, wrap, delta, fmt, out):
    argv = ["wset", "-A", repr(A), "-B", repr(B), "-C", repr(C), "--lo", repr(lo),
            "--hi", repr(hi), "--delta", repr(delta), "--format", fmt, "--out", str(out)]
    return argv + (["--wrap"] if wrap else [])


def _reference_wset_json(A, B, C, lo, hi, wrap, delta):
    """The wset document built record by record and encoded by json.dumps."""
    F, I = RealForm(A, B, C), ProjInterval(lo, hi, wrap)
    fracs = enumerate_W(F, delta, I)
    if F.is_integral():
        a, b, c = int(A), int(B), int(C)
    else:
        a, b, c = A, B, C
    values = [a * f.m * f.m + b * f.m * f.n + c * f.n * f.n for f in fracs]
    r = equid_report(F, delta, I, 8)
    doc = {
        "schema": 1,
        "config": {
            "command": "wset", "A": A, "B": B, "C": C, "delta": delta,
            "lo": lo, "hi": hi, "wrap": wrap, "buckets": 8,
        },
        "records": [[f.m, f.n, f.t, v] for f, v in zip(fracs, values)],
        "report": {
            "empirical": r.empirical,
            "predicted": r.predicted,
            "residual": r.residual,
            "normalized_residual": r.normalized_residual,
            "histogram": r.histogram,
            "max_ratio_dev": r.max_ratio_dev,
            "boundary_ties": r.boundary_ties,
        },
    }
    return json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize("case", WSET_CASES)
def test_wset_json_bytes_match_json_dumps(tmp_path, case):
    out = tmp_path / "w.json"
    assert main(_wset_argv(*case, "json", out)) == 0
    assert out.read_text(encoding="utf-8") == _reference_wset_json(*case)


def test_wset_json_non_finite_values(tmp_path, monkeypatch):
    from linnikgeo import cli

    monkeypatch.setattr(cli, "form_values", lambda F, ms, ns: np.full(len(ms), np.inf))
    out = tmp_path / "w.json"
    assert main(_wset_argv(*WSET_CASES[2], "json", out)) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=1) + "\n"
    assert '   Infinity\n' in text


@pytest.mark.parametrize("case", WSET_CASES)
def test_wset_csv_and_json_records_agree(tmp_path, case):
    a, b = tmp_path / "w.csv", tmp_path / "w.json"
    assert main(_wset_argv(*case, "csv", a)) == 0
    assert main(_wset_argv(*case, "json", b)) == 0
    rows = [line.split(",") for line in a.read_text().splitlines()[1:]]
    records = json.loads(b.read_text())["records"]
    assert len(rows) == len(records)
    for (m, n, t, value, extra), rec in zip(rows, records):
        assert [m, n, t, value, extra] == [str(rec[0]), str(rec[1]), f"{rec[2]:.9g}",
                                           str(rec[3]), ""]


def test_wset_and_verify_build_no_fracs(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a Frac was built")

    monkeypatch.setattr(linnik, "Frac", refuse)
    for fmt in ("csv", "json"):
        assert main(_wset_argv(*WSET_CASES[2], fmt, tmp_path / "w")) == 0
    assert main(["verify", "-A", "1", "-B", "0", "-C", "1", "--case", "definite",
                 "--lo", "-1", "--hi", "1", "--delta-ladder", "1e3,1e4"]) == 0


def test_importing_the_cli_leaves_scipy_unloaded():
    code = "import sys, linnikgeo, linnikgeo.cli; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), check=True)
    assert res.stdout.strip() == "False"


def _verify_argv(A, B, C, case, lo, hi, ladder):
    return ["verify", "-A", A, "-B", B, "-C", C, "--case", case, "--lo", lo, "--hi", hi,
            "--delta-ladder", ladder]


@pytest.mark.parametrize("form", [("1", "0", "1", "definite", "-1", "1"),
                                  ("0.5", "0.25", "-1.5", "indefinite", "2", "3")])
def test_verify_ladder_enumerates_once(capsys, monkeypatch, form):
    """A three-rung verify enumerates once and prints the lines of three
    one-rung runs (an integral and a dyadic form)."""
    ladder = ["3000", "20000", "7000.5"]
    singles = []
    for d in ladder:
        assert main(_verify_argv(*form, d)) == 0
        singles.append(capsys.readouterr().out.splitlines())
    calls = []
    real = linnik._enumerate_with_ties
    monkeypatch.setattr(linnik, "_enumerate_with_ties", lambda *a: calls.append(a) or real(*a))
    assert main(_verify_argv(*form, ",".join(ladder))) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == 1 and calls[0][1] == 20000.0
    assert lines[:-1] == [s[0] for s in singles]
    assert all(lines[-1] == s[-1] for s in singles)


def test_verify_has_no_buckets_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(_verify_argv("1", "0", "1", "definite", "-1", "1", "1e3") + ["--buckets", "8"])
    assert exc.value.code == 2


def test_verify_non_finite_rung_is_bad_input():
    for ladder in ("nan,100", "100,nan", "100,inf"):
        assert main(_verify_argv("1", "0", "1", "definite", "-1", "1", ladder)) == 2


def _python(code, timeout=60):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                          timeout=timeout)


def test_overflowing_discriminant_exits_promptly():
    """B^2 - 4AC overflows: bad input at once, naming the form, with no
    numpy warning and no scan (the last delta would scan n up to 10^50)."""
    base = ["wset", "-A", "1e200", "-B", "0", "--lo", "-1", "--hi", "1"]
    code = (f"from linnikgeo.cli import main\nbase = {base!r}\n"
            "print(main(base + ['-C', '1e200', '--delta', '1e203']),"
            " main(base[:-4] + ['-C=-1e200', '--delta', '1e203', '--lo', '2', '--hi', '3']),"
            " main(base + ['-C', '1e200', '--delta', '1e300']))")
    res = _python(code, timeout=30)
    assert res.stdout.split() == ["2", "2", "2"]
    assert "Warning" not in res.stderr
    assert res.stderr.count("discriminant of RealForm") == 3


def test_cycle_runs_without_scipy():
    code = ("import sys\nfrom linnikgeo.cli import main\n"
            "rc = main(['cycle', '-A', '1', '-B', '1', '-C', '-1', '--f', 'j',"
            " '--delta-ladder', '1e4'])\nprint(rc, 'scipy' in sys.modules)")
    res = _python(code)
    assert res.stdout.splitlines()[-1] == "0 False"
