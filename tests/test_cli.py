import json
import math
import os
import subprocess
import sys

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


def test_cycle_expands_the_continued_fraction_once(monkeypatch, capsys):
    from linnikgeo import cycles

    calls = []
    real = cycles.pell_fundamental
    monkeypatch.setattr(cycles, "pell_fundamental", lambda D: calls.append(D) or real(D))
    assert main(["cycle", "-A", "1", "-B", "1", "-C", "-1", "--delta-ladder", "1e3,1e4"]) == 0
    assert calls == [5]
    assert capsys.readouterr().out.startswith("D=5 t0=3 u0=1 ")


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


@pytest.mark.parametrize("coeffs", [("1.5", "1", "-1"), ("1", "0.5", "-1"), ("1", "1", "-1.25")])
def test_cycle_and_render_refuse_non_integer_coefficients(capsys, coeffs):
    """Truncating 1.5 to 1 would answer for another form."""
    A, B, C = coeffs
    assert main(["cycle", "-A", A, "-B", B, "-C", C, "--delta-ladder", "100"]) == 2
    assert main(["render", "-A", A, "-B", B, "-C", C, "--delta", "7"]) == 2
    assert capsys.readouterr().err.count("coefficients must be integers") == 2


def test_render_from_json_refuses_non_integer_coefficients(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.svg"
    for A in (1.9, "1", None):
        doc = {"schema": 1, "config": {"A": A, "B": 0, "C": -1, "delta": 7, "mode": "cm"}}
        cfg.write_text(json.dumps(doc))
        assert main(["render", "--from-json", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("coefficients must be integers") == 3


def test_cycle_pell_expansion_is_capped(capsys):
    """D = 1 + 4e300 has a continued fraction far too long to expand: a
    guard, at once, naming D and the step count."""
    import time

    t = time.perf_counter()
    code = main(["cycle", "-A", "1e300", "-B", "1", "-C", "-1", "--delta-ladder", "100"])
    assert time.perf_counter() - t < 1.0
    assert code == 3
    err = capsys.readouterr().err
    assert "guard exceeded" in err and str(1 + 4 * int(1e300)) in err and "steps" in err


def test_unbounded_scan_is_a_guard(capsys):
    """n_max would be 10^75: refused at once with its numbers, exit 3, and
    no numpy warning (pytest makes one an error, which main reports as 1)."""
    import time

    t = time.perf_counter()
    code = main(["wset", "-A", "1e100", "-B", "0", "-C", "1e100", "--delta", "1e250",
                 "--lo", "-1", "--hi", "1"])
    assert time.perf_counter() - t < 1.0
    assert code == 3
    err = capsys.readouterr().err
    assert "guard exceeded" in err and "SCAN_GUARD" in err


def test_huge_coefficients_with_no_points(capsys):
    """Value bounds made from empty columns must still cover the
    coefficients: both commands find no points and exit 0."""
    assert main(["wset", "-A", "1e30", "-B", "0", "-C", "1e30", "--delta", "1",
                 "--lo", "0", "--hi", "1"]) == 0
    assert "count=0 " in capsys.readouterr().err
    assert main(_verify_argv("1e30", "0", "1e30", "definite", "0", "1", "2,10")) == 0
    assert "empirical=0 " in capsys.readouterr().out


def test_values_past_int64_squares_are_counted(tmp_path, capsys):
    """m reaches 1.0e11, whose square wraps in int64: both commands count
    the 15 points of a direct loop, and the value column is that loop's."""
    out = tmp_path / "w.csv"
    assert main(["wset", "-A", "1e-15", "-B", "0", "-C", "1", "--delta", "1e7",
                 "--lo", "1e10", "--hi", "10000000000.5", "--out", str(out)]) == 0
    assert "count=15 " in capsys.readouterr().err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(v) for *_, v, _ in rows] == [1e-15 * int(m) * int(m) + 1 * int(n) * int(n)
                                               for m, n, *_ in rows]
    assert main(_verify_argv("1e-15", "0", "1", "definite", "1e10", "10000000000.5", "1e7")) == 0
    assert "empirical=15 " in capsys.readouterr().out


# ---------------------------------------------------------------------------
# render against its records


class _Axis:
    def __init__(self, w0, w1, p0, p1):
        self.scale = (p1 - p0) / (w1 - w0)
        self.off = p0 - w0 * self.scale

    def __call__(self, w):
        return w * self.scale + self.off


def _semicircle(q, r, sx, sy):
    return (f'<path d="M {sx(q - r):.9g} {sy(0):.9g} A {r * sx.scale:.9g} {r * sx.scale:.9g} 0 0 1 '
            f'{sx(q + r):.9g} {sy(0):.9g}" class="geo"/>')


def _render_records(base_form, mode, records, delta, fd):
    """The SVG drawn record by record: the reference for render."""
    from linnikgeo.forms import HalfLine, Semicircle, geodesic_of_form

    pts, curves = [], []  # (x, y, |D|), (q, r)
    for rec in records:
        if mode == "cm":
            z = rec.point.z
            pts.append((z.real, z.imag, abs(rec.point.form.discriminant())))
        elif mode == "rm-perp":
            pts.append((rec.foot.x, rec.foot.y, rec.curve.form.discriminant()))
            g = rec.curve.geodesic
            curves.append((g.q, g.r))
        else:
            g = rec.curve.geodesic
            pts.append((g.q, g.r, rec.curve.form.discriminant()))
            curves.append((g.q, g.r))
    xs = [p[0] for p in pts] or [0.0]
    ys = [p[1] for p in pts] or [1.0]
    base = geodesic_of_form(base_form) if base_form.discriminant() > 0 else None
    if isinstance(base, HalfLine):
        xs += [base.x - 1, base.x + 1]
    for q, r in curves + ([(base.q, base.r)] if isinstance(base, Semicircle) else []):
        xs += [q - r, q + r]
        ys.append(r)
    pad = 0.1 * max(max(xs) - min(xs), max(ys), 1.0)
    wx0, wx1 = min(xs) - pad, max(xs) + pad
    wy1 = max(ys) + pad
    W, H = 800, 400
    sx = _Axis(wx0, wx1, 0, W)
    sy = _Axis(0, wy1, H - 10, H - 10 - wy1 * sx.scale)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
        "<style>.geo{fill:none;stroke:#444;stroke-width:1}.axis{stroke:#000;stroke-width:1}</style>",
        f'<line class="axis" x1="0" y1="{sy(0):.9g}" x2="{W}" y2="{sy(0):.9g}"/>',
    ]
    if isinstance(base, HalfLine):
        out.append(f'<line class="geo" x1="{sx(base.x):.9g}" y1="{sy(0):.9g}" x2="{sx(base.x):.9g}" y2="0"/>')
    elif base:
        out.append(_semicircle(base.q, base.r, sx, sy))
    for q, r in sorted(set(curves)):
        out.append(_semicircle(q, r, sx, sy))
    if fd:
        for x in (-0.5, 0.5):
            out.append(f'<line class="geo" x1="{sx(x):.9g}" y1="0" x2="{sx(x):.9g}" '
                       f'y2="{sy(math.sqrt(3) / 2):.9g}"/>')
        out.append(_semicircle(0.0, 1.0, sx, sy))
    dmax = max(delta, 1.0)
    for x, y, ad in pts:
        hue = int(240 * (1 - min(ad / dmax, 1.0)))
        out.append(f'<circle cx="{sx(x):.9g}" cy="{sy(y):.9g}" r="3" fill="hsl({hue},70%,50%)"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


_RENDERS = [
    # (form, delta, mode, arc): semicircle bases on arcs and whole,
    # half-line bases (A = 0), empty sets
    ((1, 0, -1), 7, "cm", None), ((1, 0, -1), 2000.5, "cm", (0.3, 2.8)),
    ((1, 1, -1), 3000, "cm", (0.5, 1.0)), ((0, 1, 0), 500, "cm", None),
    ((0, 1, -2), 300, "cm", (0.5, 4.0)), ((1, 0, -1), 2, "cm", None),
    ((1, 1, -1), 60, "rm-perp", (0.5, 2.6)), ((2, 1, -3), 900, "rm-perp", (0.3, 1.2)),
    ((0, 3, 1), 400, "rm-perp", (0.2, 3.0)), ((1, 0, -1), 1, "rm-perp", (0.3, 1.2)),
    ((1, 0, 1), 20, "rm-point", None), ((2, 1, 3), 1500, "rm-point", None),
    ((1, 1, 1), 1, "rm-point", None),
]


@pytest.mark.parametrize("form, delta, mode, arc", _RENDERS)
def test_render_bytes_equal_the_records_drawing(tmp_path, monkeypatch, form, delta, mode, arc):
    """Byte-equal to drawing the enumerator's records, with and without
    --fd, and render builds no records on the way."""
    from linnikgeo import geodesic_enum as ge
    from linnikgeo.forms import IntForm

    enum = {"cm": ge.enum_cm_on_geodesic, "rm-perp": ge.enum_rm_perp_geodesic,
            "rm-point": lambda G, d, arc: ge.enum_rm_through_point(G, d)}[mode]
    records = enum(IntForm(*form), delta, arc=arc)
    assert (len(records) > 0) == (delta > 2)

    def refuse(*args):
        raise AssertionError("a record was built")

    # _build makes every record of the enumerators; the classes are patched
    # in place, as the columns' record type is told by class identity
    monkeypatch.setattr(ge, "_build", refuse)
    for cls in (ge.CMOnGeodesic, ge.RMPerpGeodesic, ge.RMThroughPoint):
        monkeypatch.setattr(cls, "__new__", refuse)
    for fd in (False, True):
        out = tmp_path / "a.svg"
        argv = ["render", "-A", str(form[0]), "-B", str(form[1]), "-C", str(form[2]),
                "--delta", str(delta), "--mode", mode, "--out", str(out)] + ["--fd"] * fd
        if arc is not None:
            argv += ["--arc", f"{arc[0]},{arc[1]}"]
        assert main(argv) == 0
        assert out.read_text() == _render_records(IntForm(*form), mode, records, delta, fd)


def test_render_rm_point_refuses_an_arc(tmp_path, capsys):
    """An rm-point render has no arc to apply: bad input, not a silent
    drop, on the command line and through --from-json."""
    out, cfg = tmp_path / "a.svg", tmp_path / "cfg.json"
    assert main(["render", "-A", "1", "-B", "0", "-C", "1", "--delta", "20", "--mode", "rm-point",
                 "--arc", "0.5,2", "--out", str(out)]) == 2
    doc = {"schema": 1, "config": {"A": 1, "B": 0, "C": 1, "delta": 20, "mode": "rm-point", "arc": [0.5, 2]}}
    cfg.write_text(json.dumps(doc))
    assert main(["render", "--from-json", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("does not apply to mode rm-point") == 2


def test_window_with_an_end_where_F_rounds_to_zero_is_bad_input(capsys):
    """F = t^2 + 4t - 2 is -8.9e-16 at the float end, one ulp above its root:
    verify measured mu(I) = 7.61 there while the scan refused the window."""
    ends = ["--lo", "0.44948974278317794", "--hi", "1.5"]
    assert main(["wset", "-A", "1", "-B", "4", "-C", "-2", "--delta", "100", *ends]) == 2
    assert main(["verify", "-A", "1", "-B", "4", "-C", "-2", "--case", "indefinite", *ends]) == 2
    assert capsys.readouterr().err.count("rounds to <= 0 on the closure of ProjInterval(lo=0.4494897427") == 2


def test_refusals_of_bucket_counts_json_configs_and_arcs(tmp_path, capsys):
    """wset needs two buckets; render refuses a config of another schema
    or mode, and --arc needs two numbers, which argparse refuses before main
    runs the command."""
    assert main(["wset", "-A", "1", "-B", "0", "-C", "1", "--delta", "10",
                 "--lo", "-1", "--hi", "1", "--buckets", "1"]) == 2
    assert "need at least 2 buckets" in capsys.readouterr().err
    cfg, out = tmp_path / "cfg.json", tmp_path / "a.svg"
    config = {"A": 1, "B": 0, "C": 1, "delta": 20, "mode": "cm"}
    for doc, message in [({"schema": 2, "config": config}, "unsupported schema"),
                         ({"schema": 1, "config": {**config, "mode": "x"}}, "unknown render mode 'x'")]:
        cfg.write_text(json.dumps(doc))
        assert main(["render", "--from-json", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["render", "-A", "1", "-B", "0", "-C", "-1", "--delta", "20", "--arc", "0.5,1,2"])
    assert exc.value.code == 2
    assert "arc needs two comma-separated numbers" in capsys.readouterr().err
