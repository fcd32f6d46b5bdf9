import json

from linnikgeo.cli import main


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
