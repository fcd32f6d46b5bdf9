"""Mutation checks that can be rerun: each row breaks one spot of src/ and
names the test that must catch it.

    python tests/mutants.py

For each row the runner copies src/ to a temporary directory, replaces the
row's old text in the module (it must occur there exactly once) with the
new text, and runs the named test against the copy, where it must fail.  A
row whose old text no longer occurs exactly once is reported as stale: a
change that rewrites a mutated spot updates its row.  Each named test is
also run against src/ itself, where it must pass.  The exit status is 0
when every row is caught, none is stale and every test passes at src/.
pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (module, old text, new text, test id)
ROWS = [
    # the transport check: the half-line law, the CM sign, a semicircle law
    ("geodesic_enum", "g = 2 / case.F.B * np.log(us)", "g = 1 / case.F.B * np.log(us)",
     "tests/test_geodesic_enum.py::test_pushforward"),
    ("geodesic_enum", "scan = RealForm(-A, -B, -C) if mode == CM_ON_G else RealForm(A, B, C)",
     "scan = RealForm(A, B, C)", "tests/test_geodesic_enum.py::test_enum_cm_examples"),
    ("geodesic_enum", "s = math.sqrt(D) * math.cos(coord)", "s = -math.sqrt(D) * math.cos(coord)",
     "tests/test_geodesic_enum.py::test_coord_roundtrip"),
    ("geodesic_enum", "num, den = -math.sqrt(D), s", "num, den = math.sqrt(D), s",
     "tests/test_geodesic_enum.py::test_ufunc_columns_stay_near_per_element_libm"),
    # weighted_sqrt_sum: no slack below either branch's lower bound on s1
    ("numtheory", "s1 < max(0.0, -4 * A / D):", "s1 < max(0.0, -4 * A / D) - 1e-12:",
     "tests/test_numtheory.py::test_weighted_sqrt_sum_domain"),
    ("numtheory", "(A > 0 and 0 <= s1 and", "(A > 0 and -1e-12 <= s1 and",
     "tests/test_numtheory.py::test_weighted_sqrt_sum_domain"),
    # the half-line base as the general case (Bezout sign, foot, Euclid)
    ("geodesic_enum", "sign = -1 if A0 else 1", "sign = -1",
     "tests/test_geodesic_enum.py::test_build_param_examples"),
    ("hyperbolic", "/ (4 * u * u)", "/ (2 * u * u)",
     "tests/test_geodesic_enum.py::test_column_builders_match_scalar_reference"),
    ("hyperbolic", "(A0 * c - C0 * a) / u", "(A0 * c + C0 * a) / u",
     "tests/test_geodesic_enum.py::test_column_builders_match_scalar_reference"),
    ("numtheory", "    if S < 0:\n        S, b = -S, -b\n", "",
     "tests/test_numtheory.py::test_ext_gcd_with_q_zero_is_euclid"),
    # weighted_sqrt_sum's first n and its u = 0 log term
    ("numtheory", "n_lo = math.isqrt(max(0, math.floor(s1 * delta)))",
     "n_lo = math.isqrt(max(0, math.ceil(s1 * delta)))",
     "tests/test_numtheory.py::test_weighted_sqrt_sum_starts_after_the_last_square_at_most_s1_delta"),
    ("numtheory", "n_lo = math.isqrt(max(0, math.floor(s1 * delta)))",
     "n_lo = math.isqrt(max(0, math.floor(s1 * delta) - 1))",
     "tests/test_numtheory.py::test_weighted_sqrt_sum_starts_after_the_last_square_at_most_s1_delta"),
    ("numtheory", "        if D > 0:\n            return head",
     "        if D > 0 and u == 0:\n            return head + 4 * A / math.sqrt(D) * math.log(math.sqrt(4 * A) * (1 + 2**-50))\n"
     "        if D > 0:\n            return head",
     "tests/test_numtheory.py::test_weighted_sqrt_sum_at_s1_zero_is_the_u_zero_expression"),
    # RM curves through a point: the angle from F(t), which cancels
    ("geodesic_enum", "num, den = s, np.sqrt(s * s - float(D))",
     "num, den = s, np.sqrt(4 * float(F.A) * ((float(F.A) * t + float(F.B)) * t + float(F.C)))",
     "tests/test_geodesic_enum.py::test_rm_through_translated_point_keeps_its_curves_and_angles"),
    # the scan loop's one-chunk path, the scan's bound on |m| and n without
    # the pad's +1, the merge of two ranges per n skipped, and the columns
    # of the first chunk returned as the whole scan
    ("linnik", "if n <= _BLOCK:", "if n <= 2 * _BLOCK:", "tests/test_linnik.py::test_ranges_split_across_blocks"),
    ("linnik", "max(int(reach) + 1, int(n[-1]))", "max(int(reach), int(n[-1]))",
     "tests/test_linnik.py::test_form_values_with_the_scans_bound_are_exact_past_2_63"),
    ("linnik", "if L.shape[1] > 1:", "if L.shape[1] > 2:", "tests/test_linnik.py::test_overlapping_pieces_counted_once"),
    ("linnik", "if len(out) == 1", "if len(out) >= 1",
     "tests/test_linnik.py::test_enumerate_matches_brute_force_across_blocks"),
    # the rows of the Bezout map and the exact x -> t inverse of the arc ends
    ("geodesic_enum", "(0, R // S, -Q // S)", "(0, R // S, Q // S)",
     "tests/test_geodesic_enum.py::test_build_param_examples"),
    ("geodesic_enum", "-(2 * param.u[0] * x + param.u[1])", "-(2 * param.u[0] * x - param.u[1])",
     "tests/test_cycles.py::test_fundamental_arc_length"),
    # the scan's level-set roots from B^2 - 4A(C - K), which cancels; a guard
    # that lets a nan count through; one 2^53 limit for every use of
    # _int_dtype; the chunks of a block expanded last to first
    ("linnik", "disc = case.D + 4 * A * K", "disc = B * B - 4 * A * (C - K)",
     "tests/test_geodesic_enum.py::test_level_set_roots_from_the_exact_discriminant"),
    ("linnik", "if not count <= SCAN_GUARD:", "if count > SCAN_GUARD:",
     "tests/test_linnik.py::test_guard_refuses_a_nan_count"),
    ("linnik", "(2**53 if floats else 2**63)", "2**53",
     "tests/test_linnik.py::test_int_policy_switches_to_python_ints_at_2_53"),
    ("linnik", "for p0 in range(0, n, _BLOCK):", "for p0 in reversed(range(0, n, _BLOCK)):",
     "tests/test_geodesic_enum.py::test_ball_im1_and_geodesic_scans_cross_block_cuts"),
    # each input checked by what owns it: a wrap that may overlap, the
    # totient entry letting T = 0 through, the region's interval built before
    # _region_n_max refuses a double root, a foot with an infinite x, and
    # _min_on_closure dropping the ends whose value overflows
    ("linnik", "if not INF > self.lo > self.hi > -INF:", "if not (INF > self.lo and self.hi > -INF):",
     "tests/test_linnik.py::test_wrapping_interval_needs_finite_ends_with_lo_above_hi"),
    ("numtheory", "    if T < 1:\n", "    if T < 0:\n",
     "tests/test_numtheory.py::test_totient_limit_below_one_is_refused_at_the_one_entry"),
    ("linnik", "        n_max = _region_n_max(case, delta) if delta >= 1 else 0\n"
     "        pos = case.pos\n        I = ProjInterval(*pos[0]) if len(pos) == 1 else ProjInterval(pos[1][0], pos[0][1], True)\n",
     "        pos = case.pos\n        I = ProjInterval(*pos[0]) if len(pos) == 1 else ProjInterval(pos[1][0], pos[0][1], True)\n"
     "        n_max = _region_n_max(case, delta) if delta >= 1 else 0\n",
     "tests/test_linnik.py::test_whole_positivity_region_needs_an_integral_form_and_rational_roots"),
    ("geodesic_enum", "~(np.isfinite(cols[6]) & np.isfinite(cols[7]) & (cols[7] > 0))", "~(cols[7] > 0)",
     "tests/test_geodesic_enum.py::test_builder_rejects_rows_as_the_constructors_do"),
    ("linnik", "vals = [F.value(I.lo), F.value(I.hi)]",
     "vals = [v for v in (F.value(I.lo), F.value(I.hi)) if not math.isinf(v)]",
     "tests/test_linnik.py::test_window_whose_ends_overflow_F_is_empty"),
    # renders, reduction and cycle values from columns: rounded hues,
    # unsorted semicircles, a missing extent, no rm-point refusal, two wrong
    # gamma updates, reversed Horner pairs, a shifted reduced point, the
    # wrong exception caught and a reordered rung sum
    ("cli", "hue.astype(np.int64).tolist()", "np.rint(hue).astype(np.int64).tolist()",
     "tests/test_cli.py::test_render_bytes_equal_the_records_drawing"),
    ("cli", "arcs = sorted(set(zip(qs.tolist(), rs.tolist())))", "arcs = list(dict.fromkeys(zip(qs.tolist(), rs.tolist())))",
     "tests/test_cli.py::test_render_bytes_equal_the_records_drawing"),
    ("cli", "xs = [px if len(px) else [0.0], qs - rs, qs + rs]", "xs = [px if len(px) else [0.0], qs - rs]",
     "tests/test_cli.py::test_render_bytes_equal_the_records_drawing"),
    ("cli", '    if mode == "rm-point" and arc is not None:\n', '    if False:\n',
     "tests/test_cli.py::test_render_rm_point_refuses_an_arc"),
    ("numtheory", "a, b = a - n * c, b - n * d", "a, b = a + n * c, b - n * d",
     "tests/test_cycles.py::test_reduction_and_j_match_the_matrix_products_bit_for_bit"),
    ("numtheory", "a, b, c, d = -c, -d, a, b", "a, b, c, d = c, -d, a, b",
     "tests/test_cycles.py::test_reduction_and_j_match_the_matrix_products_bit_for_bit"),
    ("cycles", "_HORNER = tuple(zip(_SIGMA3[::-1], _TAU[::-1]))", "_HORNER = tuple(zip(_SIGMA3, _TAU))",
     "tests/test_cycles.py::test_reduction_and_j_match_the_matrix_products_bit_for_bit"),
    ("numtheory", "return w, ((a, b), (c, d))", "return w + 2**-40, ((a, b), (c, d))",
     "tests/test_cycles.py::test_reduction_and_j_match_the_matrix_products_bit_for_bit"),
    ("linnik", "        except OverflowError:\n", "        except ValueError:\n",
     "tests/test_linnik.py::test_coefficients_past_the_float_range_are_a_domain_error"),
    ("cycles", "total = sum(compress(vals, _at_most(absd, delta).tolist()), 0j)",
     "total = sum(reversed(list(compress(vals, _at_most(absd, delta).tolist()))), 0j)",
     "tests/test_cycles.py::test_cycle_value_enumerates_once"),
    # F(m, n) evaluated once: the scan's value column unmasked or left
    # unsorted, the arc's |D| column unfiltered, the closure test of
    # _check_interval dropped or made at the ends alone, and Im z = 1
    # windows decided by the float products alone
    ("linnik", "out.append((ms[ok], ns[ok], t[ok], vals[ok]))", "out.append((ms[ok], ns[ok], t[ok], vals))",
     "tests/test_linnik.py::test_report_values_are_the_scans_values"),
    ("linnik", "t[order], vals[order]]", "t[order], vals]",
     "tests/test_linnik.py::test_report_values_are_the_scans_values"),
    ("cycles", "ts[keep], absd[keep]", "ts[keep], absd",
     "tests/test_cycles.py::test_cycle_value_enumerates_once"),
    ("linnik", "    if _min_on_closure(case.F, I) <= 0:\n", "    if False:\n",
     "tests/test_linnik.py::test_an_end_where_F_rounds_to_zero_is_refused_by_every_entry"),
    ("linnik", "    if _min_on_closure(case.F, I) <= 0:\n", "    if min(case.F.value(I.lo), case.F.value(I.hi)) <= 0:\n",
     "tests/test_linnik.py::test_an_end_where_F_rounds_to_zero_is_refused_by_every_entry"),
    ("geodesic_enum", "return (n.astype(object) * num // den).astype(dt)",
     "return _floor_ints(np.floor(n * float(x)), dt)",
     "tests/test_geodesic_enum.py::test_im1_narrow_windows_match_the_exact_reference"),
]


def _passes(src: pathlib.Path, test: str) -> bool:
    """Does the test pass with the package imported from src?"""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", test]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    bad = 0
    for test in dict.fromkeys(row[3] for row in ROWS):
        if not _passes(ROOT / "src", test):
            print(f"FAILS AT src/: {test}")
            bad += 1
    for module, old, new, test in ROWS:
        label = f"{module}: {old.strip()[:60]!r} -> {new.strip()[:60]!r}"
        with tempfile.TemporaryDirectory() as tmp:
            src = pathlib.Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            path = src / "linnikgeo" / f"{module}.py"
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"STALE   {label}")
                bad += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            caught = not _passes(src, test)
        print(f"{'caught ' if caught else 'MISSED '} {label}  [{test}]")
        bad += not caught
    print(f"{len(ROWS)} rows, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
