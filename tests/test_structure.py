"""The source keeps one way into the scan, one scan loop, one integer
policy and one implementation of each float formula."""

import ast
import pathlib
import re
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "linnikgeo"


class _Calls(ast.NodeVisitor):
    """Calls by name, each under the innermost function that makes it."""

    def __init__(self, module: str):
        self.where = [module]
        self.callers: dict[str, set[str]] = defaultdict(set)
        self.defined: dict[str, list[str]] = defaultdict(list)

    def visit_FunctionDef(self, node):
        self.defined[node.name].append(f"{self.where[0]}:{node.name}")
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name:
            self.callers[name].add(f"{self.where[0]}:{self.where[-1]}")
        self.generic_visit(node)


def _scan_source() -> tuple[dict, dict]:
    callers, defined = defaultdict(set), defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        v = _Calls(path.stem)
        v.visit(ast.parse(path.read_text(encoding="utf-8")))
        for k, s in v.callers.items():
            callers[k] |= s
        for k, s in v.defined.items():
            defined[k] += s
    return callers, defined


def test_one_function_enters_the_scan():
    callers, _ = _scan_source()
    assert callers["_run_scan"] == {"linnik:_scan_window"}
    assert callers["_sort_along"] == {"linnik:_scan_window"}


def test_one_integer_policy():
    _, defined = _scan_source()
    assert defined["_int_dtype"] == ["linnik:_int_dtype"]
    assert defined["_ints"] == ["linnik:_ints"]


def test_scalar_geometry_is_a_row_of_its_column():
    callers, defined = _scan_source()
    assert not defined["_each"] and not defined["_sq"]
    assert "geodesic_enum:coord_of_t" in callers["_coord_col"]
    assert "hyperbolic:ang_p" in callers["_ball_angles"]
    assert "hyperbolic:contains" in callers["contains_cols"]


def test_ball_and_im1_enumerators_have_no_python_loops():
    tree = ast.parse((SRC / "geodesic_enum.py").read_text(encoding="utf-8"))
    fns = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("enum_cm_in_ball", "enum_cm_on_im1"):
        loops = [n for n in ast.walk(fns[name]) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
        assert not loops, name


def test_one_implementation_per_formula():
    """One evaluation of F(m, n), by the scan; the incident form, the foot and
    interval membership are each a row of one column function."""
    callers, defined = _scan_source()
    assert not defined["_scan_values"]
    assert callers["form_values"] == {"linnik:_run_scan"}
    assert "linnik:_run_scan" in callers["contains"]
    assert defined["_foot_cols"] == ["hyperbolic:_foot_cols"]
    assert "geodesic_enum:mn_to_form" in callers["_form_cols"]
    assert "hyperbolic:perp_foot" in callers["_foot_cols"]


def test_one_scan_loop_and_one_n_bound():
    """The W-set, ball and Im z = 1 scans run in _expand, which expands the
    ranges itself (no _ranges), with one block size; only linnik bounds n."""
    callers, defined = _scan_source()
    assert not defined["_ranges"]
    for scan in ("linnik:_run_scan", "geodesic_enum:_pairs", "geodesic_enum:_ball_points",
                 "geodesic_enum:_im1_points"):
        assert scan in callers["_expand"]
    bound = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, ast.FunctionDef):
                bound.add(node.name)
                if node.name == "_scan_window":
                    assert "n_max" not in [a.arg for a in node.args.args + node.args.kwonlyargs]
    assert "_BLOCK" in bound and "_scan_window" in bound
    assert not {"_CHUNK", "_BALL_BLOCK", "_full_n_max"} & bound


def test_render_cycles_and_j_read_columns():
    """render reads the record columns, not the enumerators' records; one
    reduction loop, with no 2 x 2 matrix products, serves sl2z_reduce and
    j; cycle_value sums its rungs without a generator."""
    callers, defined = _scan_source()
    for enum in ("enum_cm_on_geodesic", "enum_rm_perp_geodesic", "enum_rm_through_point"):
        assert not {c for c in callers[enum] if c.startswith("cli:")}, enum
    assert "cli:_run_render" in callers["_incident_cols"]
    assert not defined["_matmul"]
    assert {"numtheory:sl2z_reduce", "cycles:j_invariant"} <= callers["_reduce"]
    tree = ast.parse((SRC / "cycles.py").read_text(encoding="utf-8"))
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "cycle_value")
    assert not [n for n in ast.walk(fn) if isinstance(n, ast.GeneratorExp)]


def test_library_keeps_only_what_it_calls():
    """The test-only oracles live in tests/reference.py, gamma0 is a
    constant, no option is left that no caller sets, and one helper
    chooses between a caller's phi table and the cache."""
    callers, defined = _scan_source()
    gone = ("gamma0_fitted", "gamma0_series", "_mobius_upto", "_pell_one", "_prime_factors",
            "is_fundamental_discriminant", "_is_squarefree", "count_coprime_upto", "apply_mobius")
    assert not [name for name in gone if defined[name]]
    params, bound = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.arg):
                params.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
    assert not {"tol", "grid", "gridsize", "gamma0"} & params
    assert "_GAMMA0" in bound and "_gamma0_fit" not in bound
    assert callers["_phi_upto"] == {"numtheory:_phi_for"}
    for total in ("sum_phi", "sum_phi_over_n", "sum_phi_over_n2", "weighted_sqrt_sum"):
        assert f"numtheory:{total}" in callers["_phi_for"], total


def _nodes(module: str, function: str, kinds) -> list:
    """The nodes of the given kinds in a module-level function's body."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return [n for n in ast.walk(fn) if isinstance(n, kinds)]


def test_half_line_base_is_the_general_case():
    """One Bezout map, one foot formula: build_param returns once,
    _form_cols has no branch, and _foot_cols's one branch is the incidence
    refusal; no loop is left that no input runs, and no duplicate of
    IntForm.discriminant."""
    assert len(_nodes("geodesic_enum", "build_param", ast.Return)) == 1
    assert not _nodes("geodesic_enum", "_form_cols", (ast.If, ast.IfExp))
    branches = _nodes("hyperbolic", "_foot_cols", (ast.If, ast.IfExp))
    assert len(branches) == 1 and isinstance(branches[0].body[-1], ast.Raise)
    assert "NotPerpendicularPair" in ast.unparse(branches[0]) and "A0" not in ast.unparse(branches[0].test)
    assert not _nodes("numtheory", "weighted_sqrt_sum", ast.While)
    _, defined = _scan_source()
    assert not defined["_is_square"]
    forms = ast.parse((SRC / "forms.py").read_text(encoding="utf-8"))
    assert "discriminant" not in [n.name for n in forms.body if isinstance(n, ast.FunctionDef)]


def test_a_geodesic_family_is_worked_out_once():
    """build_param makes the scan form's QuadCase, the one QuadCase.of in
    geodesic_enum; the half-line maps apply no CM sign; the transport
    check is an identity in the case's antiderivative, with no finite
    differences of _coord_col and no grid refusal."""
    callers, defined = _scan_source()
    assert not defined["_scan_form"]
    classes = {n.name for path in SRC.glob("*.py") for n in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(n, ast.ClassDef)}
    assert "QuadCase" in classes and "GridTouchesSingularity" not in classes
    assert {c for c in callers["of"] if c.startswith("geodesic_enum:")} == {"geodesic_enum:build_param"}
    assert "geodesic_enum:pushforward_check" not in callers["_coord_col"]
    for fn in ("_coord_col", "t_of_coord"):
        half = [n for n in _nodes("geodesic_enum", fn, ast.If) if ast.unparse(n.test) == "param.half_line"]
        assert len(half) == 1, fn
        assert "CM_ON_G" not in {n.id for b in half[0].body for n in ast.walk(b) if isinstance(n, ast.Name)}, fn


def test_one_integer_map_per_geodesic_family():
    """GeodesicParam holds the two rows of (m, n) -> (a, b, c) and no
    second copy of the map; cycles reads none of its fields, and the float
    fundamental_arc is gone."""
    tree = ast.parse((SRC / "geodesic_enum.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GeodesicParam")
    fields = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}
    assert {"u", "v", "case"} <= fields and not {"pqr", "S", "bezout", "derived"} & fields
    cycles = ast.parse((SRC / "cycles.py").read_text(encoding="utf-8"))
    read = {n.attr for n in ast.walk(cycles)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "param"}
    assert read == set()
    _, defined = _scan_source()
    assert not defined["fundamental_arc"]


def test_a_small_scan_pays_its_fixed_cost_once():
    """_level_spans meets the level set and I's pieces by broadcasting, with
    no loop over piece pairs; _sort_along sorts the t that _run_scan
    divided for its window test, and divides nothing itself."""
    assert not _nodes("linnik", "_level_spans", (ast.For, ast.While, ast.comprehension))
    divisions = [n for n in _nodes("linnik", "_sort_along", ast.BinOp) if isinstance(n.op, (ast.Div, ast.FloorDiv))]
    assert not divisions


def test_every_export_is_called_used_by_the_benchmark_or_listed():
    """Each name that linnikgeo/__init__.py imports is called in src/
    outside its own definition, or used by bench/, or listed in the
    README's Public API section (which lists only exports)."""
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exports = [a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names]
    callers, _ = _scan_source()
    bench = set()
    for path in (ROOT / "bench").glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name):
                bench.add(n.id)
            elif isinstance(n, ast.Attribute):
                bench.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                bench |= {a.name for a in n.names}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    api = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `(\w+)`", api, re.M))
    assert listed and listed <= set(exports)
    for name in exports:
        called = {c for c in callers[name] if c.split(":")[1] != name}
        assert called or name in bench or name in listed, name


def test_benchmark_tracer_still_finds_its_functions():
    """bench/tracing.py wraps, by name, each module-level function named in
    its SPANS, and reads _run_scan's fifth positional argument as n_max; a
    renamed function or argument would drop a layer metric silently."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    spans = next(ast.literal_eval(n.value) for n in tree.body
                 if isinstance(n, ast.Assign) and [ast.unparse(t) for t in n.targets] == ["SPANS"])
    functions = {n.name for path in SRC.glob("*.py") for n in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(n, ast.FunctionDef)}
    assert spans and not [name for name in spans if name not in functions]
    assert _nodes("linnik", "_run_scan", ast.FunctionDef)[0].args.args[4].arg == "n_max"


def test_each_input_is_checked_by_what_owns_it():
    """The finite-delta refusal lives in _check_delta alone; the CLI builds
    its interval with ProjInterval, which refuses overlapping wraps itself;
    _min_on_closure and t_of_coord raise nothing; enum_cm_in_ball leaves
    its radius to ball, and sector_area checks it through ball; phi_sieve
    and the sums enter the totients through _phi_for."""
    callers, defined = _scan_source()
    raises = [(path.stem, m.start()) for path in SRC.glob("*.py")
              for m in re.finditer(re.escape('DomainError(f"delta must be finite'), path.read_text(encoding="utf-8"))]
    assert [module for module, _ in raises] == ["linnik"]
    check = _nodes("linnik", "_check_delta", ast.FunctionDef)[0]
    assert 'DomainError(f"delta must be finite' in ast.get_source_segment((SRC / "linnik.py").read_text(encoding="utf-8"), check)
    assert not defined["_interval"]
    assert {"cli:cmd_wset", "cli:cmd_verify"} <= callers["ProjInterval"]
    assert not _nodes("linnik", "_min_on_closure", ast.Raise)
    assert not _nodes("geodesic_enum", "t_of_coord", ast.Raise)
    s0 = [n for n in _nodes("geodesic_enum", "enum_cm_in_ball", ast.Compare)
          if "s0" in {m.id for m in ast.walk(n) if isinstance(m, ast.Name)}]
    assert not s0
    assert "hyperbolic:sector_area" in callers["ball"] and not defined["_cosh_radius"]
    assert "numtheory:phi_sieve" in callers["_phi_for"]
    assert not _nodes("numtheory", "phi_sieve", ast.Raise)
