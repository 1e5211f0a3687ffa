"""Every name a `toruscm` module or a test file imports is used there;
every public top-level function and class a `toruscm` module defines is
named elsewhere in `src/` or by the benchmark (tests do not count), and
every other definition is used somewhere; only `numfield` reads the
private reduction mod the minpoly or builds elements from their
numerators; the product kernel, the one elimination, the integer HNF and
saturation, the Sturm chains, the root counts and the seeded real boxes never
touch `Fraction`; a field inverse and the trace read the integer multiplication
matrix, never `polyq`; `cm` asks its Q-span questions through the one
kernel, never by a rational solve, and calls no `solve` at all;
the one integer xgcd elimination is `_hnf`, modulo D too, and
`valattice` reads the module count off the index, not a Smith form; the
box kernel and the L0 refinement loop never touch `Fraction` outside the
boundary `Box.of` and the readers; the JSON decoders, the CLI and
`valattice` read an outside rational by `numfield._rational_pair` alone; every
function the benchmark traces is defined; every dataclass that checks
itself or caches derived data is frozen; and only the CM witness search and
the metric search draw at random.

The package `__init__` is left out: its imports are the public API, which
`__all__` re-exports from `dir()`.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "toruscm"
PERFBENCH = TESTS.parent / "perfbench"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_src():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def test_no_unused_imports_in_tests():
    files = sorted(TESTS.glob("*.py"))
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []


def _names(node):
    """Names a syntax tree uses: `Name`s it reads, `Attribute` names and
    import aliases."""
    used = set()
    for node in ast.walk(node):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(filter(None, (node.name.split(".")[-1], node.asname)))
    return used


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _benchmark_tables():
    """run.py's GROUPS and SCOPED tables, read rather than imported."""
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in _parse(PERFBENCH / "run.py").body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) in ("GROUPS", "SCOPED")
    }


# public definitions that neither src/ nor the benchmark reaches, each kept
# for a stated reason
UNREACHED = [
    # the simplicity criterion of the CM theorem; ROADMAP item 3 gives it a caller
    "cm.simplicity_check",
    # the builders of the shipped fixtures/ documents that the CLI examples and
    # the benchmark read; test_cli holds each document to its builder's encoding
    "fixtures.tau_i_torus",
    "fixtures.gaussian_cm_input",
    "fixtures.tau_2pow14_torus",
]


def test_no_dead_definitions_in_src():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    trees = {path: _parse(path) for path in modules}
    # a public top-level function or class is used when src/ names it outside
    # its own definition and the package __init__, or the benchmark names it
    # in its code or in a dotted name it traces; tests do not count
    bench = set().union(*(_names(_parse(path)) for path in sorted(PERFBENCH.glob("*.py"))))
    groups = _benchmark_tables()["GROUPS"]
    bench.update(part for keys in groups.values() for key in keys for part in key.split("."))
    tops = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    unreached = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in bench
        and not any(node.name in names for other, names in tops if other is not node)
    ]
    assert sorted(unreached) == sorted(UNREACHED)
    # every other definition is used somewhere: src/, the tests or the
    # benchmark; dunders are called by the language, not by name
    users = modules + sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    used = set().union(*(_names(_parse(path)) for path in users))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = []
    for path, tree in trees.items():
        named = [(n.lineno, n.name) for n in ast.walk(tree) if isinstance(n, defs)]
        # module-level assignments, such as constants
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                named += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
        dead += [
            f"{path.name}:{line}: {name}"
            for line, name in named
            if not (name.startswith("__") and name.endswith("__")) and name not in used
        ]
    assert dead == []


def test_only_numfield_reduces_mod_the_minpoly():
    # reduction mod m stays behind the field's one product kernel
    private = {"_reduce", "_red", "_mul_columns"}
    reads = [
        f"{path.name}:{node.lineno}: {node.attr}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "numfield.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert reads == []


def _function(tree, name, cls=None):
    """The definition of function `name`, or of method `cls.name`."""
    scope = tree.body
    if cls is not None:
        scope = next(n for n in scope if isinstance(n, ast.ClassDef) and n.name == cls).body
    return next(n for n in scope if isinstance(n, ast.FunctionDef) and n.name == name)


def test_product_kernel_and_elimination_never_touch_fraction():
    # field products, matrix products and the one elimination run on
    # integers under one denominator, so Fraction arithmetic cannot creep
    # back into them
    numfield = ast.parse((SRC / "numfield.py").read_text(encoding="utf-8"))
    exactla = ast.parse((SRC / "exactla.py").read_text(encoding="utf-8"))
    bodies = {
        "NumberField.dot": _function(numfield, "dot", "NumberField"),
        "NumberField._reduce": _function(numfield, "_reduce", "NumberField"),
        "exactla._rref": _function(exactla, "_rref"),
        # the block product: the packed kernel, its slot width, and the
        # product's one gcd
        "NumberField.matmul": _function(numfield, "matmul", "NumberField"),
        "numfield._slot_bits": _function(numfield, "_slot_bits"),
        "FieldMatrix.__mul__": _function(exactla, "__mul__", "FieldMatrix"),
        "FieldMatrix._lowest": _function(exactla, "_lowest", "FieldMatrix"),
        # the integer lattice layer: HNF (modulo D too) and saturation
        "exactla._hnf": _function(exactla, "_hnf"),
        "exactla.saturate_integer_solutions": _function(exactla, "saturate_integer_solutions"),
    }
    touching = [
        name
        for name, body in bodies.items()
        for node in ast.walk(body)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    ]
    assert touching == []


def test_sturm_chains_and_counts_never_touch_fraction():
    # L0 runs on primitive integer polynomials and reads signs by integer
    # Horner; Fraction stays at the boundary where a minpoly enters.  A
    # seeded real box is picked by floats, or by exact Newton steps on
    # integers where floats overflow, and decided by integer signs; the root
    # bound and every cut point are read from integer bit lengths
    polyq = ast.parse((SRC / "polyq.py").read_text(encoding="utf-8"))
    names = (
        "sturm_chain", "variations", "_root_count", "_line", "_prem", "_value", "_sign",
        "_seeded_real", "_exact_seed", "root_bound", "_cut_point",
    )
    touching = [
        name
        for name in names
        for node in ast.walk(_function(polyq, name))
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    ]
    assert touching == []


def test_box_kernel_and_refinement_loop_never_touch_fraction():
    # a box is integer mantissas under one exponent: a Fraction enters at
    # the one boundary `Box.of` and leaves through the readers that code
    # outside L0 uses, and nowhere else in `boxes` or the refinement loop
    boxes = _parse(SRC / "boxes.py")
    polyq = _parse(SRC / "polyq.py")
    box = next(n for n in boxes.body if isinstance(n, ast.ClassDef) and n.name == "Box")
    # every method and property of Box but the boundary and the readers,
    # and every function of the kernel
    members = {
        getattr(n, "name", None) or n.targets[0].id: n
        for n in box.body
        if isinstance(n, (ast.FunctionDef, ast.Assign))
    }
    boundary_and_readers = {"of", "lo", "hi", "mid", "width"}
    bodies = {f"Box.{k}": n for k, n in members.items() if k not in boundary_and_readers}
    bodies.update((f"boxes.{n.name}", n) for n in boxes.body if isinstance(n, ast.FunctionDef))
    loop = ("_refine_box_once", "_newton_cut", "_bisect_certified", "_bisect_real")
    loop += ("_halves", "_cut_point", "_cut")
    bodies.update((f"polyq.{name}", _function(polyq, name)) for name in loop)
    for name in ("refine", "locate"):
        bodies[f"RootSet.{name}"] = _function(polyq, name, "RootSet")
    kernel = {"Box.__mul__", "Box.narrower", "boxes._horner", "boxes._mul", "boxes.newton_step"}
    assert kernel | {"boxes.root_product", "boxes.poly_eval_box"} <= set(bodies)
    touching = [
        name
        for name, body in bodies.items()
        for node in ast.walk(body)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    ]
    assert touching == []


def test_outside_rationals_are_read_by_the_one_reader():
    # JSON values and CLI flags become rationals through
    # `numfield._rational_pair` alone: the decoders, the CLI and the mode
    # algebra build a Fraction from the pair it returns or from integer
    # literals, so no second parser with its own accepted set comes back
    jsonio = _parse(SRC / "jsonio.py")
    scopes = {
        f"jsonio.{n.name}": n
        for n in jsonio.body
        if isinstance(n, ast.FunctionDef) and n.name.startswith("decode_")
    }
    assert {"jsonio.decode_rational", "jsonio.decode_int"} <= set(scopes)
    scopes.update((f"{name}.py", _parse(SRC / f"{name}.py")) for name in ("cli", "valattice"))

    def from_the_reader(call):
        if call is None or call.keywords:
            return False
        if all(isinstance(a, ast.Constant) and type(a.value) is int for a in call.args):
            return True
        (arg,) = call.args if len(call.args) == 1 else (None,)
        return (
            isinstance(arg, ast.Starred)
            and isinstance(arg.value, ast.Call)
            and getattr(arg.value.func, "id", None) == "_rational_pair"
        )

    def uses(scope):
        # each naming of Fraction outside an annotation, with the call it makes
        notes = {
            id(n)
            for f in ast.walk(scope)
            if isinstance(f, ast.FunctionDef)
            for a in [f.returns, *(x.annotation for x in f.args.args)]
            if a is not None
            for n in ast.walk(a)
        }
        calls = {id(c.func): c for c in ast.walk(scope) if isinstance(c, ast.Call)}
        for node in ast.walk(scope):
            if id(node) not in notes and (
                (isinstance(node, ast.Name) and node.id == "Fraction")
                or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
            ):
                yield node, calls.get(id(node))

    stray = [
        f"{name}:{node.lineno}"
        for name, scope in scopes.items()
        for node, call in uses(scope)
        if not from_the_reader(call)
    ]
    assert stray == []


def test_inverse_and_trace_read_the_multiplication_matrix():
    # a field inverse is solved by the one elimination on the integer matrix
    # of multiplication, and the trace is read off the same matrix, so no
    # polynomial extended Euclid comes back beside them
    numfield = ast.parse((SRC / "numfield.py").read_text(encoding="utf-8"))
    bodies = {
        "FieldElement.inverse": _function(numfield, "inverse", "FieldElement"),
        "trace_q": _function(numfield, "trace_q"),
    }
    naming_polyq = [
        name
        for name, body in bodies.items()
        for node in ast.walk(body)
        if (isinstance(node, ast.Name) and node.id == "polyq")
        or (isinstance(node, ast.Attribute) and node.attr == "polyq")
    ]
    assert naming_polyq == []
    calls = {
        node.func.id
        for node in ast.walk(bodies["FieldElement.inverse"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "kernel_rows" in calls


def test_cm_reads_span_questions_off_the_one_kernel():
    # coordinates, span membership and independence in cm come from
    # kernel_rows, so no solve-and-catch-Inconsistent comes back; and the
    # period construction N = 2 T^-1 R_Phi^T R_Phi - Id needs no solve, only
    # the rational inverse of the trace form T
    tree = ast.parse((SRC / "cm.py").read_text(encoding="utf-8"))
    naming = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "Inconsistent")
        or (isinstance(node, ast.Attribute) and node.attr == "Inconsistent")
        or (isinstance(node, ast.alias) and node.name == "Inconsistent")
    ]
    assert naming == []
    solving = [
        getattr(scope, "name", "<module>")
        for scope in tree.body
        for node in ast.walk(scope)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "solve"
    ]
    assert solving == []


def test_the_one_integer_elimination_is_hnf():
    # HNF, HNF with transform, the Smith form and both modular passes of
    # saturation all reduce through `_hnf`
    callers = {
        getattr(scope, "name", "<module>")
        for path in sorted(SRC.glob("*.py"))
        for scope in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(scope)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_xgcd"
    }
    assert callers == {"_hnf"}


def test_valattice_reads_the_module_count_off_the_index():
    # |Lambda / Lambda_ch| is the chiral index the HNF already gave
    tree = ast.parse((SRC / "valattice.py").read_text(encoding="utf-8"))
    naming = [
        node.lineno
        for node in ast.walk(tree)
        if getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))) == "snf"
    ]
    assert naming == []


def _defined_functions():
    """`module.function` and `module.Class.method` for every definition
    at the top level of a `toruscm` module or of one of its classes."""
    keys = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                keys.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                keys.update(
                    f"{path.stem}.{node.name}.{f.name}"
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                )
    return keys


def test_every_traced_function_is_defined():
    # a name the benchmark traces but src/ no longer defines makes the
    # traced run report correct: false; the tables are read, not imported
    tables = _benchmark_tables()
    groups, scoped = tables["GROUPS"], tables["SCOPED"]
    assert groups and scoped
    defined = _defined_functions()  # parses every module once
    missing = sorted(key for keys in groups.values() for key in keys if key not in defined)
    assert missing == []
    assert [g for pair in scoped.values() for g in pair if g not in groups] == []


def test_only_numfield_builds_elements_from_num_and_den():
    # the canonical (num, den) form stays behind one module
    builds = [
        f"{path.relative_to(TESTS.parent)}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
        if path.name != "numfield.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "FieldElement")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "FieldElement")
        )
    ]
    assert builds == []


def _decorator_name(node):
    """`dataclass` for @dataclass, @dataclass(...) and @dataclasses.dataclass."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_frozen(node):
    return isinstance(node, ast.Call) and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in node.keywords
    )


def _checks_or_caches(cls):
    return any(
        node.name == "__post_init__"
        or any(_decorator_name(d) == "cached_property" for d in node.decorator_list)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    )


def test_checked_or_cached_dataclasses_are_frozen():
    # data checked in __post_init__ or derived once by a cached_property
    # cannot go stale when no field can be assigned after construction
    thawed = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and _checks_or_caches(node)
        for dec in node.decorator_list
        if _decorator_name(dec) == "dataclass" and not _is_frozen(dec)
    ]
    assert thawed == []


def test_only_the_witness_and_metric_searches_draw_at_random():
    # F's generator runs through the moment curve within the primitive
    # element bound, so `random` is imported by `cm` alone and read only
    # where a seeded draw still picks a candidate
    def scope(stmt):
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            return "import"
        return getattr(stmt, "name", "<module>")

    scopes = {
        f"{path.stem}.{scope(stmt)}"
        for path in sorted(SRC.glob("*.py"))
        for stmt in _parse(path).body
        for node in ast.walk(stmt)
        if (isinstance(node, ast.Name) and node.id == "random")
        or (isinstance(node, ast.Import) and any(a.name == "random" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "random")
    }
    assert scopes == {"cm.import", "cm.cm_certificate", "cm.rational_kahler_search"}
