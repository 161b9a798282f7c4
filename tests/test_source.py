"""Checks on the package source itself."""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import importlib.util
from pathlib import Path

import frobstab
from frobstab.frobenius import FrobeniusSystem
from frobstab.linalg import Matrix, Subspace


def test_no_assert_statements_in_the_package():
    """`python -O` strips asserts, so no check may live in one."""
    sources = sorted(Path(frobstab.__file__).parent.rglob("*.py"))
    assert {p.name for p in sources} >= {"__init__.py", "algebra.py", "stab.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_GONE = {"_rref_sparse", "_rref_rational", "_sub_multiple", "_sparse_kernel",
         "_reconstruct", "_certified_lift", "_P", "_RECON_BOUND", "_eliminate"}


def _reduction_findings(sources: dict[str, str]) -> list[str]:
    """What breaks the one-reduction rule in {file name: source}: a name
    of the removed elimination step, per-field engines or certified kernel
    route in any module, a `while` loop in `linalg`, and a caller of the
    clearing step `_clear` other than `_rref` and `Subspace._residual`, or
    either of those two not calling it."""
    found = []
    for name, text in sources.items():
        tree = ast.parse(text, name)
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name.rpartition(".")[2] for alias in node.names}
            found += [f"{name}:{node.lineno} names {n}" for n in sorted(names & _GONE)]
        if name != "linalg.py":
            continue
        found += [f"linalg.py:{node.lineno} while loop" for node in ast.walk(tree)
                  if isinstance(node, ast.While)]
        calls = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_clear"}
        if calls != {"_rref", "_residual"}:
            found.append(f"linalg.py: _clear called from {sorted(calls)}")
    return found


def test_one_row_reduction_entry_point():
    """One sparse elimination loop, `linalg._rref`, reduces over Q and over
    GF(p), and kernels over Q are exact: `linalg` has no `while` loop, one
    clearing step, `_clear`, which `_rref` and `Subspace._residual` call
    and nothing else does, and no module names the elimination step, the
    per-field engines or the certified mod-P kernel route that it
    replaced.  The same check finds each rule broken in a mutated copy."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(Path(frobstab.__file__).parent.rglob("*.py"))}
    assert {"linalg.py", "stab.py", "modrep.py"} <= sources.keys()
    assert _reduction_findings(sources) == []
    linalg = sources["linalg.py"]
    assert "_clear(self.rows, w, p)" in linalg
    for name, text in [
        ("linalg.py", linalg + "\n\ndef _second(rows):\n    while rows:\n        rows.pop()\n"),
        ("linalg.py", linalg + "\n_P = (1 << 61) - 1\n"),
        ("stab.py", sources["stab.py"] + "\nfrom .linalg import _rref_rational\n"),
        ("modrep.py", sources["modrep.py"] + "\n\ndef _reconstruct(u):\n    return u\n"),
        ("linalg.py", linalg + "\n\ndef _eliminate(row, g, tail, a, p):\n    return row\n"),
        ("linalg.py", linalg + "\n\ndef _by_columns(rows):\n    for row in rows:\n"
                               "        _clear(rows[0], row, 0)\n"),
        ("linalg.py", linalg.replace("_clear(self.rows, w, p)", "_clear_rows(self.rows, w, p)")),
    ]:
        assert _reduction_findings({**sources, name: text}), name


_SYSTEM_NAMES = {"canonical_embedding", "element_matrix", "trace"}


def _owned_nodes(tree: ast.AST):
    """(name of the innermost function around it, or None, node) for each node."""
    stack = [(None, tree)]
    while stack:
        owner, node = stack.pop()
        yield owner, node
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        stack.extend((owner, child) for child in ast.iter_child_nodes(node))


def _oracle_findings(sources: dict[str, str]) -> list[str]:
    """What ties the factoring oracle to the Frobenius system in {file name:
    source}: a name in `_SYSTEM_NAMES` inside `stab.factoring_ideal_oracle`,
    and a call of `canonical_embedding` from anywhere but `stab.shift_plus`."""
    found = []
    for name, text in sources.items():
        for owner, node in _owned_nodes(ast.parse(text, name)):
            named = getattr(node, "id", None) or getattr(node, "attr", None)
            if (name, owner) == ("stab.py", "factoring_ideal_oracle") and named in _SYSTEM_NAMES:
                found.append(f"{name}:{node.lineno} oracle names {named}")
            if isinstance(node, ast.Call) and (name, owner) != ("stab.py", "shift_plus"):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called == "canonical_embedding":
                    found.append(f"{name}:{node.lineno} {owner} calls canonical_embedding")
    return found


def test_factoring_oracle_reads_no_frobenius_system():
    """`stab.factoring_ideal_oracle` spans the maps that factor through N's
    free cover, so it names neither the canonical embedding nor C
    (`element_matrix`) nor the trace, and stays independent of the operator
    T that it checks; `stab.shift_plus` is the one caller of
    `canonical_embedding` in the package.  The same check finds each rule
    broken in a mutated copy."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(Path(frobstab.__file__).parent.rglob("*.py"))}
    assert _oracle_findings(sources) == []
    (shift_plus,) = [node for node in ast.parse(sources["stab.py"]).body
                     if isinstance(node, ast.FunctionDef) and node.name == "shift_plus"]
    assert "canonical_embedding(" in ast.unparse(shift_plus)
    for name, extra in [
        ("stab.py", "def factoring_ideal_oracle(system, m, n_):\n    return system.trace\n"),
        ("stab.py", "def factoring_ideal_oracle(system, m, n_):\n"
                    "    return hom_A(m, n_), system.element_matrix\n"),
        ("stab.py", "def factoring_ideal_oracle(system, m, n_):\n    phi = canonical_embedding\n"),
        ("stab.py", "def stable_ext(system, m):\n    return canonical_embedding(system, m)\n"),
        ("selftest.py", "def _embed(system, m):\n"
                        "    return modrep.canonical_embedding(system, m)\n"),
        ("modrep.py", "_PHI = canonical_embedding(None, None)\n"),
    ]:
        assert _oracle_findings({**sources, name: sources[name] + "\n\n" + extra}), extra


def test_matrix_arithmetic_reads_no_dense_entries():
    """A `Matrix` stores only (field, nrows, ncols, nonzeros), and its dense
    `entries` is a `cached_property` view of the nonzeros.  Inside
    `linalg.Matrix` only the accessors `row` and `col` read `self.entries`,
    so every arithmetic method runs on the nonzeros and a dense loop cannot
    come back unnoticed.  `solve` may read them, since the benchmark traces
    it."""
    assert [f.name for f in dataclasses.fields(Matrix)] == ["field", "nrows", "ncols", "nonzeros"]
    assert isinstance(vars(Matrix)["entries"], functools.cached_property)
    path = Path(frobstab.__file__).parent / "linalg.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "Matrix"]
    readers = {fn.name for fn in ast.walk(cls) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "entries"
               and isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert "row" in readers and readers <= {"row", "col", "solve"}, readers


def test_no_module_writes_into_an_objects_dict():
    """No module of the package assigns into an object's `__dict__`: a value
    is built whole by its constructor, and no stored form is kept in step
    with another from outside."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(frobstab.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Attribute) and node.value.attr == "__dict__"
    ]
    assert found == []


def test_traced_names_resolve():
    """Every function the benchmark's tracer wraps still exists, so a
    refactor that drops one fails here and not only under `--trace 1`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, target, attr, _ in spans.TARGETS:
        mod_name, _, cls_name = target.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append((name, target, attr))
    assert len(spans.TARGETS) >= 30
    assert missing == []


def test_stable_hom_reads_module_actions_as_they_are():
    """`stab` builds T, the hom equations and the coset representatives
    from the module actions and the stored sparse rows: it calls neither
    `action_of` (a linear combination of actions per row of C) nor `vec`
    or `unvec` (a dense round trip per map)."""
    path = Path(frobstab.__file__).parent / "stab.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    banned = {"action_of", "vec", "unvec"}
    calls = [f"{node.lineno}:{name}" for node in ast.walk(tree) if isinstance(node, ast.Call)
             for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
             if name in banned]
    assert calls == []


def test_hom_maps_its_kernel_rows_without_a_back_matrix():
    """`stab.hom_A` maps each kernel row to vec(H) straight from the
    presentation's preimages and the actions' nonzeros: it calls no
    `kron_sum`, `kron`, `identity` or `transpose`, reads no `.basis`, and
    uses no `@`."""
    path = Path(frobstab.__file__).parent / "stab.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "hom_A"]
    banned = {"kron_sum", "kron", "identity", "transpose"}
    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called in banned:
                found.append(f"{node.lineno}:{called}")
        elif isinstance(node, ast.Attribute) and node.attr == "basis":
            found.append(f"{node.lineno}:.basis")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}:@")
    assert found == []


def test_stable_center_reads_its_quotient_off_one_reduction():
    """`stab.stable_center` and `stab.frobenius_ideal` multiply sparse rows
    through `algebra._sum_of_products`, and `stable_center` reads its table
    from the coordinates that `complement_of` returns: neither calls
    anything named `mul` (the dense product), `left_mult_matrix`,
    `right_mult_matrix`, `linear_combination`, `inverse` or `from_rows`,
    nor a method named `coords`, nor uses `@`; and `Subspace` has no
    `coords`."""
    path = Path(frobstab.__file__).parent / "stab.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    banned = {"mul", "left_mult_matrix", "right_mult_matrix", "linear_combination", "inverse",
              "from_rows"}
    found = []
    for name in ("stable_center", "frobenius_ideal"):
        for node in ast.walk(fns[name]):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called in banned or isinstance(node.func, ast.Attribute) and called == "coords":
                    found.append(f"{name}:{node.lineno}:{called}")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                found.append(f"{name}:{node.lineno}:@")
    assert found == []
    assert not hasattr(Subspace, "coords")


def test_null_spaces_are_spanned_on_the_dual_seeds():
    """`stable_hom` and `tate0` each make one `kron_image` call, and its
    column count is not the full ambient dim M dim N: the image of T and
    the norm image are spanned on the columns of M's dual seeds."""
    path = Path(frobstab.__file__).parent / "stab.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("stable_hom", "tate0"):
        (call,) = [node for node in ast.walk(fns[name]) if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "kron_image"]
        nrows, ncols = call.args[1:3]
        reads_dim_m = [node for node in ast.walk(ncols) if isinstance(node, ast.Attribute)
                       and node.attr == "dim" and getattr(node.value, "id", None) == "m"]
        assert ast.dump(ncols) != ast.dump(nrows) and reads_dim_m == [], name


def test_only_linalg_divides_stored_rows_by_their_pivot():
    """Over Q a `Subspace` stores primitive integer multiples of its RREF
    rows, so a caller that read a stored row as field scalars, or divided
    by its pivot by hand, would be silently wrong.  `Fraction` is named
    only in `exactfield` and `linalg`.  `stab`, `modrep` and `selftest`
    divide nothing: no `/`, no `inv` or `div` call, no `numerator`,
    `denominator` or `as_integer_ratio` read.  And every stored row they
    read, a loop variable over some `.rows.values()` or `.rows.items()`,
    goes either straight into `linalg._rref_row`, which divides by the
    pivot, or into the argument of a `_residual` call, a membership test
    that no scaling changes."""
    package = Path(frobstab.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(package.rglob("*.py"))}
    naming = {name for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id == "Fraction"
              or isinstance(node, ast.alias) and node.name.endswith("Fraction")}
    assert naming == {"exactfield", "linalg"}

    dividing = {"inv", "div", "numerator", "denominator", "as_integer_ratio"}
    found = []
    for name in ("stab", "modrep", "selftest"):
        tree = trees[name]
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                  or isinstance(node, ast.Attribute) and node.attr in dividing]

        def ancestors(node):
            while node in parent:
                node = parent[node]
                yield node

        def passed_on(use) -> bool:
            up = parent[use]
            if isinstance(up, ast.Call) and getattr(up.func, "id", None) == "_rref_row":
                return up.args[:1] == [use]
            return any(isinstance(a, ast.Call) and getattr(a.func, "attr", None) == "_residual"
                       for a in ancestors(use))

        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "rows"):
                continue
            loop = next((a for a in ancestors(node)
                         if isinstance(a, (ast.For, ast.comprehension))), None)
            if loop is None or node not in set(ast.walk(loop.iter)):
                found.append(f"{name}:{node.lineno} reads .rows outside a loop")
                continue
            target = loop.target.elts[-1] if isinstance(loop.target, ast.Tuple) else loop.target
            scope = parent[loop] if isinstance(loop, ast.comprehension) else loop
            uses = [n for n in ast.walk(scope) if isinstance(n, ast.Name)
                    and n.id == target.id and isinstance(n.ctx, ast.Load)]
            assert uses, f"{name}:{node.lineno}"
            found += [f"{name}:{use.lineno} uses a stored row" for use in uses if not passed_on(use)]
    assert found == []


def test_a_frobenius_system_is_its_trace_and_its_frobenius_matrix():
    """`FrobeniusSystem` stores (algebra, trace, element_matrix) and nothing
    else, so no second format of C, such as a pair of dual-basis tuples,
    is kept beside it, and neither the package nor README names one."""
    fields = [f.name for f in dataclasses.fields(FrobeniusSystem)]
    assert fields == ["algebra", "trace", "element_matrix"]
    package = Path(frobstab.__file__).parent
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.rglob("*.py"))}
    readme = Path(__file__).resolve().parents[1] / "README.md"
    texts["README.md"] = readme.read_text(encoding="utf-8")
    assert [name for name, text in texts.items() if "a_basis" in text or "b_basis" in text] == []


def test_one_generator_rule():
    """The argument that a property of every a in A holds iff it holds on
    `algebra.generators` lives in `algebra.py` alone: no other module of
    the package reads `.generators`, so each such check goes through
    `algebra._first_failing`, and `modrep` keeps no full-basis
    `_restricted_action`.  `StructureAlgebra.generators` grows its closure
    on sparse rows: it calls no `mul`, `basis_vector`, `basis_vectors` or
    `from_vectors`."""
    package = Path(frobstab.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(package.rglob("*.py"))}
    readers = sorted({name for name, tree in trees.items() for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "generators"})
    assert readers == ["algebra.py"]
    assert not [fn for fn in ast.walk(trees["modrep.py"])
                if isinstance(fn, ast.FunctionDef) and fn.name == "_restricted_action"]
    (cls,) = [node for node in trees["algebra.py"].body
              if isinstance(node, ast.ClassDef) and node.name == "StructureAlgebra"]
    (fn,) = [node for node in cls.body
             if isinstance(node, ast.FunctionDef) and node.name == "generators"]
    banned = {"mul", "basis_vector", "basis_vectors", "from_vectors"}
    calls = [f"{node.lineno}:{name}" for node in ast.walk(fn) if isinstance(node, ast.Call)
             for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
             if name in banned]
    assert calls == []
