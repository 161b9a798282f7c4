"""Command line interface.

JSON results go to stdout, human diagnostics to stderr.  Exit codes:
0 success, 2 mathematical or validation failure (stdout carries
{"error": code, "witness": ...}), 3 malformed input (bad JSON, JSON
nested too deeply to read, bad flags, unreadable files, a catalog order
below 1, a catalog module index outside [0, n), a catalog order, Ext
degree or shift count above `MAX_ORDER` in size, refused before anything
is loaded or written, or an output path that cannot be written).  Output
is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DegenerateTrace, FrobstabError, ParseError
from .exactfield import Field
from .algebra import algebra_from_json, algebra_to_json
from .catalog import (
    check_order,
    group_algebra,
    group_from_string,
    truncated_module,
    truncated_polynomial,
    trivial_module,
)
from .frobenius import derive_system, frobenius_element
from .modrep import module_from_json, module_to_json, regular_module, validate_module
from .modrep import _matrix_texts
from .selftest import run_all
from .stab import (
    enveloping_comparison,
    shift_minus,
    shift_plus,
    stable_center,
    stable_center_via_enveloping,
    stable_ext,
    stable_hom,
    tate0,
)


def _parse_field(text: str) -> Field:
    if text == "q":
        return Field.rationals()
    if text.startswith("gf:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad field {text!r}") from None
        return Field.prime(p)
    raise ParseError(f"field must be 'q' or 'gf:<p>', got {text!r}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except (ValueError, RecursionError) as e:
        # bad JSON or UTF-8, an integer over int's digit limit, or nesting too deep
        raise ParseError(f"{path} is not valid JSON: {e}") from None


def _load_algebra(path: str):
    algebra, trace = algebra_from_json(_load_json(path))
    algebra.validate()
    return algebra, trace


def _load_system(path: str):
    algebra, trace = _load_algebra(path)
    if trace is None:
        raise ParseError(f"{path} has no trace; this computation needs one")
    return derive_system(algebra, trace)


def _load_modules(algebra, algebra_path: str, *paths: str) -> list:
    """Each module file in turn, read and validated; a module may name the
    algebra by its file's stem."""
    accept = {Path(algebra_path).stem}
    mods = []
    for path in paths:
        mods.append(module_from_json(_load_json(path), algebra, accept_names=accept))
        validate_module(mods[-1])
    return mods


def _load_pair(args):
    """(system, M, N) from the algebra, module_m and module_n arguments."""
    system = _load_system(args.algebra)
    return (system, *_load_modules(system.algebra, args.algebra, args.module_m, args.module_n))


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, default=str))


def _write_json(path: Path, obj) -> None:
    try:
        path.write_text(json.dumps(obj, indent=2, default=str) + "\n", encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e}", witness=str(path)) from None


def _dims(r) -> dict:
    return {"hom_dim": r.hom_dim, "null_dim": r.null_dim, "stable_dim": r.stable_dim}


def _agreement(out: dict, a, b) -> int:
    """Write out with "agree": a == b; exit 0 if they agree, else 2."""
    out["agree"] = a == b
    _emit(out)
    return 0 if out["agree"] else 2


# subcommands --------------------------------------------------------


def _cmd_check(args) -> int:
    algebra, trace = algebra_from_json(_load_json(args.algebra))
    rep = algebra.validation_report()
    out = {
        "name": algebra.name,
        "dim": algebra.dim,
        "associative": not rep.associative_failures,
        "unit": not rep.unit_failures,
    }
    code = witness = None
    if rep.associative_failures:
        code, witness = "NotAssociative", rep.associative_failures[:10]
    elif rep.unit_failures:
        code, witness = "UnitMismatch", rep.unit_failures
    if trace is not None and code is None:
        try:
            system = derive_system(algebra, trace)
        except DegenerateTrace as e:
            out["trace_nondegenerate"] = False
            code, witness = e.code, e.witness
        else:
            out["trace_nondegenerate"] = True
            frobenius_element(system)
            out["dual_basis_identities"] = True
            out["element_central"] = True
    if code is not None:
        out.update(error=code, witness=witness)
    _emit(out)
    return 0 if code is None else 2


def _cmd_stable_hom(args) -> int:
    r = stable_hom(*_load_pair(args))
    out = _dims(r)
    if args.basis:
        out["coset_reps"] = [_matrix_texts(mat) for mat in r.coset_reps]
    _emit(out)
    return 0


def _cmd_ext(args) -> int:
    check_order(abs(args.degree), "|degree|", least=0)
    r = stable_ext(*_load_pair(args), args.degree)
    _emit({"degree": args.degree, **_dims(r)})
    return 0


def _cmd_shift(args) -> int:
    check_order(abs(args.steps), "|steps|", least=0)
    system = _load_system(args.algebra) if args.steps > 0 else None
    algebra = system.algebra if system else _load_algebra(args.algebra)[0]
    (m,) = _load_modules(algebra, args.algebra, args.module_m)
    out_path = Path(args.out)
    if out_path.is_dir() or not out_path.parent.is_dir():
        raise ParseError(f"cannot write {out_path} as a file", witness=str(out_path))
    if args.steps > 0:
        shifted = shift_plus(system, m, args.steps)
    else:
        shifted = shift_minus(m, -args.steps) if args.steps < 0 else m
    _write_json(out_path, module_to_json(shifted))
    _emit({"name": shifted.name, "dim": shifted.dim, "steps": args.steps,
           "written": str(out_path)})
    return 0


def _cmd_stable_center(args) -> int:
    system = _load_system(args.algebra)
    r = stable_center(system)
    fmt = system.algebra.field.to_str
    out = {
        "center_dim": r.center_dim,
        "ideal_dim": r.ideal_dim,
        "stable_center_dim": r.stable_center_dim,
        "mult_table": [[a, b, c, fmt(v)] for a, b, c, v in r.mult_table],
    }
    if args.via_enveloping:
        out["via_enveloping"] = via = stable_center_via_enveloping(system)
        return _agreement(out, via, r.stable_center_dim)
    _emit(out)
    return 0


def _cmd_tate0(args) -> int:
    field = _parse_field(args.field)
    algebra, system = group_algebra(group_from_string(args.group), field)
    m, n_ = _load_modules(algebra, algebra.name, args.module_m, args.module_n)
    t = tate0(system, m, n_)
    s = stable_hom(system, m, n_)
    out = {
        "invariants_dim": t.invariants_dim,
        "norm_image_dim": t.norm_image_dim,
        "tate_dim": t.tate_dim,
        "stable_dim": s.stable_dim,
    }
    return _agreement(out, t.tate_dim, s.stable_dim)


def _cmd_compare_enveloping(args) -> int:
    direct, via = enveloping_comparison(*_load_pair(args))
    return _agreement({"direct": direct, "via_enveloping": via}, direct, via)


def _cmd_catalog(args) -> int:
    field = _parse_field(args.field)
    mod = None
    if args.kind == "trunc-poly":
        n = check_order(args.n, "truncation order")
        if args.module_i is not None and not 0 <= args.module_i < n:
            raise ParseError(f"module index {args.module_i} outside [0, {n})",
                             witness=args.module_i)
        algebra, system = truncated_polynomial(n, field)
        if args.module_i is not None:
            mod = truncated_module(n, args.module_i, field)
    else:
        algebra, system = group_algebra(group_from_string(args.type), field)
        if args.module is not None:
            mod = trivial_module(algebra) if args.module == "trivial" else regular_module(algebra)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ParseError(f"cannot create {out_dir}: {e}") from None
    files = [(algebra.name, algebra_to_json(algebra, trace=system.trace))]
    if mod is not None:
        files.append((mod.name, module_to_json(mod)))
    written = []
    for name, obj in files:
        path = out_dir / f"{name}.json"
        _write_json(path, obj)
        written.append(str(path))
    _emit({"written": written})
    return 0


def _cmd_selftest(args) -> int:
    selected = None
    if args.criteria:
        try:
            selected = [int(tok) for tok in args.criteria.split(",")]
        except ValueError:
            raise ParseError(f"bad criteria list {args.criteria!r}") from None
        bad = [c for c in selected if not 1 <= c <= 10]
        if bad:
            raise ParseError(f"criteria must be in 1..10, got {bad}")
    results = run_all(selected)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} criterion {r.cid}: {r.title} ({r.checks} checks)", file=sys.stderr)
        for msg in r.failures:
            print(f"    {msg}", file=sys.stderr)
    passed = all(r.passed for r in results)
    criteria = [{"id": r.cid, "title": r.title, "checks": r.checks, "passed": r.passed,
                 "failures": r.failures} for r in results]
    _emit({"criteria": criteria, "all_passed": passed})
    return 0 if passed else 2


# parser -------------------------------------------------------------


_PAIR = ("algebra", "module_m", "module_n")


def _command(parent, name: str, fn, help: str, *positionals: str) -> argparse.ArgumentParser:
    """A subparser of `parent` that takes `positionals` and runs `fn`."""
    p = parent.add_parser(name, help=help)
    for dest in positionals:
        p.add_argument(dest)
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="frobstab",
        description="Exact stable-module computations for Frobenius algebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _command(sub, "check", _cmd_check, "validate an algebra file (and its trace, if any)",
             "algebra")
    p = _command(sub, "stable-hom", _cmd_stable_hom, "stable maps between two modules", *_PAIR)
    p.add_argument("--basis", action="store_true", help="include coset representatives")
    p = _command(sub, "ext", _cmd_ext, "stable Ext in any degree", *_PAIR)
    p.add_argument("--degree", type=int, required=True)
    p = _command(sub, "shift", _cmd_shift, "shift a module and write the result", *_PAIR[:2])
    p.add_argument("--steps", type=int, required=True,
                   help="positive shifts up, negative shifts down")
    p.add_argument("--out", required=True)
    p = _command(sub, "stable-center", _cmd_stable_center, "center modulo the factoring ideal",
                 "algebra")
    p.add_argument("--via-enveloping", action="store_true",
                   help="cross-check through the enveloping algebra")
    p = _command(sub, "tate0", _cmd_tate0, "degree-zero Tate cohomology for a group algebra",
                 *_PAIR[1:])
    p.add_argument("--group", required=True, help="cyclic:<k>, klein4, or s3")
    p.add_argument("--field", required=True, help="q or gf:<p>")
    _command(sub, "compare-enveloping", _cmd_compare_enveloping,
             "stable maps directly and through the enveloping algebra", *_PAIR)
    kinds = _command(sub, "catalog", None, "emit built-in algebras and modules as files")
    kinds = kinds.add_subparsers(dest="kind", required=True)
    for kind, help, (first, first_kw), (second, second_kw) in (
        ("trunc-poly", "k[x]/(x^n) with its trace",
         ("--n", {"type": int, "required": True}), ("--module-i", {"type": int})),
        ("group", "a small group algebra with its trace",
         ("--type", {"required": True, "help": "cyclic:<k>, klein4, or s3"}),
         ("--module", {"choices": ["trivial", "regular"]})),
    ):
        c = _command(kinds, kind, _cmd_catalog, help)
        c.add_argument(first, **first_kw)
        c.add_argument("--field", required=True)
        c.add_argument(second, **second_kw)
        c.add_argument("--out", required=True)
    p = _command(sub, "selftest", _cmd_selftest, "run the built-in acceptance criteria")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,4")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse already printed a usage message to stderr
        return 3 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except FrobstabError as e:
        _emit({"error": e.code, "witness": e.witness, "message": str(e)})
        return 3 if isinstance(e, ParseError) else 2


if __name__ == "__main__":
    sys.exit(main())
