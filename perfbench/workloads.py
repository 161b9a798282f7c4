"""The benchmark's workloads: seeded inputs, the load path, and checked queries.

A workload has three stages:

* `generate(pkg, seed, size)` writes the inputs as JSON text (not timed);
* `load(pkg, gen)` takes them through the path every CLI command takes,
  `algebra_from_json` -> `validate` -> `derive_system`, then
  `module_from_json` -> `validate_module` (timed as set-up);
* `queries(pkg, loaded, gen, digests)` lists the calls a pass makes, each
  with the answer it must give.

Expected answers come from closed forms for k[x]/(x^n) and group
algebras over Q, from an independent route where there is none, and from
digests of the canonical hom and null bases recorded when the benchmark
was added (`digests.json`, rewritten only by `run.py --record-digests`),
so only byte-identical answers count.

Module names follow the catalog: V_i is k[x]/(x^(i+1)) over k[x]/(x^n).
Functions are always looked up on `pkg` at call time, so the layer trace
sees every call.
"""

from __future__ import annotations

import importlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import inputs as I

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass
class Query:
    qid: str
    call: Callable[[], object]
    observe: Callable[[object], dict]
    want: dict = field(default_factory=dict)

    def failures(self, result) -> list[str]:
        """Every expected key the observed answer gets wrong."""
        if isinstance(result, BaseException):
            return [f"{self.qid}: raised {type(result).__name__}: {result}"]
        try:
            got = self.observe(result)
        except Exception as e:  # a malformed answer is a failure, not a crash
            return [f"{self.qid}: answer unreadable ({type(e).__name__}: {e})"]
        return [
            f"{self.qid}: {k} = {got.get(k)!r}, expected {v!r}"
            for k, v in self.want.items() if got.get(k) != v
        ]


# closed forms ----------------------------------------------------------


def hom_dims(n: int, i: int, j: int) -> dict:
    """dim Hom(V_i, V_j) = min(i,j)+1; the null part is max(0, i+j+2-n)."""
    hom, null = min(i, j) + 1, max(0, i + j + 2 - n)
    return {"hom_dim": hom, "null_dim": null, "stable_dim": hom - null}


def ext_dim(n: int, i: int, j: int, d: int) -> int:
    """Stable Ext^d(V_i, V_j), using Omega^{+-1} V_j = V_(n-2-j); 0 for projective V_j."""
    if j == n - 1:
        return 0
    return hom_dims(n, i, n - 2 - j if d % 2 else j)["stable_dim"]


def stable_center_dim(n: int, p: int) -> int:
    return n if p and n % p == 0 else n - 1


# load path -------------------------------------------------------------


def load_system(pkg, text: str):
    algebra, trace = pkg.algebra_from_json(json.loads(text))
    algebra.validate()
    return algebra, pkg.derive_system(algebra, trace)


def load_module(pkg, text: str, algebra):
    m = pkg.module_from_json(json.loads(text), algebra)
    pkg.validate_module(m)
    return m


def group_system(pkg, group: str):
    """The CLI `tate0` path: the group algebra comes from the catalog by name."""
    return pkg.group_algebra(pkg.group_from_string(group), pkg.Field.rationals())


def _rows(space) -> list:
    return space.basis.to_rows()


def _fname(p: int) -> str:
    return f"GF{p}" if p else "Q"


# trunc_sparse ----------------------------------------------------------


class TruncSparse:
    """Few large, sparse catalog problems over k[x]/(x^n) and no shifts:
    hom_A's dense equation matrix and the kernel dominate."""

    SIZES = {"full": ((24, 2), (20, 5), (16, 0)), "tiny": ((6, 2), (5, 5), (4, 0))}

    def generate(self, pkg, seed: int, size: str) -> dict:
        algs = []
        for n, p in self.SIZES[size]:
            mods = {i: json.dumps(I.module(f"V{i}", f"trunc_poly_{n}", I.trunc_actions(n, i), p))
                    for i in (n - 1, n // 2)}
            algs.append((n, p, json.dumps(I.trunc_algebra(n, p)), mods))
        return {"algebras": algs}

    def load(self, pkg, gen: dict):
        out = []
        for n, p, alg_text, mods in gen["algebras"]:
            algebra, system = load_system(pkg, alg_text)
            out.append((n, p, system, {i: load_module(pkg, t, algebra) for i, t in mods.items()}))
        return out

    def queries(self, pkg, loaded, gen: dict, digests: dict) -> list[Query]:
        qs = []
        for n, p, system, mods in loaded:
            fmt = system.algebra.field.to_str
            for i in (n - 1, n // 2):
                j = n - 1
                qid = f"n{n}-{_fname(p)}:hom V{i}->V{j}"
                qs.append(Query(
                    qid,
                    lambda s=system, a=mods[i], b=mods[j]: pkg.stable_hom(s, a, b),
                    lambda r, p=p: _hom_observed(r, p),
                    {**hom_dims(n, i, j), "digest": digests.get(qid)},
                ))
            qid = f"n{n}-{_fname(p)}:stable_center"
            qs.append(Query(
                qid,
                lambda s=system: pkg.stable_center(s),
                lambda r, fmt=fmt, p=p: {
                    "center_dim": r.center_dim,
                    "stable_center_dim": r.stable_center_dim,
                    "digest": I.digest(
                        [[str(s), str(t), str(c), fmt(v)] for s, t, c, v in r.mult_table]
                        + _rows(r.center) + _rows(r.ideal) + [list(x) for x in r.reps], p),
                },
                {"center_dim": n, "stable_center_dim": stable_center_dim(n, p),
                 "digest": digests.get(qid)},
            ))
        return qs


def _hom_observed(r, p: int) -> dict:
    return {
        "hom_dim": r.hom_dim,
        "null_dim": r.null_dim,
        "stable_dim": r.stable_dim,
        "digest": I.digest(_rows(r.hom_basis) + [["|"]] + _rows(r.null_basis), p),
    }


# shift_ext -------------------------------------------------------------


class ShiftExt:
    """Stable Ext through iterated shifts: module dimensions grow as
    2*3^k, so quotient/submodule construction dominates."""

    # (n, p, i, j, degrees)
    SIZES = {
        "full": ((4, 2, 0, 1, (1, -1, 2, -2, 3, -3, 4, -4)), (5, 3, 2, 2, (2, -2))),
        "tiny": ((4, 2, 0, 1, (1, -1, 2, -2)), (5, 3, 2, 2, (1, -1))),
    }

    def generate(self, pkg, seed: int, size: str) -> dict:
        cases = []
        for n, p, i, j, degrees in self.SIZES[size]:
            mods = {k: json.dumps(I.module(f"V{k}", f"trunc_poly_{n}", I.trunc_actions(n, k), p))
                    for k in {i, j}}
            cases.append((n, p, i, j, degrees, json.dumps(I.trunc_algebra(n, p)), mods))
        return {"cases": cases}

    def load(self, pkg, gen: dict):
        out = []
        for n, p, i, j, degrees, alg_text, mods in gen["cases"]:
            algebra, system = load_system(pkg, alg_text)
            loaded = {k: load_module(pkg, t, algebra) for k, t in mods.items()}
            out.append((n, p, i, j, degrees, system, loaded))
        return out

    def queries(self, pkg, loaded, gen: dict, digests: dict) -> list[Query]:
        qs = []
        for n, p, i, j, degrees, system, mods in loaded:
            for d in degrees:
                qid = f"n{n}-{_fname(p)}:Ext^{d}(V{i},V{j})"
                qs.append(Query(
                    qid,
                    lambda s=system, a=mods[i], b=mods[j], d=d: pkg.stable_ext(s, a, b, d),
                    lambda r, p=p: _hom_observed(r, p),
                    {"stable_dim": ext_dim(n, i, j, d), "digest": digests.get(qid)},
                ))
        return qs


# dense_q ---------------------------------------------------------------


class DenseQ:
    """Catalog modules over Q in general position: every module is
    conjugated by a seeded random invertible small-integer matrix, so the
    equations are dense and Fraction coefficients grow during elimination.
    Stable dimensions do not depend on the change of basis, so the closed
    forms still apply."""

    SIZES = {
        "full": {"trunc": (10, (4, 6), ((4, 6), (6, 4), (6, 6))), "group": "s3",
                 "env": (3, (1, 2))},
        "tiny": {"trunc": (5, (1, 3), ((1, 3), (3, 3))), "group": "cyclic:3",
                 "env": (2, (0, 1))},
    }

    def generate(self, pkg, seed: int, size: str) -> dict:
        spec = self.SIZES[size]
        rng = random.Random(seed)
        group = pkg.group_from_string(spec["group"])

        def conj(name, alg_name, actions):
            pm, pm_inv = I.random_invertible(rng, len(actions[0]))
            mod = I.module(name, alg_name, I.conjugate(actions, pm, pm_inv), 0)
            return {"json": json.dumps(mod), "P": pm, "P_inv": pm_inv}

        (n, idx, _), (n_env, idx_env) = spec["trunc"], spec["env"]
        basis = {
            "trunc": {i: conj(f"V{i}", f"trunc_poly_{n}", I.trunc_actions(n, i)) for i in idx},
            "group": conj("regular", group.name, I.regular_actions(group.mult)),
            "env": {i: conj(f"V{i}", f"trunc_poly_{n_env}", I.trunc_actions(n_env, i))
                    for i in idx_env},
        }
        return {"size": size, "trunc": json.dumps(I.trunc_algebra(n, 0)),
                "env": json.dumps(I.trunc_algebra(n_env, 0)), "basis": basis}

    def load(self, pkg, gen: dict):
        talg, tsys = load_system(pkg, gen["trunc"])
        galg, gsys = group_system(pkg, self.SIZES[gen["size"]]["group"])
        ealg, esys = load_system(pkg, gen["env"])
        b = gen["basis"]
        mods = {
            "trunc": {i: load_module(pkg, m["json"], talg) for i, m in b["trunc"].items()},
            "group": load_module(pkg, b["group"]["json"], galg),
            "env": {i: load_module(pkg, m["json"], ealg) for i, m in b["env"].items()},
        }
        return tsys, gsys, esys, mods

    def queries(self, pkg, loaded, gen: dict, digests: dict) -> list[Query]:
        spec, basis = self.SIZES[gen["size"]], gen["basis"]
        tsys, gsys, esys, mods = loaded
        n, _, pairs = spec["trunc"]
        qs = []
        for i, j in pairs:
            qid = f"n{n}-Q:hom V{i}'->V{j}'"
            src, dst = basis["trunc"][i], basis["trunc"][j]
            qs.append(Query(
                qid,
                lambda a=mods["trunc"][i], b=mods["trunc"][j]: pkg.stable_hom(tsys, a, b),
                lambda r, src=src, dst=dst: _hom_in_catalog_basis(r, src, dst),
                {**hom_dims(n, i, j), "canonical": True, "digest": digests.get(qid)},
            ))
        reg, g = mods["group"], basis["group"]
        gname, order = spec["group"], gsys.algebra.dim
        # kG over Q is semisimple: End(kG) has dim |G| and every map factors.
        qid = f"{gname}-Q:hom R'->R'"
        qs.append(Query(
            qid,
            lambda: pkg.stable_hom(gsys, reg, reg),
            lambda r: _hom_in_catalog_basis(r, g, g),
            {"hom_dim": order, "null_dim": order, "stable_dim": 0, "canonical": True,
             "digest": digests.get(qid)},
        ))
        qs.append(Query(
            f"{gname}-Q:tate0 R'->R'",
            lambda: pkg.tate0(gsys, reg, reg),
            lambda r: {"hom_dim": r.invariants_dim, "null_dim": r.norm_image_dim,
                       "stable_dim": r.tate_dim},
            {"hom_dim": order, "null_dim": order, "stable_dim": 0},
        ))
        qs.append(Query(
            f"{gname}-Q:stable_center_via_enveloping",
            lambda: pkg.stable_center_via_enveloping(gsys),
            lambda r: {"stable_center_dim": r},
            {"stable_center_dim": 0},
        ))
        n_env, idx_env = spec["env"]
        qs.append(Query(
            f"n{n_env}-Q:stable_center_via_enveloping",
            lambda: pkg.stable_center_via_enveloping(esys),
            lambda r: {"stable_center_dim": r},
            {"stable_center_dim": stable_center_dim(n_env, 0)},
        ))
        for i in idx_env:
            for j in idx_env:
                want = hom_dims(n_env, i, j)["stable_dim"]
                qs.append(Query(
                    f"n{n_env}-Q:enveloping_comparison V{i}'->V{j}'",
                    lambda a=mods["env"][i], b=mods["env"][j]:
                        pkg.enveloping_comparison(esys, a, b),
                    lambda r: {"direct": r[0], "via_enveloping": r[1]},
                    {"direct": want, "via_enveloping": want},
                ))
        return qs


def _hom_in_catalog_basis(r, src: dict, dst: dict) -> dict:
    """Dims, whether the returned bases are canonical, and a digest of the
    hom and null spaces carried back to the catalog basis.

    A map H' between the conjugated modules is P_N H' P_M^-1 between the
    catalog modules, so the digest does not depend on the seed.
    """
    hom, null = _rows(r.hom_basis), _rows(r.null_basis)
    dm, dn = len(src["P"]), len(dst["P"])

    def back(rows):
        vs = [I.vec(I.matmul(dst["P"], I.matmul(I.unvec(v, dn, dm), src["P_inv"])))
              for v in rows]
        return I.rref(vs, dm * dn, 0)

    return {
        "hom_dim": r.hom_dim,
        "null_dim": r.null_dim,
        "stable_dim": r.stable_dim,
        "canonical": I.rref(hom, dm * dn, 0) == hom and I.rref(null, dm * dn, 0) == null,
        "digest": I.digest(back(hom) + [["|"]] + back(null), 0),
    }


# selftest --------------------------------------------------------------


class Selftest:
    """`selftest.run_all()`: about 950 small hom_A calls with no dominant
    function, the per-call-overhead regime; the only workload that runs the
    factoring oracle and the twists.  The seed is recorded but changes nothing.

    run_all builds its own instances from the catalog, so there are no input
    files to load.  Set-up instead takes the instances of criterion 1 (every
    V_i over k[x]/(x^n), n = 2..8, over Q, GF(2), GF(3) and GF(5)) through the
    load path: the same path at the small sizes run_all works on."""

    SIZES = {"full": ((0, 2, 3, 5), range(2, 9), None), "tiny": ((2,), range(2, 4), [2, 8, 10])}

    def generate(self, pkg, seed: int, size: str) -> dict:
        fields, ns, criteria = self.SIZES[size]
        algs = [(json.dumps(I.trunc_algebra(n, p)),
                 [json.dumps(I.module(f"V{i}", f"trunc_poly_{n}", I.trunc_actions(n, i), p))
                  for i in range(n)])
                for p in fields for n in ns]
        return {"algebras": algs, "criteria": criteria}

    def load(self, pkg, gen: dict):
        out = []
        for alg_text, mods in gen["algebras"]:
            algebra, system = load_system(pkg, alg_text)
            out.append((system, [load_module(pkg, t, algebra) for t in mods]))
        return out

    def queries(self, pkg, loaded, gen: dict, digests: dict) -> list[Query]:
        st = importlib.import_module(pkg.__name__ + ".selftest")
        qid = "run_all"
        return [Query(
            qid,
            lambda: st.run_all(gen["criteria"]),
            lambda res: {
                "all_passed": all(r.passed for r in res),
                "digest": I.digest([[str(r.cid), str(r.checks), str(len(r.failures))] for r in res], 0),
            },
            {"all_passed": True, "digest": digests.get(qid)},
        )]


# registry --------------------------------------------------------------


def read_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {
    "trunc_sparse": TruncSparse,
    "shift_ext": ShiftExt,
    "dense_q": DenseQ,
    "selftest": Selftest,
}
