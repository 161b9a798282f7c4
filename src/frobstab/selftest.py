"""Built-in acceptance checks.

Ten independent criteria, each a function returning a list of failure
strings (empty = pass).  They are exact: every comparison is equality of
integers, scalars, or canonical subspaces.  The same checks back the CLI
`selftest` subcommand and the acceptance test file, so the shipped wheel
can re-verify itself.

Criterion 5 (null-homotopic maps are A-linear) audits every (hom, null)
basis pair produced while running the other criteria, plus a standalone
sweep, so the containment is confirmed on each instance the suite touches
rather than inferred from the oracle comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DualityViolation, NonInvertibleTwist
from .exactfield import Field
from .catalog import (
    cyclic_group,
    group_algebra,
    klein_four_group,
    symmetric_group_3,
    trivial_module,
    truncated_module,
    truncated_polynomial,
    truncated_projection,
)
from .frobenius import twist
from .linalg import Matrix, Subspace, kron, _integer_rows
from .modrep import free_module, regular_module
from .stab import (
    enveloping_comparison,
    factoring_ideal_oracle,
    frobenius_ideal,
    stable_center,
    stable_center_via_enveloping,
    stable_ext,
    stable_hom,
    shift_minus,
    shift_plus,
    tate0,
)

Q = Field.rationals()
GF2 = Field.prime(2)
GF3 = Field.prime(3)
GF5 = Field.prime(5)

ENDO_FIELDS = (Q, GF2, GF3, GF5)
ENDO_RANGE = range(2, 9)


def _fname(f: Field) -> str:
    return "Q" if f.kind == "rational" else f"GF{f.p}"


@dataclass
class CriterionResult:
    cid: int
    title: str
    checks: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


# (label, hom basis, null basis) of every stable Hom, audited by criterion 5
Audit = list[tuple[str, Subspace, Subspace]]


def _stable(system, m, n_, audit: Audit | None, label: str):
    r = stable_hom(system, m, n_)
    if audit is not None:
        audit.append((label, r.hom_basis, r.null_basis))
    return r


def criterion_1(audit: Audit | None = None) -> CriterionResult:
    """Stable endomorphism dimensions of the truncated modules."""
    failures = []
    checks = 0
    for f in ENDO_FIELDS:
        for n in ENDO_RANGE:
            _, system = truncated_polynomial(n, f)
            for i in range(n):
                v = truncated_module(n, i, f)
                got = _stable(system, v, v, audit, f"endo n={n} i={i} {_fname(f)}").stable_dim
                want = n - 1 - i if 2 * i >= n - 1 else i + 1
                checks += 1
                if got != want:
                    failures.append(
                        f"n={n} i={i} {_fname(f)}: stable endo dim {got}, expected {want}"
                    )
    return CriterionResult(1, "stable endomorphism table for truncated modules", checks, failures)


def criterion_2(audit: Audit | None = None) -> CriterionResult:
    """Stable center dimensions and the explicit factoring ideal."""
    failures = []
    checks = 0
    for f in ENDO_FIELDS:
        for n in ENDO_RANGE:
            _, system = truncated_polynomial(n, f)
            res = stable_center(system)
            p = f.characteristic
            want = n if (p and n % p == 0) else n - 1
            checks += 1
            if res.stable_center_dim != want:
                failures.append(
                    f"n={n} {_fname(f)}: stable center dim {res.stable_center_dim}, expected {want}"
                )
            top = f.from_int(n)
            if top:
                v = [f.zero] * n
                v[n - 1] = top
                expected = Subspace.from_vectors(f, n, [v])
            else:
                expected = Subspace.zero(f, n)
            checks += 1
            if frobenius_ideal(system) != expected:
                failures.append(
                    f"n={n} {_fname(f)}: factoring ideal differs from span of n*x^(n-1)"
                )
    return CriterionResult(2, "stable centers of truncated polynomial rings", checks, failures)


def _center_route_instances():
    for f in (Q, GF2, GF3):
        for n in (1, 2, 3, 4):
            yield f"trunc{n} {_fname(f)}", truncated_polynomial(n, f).system
        for g in (cyclic_group(2), cyclic_group(3), symmetric_group_3()):
            yield f"{g.name} {_fname(f)}", group_algebra(g, f).system


def criterion_3(audit: Audit | None = None) -> CriterionResult:
    """Stable center agrees with stable bimodule endomorphisms of A."""
    failures = []
    checks = 0
    for label, system in _center_route_instances():
        direct = stable_center(system).stable_center_dim
        via = stable_center_via_enveloping(system)
        checks += 1
        if direct != via:
            failures.append(f"{label}: stable center {direct} != bimodule route {via}")
    return CriterionResult(3, "two routes to the stable center", checks, failures)


def _oracle_instances():
    for f in (GF2, Q):
        for n in range(2, 6):
            _, system = truncated_polynomial(n, f)
            for i in range(n):
                for j in range(n):
                    yield (
                        f"trunc{n} V{i}->V{j} {_fname(f)}",
                        system,
                        truncated_module(n, i, f),
                        truncated_module(n, j, f),
                    )
        for g in (cyclic_group(2), cyclic_group(3), klein_four_group(), symmetric_group_3()):
            alg, system = group_algebra(g, f)
            mods = (trivial_module(alg), regular_module(alg))
            for m in mods:
                for n_ in mods:
                    yield (f"{g.name} {m.name}->{n_.name} {_fname(f)}", system, m, n_)


def criterion_4(audit: Audit | None = None) -> CriterionResult:
    """Factoring maps: definition route equals the dual-basis operator route."""
    failures = []
    checks = 0
    for label, system, m, n_ in _oracle_instances():
        oracle = factoring_ideal_oracle(system, m, n_)
        r = _stable(system, m, n_, audit, f"oracle {label}")
        checks += 1
        if oracle != r.null_basis:
            failures.append(f"{label}: oracle subspace differs from image of T")
    return CriterionResult(4, "independent oracle for the null-homotopic subspace", checks, failures)


def criterion_5(audit: Audit | None = None) -> CriterionResult:
    """Null-homotopic maps are A-linear on every instance touched."""
    failures = []
    entries = list(audit) if audit is not None else []
    if not entries:
        own: Audit = []
        for label, system, m, n_ in _oracle_instances():
            _stable(system, m, n_, own, label)
        for f in ENDO_FIELDS:
            for n in (2, 4, 6):
                _, system = truncated_polynomial(n, f)
                for i in range(n):
                    v = truncated_module(n, i, f)
                    _stable(system, v, v, own, f"endo n={n} i={i} {_fname(f)}")
        entries = own
    checks = 0
    for label, hom, null in entries:
        checks += 1
        if not hom.contains_subspace(null):
            failures.append(f"{label}: null-homotopic subspace leaves hom_A")
    return CriterionResult(5, "containment of the null-homotopic subspace", checks, failures)


def _twist_cases():
    alg_t, sys_t = truncated_polynomial(3, Q)
    pairs_t = [
        (truncated_module(3, 0, Q), truncated_module(3, 0, Q)),
        (truncated_module(3, 1, Q), truncated_module(3, 1, Q)),
        (truncated_module(3, 1, Q), truncated_module(3, 2, Q)),
    ]
    alg_g, sys_g = group_algebra(cyclic_group(2), GF2)
    tv, rg = trivial_module(alg_g), regular_module(alg_g)
    pairs_g = [(tv, tv), (tv, rg), (rg, rg)]
    return [("Q trunc3", alg_t, sys_t, pairs_t), ("GF2 cyclic2", alg_g, sys_g, pairs_g)]


def criterion_6(audit: Audit | None = None) -> CriterionResult:
    """Stable data is invariant under twisting the Frobenius system."""
    failures = []
    checks = 0
    rng = random.Random(20260821)
    for label, alg, system, pairs in _twist_cases():
        base = [
            _stable(system, m, n_, audit, f"twist base {label} {m.name}->{n_.name}")
            for m, n_ in pairs
        ]
        done = 0
        while done < 10:
            d = tuple(alg.field.from_int(rng.randint(-3, 3)) for _ in range(alg.dim))
            side = "left" if done % 2 == 0 else "right"
            try:
                twisted = twist(system, d, side)
            except NonInvertibleTwist:
                continue
            except DualityViolation:
                twisted = None
            done += 1
            checks += 1
            if twisted is None:
                failures.append(f"{label} twist #{done} ({side}): identities fail")
                continue
            for (m, n_), before in zip(pairs, base):
                after = _stable(
                    twisted, m, n_, audit, f"twist #{done} {label} {m.name}->{n_.name}"
                )
                checks += 1
                if after.null_basis != before.null_basis or after.stable_dim != before.stable_dim:
                    failures.append(
                        f"{label} twist #{done} ({side}) {m.name}->{n_.name}: "
                        f"stable data changed"
                    )
    return CriterionResult(6, "twist invariance of stable morphism spaces", checks, failures)


def _enveloping_cases():
    for f in (GF2, Q):
        for n in (2, 3):
            _, system = truncated_polynomial(n, f)
            mods = [truncated_module(n, i, f) for i in range(n)]
            yield f"trunc{n} {_fname(f)}", system, mods
        alg, system = group_algebra(cyclic_group(2), f)
        yield f"cyclic2 {_fname(f)}", system, [trivial_module(alg), regular_module(alg)]


def criterion_7(audit: Audit | None = None) -> CriterionResult:
    """Stable maps computed over A agree with the enveloping-algebra route."""
    failures = []
    checks = 0
    for label, system, mods in _enveloping_cases():
        for m in mods:
            for n_ in mods:
                direct, via = enveloping_comparison(system, m, n_)
                checks += 1
                if direct != via:
                    failures.append(
                        f"{label} {m.name}->{n_.name}: direct {direct} != enveloping {via}"
                    )
    return CriterionResult(7, "enveloping-algebra route for stable maps", checks, failures)


def criterion_8(audit: Audit | None = None) -> CriterionResult:
    """Degree-zero Tate cohomology matches stable maps for group algebras."""
    failures = []
    checks = 0
    cases = [
        (GF2, cyclic_group(2)),
        (GF2, klein_four_group()),
        (GF3, symmetric_group_3()),
        (Q, symmetric_group_3()),
    ]
    for f, g in cases:
        alg, system = group_algebra(g, f)
        mods = (trivial_module(alg), regular_module(alg))
        for m in mods:
            for n_ in mods:
                label = f"{g.name} {_fname(f)} {m.name}->{n_.name}"
                t = tate0(system, m, n_)
                r = _stable(system, m, n_, audit, f"tate {label}")
                checks += 1
                if (t.invariants_dim, t.norm_image_dim, t.tate_dim) != (
                    r.hom_dim, r.null_dim, r.stable_dim
                ):
                    failures.append(f"{label}: tate {t} != stable {r.stable_dim}")
                if f.kind == "rational":
                    checks += 1
                    if r.stable_dim != 0:
                        failures.append(f"{label}: expected semisimple vanishing")
        if f == GF2 and g.order == 2:
            tv = mods[0]
            checks += 1
            if tate0(system, tv, tv).tate_dim != 1:
                failures.append("GF2 cyclic2 trivial-trivial: expected Tate dim 1")
    return CriterionResult(8, "Tate degree zero against stable maps", checks, failures)


def _vanishing_instances():
    for f in (GF2, GF3, Q):
        for n in (2, 3, 4):
            _, system = truncated_polynomial(n, f)
            for i in range(n):
                v = truncated_module(n, i, f)
                for k in (1, 2):
                    yield f"trunc{n} V{i} free{k} {_fname(f)}", system, v, k
        for g in (cyclic_group(2), klein_four_group(), symmetric_group_3()):
            alg, system = group_algebra(g, f)
            for m in (trivial_module(alg), regular_module(alg)):
                yield f"{g.name} {m.name} free1 {_fname(f)}", system, m, 1


def criterion_9(audit: Audit | None = None) -> CriterionResult:
    """Projective vanishing on both sides, and naturality of the null space."""
    failures = []
    checks = 0
    for label, system, m, k in _vanishing_instances():
        fr = free_module(system.algebra, k)
        left = _stable(system, fr, m, audit, f"free-> {label}")
        right = _stable(system, m, fr, audit, f"->free {label}")
        checks += 2
        if left.stable_dim != 0:
            failures.append(f"{label}: stable maps out of a free module, dim {left.stable_dim}")
        if right.stable_dim != 0:
            failures.append(f"{label}: stable maps into a free module, dim {right.stable_dim}")
    n = 4
    for f in (GF2, Q):
        _, system = truncated_polynomial(n, f)
        for i in range(n):
            for j in range(i, n):
                proj = truncated_projection(n, j, i, f)
                for l in range(n):
                    target = truncated_module(n, l, f)
                    small = _stable(
                        system, truncated_module(n, i, f), target, audit,
                        f"nat V{i}->V{l} {_fname(f)}",
                    )
                    big = _stable(
                        system, truncated_module(n, j, f), target, audit,
                        f"nat V{j}->V{l} {_fname(f)}",
                    )
                    # vec(H proj) = kron(proj^T, I) vec(H): the composites
                    # are the rows of a basis times kron(proj, I).
                    by_proj = kron(proj, Matrix.identity(f, target.dim))
                    for comp in _integer_rows(small.hom_basis.basis @ by_proj):
                        checks += 1
                        if big.hom_basis._residual(comp):
                            failures.append(
                                f"nat {_fname(f)} V{j}->>V{i}->V{l}: hom map leaves hom_A"
                            )
                            break
                    for comp in _integer_rows(small.null_basis.basis @ by_proj):
                        checks += 1
                        if big.null_basis._residual(comp):
                            failures.append(
                                f"nat {_fname(f)} V{j}->>V{i}->V{l}: null map leaves null space"
                            )
                            break
    return CriterionResult(9, "projective vanishing and naturality", checks, failures)


def criterion_10(audit: Audit | None = None) -> CriterionResult:
    """Shift adjunction on dimensions, and two-sided Ext periodicity."""
    failures = []
    checks = 0
    n = 4
    _, system = truncated_polynomial(n, GF2)
    for i in range(n):
        for j in range(n):
            m = truncated_module(n, i, GF2)
            n_mod = truncated_module(n, j, GF2)
            lhs = _stable(
                system, shift_minus(m, 1), n_mod, audit, f"adj [-1]V{i}->V{j}"
            ).stable_dim
            rhs = _stable(
                system, m, shift_plus(system, n_mod, 1), audit, f"adj V{i}->[+1]V{j}"
            ).stable_dim
            checks += 1
            if lhs != rhs:
                failures.append(f"adjunction V{i},V{j}: {lhs} != {rhs}")
    _, system2 = truncated_polynomial(2, GF2)
    v0 = truncated_module(2, 0, GF2)
    for d in range(-3, 4):
        r = stable_ext(system2, v0, v0, d)
        if audit is not None:
            audit.append((f"ext d={d}", r.hom_basis, r.null_basis))
        checks += 1
        if r.stable_dim != 1:
            failures.append(f"Ext^{d}(V0, V0) over GF2 trunc2: dim {r.stable_dim}, expected 1")
    return CriterionResult(10, "shift adjunction and Ext periodicity", checks, failures)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(selected: list[int] | None = None) -> list[CriterionResult]:
    """Run criteria in order with a shared audit for criterion 5."""
    audit: Audit = []
    wanted = set(selected) if selected else set(range(1, 11))
    results = []
    order = [1, 2, 3, 4, 6, 7, 8, 9, 10, 5]  # 5 last so the audit is full
    for cid in order:
        if cid not in wanted:
            continue
        fn = CRITERIA[cid - 1]
        results.append(fn(audit))
    results.sort(key=lambda r: r.cid)
    return results
