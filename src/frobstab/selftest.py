"""Built-in acceptance checks.

Ten independent criteria, each `criterion_N(audit=None) -> CriterionResult`.
They are exact: every comparison is equality of integers, scalars, or
canonical subspaces.  The same checks back the CLI `selftest` subcommand
and the acceptance test file, so the shipped wheel can re-verify itself.

One runner, `_criterion`, does the tally for all ten.  Each criterion body
is a generator that yields `ok or message` once per check, so the failure
message is built only when the check fails; the runner counts the checks,
keeps the messages, and hands the body the caller's audit list or a fresh
one.

Criterion 5 (null-homotopic maps are A-linear) audits every (hom, null)
basis pair produced while running the other criteria, plus a standalone
sweep, so the containment is confirmed on each instance the suite touches
rather than inferred from the oracle comparisons.
"""

from __future__ import annotations

import functools
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


def _criterion(cid: int, title: str):
    """The check runner: turns a body, a generator over an audit list that
    yields `ok or message` once per check, into `criterion_N(audit=None)
    -> CriterionResult`, whose failures are the yielded strings.  The body
    gets a fresh list when the caller passes none."""
    def wrap(body):
        @functools.wraps(body)
        def run(audit: Audit | None = None) -> CriterionResult:
            outcomes = list(body([] if audit is None else audit))
            return CriterionResult(cid, title, len(outcomes),
                                   [msg for msg in outcomes if isinstance(msg, str)])
        return run
    return wrap


def _stable(system, m, n_, audit: Audit, label: str):
    r = stable_hom(system, m, n_)
    audit.append((label, r.hom_basis, r.null_basis))
    return r


@_criterion(1, "stable endomorphism table for truncated modules")
def criterion_1(audit: Audit):
    """Stable endomorphism dimensions of the truncated modules."""
    for f in ENDO_FIELDS:
        for n in ENDO_RANGE:
            _, system = truncated_polynomial(n, f)
            for i in range(n):
                v = truncated_module(n, i, f)
                got = _stable(system, v, v, audit, f"endo n={n} i={i} {_fname(f)}").stable_dim
                want = n - 1 - i if 2 * i >= n - 1 else i + 1
                yield got == want or (
                    f"n={n} i={i} {_fname(f)}: stable endo dim {got}, expected {want}")


@_criterion(2, "stable centers of truncated polynomial rings")
def criterion_2(audit: Audit):
    """Stable center dimensions and the explicit factoring ideal."""
    for f in ENDO_FIELDS:
        for n in ENDO_RANGE:
            _, system = truncated_polynomial(n, f)
            got = stable_center(system).stable_center_dim
            p = f.characteristic
            want = n if (p and n % p == 0) else n - 1
            yield got == want or f"n={n} {_fname(f)}: stable center dim {got}, expected {want}"
            top = f.from_int(n)
            if top:
                v = [f.zero] * n
                v[n - 1] = top
                expected = Subspace.from_vectors(f, n, [v])
            else:
                expected = Subspace.zero(f, n)
            yield frobenius_ideal(system) == expected or (
                f"n={n} {_fname(f)}: factoring ideal differs from span of n*x^(n-1)")


def _center_route_instances():
    for f in (Q, GF2, GF3):
        for n in (1, 2, 3, 4):
            yield f"trunc{n} {_fname(f)}", truncated_polynomial(n, f).system
        for g in (cyclic_group(2), cyclic_group(3), symmetric_group_3()):
            yield f"{g.name} {_fname(f)}", group_algebra(g, f).system


@_criterion(3, "two routes to the stable center")
def criterion_3(audit: Audit):
    """Stable center agrees with stable bimodule endomorphisms of A."""
    for label, system in _center_route_instances():
        direct = stable_center(system).stable_center_dim
        via = stable_center_via_enveloping(system)
        yield direct == via or f"{label}: stable center {direct} != bimodule route {via}"


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


@_criterion(4, "independent oracle for the null-homotopic subspace")
def criterion_4(audit: Audit):
    """Factoring maps: definition route equals the dual-basis operator route."""
    for label, system, m, n_ in _oracle_instances():
        oracle = factoring_ideal_oracle(system, m, n_)
        r = _stable(system, m, n_, audit, f"oracle {label}")
        yield oracle == r.null_basis or f"{label}: oracle subspace differs from image of T"


@_criterion(5, "containment of the null-homotopic subspace")
def criterion_5(audit: Audit):
    """Null-homotopic maps are A-linear on every instance touched."""
    if not audit:
        for label, system, m, n_ in _oracle_instances():
            _stable(system, m, n_, audit, label)
        for f in ENDO_FIELDS:
            for n in (2, 4, 6):
                _, system = truncated_polynomial(n, f)
                for i in range(n):
                    v = truncated_module(n, i, f)
                    _stable(system, v, v, audit, f"endo n={n} i={i} {_fname(f)}")
    for label, hom, null in audit:
        yield hom.contains_subspace(null) or f"{label}: null-homotopic subspace leaves hom_A"


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


@_criterion(6, "twist invariance of stable morphism spaces")
def criterion_6(audit: Audit):
    """Stable data is invariant under twisting the Frobenius system."""
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
            yield twisted is not None or f"{label} twist #{done} ({side}): identities fail"
            if twisted is None:
                continue
            for (m, n_), before in zip(pairs, base):
                after = _stable(
                    twisted, m, n_, audit, f"twist #{done} {label} {m.name}->{n_.name}"
                )
                same = (after.null_basis == before.null_basis
                        and after.stable_dim == before.stable_dim)
                yield same or (
                    f"{label} twist #{done} ({side}) {m.name}->{n_.name}: stable data changed")


def _enveloping_cases():
    for f in (GF2, Q):
        for n in (2, 3):
            _, system = truncated_polynomial(n, f)
            mods = [truncated_module(n, i, f) for i in range(n)]
            yield f"trunc{n} {_fname(f)}", system, mods
        alg, system = group_algebra(cyclic_group(2), f)
        yield f"cyclic2 {_fname(f)}", system, [trivial_module(alg), regular_module(alg)]


@_criterion(7, "enveloping-algebra route for stable maps")
def criterion_7(audit: Audit):
    """Stable maps computed over A agree with the enveloping-algebra route."""
    for label, system, mods in _enveloping_cases():
        for m in mods:
            for n_ in mods:
                direct, via = enveloping_comparison(system, m, n_)
                yield direct == via or (
                    f"{label} {m.name}->{n_.name}: direct {direct} != enveloping {via}")


@_criterion(8, "Tate degree zero against stable maps")
def criterion_8(audit: Audit):
    """Degree-zero Tate cohomology matches stable maps for group algebras."""
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
                dims = (r.hom_dim, r.null_dim, r.stable_dim)
                yield (t.invariants_dim, t.norm_image_dim, t.tate_dim) == dims or (
                    f"{label}: tate {t} != stable {r.stable_dim}")
                if f.kind == "rational":
                    yield r.stable_dim == 0 or f"{label}: expected semisimple vanishing"
        if f == GF2 and g.order == 2:
            tv = mods[0]
            yield tate0(system, tv, tv).tate_dim == 1 or (
                "GF2 cyclic2 trivial-trivial: expected Tate dim 1")


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


@_criterion(9, "projective vanishing and naturality")
def criterion_9(audit: Audit):
    """Projective vanishing on both sides, and naturality of the null space."""
    for label, system, m, k in _vanishing_instances():
        fr = free_module(system.algebra, k)
        left = _stable(system, fr, m, audit, f"free-> {label}")
        right = _stable(system, m, fr, audit, f"->free {label}")
        yield left.stable_dim == 0 or (
            f"{label}: stable maps out of a free module, dim {left.stable_dim}")
        yield right.stable_dim == 0 or (
            f"{label}: stable maps into a free module, dim {right.stable_dim}")
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
                    for what, source, image in (
                        ("hom map leaves hom_A", small.hom_basis, big.hom_basis),
                        ("null map leaves null space", small.null_basis, big.null_basis),
                    ):
                        for comp in _integer_rows(source.basis @ by_proj):
                            if image._residual(comp):
                                yield f"nat {_fname(f)} V{j}->>V{i}->V{l}: {what}"
                                break
                            yield True


@_criterion(10, "shift adjunction and Ext periodicity")
def criterion_10(audit: Audit):
    """Shift adjunction on dimensions, and two-sided Ext periodicity."""
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
            yield lhs == rhs or f"adjunction V{i},V{j}: {lhs} != {rhs}"
    _, system2 = truncated_polynomial(2, GF2)
    v0 = truncated_module(2, 0, GF2)
    for d in range(-3, 4):
        r = stable_ext(system2, v0, v0, d)
        audit.append((f"ext d={d}", r.hom_basis, r.null_basis))
        yield r.stable_dim == 1 or (
            f"Ext^{d}(V0, V0) over GF2 trunc2: dim {r.stable_dim}, expected 1")


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all(selected: list[int] | None = None) -> list[CriterionResult]:
    """Run criteria in order with a shared audit for criterion 5."""
    audit: Audit = []
    wanted = set(selected) if selected else set(range(1, 11))
    order = [1, 2, 3, 4, 6, 7, 8, 9, 10, 5]  # 5 last so the audit is full
    results = [CRITERIA[cid - 1](audit) for cid in order if cid in wanted]
    return sorted(results, key=lambda r: r.cid)
