"""Module representations, embeddings, bimodule constructions."""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobstab.errors import (
    AlgebraMismatch,
    BudgetExceeded,
    EmbeddingNotInjective,
    NotALinearMap,
    NotAModule,
    NotInvariant,
    ParseError,
)
from frobstab.exactfield import Field
from frobstab.catalog import (
    cyclic_group,
    group_algebra,
    klein_four_group,
    symmetric_group_3,
    trivial_module,
    truncated_module,
    truncated_polynomial,
)
from frobstab import modrep
from frobstab.frobenius import FrobeniusSystem, enveloping_system
from frobstab.linalg import Matrix, Subspace, linear_combination
from frobstab.modrep import (
    MAX_FREE_ENTRIES,
    ModuleRep,
    bimodule_regular,
    canonical_embedding,
    direct_sum,
    free_module,
    hom_bimodule,
    module_from_json,
    module_to_json,
    quotient_module,
    regular_module,
    submodule,
    validate_module,
)
from frobstab.stab import hom_A
from helpers import (
    free_cover_embedding, in_basis, module_in_basis, multiplication_surjection, quantum_exterior,
    quantum_exterior_module, quotient_action, random_basis, restricted_action, unvec, zeros,
)

Q = Field.rationals()
GF2 = Field.prime(2)
GF3 = Field.prime(3)
GF5 = Field.prime(5)


def test_regular_action_matrices():
    alg = truncated_polynomial(2, GF2).algebra
    reg = regular_module(alg)
    validate_module(reg)
    assert reg.action[1] == Matrix.from_rows(GF2, [[0, 0], [1, 0]])
    assert reg.action[0] == Matrix.identity(GF2, 2)


def test_validate_module_catches_bad_unit():
    alg = truncated_polynomial(2, Q).algebra
    bad = ModuleRep(alg, 1, (zeros(Q, 1, 1), zeros(Q, 1, 1)))
    with pytest.raises(NotAModule) as exc:
        validate_module(bad)
    assert exc.value.witness == "unit"


def test_validate_module_catches_bad_product():
    alg = truncated_polynomial(2, Q).algebra
    # x acting as the identity: x.x = 0 must act as 0, but I @ I = I
    bad = ModuleRep(alg, 1, (Matrix.identity(Q, 1), Matrix.identity(Q, 1)))
    with pytest.raises(NotAModule) as exc:
        validate_module(bad)
    assert exc.value.witness == (1, 1)


def _module_failure_loop(m):
    """The first failing module axiom over all dim^2 basis products, or None:
    the reference for `validate_module`."""
    alg, f = m.algebra, m.algebra.field
    if m.action_of(alg.unit) != Matrix.identity(f, m.dim):
        return "unit"
    for i, row in enumerate(alg.cells):
        for j, cell in enumerate(row):
            expect = linear_combination(f, m.dim, m.dim, ((v, m.action[k]) for k, v in cell))
            if m.action[i] @ m.action[j] != expect:
                return (i, j)
    return None


def _catalog_modules():
    """(Frobenius system, module) for each catalog module tried."""
    for f in (GF2, GF3, Q):
        for n in range(2, 6):
            inst = truncated_polynomial(n, f)
            yield from ((inst.system, truncated_module(n, i, f)) for i in range(n))
        for g in (cyclic_group(3), klein_four_group(), symmetric_group_3()):
            inst = group_algebra(g, f)
            yield inst.system, trivial_module(inst.algebra)
            yield inst.system, regular_module(inst.algebra)


@st.composite
def _perturbed_module(draw, with_system=False):
    """A catalog module with one entry of one action matrix shifted, after
    its algebra's Frobenius system if `with_system`."""
    system, m = draw(st.sampled_from(list(_catalog_modules())))
    f = m.algebra.field
    b = draw(st.integers(0, m.algebra.dim - 1))
    pos = draw(st.integers(0, m.dim * m.dim - 1))
    if f.kind == "rational":
        delta = f.parse(f"{draw(st.integers(-3, 3).filter(bool))}/{draw(st.integers(1, 3))}")
    else:
        delta = draw(st.integers(1, f.p - 1))
    entries = list(m.action[b].entries)
    entries[pos] = f.add(entries[pos], delta)
    action = list(m.action)
    action[b] = Matrix.dense(f, m.dim, m.dim, tuple(entries))
    out = ModuleRep(m.algebra, m.dim, tuple(action), name=m.name)
    return (system, out) if with_system else out


@settings(max_examples=200, deadline=None)
@given(_perturbed_module())
def test_validate_module_matches_the_full_loop(m):
    want = _module_failure_loop(m)
    if want is None:
        validate_module(m)
    else:
        with pytest.raises(NotAModule) as exc:
            validate_module(m)
        assert exc.value.witness == want


def test_free_rank_one_is_regular():
    for inst in (truncated_polynomial(3, Q), group_algebra(symmetric_group_3(), GF2)):
        free1 = free_module(inst.algebra, 1)
        reg = regular_module(inst.algebra)
        assert free1.action == reg.action


def test_free_module_budget():
    """Stable Ext in degree +-5 of V1 over k[x]/(x^4) needs a free module of
    dim 648; the next shift would need dim 1944."""
    alg = truncated_polynomial(4, GF2).algebra
    assert alg.dim * 648**2 <= MAX_FREE_ENTRIES < alg.dim * 1944**2
    with pytest.raises(BudgetExceeded) as exc:
        free_module(alg, 486)
    assert exc.value.witness == 1944
    s3 = group_algebra(symmetric_group_3(), GF2).algebra
    with pytest.raises(BudgetExceeded) as exc:
        free_module(s3, 100)
    assert exc.value.witness == 600


def test_free_modules_validate():
    for k in (0, 1, 2):
        m = free_module(truncated_polynomial(2, GF2).algebra, k)
        validate_module(m)
        assert m.dim == 2 * k


def test_canonical_embedding_budget():
    # Its target A (x) M_0 is refused, as by free_module, before phi is built.
    alg = truncated_polynomial(4, GF2).algebra
    ident = Matrix.identity(GF2, 486)
    big = ModuleRep(alg, 486, (ident,) * 4)
    with pytest.raises(BudgetExceeded) as exc:
        canonical_embedding(truncated_polynomial(4, GF2).system, big)
    assert exc.value.witness == 1944


def test_canonical_embedding_explicit():
    inst = truncated_polynomial(2, Q)
    v0 = truncated_module(2, 0, Q)
    phi = canonical_embedding(inst.system, v0)
    assert phi == Matrix.from_rows(Q, [[0], [1]])


def test_canonical_embedding_tower():
    # for the 2-dimensional module over k[x]/(x^3):
    # phi(m) = x (x) (x m) + x^2 (x) m
    inst = truncated_polynomial(3, Q)
    v1 = truncated_module(3, 1, Q)
    phi = canonical_embedding(inst.system, v1)
    expect = Matrix.from_rows(Q, [
        [0, 0],
        [0, 0],
        [0, 0],
        [1, 0],
        [1, 0],
        [0, 1],
    ])
    assert phi == expect
    assert phi.rank() == v1.dim


def test_canonical_embedding_of_regular_has_full_rank():
    for inst in (truncated_polynomial(4, GF2), group_algebra(cyclic_group(3), Q)):
        reg = regular_module(inst.algebra)
        phi = canonical_embedding(inst.system, reg)
        assert phi.rank() == reg.dim


def _embedding_outcome(build, system, m):
    """(phi, None), or (None, (error class, witness)) if build raises."""
    try:
        return build(system, m), None
    except (NotALinearMap, EmbeddingNotInjective) as exc:
        return None, (type(exc), exc.witness)


@settings(max_examples=200, deadline=None)
@given(_perturbed_module(with_system=True))
def test_embedding_checks_match_the_free_cover_oracle(case):
    # Read on the blocks C R, the checks fail exactly when the dense free
    # action kron(L(e_q), I) and the splitting kron(trace, I) say so.
    system, m = case
    assert _embedding_outcome(canonical_embedding, system, m) == \
        _embedding_outcome(free_cover_embedding, system, m)


def test_embedding_of_catalog_modules_matches_the_oracle():
    # s3 is not commutative, so L(e_q) and R(e_q) differ on its modules.
    for system, m in _catalog_modules():
        assert canonical_embedding(system, m) == free_cover_embedding(system, m)


def test_embedding_of_a_non_module_fails_to_intertwine():
    # g acting by a Jordan block over GF(3) does not square to 1, so the
    # embedding [I; J] of this C2 "module" fails at basis element g.
    inst = group_algebra(cyclic_group(2), GF3)
    jordan = Matrix.from_rows(GF3, [[1, 1], [0, 1]])
    m = ModuleRep(inst.algebra, 2, (Matrix.identity(GF3, 2), jordan))
    for build in (canonical_embedding, free_cover_embedding):
        with pytest.raises(NotALinearMap) as exc:
            build(inst.system, m)
        assert exc.value.witness == 1


def test_embedding_under_a_doubled_trace_is_not_split():
    # Doubling the trace but not the dual bases keeps phi A-linear; the
    # splitting then gives 2 I, not I.
    inst = truncated_polynomial(3, GF3)
    s = inst.system
    doubled = FrobeniusSystem(s.algebra, tuple(GF3.add(t, t) for t in s.trace),
                              s.element_matrix)
    for m in (truncated_module(3, 1, GF3), regular_module(inst.algebra)):
        canonical_embedding(s, m)
        for build in (canonical_embedding, free_cover_embedding):
            with pytest.raises(EmbeddingNotInjective):
                build(doubled, m)


def test_multiplication_surjection():
    inst = truncated_polynomial(3, Q)
    reg = regular_module(inst.algebra)
    mu = multiplication_surjection(reg)
    assert mu.shape == (3, 9)
    assert mu.rank() == 3
    # section: j -> unit (x) e_j
    for j in range(3):
        col = [Q.zero] * 9
        for p in range(3):
            col[p * 3 + j] = inst.algebra.unit[p]
        assert mu.apply(tuple(col)) == tuple(
            Q.one if t == j else Q.zero for t in range(3)
        )


def test_hom_bimodule_validates_over_enveloping():
    inst = truncated_polynomial(2, GF2)
    reg = regular_module(inst.algebra)
    v0 = truncated_module(2, 0, GF2)
    hm = hom_bimodule(reg, v0)
    assert hm.dim == 2
    validate_module(hm)
    validate_module(bimodule_regular(inst.algebra))


def test_bimodule_invariants_are_module_maps():
    # evaluation at 1 identifies Hom_{A-A}(A, Hom_k(M, N)) with Hom_A(M, N)
    inst = truncated_polynomial(3, GF2)
    env = enveloping_system(inst.system)
    m, n_ = truncated_module(3, 1, GF2), truncated_module(3, 2, GF2)
    maps = hom_A(bimodule_regular(inst.algebra), hom_bimodule(m, n_))
    direct = hom_A(m, n_)
    unit = inst.algebra.unit
    evaluated = []
    for f in maps.basis_vectors():
        # f is vec of a (dim 6) x (dim 9) matrix; apply to vec of unit
        mat = Matrix.from_rows(
            GF2,
            [
                [f[c * (m.dim * n_.dim) + r] for c in range(inst.algebra.dim)]
                for r in range(m.dim * n_.dim)
            ],
        )
        evaluated.append(mat.apply(unit))
    image = Subspace.from_vectors(GF2, m.dim * n_.dim, evaluated)
    assert image == direct
    assert env.algebra.dim == 9


def test_submodule_socle():
    inst = truncated_polynomial(3, Q)
    reg = regular_module(inst.algebra)
    socle = Subspace.from_vectors(Q, 3, [(Q.zero, Q.zero, Q.one)])
    sub = submodule(reg, socle)
    v0 = truncated_module(3, 0, Q)
    assert sub.action == v0.action


def test_submodule_rejects_non_invariant():
    inst = truncated_polynomial(3, Q)
    reg = regular_module(inst.algebra)
    line = Subspace.from_vectors(Q, 3, [(Q.zero, Q.one, Q.zero)])
    for build in (submodule, quotient_module):
        with pytest.raises(NotInvariant) as exc:
            build(reg, line)
        assert exc.value.witness == 1


def test_quotient_by_socle():
    inst = truncated_polynomial(3, Q)
    reg = regular_module(inst.algebra)
    socle = Subspace.from_vectors(Q, 3, [(Q.zero, Q.zero, Q.one)])
    quo = quotient_module(reg, socle)
    v1 = truncated_module(3, 1, Q)
    assert quo.dim == 2
    assert quo.action == v1.action


def test_sub_quotient_dims_add_up():
    alg = group_algebra(cyclic_group(2), GF2).algebra
    reg = regular_module(alg)
    rad = Subspace.from_vectors(GF2, 2, [(1, 1)])
    sub = submodule(reg, rad)
    quo = quotient_module(reg, rad)
    validate_module(sub)
    validate_module(quo)
    assert sub.dim + quo.dim == reg.dim


def test_direct_sum_hom_additivity():
    inst = truncated_polynomial(3, GF2)
    v0 = truncated_module(3, 0, GF2)
    v1 = truncated_module(3, 1, GF2)
    v2 = truncated_module(3, 2, GF2)
    total = direct_sum([v0, v2, v1])
    validate_module(total)
    assert total.dim == 6
    assert (
        hom_A(total, v1).dim
        == hom_A(v0, v1).dim + hom_A(v2, v1).dim + hom_A(v1, v1).dim
    )


def test_module_json_round_trip():
    inst = truncated_polynomial(3, GF2)
    v1 = truncated_module(3, 1, GF2)
    obj = module_to_json(v1)
    back = module_from_json(obj, inst.algebra, accept_names={obj["algebra"]})
    assert back.action == v1.action
    assert back.name == v1.name


def test_module_json_formats_only_the_stored_nonzeros(monkeypatch):
    """Each action is written as its dense rows of scalar texts, "0" in
    every empty cell and one `to_str` call per stored nonzero: over Q (V2
    conjugated into a basis with fractional entries) and GF(p), on the
    zero action of x on V0, and on a 0 x 0 module."""
    v2 = truncated_module(3, 2, Q)
    pm = Matrix.from_rows(Q, [[2, 1, 0], [0, 1, 3], [0, 0, 3]])
    mods = [
        ModuleRep(v2.algebra, 3, tuple(pm.inverse() @ a @ pm for a in v2.action)),
        truncated_module(3, 0, Q),
        truncated_module(4, 2, GF3),
        regular_module(group_algebra(symmetric_group_3(), GF5).algebra),
        ModuleRep(v2.algebra, 0, (Matrix.identity(Q, 0),) * 3),
    ]
    assert any(isinstance(x, Fraction) and x.denominator > 1 for x in mods[0].action[1].entries)
    assert mods[1].action[1].nonzeros[1] == ()
    to_str, calls = Field.to_str, []
    for m in mods:
        dense = [[[to_str(m.algebra.field, x) for x in mat.row(r)] for r in range(m.dim)]
                 for mat in m.action]
        calls.clear()
        monkeypatch.setattr(Field, "to_str", lambda f, x: calls.append(x) or to_str(f, x))
        assert module_to_json(m)["action"] == dense
        monkeypatch.setattr(Field, "to_str", to_str)
        assert len(calls) == sum(len(mat.nonzeros[1]) for mat in m.action)


def test_module_json_refuses_scalars_past_the_digit_limit():
    """V2 of k[x]/(x^3) over Q conjugated by [[1, b, 0], [0, 1, b], [0, 0,
    1]], b = 10^2500 + 7, has entries of about b^3, past the 4300 digits
    that `parse` reads back: writing it raises BudgetExceeded, witnessed by
    the digits of the first such entry, not a bare ValueError."""
    v2 = truncated_module(3, 2, Q)
    b = 10 ** 2500 + 7
    pm = Matrix.from_rows(Q, [[1, b, 0], [0, 1, b], [0, 0, 1]])
    inv = pm.inverse()
    moved = ModuleRep(v2.algebra, 3, tuple(inv @ a @ pm for a in v2.action))
    first = next(abs(x.numerator) for a in moved.action for x in a.entries
                 if abs(x.numerator) >= 10 ** 4300)
    with pytest.raises(BudgetExceeded) as exc:
        module_to_json(moved)
    assert 10 ** (exc.value.witness - 1) <= first < 10 ** exc.value.witness


def test_module_json_algebra_mismatch():
    inst = truncated_polynomial(3, GF2)
    v1 = truncated_module(3, 1, GF2)
    obj = dict(module_to_json(v1))
    obj["algebra"] = "somewhere-else"
    with pytest.raises(AlgebraMismatch):
        module_from_json(obj, inst.algebra, accept_names={"trunc_poly_3"})


def test_module_json_strictness():
    inst = truncated_polynomial(3, GF2)
    v1 = truncated_module(3, 1, GF2)
    good = module_to_json(v1)
    bad = dict(good)
    bad["padding"] = []
    with pytest.raises(ParseError):
        module_from_json(bad, inst.algebra, accept_names={good["algebra"]})


@pytest.mark.parametrize("field", [GF2, Q], ids=["gf2", "q"])
def test_module_json_scalar_errors_match_parse(field):
    inst = truncated_polynomial(3, field)
    good = module_to_json(truncated_module(3, 2, field))
    back = module_from_json(good, inst.algebra, accept_names={good["algebra"]})
    assert back == truncated_module(3, 2, field)
    spellings = [" 0", "-0", "00", "2/4", " 1"]
    for bad in ["", "x", "+1", "1_0", "1.5", "1\x002", "1/0", 7, "1/2", [1], "7" * 5000, *spellings]:
        want = None
        try:
            field.parse(bad)
        except ParseError as err:
            want = str(err), err.witness
        for i, r, c in ((0, 0, 0), (2, 2, 1)):
            obj = module_to_json(truncated_module(3, 2, field))
            obj["action"][i][r][c] = bad
            if want is None:
                m = module_from_json(obj, inst.algebra, accept_names={obj["algebra"]})
                for mat, rows in zip(m.action, obj["action"]):
                    dense = Matrix.dense(field, 3, 3, [field.parse(t) for row in rows for t in row])
                    assert mat.nonzeros == dense.nonzeros
                continue
            with pytest.raises(ParseError) as exc:
                module_from_json(obj, inst.algebra, accept_names={obj["algebra"]})
            assert (str(exc.value), exc.value.witness) == want


def test_module_json_errors_come_in_entry_order():
    # Matrices are read in order, each checked for shape before its scalars
    # are parsed, as when every matrix was parsed on its own.
    inst = truncated_polynomial(3, Q)
    short = "action matrix has wrong column count"
    for (q, r), want in (((2, 0), "bad scalar 'x'"), ((1, 2), short), ((0, 2), short)):
        obj = module_to_json(truncated_module(3, 2, Q))
        obj["action"][1][1][1] = "x"
        obj["action"][q][r] = ["0"]
        with pytest.raises(ParseError) as exc:
            module_from_json(obj, inst.algebra, accept_names={obj["algebra"]})
        assert str(exc.value) == want


def test_module_json_parses_each_distinct_text_once(monkeypatch):
    inst = truncated_polynomial(24, GF2)
    obj = module_to_json(truncated_module(24, 23, GF2))
    calls, parse = Counter(), Field.parse
    monkeypatch.setattr(Field, "parse", lambda self, text: calls.update([text]) or parse(self, text))
    m = module_from_json(obj, inst.algebra, accept_names={obj["algebra"]})
    assert calls == Counter({x: 1 for mat in obj["action"] for row in mat for x in row})
    assert m == truncated_module(24, 23, GF2)


@st.composite
def _random_module(draw):
    field = draw(st.sampled_from([Q, GF2, GF3, Field.prime(7)]))
    if field is Q:
        scalars = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        scalars = st.integers(0, field.p - 1)
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    action = tuple(Matrix.dense(field, d, d, draw(st.lists(scalars, min_size=d * d, max_size=d * d)))
                   for _ in range(n))
    return ModuleRep(truncated_polynomial(n, field).algebra, d, action, name=draw(st.text(max_size=3)))


@settings(max_examples=150, deadline=None)
@given(_random_module())
def test_random_modules_round_trip_through_json(m):
    back = module_from_json(module_to_json(m), m.algebra)
    assert back == m and back.name == m.name


def _recording_first_failing(monkeypatch):
    """Patch `modrep._first_failing` to record the basis indices it reads."""
    read, first_failing = [], modrep._first_failing
    monkeypatch.setattr(modrep, "_first_failing", lambda alg, fails: first_failing(
        alg, lambda i: read.append(i) or fails(i)))
    return read


def test_quotient_reads_only_the_generators(monkeypatch):
    # The full basis is read only to name the witness of a failure, which
    # must be the first basis index that moves the subspace.
    f = Field.prime(3)
    alg = group_algebra(symmetric_group_3(), f).algebra
    reg = regular_module(alg)
    subs = [Subspace.from_vectors(f, 6, [alg.basis_vector(i) for i in c])
            for c in ((0, 1), (0, 1, 2), (3, 4, 5), (2, 4))]
    subs.append(Subspace.from_vectors(f, 6, [(1,) * 6]))
    read = _recording_first_failing(monkeypatch)
    witnesses = []
    for sub in subs:
        try:
            submodule(reg, sub)
        except NotInvariant as err:
            with pytest.raises(NotInvariant) as exc:
                quotient_module(reg, sub)
            assert exc.value.witness == err.witness
            witnesses.append(err.witness)
        else:
            read.clear()
            assert quotient_module(reg, sub).dim == 6 - sub.dim
            assert read == list(alg.generators) == [1, 3]
    assert witnesses == [1, 3, 3, 1]


def test_submodule_checks_invariance_on_the_generators(monkeypatch):
    """k[x]/(x^24) has one generator, x, so checking that an ideal of the
    regular module is invariant costs one `_sparse_apply` and one residual
    per stored row, not 24; restricting the action reuses the check's
    images of x, and the actions of x^2, ..., x^23 are products of x's."""
    t24 = truncated_polynomial(24, GF2).algebra
    reg = regular_module(t24)
    assert t24.generators == (1,)
    ideal = Subspace.from_vectors(GF2, 24, [t24.basis_vector(i) for i in range(14, 24)])
    applies, residuals = [], []
    sparse_apply, residual = modrep._sparse_apply, Subspace._residual
    monkeypatch.setattr(modrep, "_sparse_apply",
                        lambda m, v: applies.append(m) or sparse_apply(m, v))
    monkeypatch.setattr(Subspace, "_residual",
                        lambda sub, v: residuals.append(1) or residual(sub, v))
    read = _recording_first_failing(monkeypatch)
    sub = submodule(reg, ideal)
    assert read == [1] and sub.dim == 10
    assert len(residuals) == 10 and len(applies) == 10
    assert all(m is reg.action[1] for m in applies)
    assert sub.action == restricted_action(reg, ideal)


def test_quotient_builds_only_the_generators_action(monkeypatch):
    """The quotient of k[x]/(x^24) by the same ideal: the check costs one
    `_sparse_apply` and one residual per stored row, x's action one
    residual per coset representative, and x^2, ..., x^23 none, since
    their actions are products of x's."""
    t24 = truncated_polynomial(24, GF2).algebra
    reg = regular_module(t24)
    ideal = Subspace.from_vectors(GF2, 24, [t24.basis_vector(i) for i in range(14, 24)])
    applies, residuals = [], []
    sparse_apply, residual = modrep._sparse_apply, Subspace._residual
    monkeypatch.setattr(modrep, "_sparse_apply",
                        lambda m, v: applies.append(m) or sparse_apply(m, v))
    monkeypatch.setattr(Subspace, "_residual",
                        lambda sub, v: residuals.append(1) or residual(sub, v))
    read = _recording_first_failing(monkeypatch)
    quo = quotient_module(reg, ideal)
    assert read == [1] and quo.dim == 14
    assert len(applies) == 10 and len(residuals) == 10 + 14
    assert all(m is reg.action[1] for m in applies)
    assert quo.action == quotient_action(reg, ideal)


def _scalar(draw, f):
    if f.kind == "rational":
        return f.parse(f"{draw(st.integers(-3, 3))}/{draw(st.integers(1, 3))}")
    return draw(st.integers(0, f.p - 1))


@functools.cache
def _general_basis(n, f, seed):
    """k[x]/(x^n) in a seeded random basis, and its modules V_i there."""
    pm = random_basis(f, n, seed)
    alg = in_basis(truncated_polynomial(n, f).system, pm).algebra
    return alg, [module_in_basis(truncated_module(n, i, f), alg, pm) for i in range(n)]


@st.composite
def _module_and_subspace(draw):
    """(kind, module, subspace): a cyclic submodule, the kernel of a module
    map, or the span of random vectors, which is rarely invariant.  The
    module is over a catalog algebra, where every action but the
    generators' is derived as a product; over Lambda_q, q != 1, where xy's
    is derived from yx = q xy as q^-1 rho(y) rho(x); or over k[x]/(x^n) in
    a seeded random basis, where over GF(5) and Q none is derived, and over
    GF(2) a few cells have one term and the unit may be e_i, i != 0."""
    source = draw(st.sampled_from(("catalog", "lambda", "general")))
    if source == "catalog":
        f = draw(st.sampled_from((GF2, Field.prime(3), Q)))
        families = [[truncated_module(n, i, f) for i in range(n)] for n in (3, 4)]
        for g in (cyclic_group(3), klein_four_group(), symmetric_group_3()):
            alg = group_algebra(g, f).algebra
            families.append([trivial_module(alg), regular_module(alg)])
        family = draw(st.sampled_from(families))
    elif source == "lambda":
        q = draw(st.sampled_from((2, -1, Fraction(1, 2))))
        alg = quantum_exterior(q).algebra
        assert alg._products == (0, {3: (2, 1, q)})
        family = [quantum_exterior_module(alg, lam) for lam in (0, 1, 3, None)]
        family.append(regular_module(alg))
    else:
        f = draw(st.sampled_from((GF2, GF5, Q)))
        alg, family = _general_basis(draw(st.integers(3, 5)), f, draw(st.sampled_from((1, 2, 4))))
        assert f == GF2 or alg._products[1] == {}
    m = draw(st.sampled_from(family))
    if draw(st.booleans()):
        m = direct_sum([m, draw(st.sampled_from(family))])
    f = m.algebra.field

    def vector(dim):
        return tuple(_scalar(draw, f) for _ in range(dim))

    kind = draw(st.sampled_from(("cyclic", "kernel", "random")))
    if kind == "cyclic":
        v = vector(m.dim)
        return kind, m, Subspace.from_vectors(f, m.dim, [rho.apply(v) for rho in m.action])
    if kind == "kernel":
        n_ = draw(st.sampled_from(family))
        hom = hom_A(m, n_)
        h = Matrix.dense(f, 1, hom.dim, vector(hom.dim)) @ hom.basis
        return kind, m, unvec(f, h.row(0), n_.dim, m.dim).kernel_basis()
    vecs = [vector(m.dim) for _ in range(draw(st.integers(1, 3)))]
    return kind, m, Subspace.from_vectors(f, m.dim, vecs)


@settings(max_examples=600, deadline=None)
@given(_module_and_subspace())
def test_sparse_actions_match_the_dense_oracle(case):
    kind, m, sub = case
    zero = m.algebra.field.zero
    for build, oracle in ((submodule, restricted_action), (quotient_module, quotient_action)):
        try:
            want = oracle(m, sub)
        except NotInvariant as err:
            assert kind == "random"
            with pytest.raises(NotInvariant) as exc:
                build(m, sub)
            assert exc.value.witness == err.witness
            continue
        got = build(m, sub).action
        assert got == want
        assert all(x is zero for a in got for x in a.entries if not x)


def test_same_algebra_guard():
    a2 = truncated_polynomial(2, GF2)
    a3 = truncated_polynomial(3, GF2)
    m = truncated_module(2, 0, GF2)
    n_ = truncated_module(3, 0, GF2)
    with pytest.raises(AlgebraMismatch):
        hom_A(m, n_)
    assert a2.algebra != a3.algebra
