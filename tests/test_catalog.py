"""Built-in families: truncated polynomial rings and small group algebras."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from frobstab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotAGroup,
    NotAGroupAlgebra,
    NotAssociative,
    ParseError,
    UnitMismatch,
)
from frobstab.exactfield import Field
from frobstab.catalog import (
    MAX_ORDER,
    GroupTable,
    check_order,
    cyclic_group,
    group_algebra,
    group_from_string,
    klein_four_group,
    symmetric_group_3,
    trivial_module,
    truncated_module,
    truncated_polynomial,
    truncated_projection,
)
from frobstab.frobenius import check_identities, derive_system
from frobstab.linalg import Subspace
from frobstab.modrep import regular_module, submodule, validate_module
from frobstab.stab import stable_center, stable_hom
from helpers import dual_bases

Q = Field.rationals()
GF2 = Field.prime(2)
GF3 = Field.prime(3)


def test_truncated_bases_are_reversed_powers():
    inst = truncated_polynomial(4, Q)
    a_basis, b_basis = dual_bases(inst.system)
    for i in range(4):
        assert a_basis[i] == inst.algebra.basis_vector(i)
        assert b_basis[i] == inst.algebra.basis_vector(3 - i)
    assert inst.algebra.basis_names == ("1", "x", "x^2", "x^3")


def test_truncated_identities_all_sizes():
    for n in range(1, 9):
        for f in (Q, GF2, GF3):
            inst = truncated_polynomial(n, f)
            inst.algebra.validate()
            assert check_identities(inst.system)
            derived = derive_system(inst.algebra, inst.system.trace)
            assert derived.element_matrix == inst.system.element_matrix


def test_degenerate_base_case():
    # n = 1 is the ground field: everything is projective.  It has no
    # generators, and V0 is free on one seed, so hom_A hands kron_kernel
    # no terms.
    for field in (Q, GF2, Field.prime(3)):
        inst = truncated_polynomial(1, field)
        v0 = truncated_module(1, 0, field)
        assert inst.algebra.generators == ()
        assert stable_hom(inst.system, v0, v0).stable_dim == 0
        assert stable_center(inst.system).stable_center_dim == 0


def test_top_module_is_regular():
    for n in (2, 4):
        inst = truncated_polynomial(n, GF2)
        top = truncated_module(n, n - 1, GF2)
        assert top.action == regular_module(inst.algebra).action


def test_truncated_modules_validate():
    for n in (2, 3, 5):
        for i in range(n):
            validate_module(truncated_module(n, i, GF3))


def test_group_table_axioms():
    for g in (cyclic_group(1), cyclic_group(4), klein_four_group(), symmetric_group_3()):
        k = len(g.names)
        for i in range(k):
            assert g.mult[g.identity][i] == i
            assert g.mult[i][g.inverse[i]] == g.identity
            assert g.inverse[g.inverse[i]] == i


def test_s3_relations():
    g = symmetric_group_3()
    r, s = 1, 3
    assert g.mult[r][s] != g.mult[s][r]
    r3 = g.mult[g.mult[r][r]][r]
    assert r3 == g.identity
    assert g.mult[s][s] == g.identity
    srs = g.mult[g.mult[s][r]][s]
    assert srs == g.mult[r][r]


def test_klein_four_is_elementary_abelian():
    g = klein_four_group()
    for i in range(4):
        assert g.mult[i][i] == g.identity
        for j in range(4):
            assert g.mult[i][j] == g.mult[j][i]


def test_group_from_string():
    assert group_from_string("cyclic:6").names[0] == "e"
    assert len(group_from_string("klein4").names) == 4
    assert len(group_from_string("s3").names) == 6
    with pytest.raises(ParseError):
        group_from_string("dihedral:8")
    for k in (0, -4):
        with pytest.raises(ParseError) as err:
            group_from_string(f"cyclic:{k}")
        assert err.value.witness == k
    assert group_from_string(f"cyclic:{MAX_ORDER}").order == MAX_ORDER
    with pytest.raises(ParseError) as err:
        group_from_string(f"cyclic:{MAX_ORDER + 1}")
    assert err.value.witness == MAX_ORDER + 1


def test_check_order_bounds():
    assert check_order(1, "order") == 1
    assert check_order(MAX_ORDER, "order") == MAX_ORDER
    assert check_order(0, "|degree|", least=0) == 0
    for n in (0, -1, MAX_ORDER + 1):
        with pytest.raises(ParseError) as err:
            check_order(n, "order")
        assert err.value.witness == n


def test_catalog_returns_one_instance_per_arguments():
    assert truncated_polynomial(4, GF3) is truncated_polynomial(4, Field.prime(3))
    inst = truncated_polynomial(3, GF3)
    assert truncated_polynomial(3, field=GF3) is inst
    assert truncated_polynomial(n=3, field=Field.prime(3)) is inst
    assert truncated_polynomial(field=GF3, n=3) is inst
    assert truncated_polynomial(4, GF3) is not truncated_polynomial(4, GF2)
    s3 = symmetric_group_3()
    fresh = GroupTable(s3.name, s3.names, s3.mult, s3.inverse)
    assert fresh is not s3
    inst = group_algebra(s3, Q)
    assert group_algebra(fresh, Field.rationals()) is inst
    assert group_algebra(symmetric_group_3(), Q) is inst
    assert group_algebra(fresh, field=Q) is inst
    assert group_algebra(g=s3, field=Field.rationals()) is inst
    assert group_algebra(field=Q, g=fresh) is inst
    assert group_algebra(group_from_string("cyclic:3"), GF2) is group_algebra(cyclic_group(3), GF2)
    assert group_algebra(cyclic_group(3), GF2) is not group_algebra(cyclic_group(3), GF3)


def test_modules_are_shared_over_the_shared_algebra():
    assert truncated_module(3, 1, GF3) is truncated_module(n=3, i=1, field=Field.prime(3))
    old = truncated_module(4, 2, GF2)
    truncated_polynomial.cache_clear()
    for n, i, f in ((4, 2, GF2), (3, 1, GF3), (2, 0, Q)):
        assert truncated_module(n, i, f).algebra is truncated_polynomial(n, f).algebra
    assert truncated_module(4, 2, GF2) is not old and truncated_module(4, 2, GF2) == old


def test_one_field_per_modulus_so_zeros_match_by_identity():
    # A module over a cached catalog algebra holds the zero object of the
    # field the algebra was first built with; sharing Q makes it Q.zero.
    assert Field.rationals() is Field.rationals() is Q
    assert Field.prime(3) is GF3 and Field.prime(3) is not Field.prime(5)
    truncated_polynomial.cache_clear()
    v = truncated_module(4, 3, Field.rationals())
    sub = Subspace.from_vectors(Q, 4, [v.action[1].col(j) for j in range(4)])
    action = submodule(v, sub).action
    assert sub.dim == 3 and all(x is Q.zero for rho in action for x in rho.entries if not x)


def test_group_algebras_validate():
    for g in (cyclic_group(2), klein_four_group(), symmetric_group_3()):
        for f in (Q, GF2):
            inst = group_algebra(g, f)
            inst.algebra.validate()
            assert check_identities(inst.system)


def test_trivial_module_needs_group_metadata():
    inst = truncated_polynomial(2, Q)
    with pytest.raises(NotAGroupAlgebra):
        trivial_module(inst.algebra)
    triv = trivial_module(group_algebra(cyclic_group(3), Q).algebra)
    validate_module(triv)
    assert triv.dim == 1


def test_truncated_projection_intertwines():
    n = 4
    for (j, i) in ((3, 1), (2, 0), (3, 3)):
        p = truncated_projection(n, j, i, Q)
        vj = truncated_module(n, j, Q)
        vi = truncated_module(n, i, Q)
        assert p.shape == (i + 1, j + 1)
        for t in range(n):
            assert p @ vj.action[t] == vi.action[t] @ p


def test_truncated_projections_compose():
    n = 5
    a = truncated_projection(n, 3, 1, GF2)
    b = truncated_projection(n, 4, 3, GF2)
    assert a @ b == truncated_projection(n, 4, 1, GF2)


def test_transport_between_dual_numbers_and_order_two_group():
    # over GF2 the group algebra of the order-2 group is k[x]/(x^2) with
    # x = e + g; stable data must agree through that identification
    c2 = group_algebra(cyclic_group(2), GF2)
    dn = truncated_polynomial(2, GF2)
    triv = trivial_module(c2.algebra)
    v0 = truncated_module(2, 0, GF2)
    a = stable_hom(c2.system, triv, triv)
    b = stable_hom(dn.system, v0, v0)
    assert (a.hom_dim, a.null_dim, a.stable_dim) == (b.hom_dim, b.null_dim, b.stable_dim)
    ra = stable_hom(c2.system, regular_module(c2.algebra), regular_module(c2.algebra))
    rb = stable_hom(dn.system, regular_module(dn.algebra), regular_module(dn.algebra))
    assert (ra.hom_dim, ra.null_dim, ra.stable_dim) == (rb.hom_dim, rb.null_dim, rb.stable_dim)


def test_catalog_is_deterministic():
    a1 = truncated_polynomial(3, GF2)
    a2 = truncated_polynomial(3, GF2)
    assert a1.algebra == a2.algebra
    assert a1.system.trace == a2.system.trace
    g1 = group_algebra(symmetric_group_3(), Q)
    g2 = group_algebra(symmetric_group_3(), Q)
    assert g1.algebra == g2.algebra
    assert g1.algebra.group.mult == g2.algebra.group.mult


@pytest.mark.parametrize("mult, inverse, error", [
    (((0, 1), (1, 0), (0, 1)), (0, 1), DimensionMismatch),
    (((0, 1), (1, 0)), (0,), DimensionMismatch),
    (((0, 1), (1, 2)), (0, 1), IndexOutOfRange),
    (((0, 1), (1, 0)), (0, -1), IndexOutOfRange),
    (((0, 1), (0, 0)), (0, 1), UnitMismatch),
    (((0, 1), (1, 1)), (0, 1), NotAGroup),
    # the smallest loop that is not a group: identity and inverses, no associativity
    (((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)),
     (0, 1, 2, 3, 4), NotAssociative),
])
def test_group_table_rejects_non_groups(mult, inverse, error):
    names = tuple(f"g{i}" for i in range(len(mult[0])))
    with pytest.raises(error):
        GroupTable("bad", names, mult, inverse)


def test_group_table_checks_survive_optimized_mode():
    """The axioms are checked by raising, so python -O does not skip them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "from frobstab.catalog import GroupTable\n"
        "from frobstab.errors import FrobstabError\n"
        "try:\n"
        "    GroupTable('bad', ('e', 'a'), ((0, 1), (1, 1)), (0, 1))\n"
        "except FrobstabError as e:\n"
        "    print(e.code, e.witness)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "NotAGroup 1"
