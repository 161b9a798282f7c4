"""Stable morphism spaces over a Frobenius system.

Every function here takes modules, as `validate_module` checks them; a
`ModuleRep` that breaks the module axioms can give wrong answers.
Hom_A(M, N) is solved from the equations of a generating set of A
(`StructureAlgebra.generators`), not one block per basis element, which
is exact only because the action is multiplicative.

The stable Hom between modules M, N is Hom_A(M, N) modulo the maps that
factor through a projective (equivalently injective) module.  With a
Frobenius system ({a_i}, {b_i}) the factoring maps are exactly the image of
the operator

    T : Hom_k(M, N) -> Hom_k(M, N),   T(h) = sum_i a_i h(b_i -).

With the Frobenius matrix C = sum_i a_i b_i^T (`element_matrix`),
T(h) = sum_{p,q} C[p,q] e_p h(e_q -), which acts on vectorized maps as

    sum_{p,q} C[p,q] kron(action_M(e_q)^T, action_N(e_p)),

one Kronecker term (C[p,q], action_M(e_q)^T, action_N(e_p)) per nonzero of
C, so T is read off the module actions as they are.
Hom_A(M, N) is the common kernel of one Kronecker sum per generator
(`kron_kernel`), and the images of T and of the `tate0` norm come from
`kron_image`; neither builds those sums as dense matrices.  Both read the
sparse integer rows of one Kronecker assembler, over either field: over Q
the kernel is solved mod a prime and certified exactly, and the image is
reduced exactly.  `null_homotopy_operator` returns T exactly.  The coset
representatives of `stable_hom` are read from the sparse rows of Hom_A.
`factoring_ideal_oracle` recomputes the same subspace along the definition
(maps factoring through the canonical embedding into A (x) M_0) and is kept
as an independent route; the two are compared, never merged.

Shifts are cokernel/kernel of the canonical embedding/multiplication maps,
iterated for stable Ext in either direction.  The stable center is the
ordinary center modulo the ideal sum_i a_i z b_i = sum_p e_p z c_p, with a
second route through endomorphisms of A as a bimodule over A (x) A^op.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    IdealClosureViolation,
    NotAGroupAlgebra,
)
from .frobenius import FrobeniusSystem, enveloping_system
from .linalg import Matrix, Subspace, kron, kron_image, kron_kernel, kron_sum, linear_combination
from .linalg import _dense, _integers, _sparse_apply
from .modrep import (
    ModuleRep,
    _surjection_terms,
    bimodule_regular,
    canonical_embedding,
    free_module,
    hom_bimodule,
    quotient_module,
    submodule,
)


def _check_system_module(system: FrobeniusSystem, *mods: ModuleRep) -> None:
    for m in mods:
        if m.algebra != system.algebra:
            raise AlgebraMismatch(f"module {m.name} is not over the system's algebra")


def hom_A(m: ModuleRep, n_: ModuleRep) -> Subspace:
    """A-linear maps M -> N as a subspace of vectorized matrices.

    M and N must be modules (`validate_module`); every CLI command checks
    that on load.  H is then A-linear iff action_N(g) H - H action_M(g) = 0
    for every g in the generating set `algebra.generators`: H commutes with
    each word in the generators, the words span A, and the unit acts as I.
    On vec(H) the equations of g are the Kronecker sum kron(I, action_N(g))
    - kron(action_M(g)^T, I), and Hom_A(M, N) is the common kernel of these
    sums, solved exactly.  The minus sign is the coefficient -1 of the
    second term, so no negated matrix is built.
    """
    m.same_algebra(n_)
    f = m.algebra.field
    amb = n_.dim * m.dim
    eye_m, eye_n = Matrix.identity(f, m.dim), Matrix.identity(f, n_.dim)
    return kron_kernel(f, amb, amb, *(
        [(1, eye_m, n_.action[g]), (-1, m.action[g].transpose(), eye_n)]
        for g in m.algebra.generators
    ))


def _operator_terms(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep):
    """(dim Hom_k(M, N), the Kronecker terms of T): one (C[p,q],
    action_M(e_q)^T, action_N(e_p)) per nonzero C[p,q]."""
    _check_system_module(system, m, n_)
    c = system.element_matrix
    m_t = [rho.transpose() for rho in m.action]
    return n_.dim * m.dim, (
        (x, m_t[t % c.ncols], n_.action[t // c.ncols]) for t, x in c._scalars()
    )


def null_homotopy_operator(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep) -> Matrix:
    """The operator T above on vec(Hom_k(M, N)); its image is the null space."""
    amb, terms = _operator_terms(system, m, n_)
    return kron_sum(m.algebra.field, amb, amb, terms)


@dataclass
class StableHomResult:
    hom_dim: int
    null_dim: int
    stable_dim: int
    hom_basis: Subspace
    null_basis: Subspace
    coset_reps: list[Matrix]


def stable_hom(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep) -> StableHomResult:
    """Hom_A(M, N) modulo the image of T, with canonical coset representatives."""
    hom = hom_A(m, n_)
    amb, terms = _operator_terms(system, m, n_)
    f = m.algebra.field
    null = kron_image(f, amb, amb, terms)
    # complement_of raises NotASubspace if a null-homotopic map is not A-linear.
    # A row holds vec(H), which read row-major is H^T.
    reps = [Matrix(f, m.dim, n_.dim, _integers(f, row.items())).transpose()
            for row in hom.complement_of(null)[0]]
    return StableHomResult(hom.dim, null.dim, hom.dim - null.dim, hom, null, reps)


def factoring_ideal_oracle(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep) -> Subspace:
    """Maps M -> N factoring through the free cover of M, by direct composition.

    Every A-map F = A (x) M_0 -> N composed with the canonical embedding
    M -> F is a factoring map, and all factoring maps arise this way.  This
    is the definitional route, independent of the operator T.  As
    vec(H phi) = kron(phi^T, I) vec(H), the composites are the rows of
    Hom_A(F, N)'s basis times kron(phi, I), and the oracle is their span.
    """
    _check_system_module(system, m, n_)
    f = m.algebra.field
    free = free_module(m.algebra, m.dim)
    through = hom_A(free, n_)
    phi = canonical_embedding(system, m)
    composites = through.basis @ kron(phi, Matrix.identity(f, n_.dim))
    return composites.transpose().image_basis()


# shifts and Ext -----------------------------------------------------


def shift_plus(system: FrobeniusSystem, m: ModuleRep, steps: int = 1) -> ModuleRep:
    """Cokernel of the canonical embedding, iterated `steps` times."""
    if steps < 0:
        raise DimensionMismatch("steps must be >= 0")
    _check_system_module(system, m)
    cur = m
    for _ in range(steps):
        free = free_module(system.algebra, cur.dim)
        phi = canonical_embedding(system, cur)
        cur = quotient_module(free, phi.image_basis())
    return ModuleRep(cur.algebra, cur.dim, cur.action, name=f"{m.name}[+{steps}]")


def shift_minus(m: ModuleRep, steps: int = 1) -> ModuleRep:
    """Kernel of the multiplication map A (x) M_0 -> M, iterated."""
    if steps < 0:
        raise DimensionMismatch("steps must be >= 0")
    cur = m
    for _ in range(steps):
        free = free_module(cur.algebra, cur.dim)
        kernel = kron_kernel(free.algebra.field, cur.dim, free.dim, _surjection_terms(cur))
        cur = submodule(free, kernel)
    return ModuleRep(cur.algebra, cur.dim, cur.action, name=f"{m.name}[-{steps}]")


def stable_ext(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep, degree: int) -> StableHomResult:
    """Stable Ext^degree(M, N): shift N up for positive degrees, down for negative."""
    if degree == 0:
        return stable_hom(system, m, n_)
    if degree > 0:
        return stable_hom(system, m, shift_plus(system, n_, degree))
    return stable_hom(system, m, shift_minus(n_, -degree))


# stable center ------------------------------------------------------


def frobenius_ideal(system: FrobeniusSystem) -> Subspace:
    """Image of z |-> sum_i a_i z b_i = sum_p e_p z c_p, an ideal of the center."""
    alg = system.algebra
    c = system.element_matrix
    terms = [(1, left @ alg.right_mult_matrix(c.row(p))) for p, left in enumerate(alg.left)]
    return linear_combination(alg.field, alg.dim, alg.dim, terms).image_basis()


@dataclass
class StableCenterResult:
    center_dim: int
    ideal_dim: int
    stable_center_dim: int
    reps: list[tuple]
    mult_table: list[tuple[int, int, int, object]]
    center: Subspace
    ideal: Subspace


def stable_center(system: FrobeniusSystem) -> StableCenterResult:
    """Center of A modulo the Frobenius ideal, with its ring structure.

    The ideal lands in the center and absorbs central multiplication; both
    facts are checked and IdealClosureViolation reports any failure.  The
    returned ring structure lists products of the coset representatives
    in the coordinates that `complement_of` reads off the same reduction
    that picks them.  Products are left multiplication matrices applied to
    the stored sparse rows.
    """
    alg = system.algebra
    n, zero = alg.dim, alg.field.zero
    center = alg.center_basis()
    ideal = frobenius_ideal(system)
    if not center.contains_subspace(ideal):
        raise IdealClosureViolation("factoring ideal is not central")
    times = {c: alg.left_mult_matrix(_dense(z, n, zero)) for c, z in center.rows.items()}
    for s_i, left in enumerate(times.values()):
        for t_i, w in enumerate(ideal.rows.values()):
            if ideal._residual(_sparse_apply(left, w)):
                raise IdealClosureViolation(
                    "ideal not absorbing under central multiplication",
                    witness=(s_i, t_i),
                )
    reps, coords = center.complement_of(ideal)
    table: list[tuple[int, int, int, object]] = []
    for s, r in enumerate(reps):
        left = times[min(r)]  # the pivot of an RREF row is its first column
        for t, r2 in enumerate(reps):
            x = coords(_sparse_apply(left, r2))
            if x is None:
                raise IdealClosureViolation(
                    "central product escapes center + ideal", witness=(s, t)
                )
            table += [(s, t, c, y) for c, y in x]
    return StableCenterResult(
        center.dim, ideal.dim, center.dim - ideal.dim,
        [tuple(_dense(r, n, zero)) for r in reps], table, center, ideal,
    )


def stable_center_via_enveloping(system: FrobeniusSystem) -> int:
    """Stable endomorphisms of A as a bimodule over A (x) A^op."""
    env_sys = enveloping_system(system)
    bim = bimodule_regular(system.algebra)
    return stable_hom(env_sys, bim, bim).stable_dim


def enveloping_comparison(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep) -> tuple[int, int]:
    """(direct stable dim, stable dim of Hom_k(M, N) over A (x) A^op).

    The second route computes stable Hom from A (as a bimodule) into
    Hom_k(M, N); the two numbers must agree.  Hom_k(M, N) is built first, so
    its size bound (`hom_bimodule`) is checked before anything is solved.
    """
    _check_system_module(system, m, n_)
    hom = hom_bimodule(m, n_)
    direct = stable_hom(system, m, n_).stable_dim
    via = stable_hom(enveloping_system(system), bimodule_regular(system.algebra), hom).stable_dim
    return direct, via


# Tate degree zero for group algebras --------------------------------


@dataclass
class Tate0Result:
    invariants_dim: int
    norm_image_dim: int
    tate_dim: int


def _is_standard_group_system(system: FrobeniusSystem) -> bool:
    alg = system.algebra
    g = alg.group
    if g is None:
        return False
    n = alg.dim
    f = alg.field
    want_trace = tuple(f.one if i == g.identity else f.zero for i in range(n))
    if system.trace != want_trace:
        return False
    for i in range(n):
        if system.a_basis[i] != alg.basis_vector(i):
            return False
        if system.b_basis[i] != alg.basis_vector(g.inverse[i]):
            return False
    return True


def tate0(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep) -> Tate0Result:
    """Degree-zero Tate cohomology of Hom_k(M, N) for a group algebra.

    Invariants are the A-linear maps; the norm image is built straight from
    the group's multiplication table (sum over g of h |-> g h(g^-1 -)),
    independently of the Frobenius system's dual bases.
    """
    _check_system_module(system, m, n_)
    g = system.algebra.group
    if g is None or not _is_standard_group_system(system):
        raise NotAGroupAlgebra(
            "tate0 needs a group algebra with its standard system "
            "(identity-coefficient trace, dual bases g and g^-1)"
        )
    inv = hom_A(m, n_)
    amb = n_.dim * m.dim
    image = kron_image(system.algebra.field, amb, amb, [
        (1, m.action[g.inverse[gi]].transpose(), n_.action[gi])
        for gi in range(system.algebra.dim)
    ])
    # quotient_dim raises NotASubspace if the norm image is not invariant.
    return Tate0Result(inv.dim, image.dim, inv.quotient_dim(image))
