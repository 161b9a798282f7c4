"""Stable morphism spaces over a Frobenius system.

Every function here takes modules, as `validate_module` checks them; a
`ModuleRep` that breaks the module axioms can give wrong answers.

The stable Hom between modules M, N is Hom_A(M, N) (`hom_A`) modulo the
maps that factor through a projective (equivalently injective) module.
With the system's Frobenius matrix C (`element_matrix`), whose rows c_i
and the basis e_i are a pair of dual bases, those maps are the image of

    T : Hom_k(M, N) -> Hom_k(M, N),   T(h) = sum_i e_i h(c_i -)
                                          = sum_{p,q} C[p,q] e_p h(e_q -),

which acts on vectorized maps as sum_{p,q} C[p,q] kron(action_M(e_q)^T,
action_N(e_p)): one Kronecker term per nonzero of C, read off the module
actions as they are (`null_homotopy_operator`; `stable_hom` spans its
image on a few columns).  `factoring_ideal_oracle` recomputes the same
subspace along the definition, as the maps that factor through N's free
cover, and reads no C; the two routes are compared, never merged.

Shifts are cokernel/kernel of the canonical embedding/multiplication maps,
iterated for stable Ext in either direction.  The stable center is the
ordinary center modulo the ideal sum_p e_p z c_p, with a second route
through endomorphisms of A as a bimodule over A (x) A^op.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    IdealClosureViolation,
    NotAGroupAlgebra,
)
from .catalog import group_algebra
from .algebra import _integer_cells, _sum_of_products
from .frobenius import FrobeniusSystem, enveloping_system
from .linalg import Matrix, Subspace, kron, kron_image, kron_kernel, kron_sum
from .linalg import _dense, _over_pivots, _row_images, _rref
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
    that on load.  It is solved on M's presentation (`modrep._present`):
    seeds g_1 < ... < g_s generate M, and an A-map H is fixed by the n_j =
    H e_(g_j), which may be any (n_1 ... n_s) in N^s with sum_(j,q)
    kappa[j,q] rho_N(e_q) n_j = 0 for each relation generator kappa.
    These s dim N unknowns, ordered (j, row), are the common kernel of the
    Kronecker terms (1, K_q, rho_N(e_q)), solved by one `kron_kernel`.

    Each stored kernel row u is mapped to vec(H) directly: H e_(g_j) = n_j,
    and H e_i = sum of S_q[i, j] rho_N(e_q) n_j over the (i, q, S_q[i, j])
    that the presentation lists for seed j, with S_q and rho_N(e_q) read
    as integers over one common denominator.  The seeds are greedy in
    basis order, so every e_i with i < g_j lies in the submodule generated
    by g_1 ... g_(j-1); if u leads at (j, r), H vanishes on it and vec(H)
    leads at (g_j, r) with u's entry.  So the leading positions keep their
    order, and each pivot entry of vec(H) is the matching entry of u: the
    kernel's RREF rows go to the RREF rows of Hom_A(M, N), with no second
    reduction (`linalg._row_images`, which over Q divides each row by its
    content and over GF(p) reduces it mod p).
    """
    m.same_algebra(n_)
    pres = m._presentation
    f, s, dn = m.algebra.field, len(pres.seeds), n_.dim
    kernel = kron_kernel(f, pres.count * dn, s * dn, [
        (1, k_q, n_.action[q]) for q, k_q in pres.relations
    ])
    den, by_seed = pres.preimages
    used = {q for terms in by_seed for _, q, _ in terms}
    d = den * lcm(*[n_.action[q].nonzeros[0] for q in used])
    cols: dict[int, list] = {}  # column l of rho_N(e_q), times d / den, as (k, int) pairs
    for q in used:
        dq, nz = n_.action[q].nonzeros
        scale = d // (den * dq)
        cols[q] = col = [[] for _ in range(dn)]
        for t, z in nz:
            col[t % dn].append((t // dn, z * scale))

    def image(u: dict) -> dict:
        w = {}
        for t, x in u.items():  # x is entry l of n_j
            j, l = divmod(t, dn)
            w[pres.seeds[j] * dn + l] = d * x
            for i, q, y in by_seed[j]:
                base, y = i * dn, y * x
                for k, z in cols[q][l]:
                    w[base + k] = w.get(base + k, 0) + y * z
        return w

    return _row_images(kernel, m.dim * dn, image)


def _operator_terms(system: FrobeniusSystem, m_t, n_: ModuleRep):
    """The Kronecker terms of T: one (C[p,q], m_t[q], action_N(e_p)) per
    nonzero C[p,q], for m_t[q] = action_M(e_q)^T or some of its columns."""
    c = system.element_matrix
    return ((x, m_t[t % c.ncols], n_.action[t // c.ncols]) for t, x in c._scalars())


def null_homotopy_operator(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep) -> Matrix:
    """The operator T above on vec(Hom_k(M, N)); its image is the null space."""
    _check_system_module(system, m, n_)
    amb = n_.dim * m.dim
    m_t = [rho.transpose() for rho in m.action]
    return kron_sum(m.algebra.field, amb, amb, _operator_terms(system, m_t, n_))


@dataclass
class StableHomResult:
    hom_dim: int
    null_dim: int
    stable_dim: int
    hom_basis: Subspace
    null_basis: Subspace
    coset_reps: list[Matrix]


def stable_hom(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep) -> StableHomResult:
    """Hom_A(M, N) modulo the image of T, with canonical coset representatives.

    The image of T is spanned by T(e_r e_g^*), for e_r a basis of N and
    e_g^* the functionals of M's dual seeds (`ModuleRep._dual_seeds`):
    s' dim N columns of T, not dim M dim N.  With nu the Nakayama
    automorphism, trace(u x) = trace(nu(x) u), the dual bases satisfy
    sum_i e_i x (x) c_i = sum_i e_i (x) nu(x) c_i, so

        T(rho_N(x) h) = T(h rho_M(nu(x))).

    The e_g^* generate M* as a right A-module, so every map is a sum of
    maps e_r e_g^* rho_M(y), and T(e_r e_g^* rho_M(y)) = T((rho_N(nu^-1(y))
    e_r) e_g^*) lies in the span.  So the image is the canonical subspace
    that all of T's columns span.
    """
    _check_system_module(system, m, n_)
    hom = hom_A(m, n_)
    f = m.algebra.field
    null = kron_image(f, n_.dim * m.dim, len(m._dual_seeds) * n_.dim,
                      _operator_terms(system, m._at_dual_seeds, n_))
    # _complement raises NotASubspace if a null-homotopic map is not A-linear.
    # Its kept rows are stored rows, read over one denominator; a row holds
    # vec(H), which read row-major is H^T.
    den, rows = _over_pivots(hom._complement(null)[0])
    reps = [Matrix(f, m.dim, n_.dim, (den, row.items())).transpose() for row in rows]
    return StableHomResult(hom.dim, null.dim, hom.dim - null.dim, hom, null, reps)


def factoring_ideal_oracle(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep) -> Subspace:
    """Maps M -> N that factor through a projective, as composites with N's free cover.

    The multiplication map pi: F = A (x) N_0 -> N is onto and F is free.
    In a map M -> P -> N through a projective P, P -> N lifts along pi, so
    the map is pi g for an A-map g: M -> F; and every pi g factors through
    F.  As rows, vec(pi g) = vec(g) kron(I, pi^T), so the factoring maps
    are the rows of Hom_A(M, F)'s basis times kron(I, pi^T), and the
    oracle is their span.  It reads neither C, the trace nor the embedding.
    """
    _check_system_module(system, m, n_)
    f = m.algebra.field
    free = free_module(m.algebra, n_.dim)
    pi = kron_sum(f, n_.dim, free.dim, _surjection_terms(n_))
    composites = hom_A(m, free).basis @ kron(Matrix.identity(f, m.dim), pi.transpose())
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
    """Image of tau(z) = sum_p e_p z c_p, an ideal of the center.

    It is spanned by the columns tau(e_j) = sum_q b_q e_q, where b_q = sum_p
    C[p,q] e_p e_j is summed off the cells[p][j]: one sparse product
    (`algebra._sum_of_products`, in `_integer_cells`) per column, and one
    `_rref`.  Summing over p first keeps a column to dim A^3 cell reads
    when every cell is dense."""
    alg = system.algebra
    n, p = alg.dim, alg.field.characteristic
    cells = _integer_cells(alg)
    c_rows: dict[int, list] = {}
    for t, x in system.element_matrix.nonzeros[1]:
        c_rows.setdefault(t // n, []).append((t % n, x))
    cols = []
    for j in range(n):
        b: dict[int, dict] = {}
        for r, c_r in c_rows.items():
            cell = cells[r][j]
            if not cell:
                continue
            for q, x in c_r:
                b_q = b.setdefault(q, {})
                for k, z in cell:
                    b_q[k] = b_q.get(k, 0) + x * z
        cols.append(_sum_of_products(cells, p, [(b_q.items(), ((q, 1),)) for q, b_q in b.items()]))
    return Subspace(alg.field, n, _rref(cols, p))


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
    facts are checked, the second on every center row times every ideal
    row, and IdealClosureViolation reports any failure.  The returned ring
    structure lists products of the coset representatives in the
    coordinates that `complement_of` reads off the same reduction that
    picks them.  The representatives lie in `center_basis`, the commutant
    of the generators, so they commute: each pair s <= t is multiplied and
    read once, and (s, t) for t < s copies (t, s).  The first pair in (s, t)
    order whose product escapes has s <= t, and is the witness.  Products
    are sparse (`algebra._sum_of_products`); the absorption check, which
    only tests membership, reads them in `_integer_cells`.
    """
    alg = system.algebra
    n, zero, p = alg.dim, alg.field.zero, alg.field.characteristic
    center = alg.center_basis()
    ideal = frobenius_ideal(system)
    if not center.contains_subspace(ideal):
        raise IdealClosureViolation("factoring ideal is not central")
    cells = _integer_cells(alg)
    for s_i, z in enumerate(center.rows.values()):
        for t_i, w in enumerate(ideal.rows.values()):
            if ideal._residual(_sum_of_products(cells, p, [(z.items(), w.items())])):
                raise IdealClosureViolation(
                    "ideal not absorbing under central multiplication",
                    witness=(s_i, t_i),
                )
    reps, coords = center.complement_of(ideal)
    k = len(reps)
    products: dict[tuple[int, int], list] = {}
    for s in range(k):
        for t in range(s, k):
            x = coords(_sum_of_products(alg.cells, p, [(reps[s].items(), reps[t].items())]))
            if x is None:
                raise IdealClosureViolation(
                    "central product escapes center + ideal", witness=(s, t)
                )
            products[s, t] = products[t, s] = x
    table = [(s, t, c, y) for s in range(k) for t in range(k) for c, y in products[s, t]]
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
    g = system.algebra.group
    if g is None:
        return False
    standard = group_algebra(g, system.algebra.field).system
    return system.trace == standard.trace and system.element_matrix == standard.element_matrix


def tate0(system: FrobeniusSystem, m: ModuleRep, n_: ModuleRep) -> Tate0Result:
    """Degree-zero Tate cohomology of Hom_k(M, N) for a group algebra.

    Invariants are the A-linear maps; the norm image is built straight from
    the group's multiplication table (sum over g of h |-> g h(g^-1 -)),
    independently of the Frobenius matrix C.  As for T in
    `stable_hom`, N(rho_N(k) h) = N(h rho_M(k)) for every k in the group
    (substitute g k for g), so the norm image is spanned by N(e_r e_g^*)
    over M's dual seeds: s' dim N columns.
    """
    _check_system_module(system, m, n_)
    g = system.algebra.group
    if g is None or not _is_standard_group_system(system):
        raise NotAGroupAlgebra(
            "tate0 needs a group algebra with its standard system "
            "(identity-coefficient trace, dual bases g and g^-1)"
        )
    inv = hom_A(m, n_)
    m_t = m._at_dual_seeds
    image = kron_image(system.algebra.field, n_.dim * m.dim, len(m._dual_seeds) * n_.dim, [
        (1, m_t[g.inverse[gi]], n_.action[gi]) for gi in range(system.algebra.dim)
    ])
    # quotient_dim raises NotASubspace if the norm image is not invariant.
    return Tate0Result(inv.dim, image.dim, inv.quotient_dim(image))
