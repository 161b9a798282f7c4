"""Finite-dimensional left modules over a structure-constant algebra.

A module is its list of action matrices: action[i] is the matrix of the
i-th algebra basis element on the module's coordinate space.  Maps of
modules are handled downstream through vectorization; this module supplies
the constructions (regular, free, direct sum, sub, quotient), the two
canonical maps in and out of the free cover (`canonical_embedding`,
`_surjection_terms`), and the generating sets on which `stab` solves
(`_present`, `ModuleRep._dual_seeds`), each computed once per module.
Free modules on k generators use the (p, j) |-> p * k + j basis layout.
A submodule or quotient builds only the actions of A's generators and of
the basis elements that are not products of them; the others are derived
as products, rho(e_g e_j) = rho(e_g) rho(e_j) (`algebra._actions_by_products`).
`regular_module`, `free_module` and `bimodule_regular` return one shared
instance per tuple of argument values, as the catalog does.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from itertools import chain, compress
from typing import NamedTuple

from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    EmbeddingNotInjective,
    FieldMismatch,
    NotALinearMap,
    NotAModule,
    NotInvariant,
    ParseError,
)
from .algebra import MAX_FREE_ENTRIES, StructureAlgebra, enveloping, _require_keys
from .algebra import _actions_by_products, _check_entries, _first_failing, _product_failures
from .frobenius import FrobeniusSystem
from .linalg import Matrix, Subspace, kron, kron_sum, linear_combination
from .linalg import _canonical, _integers, _over_pivots, _rref, _rref_row, _sparse_apply

MODULE_FORMAT = "frobstab-module/1"

_SHARED_CACHES = []


def _clear_shared_instances() -> None:
    for cached in _SHARED_CACHES:
        cached.cache_clear()


def _one_instance_per_arguments(build):
    """`functools.cache` on the argument values, however they are passed.
    Its `cache_clear` clears every shared cache, here and in the catalog,
    since the instances of one are built over those of another."""
    cached = functools.cache(build)
    _SHARED_CACHES.append(cached)
    bind = inspect.signature(build).bind

    @functools.wraps(build)
    def shared(*args, **kwargs):
        return cached(*(bind(*args, **kwargs).args if kwargs else args))

    shared.cache_clear = _clear_shared_instances
    return shared


@dataclass(frozen=True)
class ModuleRep:
    algebra: StructureAlgebra
    dim: int
    action: tuple[Matrix, ...]
    name: str = "M"

    def __post_init__(self):
        if len(self.action) != self.algebra.dim:
            raise DimensionMismatch(
                f"need {self.algebra.dim} action matrices, got {len(self.action)}"
            )
        for m in self.action:
            if m.shape != (self.dim, self.dim):
                raise DimensionMismatch(f"action matrix shape {m.shape} != square {self.dim}")
            if m.field != self.algebra.field:
                raise FieldMismatch("action matrix over wrong field")

    def action_of(self, x: tuple) -> Matrix:
        """Matrix of the element with coefficient tuple x."""
        if len(x) != self.algebra.dim:
            raise DimensionMismatch("element length mismatch")
        return linear_combination(self.algebra.field, self.dim, self.dim, zip(x, self.action))

    def same_algebra(self, other: "ModuleRep") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatch(
                f"modules over different algebras ({self.name}, {other.name})"
            )

    @functools.cached_property
    def _presentation(self) -> "_Presentation":
        """`_present(self)`, computed once per instance."""
        return _present(self)

    @functools.cached_property
    def _dual_seeds(self) -> tuple[int, ...]:
        """Basis indices g, ascending, whose functionals e_g^* generate the
        dual M* = Hom_k(M, k) as a right A-module, where e_h^* e_q =
        e_h^* rho(e_q) is row h of rho(e_q); computed once per instance.

        e_g^* is kept iff it lies outside span{e_h^* rho(e_q)} over the h
        kept before it (`_seed_search` on the rows).  The search runs in
        reverse basis order: the dual of a cyclic module such as V_i over
        k[x]/(x^n) is generated by its last functional, and in basis order
        every functional would be kept.
        """
        f, d = self.algebra.field, self.dim
        return tuple(sorted(_seed_search(f, d, _lines(self, rows=True), reversed(range(d)))))

    @functools.cached_property
    def _at_dual_seeds(self) -> tuple[Matrix, ...]:
        """rho(e_q)[seeds, :]^T for each q, over the dual seeds g_1 < ... <
        g_s': the dim M x s' matrix whose column k is row g_k of rho(e_q),
        read off its stored nonzeros; computed once per instance."""
        at = {g: k for k, g in enumerate(self._dual_seeds)}
        d, s = self.dim, len(at)
        out = []
        for rho in self.action:
            den, nz = rho.nonzeros
            out.append(Matrix(rho.field, d, s, (den, [
                (t % d * s + at[g], x) for t, x in nz if (g := t // d) in at
            ])))
        return tuple(out)


class _Presentation(NamedTuple):
    """M as a quotient of A^s: `seeds` are the basis indices g_1 < ... <
    g_s of its generators; `relations` are the (q, K_q) with K_q[k, j] the
    coefficient of e_q in slot j of the k-th of `count` generators of
    ker pi; and every other basis vector is e_i = sum of S_q[i, j] rho(e_q)
    e_(g_j).  `preimages` is (D, by_seed): by_seed[j] lists the (i, q, y)
    with S_q[i, j] = y / D, as integers over the one denominator D (D = 1
    over GF(p))."""

    seeds: tuple[int, ...]
    count: int
    relations: tuple[tuple[int, Matrix], ...]
    preimages: tuple[int, tuple[tuple[tuple[int, int, int], ...], ...]]


def _present(m: ModuleRep) -> _Presentation:
    """A presentation of M on a generating set, found greedily in basis order.

    e_i becomes a seed iff it lies outside span{rho(e_q) e_g}, the
    submodule generated by the seeds g before it (`_seed_search`, one round
    per basis vector, so it ends even on input that is not a module).  One
    `_rref` of the rows [rho(e_q) e_(g_j) | e_(j,q)] over (j, q) then gives
    both halves: the row [v | c] holds pi(c) = v, so a row with pivot i <
    dim M holds a preimage of e_i, its RREF row read over one denominator
    (`_over_pivots`) and listed under the seeds it reaches, and the rows
    with pivot past dim M span ker pi.  Of those, a row is kept as a
    relation generator iff it lies outside span{e_q kappa}, the
    submodule generated by the kept ones, whose left multiples are read
    off the structure constants.
    """
    alg = m.algebra
    f, a, d = alg.field, alg.dim, m.dim
    p, one = f.characteristic, f.one
    cols = _lines(m)
    seeds = _seed_search(f, d, cols, range(d))
    s = len(seeds)
    rows = [{**col.get(g, {}), d + j * a + q: one}
            for j, g in enumerate(seeds) for q, col in enumerate(cols)]
    reduced = _rref(rows, p)
    kernel = [{t - d: x for t, x in row.items()} for c, row in reduced.items() if c >= d]
    gens = _greedy(f, s * a, kernel, lambda v: _left_multiples(alg, v))
    den, preimages = _over_pivots(row for c, row in reduced.items() if c < d and c not in seeds)
    by_seed: list[list] = [[] for _ in seeds]
    for row in preimages:
        i = min(row)
        for t, y in row.items():
            if t >= d:
                j, q = divmod(t - d, a)
                by_seed[j].append((i, q, y))
    return _Presentation(tuple(seeds), len(gens), _matrices(f, a, s, len(gens), enumerate(gens)),
                         (den, tuple(map(tuple, by_seed))))


def _matrices(f, a: int, s: int, nrows: int, rows) -> tuple[tuple[int, Matrix], ...]:
    """For (k, v) pairs, v in A^s as {j * a + q: x}, the (q, X_q) in q
    order with X_q the nrows x s matrix whose entry (k, j) is x."""
    by_q: dict[int, list] = {}
    for k, v in rows:
        for t, x in v.items():
            j, q = divmod(t, a)
            by_q.setdefault(q, []).append((k * s + j, x))
    return tuple((q, Matrix(f, nrows, s, _integers(f, nz))) for q, nz in sorted(by_q.items()))


def _lines(m: ModuleRep, rows: bool = False) -> list[dict]:
    """lines[q][g]: column g of rho(e_q), or row g with `rows`, as a sparse
    map {index: x} read from the stored nonzeros, so no `_sparse_cols` is
    cached on the actions."""
    d = m.dim
    lines: list[dict] = [{} for _ in m.action]
    for line, rho in zip(lines, m.action):
        for t, x in rho._scalars():
            i, g = divmod(t, d)
            if rows:
                i, g = g, i
            line.setdefault(g, {})[i] = x
    return lines


def _seed_search(f, d: int, lines: list[dict], order) -> list[int]:
    """The indices g, in `order`, whose unit vector e_g lies outside the
    span of lines[q][h] over every q and the h kept before g (`_greedy`):
    with the columns of the actions that span is the submodule the kept
    vectors generate, with their rows the right submodule of M* their
    functionals generate."""
    kept = _greedy(f, d, ({g: f.one} for g in order),
                   lambda v: [dict(line.get(min(v), ())) for line in lines])
    return [min(v) for v in kept]


def _greedy(f, ambient: int, candidates, generated) -> list[dict]:
    """The sparse candidates, in order, that lie outside the span of
    `generated(v)` over the v kept before them: one round per candidate,
    so it ends even where `generated` is no submodule."""
    kept, span = [], {}
    for v in candidates:
        if Subspace(f, ambient, span)._residual(v):
            kept.append(v)
            span = _rref([*map(dict, span.values()), *generated(v)], f.characteristic)
    return kept


def _left_multiples(alg: StructureAlgebra, v: dict) -> list[dict]:
    """e_q v for each basis index q, for v in A^s as {j * dim A + p: x},
    read off the structure constants; no multiplication matrix is built."""
    a, char = alg.dim, alg.field.characteristic
    out = []
    for cells in alg.cells:
        w: dict = {}
        for t, x in v.items():
            base = t - t % a
            for k, c in cells[t % a]:
                w[base + k] = w.get(base + k, 0) + x * c
        out.append(_canonical(w, char))
    return out


def validate_module(m: ModuleRep) -> None:
    """Unit acts as identity; products follow the structure constants.

    Precondition: m.algebra passes `validate()`, as the CLI checks on load.
    Then, with rho(1) = I, the i with rho(e_i) rho(x) = rho(e_i x) for all x
    are read by `_first_failing`, so NotAModule names the first failing
    product in basis order.
    """
    alg = m.algebra
    if m.action_of(alg.unit) != Matrix.identity(alg.field, m.dim):
        raise NotAModule("unit does not act as identity", witness="unit")
    i = _first_failing(alg, lambda i: any(_product_failures(alg, m.action, (i,))))
    if i is not None:
        _, j, _ = next(_product_failures(alg, m.action, (i,)))
        raise NotAModule(f"action breaks on basis product ({i},{j})", witness=(i, j))


@_one_instance_per_arguments
def regular_module(a: StructureAlgebra) -> ModuleRep:
    """A acting on itself by left multiplication."""
    return ModuleRep(a, a.dim, a.left, name="regular")


@_one_instance_per_arguments
def free_module(a: StructureAlgebra, k: int) -> ModuleRep:
    """A^k acting on the first tensor factor; BudgetExceeded above MAX_FREE_ENTRIES."""
    if k < 0:
        raise DimensionMismatch("negative rank")
    d = a.dim * k
    _check_entries(a.dim * d * d, d, f"dim {d} free module")
    ident = Matrix.identity(a.field, k)
    action = tuple(kron(left, ident) for left in a.left)
    return ModuleRep(a, d, action, name=f"free{k}")


def canonical_embedding(system: FrobeniusSystem, m: ModuleRep) -> Matrix:
    """Matrix of v |-> sum_p e_p (x) (c_p v) from M into A (x) M_0, for c_p
    row p of the Frobenius matrix C (`element_matrix`).

    `blocks` is one `kron_sum`, of C[p,q] kron(e_p, r_q) over the nonzeros
    of C, for e_p the unit column and r_q action_M(e_q) as one row; its row
    p is action_M(c_p) as one row, and phi, its nonzeros read as (dim A *
    dim M) x dim M, has the blocks action_M(c_p).  Both checks read `blocks`,
    and compare the products' nonzeros, not the matrices, whose shapes
    differ.  e_q acts on A (x) M_0 as kron(L(e_q), I), so block p of its
    product with phi is sum_s L(e_q)[p, s] block s, row p of L(e_q)
    `blocks`; phi intertwines iff that is phi action_M(e_q), checked on
    every basis element.  The trace splitting a (x) v |-> trace(a) v of
    phi is trace `blocks`, which must be I, so phi is injective.
    BudgetExceeded, as `free_module`, if A (x) M_0 is over MAX_FREE_ENTRIES.
    """
    alg = system.algebra
    if m.algebra != alg:
        raise AlgebraMismatch("module is not over the system's algebra")
    f, n, md = alg.field, alg.dim, m.dim
    _check_entries(n * (n * md) ** 2, n * md, f"dim {n * md} free module")
    rows = [Matrix(f, 1, md * md, rho.nonzeros) for rho in m.action]
    blocks = kron_sum(f, n, md * md, ((x, Matrix(f, n, 1, (1, [(t // n, 1)])), rows[t % n])
                                      for t, x in system.element_matrix._scalars()))
    phi = Matrix(f, n * md, md, blocks.nonzeros)
    for q, rho in enumerate(m.action):
        if (alg.left[q] @ blocks).nonzeros != (phi @ rho).nonzeros:
            raise NotALinearMap(f"embedding fails to intertwine basis {q}", witness=q)
    split = Matrix.dense(f, 1, n, system.trace) @ blocks
    if split.nonzeros != Matrix.identity(f, md).nonzeros:
        raise EmbeddingNotInjective("trace splitting does not recover the identity")
    return phi


def _surjection_terms(m: ModuleRep) -> list[tuple[int, Matrix, Matrix]]:
    """The (1, e_p^T, action_M(e_p)) terms whose Kronecker sum is the surjection."""
    alg = m.algebra
    return [(1, Matrix(alg.field, 1, alg.dim, (1, [(p, 1)])), rho)
            for p, rho in enumerate(m.action)]


def hom_bimodule(m: ModuleRep, n_: ModuleRep) -> ModuleRep:
    """Hom_k(M, N) as a module over A (x) A^op.

    Via vectorization, basis element e_i (x) e_j acts on vec(H) by
    kron(action_M(e_j)^T, action_N(e_i)), matching ((a (x) b) h)(v) = a h(b v).
    Its dim(A)^2 * d^2 entries, d = dim M * dim N, are bounded by MAX_FREE_ENTRIES.
    """
    m.same_algebra(n_)
    d = n_.dim * m.dim
    _check_entries(m.algebra.dim ** 2 * d * d, d, f"dim {d} Hom bimodule")
    env = enveloping(m.algebra)
    action = tuple(kron(mj.transpose(), ni) for ni in n_.action for mj in m.action)
    return ModuleRep(env, d, action, name=f"Hom({m.name},{n_.name})")


@_one_instance_per_arguments
def bimodule_regular(a: StructureAlgebra) -> ModuleRep:
    """A as a module over A (x) A^op: (a (x) b) x = a x b."""
    env = enveloping(a)
    action = tuple(left @ right for left in a.left for right in a.right)
    return ModuleRep(env, a.dim, action, name=f"{a.name}-bimodule")


def direct_sum(mods: list[ModuleRep]) -> ModuleRep:
    if not mods:
        raise DimensionMismatch("empty direct sum")
    first = mods[0]
    for other in mods[1:]:
        first.same_algebra(other)
    f = first.algebra.field
    total = sum(m.dim for m in mods)
    action = []
    for i in range(first.algebra.dim):
        pairs, off = [], 0
        for m in mods:
            for t, x in m.action[i]._scalars():
                r, c = divmod(t, m.dim)
                pairs.append(((off + r) * total + off + c, x))
            off += m.dim
        action.append(Matrix(f, total, total, _integers(f, pairs)))
    name = "+".join(m.name for m in mods)
    return ModuleRep(first.algebra, total, tuple(action), name=name)


def _require_invariant(m: ModuleRep, sub: Subspace, rows: list[dict]) -> dict[int, list[dict]]:
    """NotInvariant unless rho(e_i) keeps sub for each i, witnessed by the
    first basis index that moves it (`_first_failing`, over `rows`, a basis
    of sub).  Returns the images it computed, {i: [rho(e_i) v for v in
    rows]}, which hold every generator.  Precondition: M is a module."""
    if sub.ambient != m.dim:
        raise DimensionMismatch("subspace of the wrong ambient space")
    images = {}

    def moves(i):
        images[i] = [_sparse_apply(m.action[i], v) for v in rows]
        return any(sub._residual(w) for w in images[i])

    i = _first_failing(m.algebra, moves)
    if i is not None:
        raise NotInvariant(f"subspace not stable under basis {i}", witness=i)
    return images


def submodule(m: ModuleRep, sub: Subspace) -> ModuleRep:
    """Restrict the action to an invariant subspace, in its canonical basis:
    column t of action i is rho(e_i) v_t, for v_t the t-th RREF row, read
    at the pivots.  That is built for the generators, from the images that
    `_require_invariant` computed, and for the indices that are not
    products; every other action is derived as a product of built ones
    (`_actions_by_products`).  Precondition: M is a module; NotInvariant as
    `_require_invariant`."""
    f, d = m.algebra.field, sub.dim
    vectors = [_rref_row(v, f.characteristic) for v in sub.rows.values()]
    images = _require_invariant(m, sub, vectors)
    at = {pc: s * d for s, pc in enumerate(sub.pivots)}

    def build(i):
        ws = images[i] if i in images else [_sparse_apply(m.action[i], v) for v in vectors]
        nz = [(at[pc] + t, w[pc]) for t, w in enumerate(ws) for pc in w.keys() & at.keys()]
        return Matrix(f, d, d, _integers(f, nz))

    return ModuleRep(m.algebra, d, _actions_by_products(m.algebra, d, build),
                     name=f"{m.name}|sub{d}")


def quotient_module(m: ModuleRep, sub: Subspace) -> ModuleRep:
    """Action on M / sub, coordinatized by the non-pivot coset representatives.

    M / sub is a module only if sub is a submodule, which
    `_require_invariant` checks on the generators.  Column q of an action
    is the residual of rho's sparse column q.  That is built for the
    generators and the indices that are not products; every other action is
    derived as a product of built ones (`_actions_by_products`).
    """
    f = m.algebra.field
    _require_invariant(m, sub, [_rref_row(v, f.characteristic) for v in sub.rows.values()])
    piv = set(sub.pivots)
    at = {q: s for s, q in enumerate(q for q in range(m.dim) if q not in piv)}
    n = len(at)

    def build(i):
        cols = m.action[i]._sparse_cols
        nz = [(at[r] * n + b, x) for q, b in at.items()
              for r, x in sub._residual(dict(cols[q])).items()]
        return Matrix(f, n, n, _integers(f, nz))

    return ModuleRep(m.algebra, n, _actions_by_products(m.algebra, n, build),
                     name=f"{m.name}/sub{sub.dim}")


# JSON ---------------------------------------------------------------


def _matrix_texts(mat: Matrix) -> list[list[str]]:
    """The rows of mat as scalar texts: "0" in every cell, then `to_str`
    once per stored nonzero."""
    n, to_str = mat.ncols, mat.field.to_str
    rows = [["0"] * n for _ in range(mat.nrows)]
    for t, x in mat._scalars():
        rows[t // n][t % n] = to_str(x)
    return rows


def module_to_json(m: ModuleRep) -> dict:
    return {
        "format": MODULE_FORMAT,
        "name": m.name,
        "algebra": m.algebra.name,
        "dim": m.dim,
        "action": [_matrix_texts(mat) for mat in m.action],
    }


def module_from_json(obj, algebra: StructureAlgebra, accept_names=None) -> ModuleRep:
    """Strict parse; the named algebra must match algebra.name or accept_names."""
    _require_keys(obj, {"format", "name", "algebra", "dim", "action"}, set(), "module")
    if obj["format"] != MODULE_FORMAT:
        raise ParseError(f"unsupported format {obj['format']!r}")
    if not isinstance(obj["name"], str) or not isinstance(obj["algebra"], str):
        raise ParseError("module name and algebra reference must be strings")
    accepted = {algebra.name} | set(accept_names or ())
    if obj["algebra"] not in accepted:
        raise AlgebraMismatch(
            f"module references algebra {obj['algebra']!r}, loaded {algebra.name!r}",
            witness=obj["algebra"],
        )
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError(f"bad dim {dim!r}")
    act = obj["action"]
    if not isinstance(act, list) or len(act) != algebra.dim:
        raise ParseError(f"action must list {algebra.dim} matrices")
    f, texts = algebra.field, []
    try:  # parsed in `finally`: a malformed scalar before a misshapen matrix is raised first
        for mat in act:
            if not isinstance(mat, list) or len(mat) != dim:
                raise ParseError("action matrix has wrong row count")
            if not all(isinstance(row, list) and len(row) == dim for row in mat):
                raise ParseError("action matrix has wrong column count")
            texts.extend(chain.from_iterable(mat))
    finally:
        values = f.parse_many(texts)
    n, nz = dim * dim, [[] for _ in act]
    for t, x in compress(enumerate(values), values):
        nz[t // n].append((t % n, x))
    return ModuleRep(algebra, dim, tuple(Matrix(f, dim, dim, _integers(f, pairs)) for pairs in nz),
                     name=obj["name"])
