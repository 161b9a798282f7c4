"""Finite-dimensional left modules over a structure-constant algebra.

A module is its list of action matrices: action[i] is the matrix of the
i-th algebra basis element on the module's coordinate space.  Maps of
modules are handled downstream through vectorization; this module supplies
the constructions (regular, free, direct sum, sub, quotient) and the two
canonical maps in and out of the free cover:

* the embedding M -> A (x) M_0, v |-> sum_i a_i (x) (b_i v) =
  sum_p e_p (x) (c_p v) with c_p the rows of the Frobenius matrix C, split
  by a (x) v |-> trace(a) v.  Its blocks action_M(c_p) are the rows of
  one product C R, built from the actions' cached nonzeros, which both of
  its checks read; and
* the multiplication surjection A (x) M_0 -> M, a (x) v |-> a v, as the
  Kronecker terms (`_surjection_terms`) whose common kernel is Omega M.

Free modules on k generators use the (p, j) |-> p * k + j basis layout.
Sub- and quotient modules read the actions' sparse columns and build
their actions from the nonzeros they find, a `Matrix`'s one stored form,
so a shift step costs O(nnz) and writes no dense tuple.

Each module computes once, on first use, a presentation on a generating
set (`_present`): the seeds g_1 < ... < g_s, a preimage in A^s of each
other basis vector under pi: A^s -> M, (a_j) |-> sum_j a_j e_(g_j), and
A-module generators of ker pi, which is Omega M.  It also computes once
the seeds of its dual M* as a right A-module (`ModuleRep._dual_seeds`),
by the same greedy search (`_seed_search`) on the rows of the actions,
in reverse basis order, and the rows of the actions at those seeds
(`ModuleRep._at_dual_seeds`), on which `stab` spans the image of T.
`regular_module`, `free_module` and `bimodule_regular` return one shared
instance per tuple of argument values, as the catalog does, so what is
cached on them is computed once per process.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from math import lcm
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
from .algebra import _check_entries, _product_failures
from .frobenius import FrobeniusSystem
from .linalg import Matrix, Subspace, kron, linear_combination
from .linalg import _canonical, _integers, _rref, _rref_row, _sparse_apply

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
    ker pi; and M's basis vectors are read back from A^s as e_(g_j) =
    E[:, j] and, for the other i, e_i = sum of S_q[i, j] rho(e_q) e_(g_j)
    over the (q, S_q) in `preimages`."""

    seeds: tuple[int, ...]
    count: int
    relations: tuple[tuple[int, Matrix], ...]
    at_seeds: Matrix
    preimages: tuple[tuple[int, Matrix], ...]


def _present(m: ModuleRep) -> _Presentation:
    """A presentation of M on a generating set, found greedily in basis order.

    e_i becomes a seed iff it lies outside span{rho(e_q) e_g}, the
    submodule generated by the seeds g before it (`_seed_search`, one round
    per basis vector, so it ends even on input that is not a module).  One
    `_rref` of the rows [rho(e_q) e_(g_j) | e_(j,q)] over (j, q) then gives
    both halves: the row [v | c] holds pi(c) = v, so a row with pivot i <
    dim M holds a preimage of e_i, read as its RREF row (`_rref_row`), and
    the rows with pivot past dim M span ker pi.  Of those, a row is kept as
    a relation generator iff it lies outside span{e_q kappa}, the
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
    reduced = _rref(rows, d + s * a, p)
    kernel = [{t - d: x for t, x in row.items()} for c, row in reduced.items() if c >= d]
    gens = _greedy(f, s * a, kernel, lambda v: _left_multiples(alg, v))
    preimages = [(c, {t - d: x for t, x in _rref_row(row, p).items() if t >= d})
                 for c, row in reduced.items() if c < d and c not in seeds]
    at_seeds = Matrix(f, d, s, (1, [(g * s + j, 1) for j, g in enumerate(seeds)]))
    return _Presentation(tuple(seeds), len(gens), _matrices(f, a, s, len(gens), enumerate(gens)),
                         at_seeds, _matrices(f, a, s, d, preimages))


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
        if Subspace(f, ambient, span)._residual(dict(v)):
            kept.append(v)
            span = _rref([*map(dict, span.values()), *generated(v)], ambient, f.characteristic)
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
    Then, with rho(1) = I, g in `generators` suffices: the a with rho(a) rho(x)
    = rho(a x) for all x form a subspace holding 1 and closed under left
    multiplication by g, as rho(g a) rho(x) = rho(g (a x)) = rho((g a) x), so it
    holds the words in the generators.  Only on failure is every (i, j) read,
    so NotAModule names the first failing product in basis order.
    """
    alg = m.algebra
    if m.action_of(alg.unit) != Matrix.identity(alg.field, m.dim):
        raise NotAModule("unit does not act as identity", witness="unit")
    if any(_product_failures(alg, m.action, alg.generators)):
        i, j, _ = next(_product_failures(alg, m.action, range(alg.dim)))
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
    """Matrix of v |-> sum_i a_i (x) (b_i v) from M into A (x) M_0.

    As sum_i a_i (x) b_i = sum_p e_p (x) c_p, for c_p row p of the Frobenius
    matrix C (`element_matrix`), block p of the rows is action_M(c_p): row p
    of `blocks` = C R, where row r of R is action_M(e_r) flattened.  R is
    built from the actions' stored nonzeros, and phi is `blocks`'s
    nonzeros read as (dim A * dim M) x dim M.  Both checks read `blocks`,
    and compare the products' nonzeros, not the matrices, whose shapes
    differ.  e_q acts on A (x) M_0 as kron(L(e_q), I), so block p of its
    product with phi is sum_s L(e_q)[p, s] block s, row p of L(e_q)
    `blocks`; phi intertwines iff that is phi action_M(e_q).  The trace
    splitting a (x) v |-> trace(a) v of phi is trace `blocks`, which must
    be I, so phi is injective.  BudgetExceeded, as `free_module`, if
    A (x) M_0 is over MAX_FREE_ENTRIES.
    """
    alg = system.algebra
    if m.algebra != alg:
        raise AlgebraMismatch("module is not over the system's algebra")
    f, n, md = alg.field, alg.dim, m.dim
    _check_entries(n * (n * md) ** 2, n * md, f"dim {n * md} free module")
    ints = [rho.nonzeros for rho in m.action]
    d, sq = lcm(*[dr for dr, _ in ints]), md * md
    rows = Matrix(f, n, sq, (d, [
        (r * sq + t, x * (d // dr)) for r, (dr, nz) in enumerate(ints) for t, x in nz
    ]))
    blocks = system.element_matrix @ rows
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
        rows, off = [], 0
        for m in mods:
            left, right = (f.zero,) * off, (f.zero,) * (total - off - m.dim)
            rows.extend(left + m.action[i].row(r) + right for r in range(m.dim))
            off += m.dim
        action.append(Matrix.from_rows(f, rows, ncols=total))
    name = "+".join(m.name for m in mods)
    return ModuleRep(first.algebra, total, tuple(action), name=name)


def _restricted_action(m: ModuleRep, sub: Subspace) -> tuple[Matrix, ...]:
    """Each basis action restricted to sub, in its canonical basis, column t
    being rho v_t (over rho's sparse columns) read at the pivots; raises
    NotInvariant, witnessed by the first basis index that leaves sub."""
    if sub.ambient != m.dim:
        raise DimensionMismatch("subspace of the wrong ambient space")
    f, d = m.algebra.field, sub.dim
    at = {pc: s * d for s, pc in enumerate(sub.pivots)}
    p = f.characteristic
    vectors = [_rref_row(v, p) for v in sub.rows.values()]
    action = []
    for i, rho in enumerate(m.action):
        nz = []
        for t, v in enumerate(vectors):
            w = _sparse_apply(rho, v)
            nz += [(at[pc] + t, w[pc]) for pc in w.keys() & at.keys()]
            if sub._residual(w):
                raise NotInvariant(f"subspace not stable under basis {i}", witness=i)
        action.append(Matrix(f, d, d, _integers(f, nz)))
    return tuple(action)


def submodule(m: ModuleRep, sub: Subspace) -> ModuleRep:
    """Restrict the action to an invariant subspace, in its canonical basis."""
    action = _restricted_action(m, sub)
    return ModuleRep(m.algebra, sub.dim, action, name=f"{m.name}|sub{sub.dim}")


def quotient_module(m: ModuleRep, sub: Subspace) -> ModuleRep:
    """Action on M / sub, coordinatized by the non-pivot coset representatives.

    M / sub is a module only if sub is a submodule.  M is a module and the
    words in `algebra.generators` span A, so sub is one if each generator
    keeps it.  Only if one does not is every basis element read, so that
    NotInvariant names the first basis index that moves sub.  Column q of
    an action is the residual of rho's sparse column q.
    """
    if sub.ambient != m.dim:
        raise DimensionMismatch("subspace of the wrong ambient space")
    if any(sub._residual(_sparse_apply(m.action[g], v))
           for g in m.algebra.generators for v in sub.rows.values()):
        _restricted_action(m, sub)  # raises NotInvariant
    f = m.algebra.field
    piv = set(sub.pivots)
    at = {q: s for s, q in enumerate(q for q in range(m.dim) if q not in piv)}
    n = len(at)
    action = []
    for rho in m.action:
        nz = [(at[r] * n + b, x) for q, b in at.items()
              for r, x in sub._residual(dict(rho._sparse_cols[q])).items()]
        action.append(Matrix(f, n, n, _integers(f, nz)))
    return ModuleRep(m.algebra, n, tuple(action), name=f"{m.name}/sub{sub.dim}")


# JSON ---------------------------------------------------------------


def module_to_json(m: ModuleRep) -> dict:
    fmt = m.algebra.field.to_str
    return {
        "format": MODULE_FORMAT,
        "name": m.name,
        "algebra": m.algebra.name,
        "dim": m.dim,
        "action": [
            [[fmt(x) for x in mat.row(r)] for r in range(m.dim)]
            for mat in m.action
        ],
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
    f = algebra.field
    mats = []
    for mat in act:
        if not isinstance(mat, list) or len(mat) != dim:
            raise ParseError("action matrix has wrong row count")
        texts = []
        for row in mat:
            if not isinstance(row, list) or len(row) != dim:
                raise ParseError("action matrix has wrong column count")
            texts.extend(row)
        mats.append(Matrix.dense(f, dim, dim, tuple(f.parse_many(texts))))
    return ModuleRep(algebra, dim, tuple(mats), name=obj["name"])
