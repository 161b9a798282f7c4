"""Seeded input generation and answer digests for the frobstab benchmark.

Nothing here imports the frobstab package: the benchmark writes the
algebra and module files itself (in the package's JSON formats) and
canonicalizes subspaces with its own exact row reduction, so a change to
the package's arithmetic cannot change the inputs or the reference digests.

Scalars are ints mod p over GF(p) and `Fraction`s over Q (p = 0).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def field_json(p: int) -> dict:
    return {"kind": "rational"} if p == 0 else {"kind": "prime", "p": p}


def scalar_str(x, p: int) -> str:
    if p:
        return str(x % p)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def trunc_algebra(n: int, p: int) -> dict:
    """k[x]/(x^n) on the basis 1, x, ..., x^(n-1), with the top-coefficient trace."""
    return {
        "format": "frobstab-algebra/1",
        "name": f"trunc_poly_{n}",
        "field": field_json(p),
        "dim": n,
        "unit": ["1"] + ["0"] * (n - 1),
        "mult": [[i, j, i + j, "1"] for i in range(n) for j in range(n) if i + j < n],
        "trace": ["0"] * (n - 1) + ["1"],
    }


def trunc_actions(n: int, i: int) -> list[list[list[int]]]:
    """Action matrices of x^0..x^(n-1) on V_i = k[x]/(x^(i+1))."""
    d = i + 1
    mats = []
    for j in range(n):
        rows = [[0] * d for _ in range(d)]
        for c in range(d - j):
            rows[c + j][c] = 1
        mats.append(rows)
    return mats


def regular_actions(mult) -> list[list[list[int]]]:
    """Left regular action of a group given by its table mult[g][h] = gh."""
    n = len(mult)
    mats = []
    for g in range(n):
        rows = [[0] * n for _ in range(n)]
        for h in range(n):
            rows[mult[g][h]][h] = 1
        mats.append(rows)
    return mats


def module(name: str, algebra: str, actions, p: int) -> dict:
    d = len(actions[0]) if actions else 0
    return {
        "format": "frobstab-module/1",
        "name": name,
        "algebra": algebra,
        "dim": d,
        "action": [[[scalar_str(x, p) for x in row] for row in mat] for mat in actions],
    }


# exact linear algebra over Q and GF(p) ---------------------------------


def _inv(x, p: int):
    return pow(x, -1, p) if p else 1 / Fraction(x)


def rref(rows, ncols: int, p: int) -> list[list]:
    """Reduced row echelon basis of the span of `rows`, zero rows dropped."""
    rows = [[(x % p) if p else Fraction(x) for x in r] for r in rows]
    out = 0
    for c in range(ncols):
        pr = next((i for i in range(out, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[out], rows[pr] = rows[pr], rows[out]
        inv = _inv(rows[out][c], p)
        piv = [x * inv for x in rows[out]]
        if p:
            piv = [x % p for x in piv]
        rows[out] = piv
        for i in range(len(rows)):
            g = rows[i][c]
            if i != out and g:
                rows[i] = [x - g * y for x, y in zip(rows[i], piv)]
                if p:
                    rows[i] = [x % p for x in rows[i]]
        out += 1
    return rows[:out]


def matmul(a, b):
    return [[sum(x * b[t][j] for t, x in enumerate(row) if x) for j in range(len(b[0]))]
            for row in a]


def random_invertible(rng, d: int) -> tuple[list, list]:
    """A random d x d matrix with entries in [-3, 3] and its inverse over Q."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        aug = rref([row + [int(i == j) for j in range(d)] for i, row in enumerate(m)], 2 * d, 0)
        if len(aug) == d and all(aug[i][i] == 1 for i in range(d)):
            return [[Fraction(x) for x in row] for row in m], [row[d:] for row in aug]


def conjugate(actions, pm, pm_inv):
    """P^-1 A P for every action matrix: the same module in the basis given by P's columns."""
    return [matmul(pm_inv, matmul(a, pm)) for a in actions]


def unvec(v, nrows: int, ncols: int):
    """Column-major vector -> nrows x ncols matrix (the package's `vec` layout)."""
    return [[v[j * nrows + i] for j in range(ncols)] for i in range(nrows)]


def vec(m) -> list:
    return [m[i][j] for j in range(len(m[0])) for i in range(len(m))]


def digest(rows, p: int) -> str:
    """Short hash of rows of scalars (written canonically) and strings."""
    text = json.dumps([[x if isinstance(x, str) else scalar_str(x, p) for x in r] for r in rows],
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
