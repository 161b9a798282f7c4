"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Rational scalars are `fractions.Fraction` values (auto-reduced, positive
denominator); GF(p) scalars are plain ints in [0, p).  A `Field` instance
owns parsing, formatting and arithmetic for its scalars, so values stay
canonical and scalar equality is plain ``==``.  The operations are bound
once per field: `zero`, `one`, `add`, `sub`, `mul` and `neg` are attributes
set on construction (the `operator` functions over Q, functions of p over
GF(p)), so arithmetic never tests which kind of field it is in.  A zero
from `from_int` or `parse` over Q is the field's `zero` object itself,
which the integer routes of `linalg` skip by identity; `rationals()` and
`prime(p)` return one shared instance each, so that object is the same for
every caller.

Scalar text format: ``"a"`` or ``"a/b"`` with integer a, positive integer b,
reduced to lowest terms on input.  Prime fields only accept the integer
form; negative integers are reduced mod p.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial

from .errors import BudgetExceeded, DivisionByZero, NotPrime, ParseError

RATIONAL = "rational"
PRIME = "prime"

_INT_RE = re.compile(r"-?[0-9]+\Z")
_FRAC_RE = re.compile(r"(-?[0-9]+)/(-?[0-9]+)\Z")


# The 13 prime bases up to 41 decide primality for every n below this
# bound (Sorenson & Webster 2017); no moduli at or above it are accepted.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MODULUS_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= p < _MODULUS_BOUND."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _gf_add(p, x, y):
    return (x + y) % p


def _gf_sub(p, x, y):
    return (x - y) % p


def _gf_mul(p, x, y):
    return (x * y) % p


def _gf_neg(p, x):
    return (-x) % p


@dataclass(frozen=True)
class Field:
    """The rationals (kind="rational") or GF(p) (kind="prime", p prime)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == RATIONAL:
            if self.p is not None:
                raise ParseError("rational field takes no modulus")
            ops = (Fraction(0), Fraction(1), operator.add, operator.sub,
                   operator.mul, operator.neg)
        elif self.kind == PRIME:
            if isinstance(self.p, int) and self.p >= _MODULUS_BOUND:
                raise ParseError(
                    f"modulus {self.p} is at or above {_MODULUS_BOUND}", witness=self.p
                )
            if not isinstance(self.p, int) or not _is_prime(self.p):
                raise NotPrime(f"modulus {self.p!r} is not prime", witness=self.p)
            p = self.p
            ops = (0, 1, partial(_gf_add, p), partial(_gf_sub, p),
                   partial(_gf_mul, p), partial(_gf_neg, p))
        else:
            raise ParseError(f"unknown field kind {self.kind!r}")
        for name, op in zip(("zero", "one", "add", "sub", "mul", "neg"), ops):
            object.__setattr__(self, name, op)

    @staticmethod
    @cache
    def rationals() -> "Field":
        """The one shared Q, so its `zero` object is the same everywhere."""
        return Field(RATIONAL)

    @staticmethod
    @lru_cache(maxsize=None, typed=True)  # typed: 3.0 and True still raise
    def prime(p: int) -> "Field":
        """The one shared GF(p) for each p."""
        return Field(PRIME, p)

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == RATIONAL else self.p  # type: ignore[return-value]

    def from_int(self, n: int):
        if self.kind == PRIME:
            return n % self.p
        return Fraction(n) if n else self.zero

    def inv(self, x):
        if not x:
            raise DivisionByZero("inverse of zero")
        if self.kind == RATIONAL:
            return 1 / Fraction(x)
        return pow(x, -1, self.p)

    # text ------------------------------------------------------------

    def parse(self, text: str):
        """Parse canonical scalar text; ParseError on anything malformed."""
        if not isinstance(text, str):
            raise ParseError(f"scalar must be a string, got {type(text).__name__}")
        s = text.strip()
        m = _FRAC_RE.fullmatch(s)
        if m is None and not _INT_RE.fullmatch(s):
            raise ParseError(f"bad scalar {text!r}")
        if m is not None and self.kind == PRIME:
            raise ParseError(f"fraction {text!r} not allowed over GF({self.p})")
        try:
            num, den = (int(s), 1) if m is None else (int(m.group(1)), int(m.group(2)))
        except ValueError:  # over int's digit limit; witness: the digits in s
            digits = len(s) - s.count("-") - s.count("/")
            raise ParseError(f"scalar of {digits} digits is too long", witness=digits) from None
        if den <= 0:
            raise ParseError(f"bad denominator in {text!r}")
        if m is None:
            return self.from_int(num)
        return Fraction(num, den) if num else self.zero

    def parse_many(self, texts: list) -> list:
        """`parse` of each text, parsing each distinct text once; if a text
        is unhashable or malformed, all are parsed in order, so the first
        malformed one raises its ParseError, as a loop of `parse` would."""
        try:
            values = {t: self.parse(t) for t in set(texts)}
        except (TypeError, ParseError):
            return [self.parse(t) for t in texts]
        return list(map(values.__getitem__, texts))

    def to_str(self, x) -> str:
        """Canonical text: "a" or "a/b" (lowest terms, b > 0); decimal for GF(p).
        BudgetExceeded, witnessed by the digits the text would hold, past
        int's digit limit for str, which `parse` refuses as well."""
        if self.kind == PRIME:
            return str(x % self.p)
        f = Fraction(x)
        try:
            if f.denominator == 1:
                return str(f.numerator)
            return f"{f.numerator}/{f.denominator}"
        except ValueError:
            digits = _digits(f.numerator) + (_digits(f.denominator) if f.denominator > 1 else 0)
            raise BudgetExceeded(f"scalar of {digits} digits is too long to write",
                                 witness=digits) from None


def _digits(n: int) -> int:
    """The decimal digits of |n|, counted without writing them out."""
    n, k = abs(n), max(0, int((n.bit_length() - 1) * 0.30102999566398) - 1)
    while 10 ** k <= n:
        k += 1
    return max(k, 1)


def field_to_json(field: Field) -> dict:
    if field.kind == RATIONAL:
        return {"kind": "rational"}
    return {"kind": "prime", "p": field.p}


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict):
        raise ParseError("field must be an object")
    kind = obj.get("kind")
    if kind == "rational":
        if set(obj) != {"kind"}:
            raise ParseError(f"unexpected keys in rational field: {sorted(set(obj) - {'kind'})}")
        return Field.rationals()
    if kind == "prime":
        if set(obj) != {"kind", "p"}:
            raise ParseError(f"prime field needs exactly kind and p, got {sorted(obj)}")
        if not isinstance(obj["p"], int) or isinstance(obj["p"], bool):
            raise ParseError("field modulus p must be an integer")
        return Field.prime(obj["p"])
    raise ParseError(f"unknown field kind {kind!r}")
