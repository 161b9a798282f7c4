"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Rational scalars are `fractions.Fraction` values (auto-reduced, positive
denominator); GF(p) scalars are plain ints in [0, p).  A `Field` instance
owns parsing, formatting and arithmetic for its scalars, so values stay
canonical and scalar equality is plain ``==``.

Scalar text format: ``"a"`` or ``"a/b"`` with integer a, positive integer b,
reduced to lowest terms on input.  Prime fields only accept the integer
form; negative integers are reduced mod p.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, NotPrime, ParseError

RATIONAL = "rational"
PRIME = "prime"

_INT_RE = re.compile(r"-?[0-9]+\Z")
_FRAC_RE = re.compile(r"(-?[0-9]+)/(-?[0-9]+)\Z")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (kind="rational") or GF(p) (kind="prime", p prime)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == RATIONAL:
            if self.p is not None:
                raise ParseError("rational field takes no modulus")
        elif self.kind == PRIME:
            if not isinstance(self.p, int) or not _is_prime(self.p):
                raise NotPrime(f"modulus {self.p!r} is not prime", witness=self.p)
        else:
            raise ParseError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "Field":
        return Field(RATIONAL)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(PRIME, p)

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == RATIONAL else self.p  # type: ignore[return-value]

    # canonical values ------------------------------------------------

    @property
    def zero(self):
        return Fraction(0) if self.kind == RATIONAL else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == RATIONAL else 1 % self.p

    def from_int(self, n: int):
        return Fraction(n) if self.kind == RATIONAL else n % self.p

    # arithmetic ------------------------------------------------------

    def add(self, x, y):
        if self.kind == RATIONAL:
            return x + y
        return (x + y) % self.p

    def sub(self, x, y):
        if self.kind == RATIONAL:
            return x - y
        return (x - y) % self.p

    def mul(self, x, y):
        if self.kind == RATIONAL:
            return x * y
        return (x * y) % self.p

    def neg(self, x):
        if self.kind == RATIONAL:
            return -x
        return (-x) % self.p

    def inv(self, x):
        if not x:
            raise DivisionByZero("inverse of zero")
        if self.kind == RATIONAL:
            return 1 / x
        return pow(x, -1, self.p)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    # text ------------------------------------------------------------

    def parse(self, text: str):
        """Parse canonical scalar text; ParseError on anything malformed."""
        if not isinstance(text, str):
            raise ParseError(f"scalar must be a string, got {type(text).__name__}")
        s = text.strip()
        if _INT_RE.fullmatch(s):
            return self.from_int(int(s))
        m = _FRAC_RE.fullmatch(s)
        if m is None:
            raise ParseError(f"bad scalar {text!r}")
        if self.kind == PRIME:
            raise ParseError(f"fraction {text!r} not allowed over GF({self.p})")
        num, den = int(m.group(1)), int(m.group(2))
        if den <= 0:
            raise ParseError(f"bad denominator in {text!r}")
        return Fraction(num, den)

    def to_str(self, x) -> str:
        """Canonical text: "a" or "a/b" (lowest terms, b > 0); decimal for GF(p)."""
        if self.kind == PRIME:
            return str(x % self.p)
        f = Fraction(x)
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"


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
