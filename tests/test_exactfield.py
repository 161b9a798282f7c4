"""Scalar field tests: parsing, formatting, arithmetic, axioms."""

from __future__ import annotations

import pickle
import random
import time
from fractions import Fraction

import pytest

from frobstab.errors import BudgetExceeded, DivisionByZero, NotPrime, ParseError
from frobstab.exactfield import Field, field_from_json, field_to_json

Q = Field.rationals()
GF2 = Field.prime(2)
GF3 = Field.prime(3)
GF5 = Field.prime(5)


def test_parse_canonical_examples():
    assert Q.parse("6/4") == Fraction(3, 2)
    assert Q.parse("-3") == Fraction(-3)
    assert Q.parse("0") == 0
    assert GF3.parse("5") == 2
    assert GF5.parse("-1") == 4


@pytest.mark.parametrize("bad", ["", "1/0", "1/-2", "a", "1.5", "1/2/3", "--1", "+1", "1 2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        Q.parse(bad)


def test_parse_rejects_fraction_over_prime_field():
    with pytest.raises(ParseError):
        GF5.parse("1/2")


_BAD_SCALARS = ["", "a", "1.5", "--1", "+1", "1 2", "1_0", "\u0663", "1\x002", "\x00", "1/0",
                "1/-2", "1/2/3", 3, None]


def _parse_error(field, text):
    with pytest.raises(ParseError) as exc:
        field.parse(text)
    return str(exc.value), exc.value.witness


_LONG = "7" * 5000  # over Python's 4300-digit limit for int(str)


def test_parse_refuses_integers_past_the_digit_limit():
    for f, text, digits in ((Q, _LONG, 5000), (GF5, " -" + _LONG, 5000),
                            (Q, "1/" + _LONG, 5001), (Q, "-" + _LONG + "/3", 5001)):
        with pytest.raises(ParseError) as exc:
            f.parse(text)
        assert exc.value.witness == digits and str(digits) in str(exc.value)
    assert _parse_error(GF5, "1/" + _LONG)[0].startswith("fraction ")


def test_to_str_refuses_integers_past_the_digit_limit():
    """Text that `parse` would refuse is not written either: BudgetExceeded,
    witnessed by the digits of numerator and denominator."""
    assert Q.to_str(Fraction(-10 ** 4299, 7)) == "-1" + "0" * 4299 + "/7"
    for x, digits in ((Fraction(10 ** 4300), 4301), (Fraction(-7 * 10 ** 5000 + 2, 3), 5002),
                      (Fraction(1, 10 ** 4300 + 1), 4302)):
        with pytest.raises(BudgetExceeded) as exc:
            Q.to_str(x)
        assert exc.value.witness == digits and str(digits) in str(exc.value)


def test_parse_many_matches_parse():
    good = ["0", "-0", " 7 ", "\t-12\n", "5", "123456789012345678901234567890", "\u20031",
            " 0", "00", " 1"]
    for f in (Q, GF2, GF5):
        for texts in (good, good * 3, good[::-1] + good[:4]):
            want = [f.parse(t) for t in texts]
            got = f.parse_many(texts)
            assert got == want and [type(x) for x in got] == [type(x) for x in want]
        assert f.parse_many([]) == []
    assert Q.parse_many(["0", "2/4", "-0/3", "2/4"]) == [Q.zero, Fraction(1, 2), Q.zero, Fraction(1, 2)]
    assert all(x is Q.zero for x in Q.parse_many(["0", " -0 ", "00", "0"]))
    for f, extra in ((Q, []), (GF5, ["1/2"])):
        for bad in _BAD_SCALARS + extra + [[1], _LONG, "1/" + _LONG]:
            for at in (0, 3):
                texts = good[:at] + [bad] + good[at:] + ["x", bad]
                with pytest.raises(ParseError) as exc:
                    f.parse_many(texts)
                assert (str(exc.value), exc.value.witness) == _parse_error(f, bad), bad


def test_to_str_round_trip():
    for f in (Q, GF2, GF3, GF5):
        for n in range(-7, 8):
            x = f.from_int(n)
            assert f.parse(f.to_str(x)) == x
    assert Q.to_str(Fraction(3, 2)) == "3/2"
    assert Q.to_str(Fraction(-4, 2)) == "-2"
    assert Q.parse(Q.to_str(Fraction(-5, 3))) == Fraction(-5, 3)


def test_basic_arithmetic():
    assert GF5.inv(2) == 3
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert GF2.add(1, 1) == 0
    assert GF3.neg(1) == 2
    assert Q.mul(Fraction(1), Q.inv(Fraction(4))) == Fraction(1, 4)


def test_rational_inverse_of_int_is_a_fraction():
    for x, want in ((4, Fraction(1, 4)), (-3, Fraction(-1, 3)), (Fraction(2, 3), Fraction(3, 2))):
        assert Q.inv(x) == want and type(Q.inv(x)) is Fraction
    assert Q.mul(1, Q.inv(4)) == Fraction(1, 4) and type(Q.mul(1, Q.inv(4))) is Fraction


def test_rational_zero_is_the_field_zero_object():
    # Row reduction and Kronecker sums skip entries that are `Q.zero` itself.
    assert Q.from_int(0) is Q.zero
    for text in ("0", "-0", " 0 ", "0/7", "-0/3"):
        assert Q.parse(text) is Q.zero
    assert Q.from_int(3) == 3 and Q.parse("0/1") == 0 and Q.parse("2/4") == Fraction(1, 2)
    assert GF5.from_int(10) == 0 and GF5.parse("-5") == 0


def test_inverse_of_zero_raises():
    for f in (Q, GF2, GF5):
        with pytest.raises(DivisionByZero):
            f.inv(f.zero)


def test_characteristic():
    assert Q.characteristic == 0
    assert GF3.characteristic == 3


# 561 is a Carmichael number; 3825123056546413051 is a strong pseudoprime
# to every prime base up to 23.
@pytest.mark.parametrize("p", [4, 6, 9, 1, 0, -3, 561, 3825123056546413051])
def test_composite_modulus_rejected(p):
    with pytest.raises(NotPrime):
        Field.prime(p)


def test_large_prime_moduli_accepted_quickly():
    start = time.perf_counter()
    for p in (10**18 + 3, 2**61 - 1):
        assert Field.prime(p).from_int(-1) == p - 1
    assert time.perf_counter() - start < 1.0


def test_modulus_at_primality_bound_rejected():
    # Miller-Rabin over the prime bases up to 41 is only proven below this.
    for p in (3317044064679887385961981, 10**30 + 57):
        with pytest.raises(ParseError):
            Field.prime(p)


def test_field_equality_hash_and_pickle():
    assert Field.prime(5) == GF5 and hash(Field.prime(5)) == hash(GF5)
    assert Field("rational") == Q and hash(Field("rational")) == hash(Q)
    assert GF5 != GF3 and GF5 != Q
    for f in (Q, GF2, GF5):
        back = pickle.loads(pickle.dumps(f))
        assert back == f and hash(back) == hash(f)
        x, y = f.from_int(3), f.from_int(-4)
        assert back.add(x, y) == f.from_int(-1)
        assert back.sub(x, y) == f.from_int(7)
        assert back.mul(x, y) == f.from_int(-12)
        assert back.neg(x) == f.from_int(-3)
        assert (back.zero, back.one) == (f.from_int(0), f.from_int(1))


def test_unknown_kind_rejected():
    with pytest.raises(ParseError):
        Field("real")


def test_field_axioms_on_random_scalars():
    rng = random.Random(7)
    for f in (Q, GF2, GF3, GF5):
        for _ in range(40):
            if f.kind == "rational":
                sample = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            else:
                sample = lambda: rng.randrange(f.p)
            x, y, z = sample(), sample(), sample()
            assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
            assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
            assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
            assert f.add(x, f.neg(x)) == f.zero
            if x:
                assert f.mul(x, f.inv(x)) == f.one
            assert f.sub(x, y) == f.add(x, f.neg(y))


def test_field_json_round_trip():
    for f in (Q, GF2, GF5):
        assert field_from_json(field_to_json(f)) == f
    with pytest.raises(ParseError):
        field_from_json({"kind": "prime"})
    with pytest.raises(ParseError):
        field_from_json({"kind": "rational", "p": 3})
    with pytest.raises(ParseError):
        field_from_json({"kind": "complex"})
