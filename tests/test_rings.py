"""Coefficient domains and the dense helpers of Smith normal form.

Conventions under test: ZZ normalizes to int, QQ to an int when the
value is integral and to a Fraction in lowest terms otherwise, GF(p) to
the least nonnegative residue; matrices are lists of rows; all
arithmetic is exact (ZZ.normalize and GF(p).normalize reject everything
but ints, QQ.normalize rejects floats).
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ttperm.grp import cyclic
from ttperm.permod import SignedPermModule, EquivMap, trivial_module
from ttperm.chain import two_term_complex, complex_to_json, complex_from_json
from ttperm.rings import (ZZ, QQ, GF, domain_from_name, mat_identity,
                          mat_mul, mat_zero)


def test_integer_domain():
    assert ZZ.name == "Z"
    assert ZZ.characteristic == 0
    assert not ZZ.is_field
    assert ZZ.normalize(7) == 7
    assert ZZ.is_unit(1) and ZZ.is_unit(-1)
    assert not ZZ.is_unit(2) and not ZZ.is_unit(0)


def test_integers_never_truncate_values():
    # int() first would send 1/2 to 0; the identity kept 0.5 as a Z value
    for value in (Fraction(1, 2), Fraction(4, 2), 0.5, 2.0, "2", None):
        with pytest.raises(TypeError):
            ZZ.normalize(value)
        with pytest.raises(TypeError):
            ZZ.from_int(value)
    assert ZZ.normalize(True) == 1 and type(ZZ.normalize(True)) is int
    assert ZZ.from_int(-4) == -4 and ZZ.normalize(2 ** 70) == 2 ** 70
    assert ZZ.inv(-1) == -1 and ZZ.inv(1) == 1
    for value in (2, 0, -3):
        with pytest.raises(ValueError):
            ZZ.inv(value)
    with pytest.raises(TypeError):
        ZZ.inv(Fraction(1, 2))


def test_integral_json_refuses_a_non_integral_entry():
    M = trivial_module(cyclic(2), ZZ)
    data = complex_to_json(two_term_complex(EquivMap(M, M, {(0, 0): 1})))
    assert complex_from_json(data).diffs[1].entries == {(0, 0): 1}
    data["diffs"]["1"] = [[0.5]]
    with pytest.raises(TypeError):
        complex_from_json(data)


_NON_UNIT_INVERSE = """
import sys
from ttperm.rings import ZZ

assert sys.flags.optimize
try:
    sys.exit("ZZ.inv(2) returned %r" % (ZZ.inv(2),))
except ValueError as exc:
    print(exc)
"""


def test_integer_inverse_of_a_non_unit_raises_under_python_O(python_O):
    proc = python_O(_NON_UNIT_INVERSE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["2 is not a unit of Z"]


def test_rational_domain_uses_fractions():
    assert QQ.is_field
    assert QQ.characteristic == 0
    v = QQ.normalize(Fraction(2, 4))
    assert v == Fraction(1, 2)
    assert QQ.is_unit(Fraction(3, 7))
    assert not QQ.is_unit(QQ.zero)


def test_rational_normalize_keeps_fractions():
    x = Fraction(2, 3)
    assert QQ.normalize(x) is x        # already canonical: no new object
    assert type(QQ.normalize(5)) is int
    assert type(QQ.normalize(Fraction(-8, 2))) is int
    assert QQ.normalize(Fraction(-8, 2)) == -4
    assert type(QQ.from_int(3)) is int
    assert type(QQ.inv(-1)) is int and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(3) == Fraction(1, 3)
    with pytest.raises(TypeError):
        QQ.normalize(0.5)
    with pytest.raises(TypeError):
        QQ.inv(0.5)


rationals = st.fractions(max_denominator=12)


@given(rationals, rationals)
def test_rational_normalize_agrees_with_fraction_arithmetic(a, b):
    a, b = QQ.normalize(a), QQ.normalize(b)
    for value, exact in ((a * b, Fraction(a) * Fraction(b)),
                         (a + b, Fraction(a) + Fraction(b))):
        v = QQ.normalize(value)
        assert v == exact
        assert type(v) is (int if exact.denominator == 1 else Fraction)


def test_prime_field_reduces_mod_p():
    F5 = GF(5)
    assert F5.characteristic == 5
    assert F5.is_field
    assert F5.normalize(7) == 2
    assert F5.normalize(-1) == 4
    assert all(F5.is_unit(c) for c in range(1, 5))
    assert not F5.is_unit(0)


def test_prime_field_never_truncates_values():
    # int() first would send 1/2 to 0 (not 2 = 1/2 mod 3) and 2.7 to 2
    F3 = GF(3)
    for value in (Fraction(1, 2), Fraction(4, 2), 2.7, 2.0, "2", None):
        with pytest.raises(TypeError):
            F3.normalize(value)
        with pytest.raises(TypeError):
            F3.from_int(value)
    assert F3.normalize(True) == 1 and type(F3.normalize(True)) is int
    assert F3.from_int(-4) == 2 and F3.normalize(2 ** 70) == 1
    # int() first would send 5/2 to 2 = 1/2 (its inverse), not 5/2 = 1
    for value in (Fraction(5, 2), 2.0):
        with pytest.raises(TypeError):
            F3.inv(value)
    assert F3.inv(2) == 2 and F3.inv(-1) == 2 and GF(5).inv(3) == 2
    with pytest.raises(ValueError):
        F3.inv(3)


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        GF(6)
    assert GF(7) is GF(7)  # interned per characteristic


def test_domain_from_name():
    assert domain_from_name("Z") is ZZ
    assert domain_from_name("Q") is QQ
    assert domain_from_name("F2").characteristic == 2
    assert domain_from_name("F13").characteristic == 13
    with pytest.raises(ValueError):
        domain_from_name("R")
    with pytest.raises(ValueError):
        domain_from_name("Fx")


def test_matrix_identity_and_zero():
    I = mat_identity(ZZ, 3)
    assert I == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert mat_zero(ZZ, 2, 3) == [[0, 0, 0], [0, 0, 0]]


entry = st.integers(min_value=-9, max_value=9)


def matrices(rows, cols):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@given(matrices(3, 3))
def test_identity_is_neutral(A):
    I = mat_identity(ZZ, 3)
    assert mat_mul(ZZ, A, I) == A
    assert mat_mul(ZZ, I, A) == A


@given(matrices(2, 3), st.lists(entry, min_size=3, max_size=3))
def test_apply_matches_matrix_product(A, v):
    # over the trivial group every matrix is an equivariant map
    G = cyclic(1)

    def free(n):
        return SignedPermModule(G, ZZ, range(n), [[(i, 1) for i in range(n)]])

    f = EquivMap(free(3), free(2), {(r, c): x for r, row in enumerate(A)
                                    for c, x in enumerate(row)})
    prod = mat_mul(ZZ, A, [[x] for x in v])
    assert f.apply({c: x for c, x in enumerate(v) if x}) == \
        {r: row[0] for r, row in enumerate(prod) if row[0]}


@given(matrices(2, 2))
def test_field_arithmetic_reduces(A):
    F3 = GF(3)
    B = [[F3.normalize(v) for v in row] for row in A]
    P = mat_mul(F3, B, B)
    assert all(0 <= v < 3 for row in P for v in row)
