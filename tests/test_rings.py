"""Coefficient domains and the dense helpers of Smith normal form.

Conventions under test: ZZ normalizes to int, QQ to Fraction, GF(p) to
the least nonnegative residue; matrices are lists of rows; all
arithmetic is exact (no floats anywhere).
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ttperm.grp import cyclic
from ttperm.permod import SignedPermModule, EquivMap
from ttperm.rings import (ZZ, QQ, GF, domain_from_name, mat_identity,
                          mat_mul, mat_zero)


def test_integer_domain():
    assert ZZ.name == "Z"
    assert ZZ.characteristic == 0
    assert not ZZ.is_field
    assert ZZ.normalize(7) == 7
    assert ZZ.is_unit(1) and ZZ.is_unit(-1)
    assert not ZZ.is_unit(2) and not ZZ.is_unit(0)


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
    assert type(QQ.normalize(5)) is Fraction
    assert QQ.normalize(-4) == Fraction(-4)


def test_prime_field_reduces_mod_p():
    F5 = GF(5)
    assert F5.characteristic == 5
    assert F5.is_field
    assert F5.normalize(7) == 2
    assert F5.normalize(-1) == 4
    assert all(F5.is_unit(c) for c in range(1, 5))
    assert not F5.is_unit(0)


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
    assert f.apply(v) == [row[0] for row in prod]


@given(matrices(2, 2))
def test_field_arithmetic_reduces(A):
    F3 = GF(3)
    B = [[F3.normalize(v) for v in row] for row in A]
    P = mat_mul(F3, B, B)
    assert all(0 <= v < 3 for row in P for v in row)
