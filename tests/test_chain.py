"""Bounded complexes of signed permutation modules.

Conventions under test: differentials lower degree by one; X[s]_n =
X_{n-s} with differential scaled by (-1)^s; cone(f)_j = Y_j + X_{j-1}
with the lower-right block negated; duality reindexes by -n and
transposes with the sign (-1)^n.  The constructor itself checks
d o d = 0, so building a tensor product is already a sign-rule check.
"""

from fractions import Fraction

import pytest

from ttperm.grp import cyclic, parse_group_name, subgroups
from ttperm.rings import ZZ, QQ, GF
from ttperm.permod import (perm_module, trivial_module, EquivMap,
                           identity_map, CertificateError)
from ttperm.chain import (Complex, ChainMap, unit_complex, module_complex,
                          two_term_complex, shift_complex, tensor_complex,
                          dual_complex, cone, identity_chain_map,
                          base_change_complex, restrict_complex,
                          structurally_equal,
                          complex_to_json, complex_from_json, tensor_cone)
from ttperm.homotopy import homology_profile, underlying_homology
from ttperm.twisted import u_complex, index_p_normal_subgroups


def mult_by(G, c):
    """Multiplication by c on the trivial module, as a two-term complex."""
    M = trivial_module(G, ZZ)
    f = EquivMap(M, M, {(0, 0): c})
    return two_term_complex(f)


def test_unit_complex():
    G = cyclic(3)
    U = unit_complex(G, ZZ)
    assert U.degrees() == [0]
    assert U.term(0).rank == 1
    assert U.total_rank() == 1


def test_constructor_rejects_bad_differential():
    G = cyclic(1)
    M = trivial_module(G, ZZ)
    one = EquivMap(M, M, {(0, 0): 1})
    with pytest.raises(CertificateError, match="d o d != 0"):
        Complex(G, ZZ, {0: M, 1: M, 2: M}, {1: one, 2: one})


def test_chain_map_rejects_non_commuting_square():
    G = cyclic(1)
    M = trivial_module(G, ZZ)
    X = two_term_complex(EquivMap(M, M, {(0, 0): 1}))
    one = EquivMap(M, M, {(0, 0): 1})
    with pytest.raises(CertificateError, match="does not commute"):
        ChainMap(X, X, {0: one})               # identity at 0, zero at 1
    with pytest.raises(ValueError, match="outside the complexes"):
        ChainMap(X, X, {5: one})               # nonzero outside the complex
    ChainMap(X, X, {0: one, 1: one, 5: EquivMap(M, M, {(0, 0): 0})})


def test_square_and_d_squared_checks_build_no_maps(monkeypatch):
    G = cyclic(3)
    u = u_complex(G, index_p_normal_subgroups(G)[0], ZZ)
    X = tensor_complex(u, u)
    ident = identity_chain_map(X)
    # identity at 0 only: a square that does not commute
    partial = {0: ident.components[0]}
    built = []
    init = EquivMap.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(EquivMap, "__init__", counting_init)
    ChainMap(X, X, ident.components)
    Complex(G, ZZ, X.terms, X.diffs, check=True)
    with pytest.raises(CertificateError, match="does not commute"):
        ChainMap(X, X, partial)
    assert built == []


def test_two_term_homology():
    G = cyclic(1)
    X = mult_by(G, 2)
    prof = homology_profile(X)
    assert prof == {0: (0, (2,))}  # Z/2 in degree 0, nothing else


def test_shift_reindexes_and_twists_sign():
    G = cyclic(2)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)
    Y = shift_complex(X, 3)
    assert Y.min_degree == X.min_degree + 3
    for n in X.degrees():
        assert Y.term(n + 3).rank == X.term(n).rank
    for n in X.diffs:
        assert Y.diff(n + 3).entries == {
            k: -v for k, v in X.diff(n).entries.items()}
    # double shift restores the sign
    Z = shift_complex(Y, -3)
    assert structurally_equal(Z, X)


def test_tensor_rank_vector_is_convolution():
    G = cyclic(2)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)   # builds fine => d o d = 0 checked
    T = tensor_complex(X, X)
    rv = T.rank_vector()
    xv = X.rank_vector()
    for n in rv:
        expect = sum(xv.get(i, 0) * xv.get(n - i, 0) for i in xv)
        assert rv[n] == expect


def test_tensor_with_unit_is_identity_shape():
    G = cyclic(3)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)
    U = unit_complex(G, ZZ)
    T = tensor_complex(U, X)
    assert T.rank_vector() == X.rank_vector()
    for n in X.diffs:
        assert T.diff(n).entries == X.diff(n).entries


def test_cone_block_shape():
    G = cyclic(2)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)
    f = identity_chain_map(X)
    C = cone(f)
    for j in C.degrees():
        assert C.term(j).rank == X.term(j).rank + X.term(j - 1).rank
    # cone of the identity is acyclic
    assert homology_profile(C) == {}


def test_double_dual_negates_differential():
    # d_n on the dual is (-1)^n (d_{1-n})^T, so applying it twice
    # yields the same terms with d negated: canonically isomorphic to
    # the original, but via the signed evaluation map
    from ttperm.homotopy import find_homotopy_equivalence, Equivalence
    G = cyclic(2)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)
    DD = dual_complex(dual_complex(X))
    assert DD.degrees() == X.degrees()
    for n in X.degrees():
        assert DD.term(n).action == X.term(n).action
    for n in X.diffs:
        assert DD.diff(n).entries == {
            k: -v for k, v in X.diff(n).entries.items()}
    assert isinstance(find_homotopy_equivalence(DD, X), Equivalence)


def test_dual_reverses_degrees():
    G = cyclic(3)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)
    D = dual_complex(X)
    assert sorted(D.degrees()) == sorted(-n for n in X.degrees())
    for n in X.degrees():
        assert D.term(-n).rank == X.term(n).rank


def test_base_change_complex():
    G = cyclic(1)
    X = mult_by(G, 2)
    F2 = GF(2)
    Xp = base_change_complex(X, F2)
    assert Xp.ring is F2
    prof = homology_profile(Xp)
    # over F_2 multiplication by 2 is zero: homology F_2 in both degrees
    assert prof == {0: (1, ()), 1: (1, ())}
    Xq = base_change_complex(X, QQ)
    assert homology_profile(Xq) == {}


def test_restrict_and_induce_complex():
    G = cyclic(4)
    C2 = [S for S in subgroups(G) if S.order == 2][0]
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)
    R = restrict_complex(X, C2)
    assert R.group.order == 2
    assert R.rank_vector() == X.rank_vector()


def test_tensor_cone_of_identities_is_the_cone_of_the_identity():
    G = cyclic(2)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)
    f = identity_chain_map(X)
    C = tensor_cone(f, f)
    want = cone(identity_chain_map(tensor_complex(X, X)))
    assert C.degrees() == want.degrees()
    for n in want.degrees():
        assert C.term(n).basis == want.term(n).basis
        assert C.term(n).action == want.term(n).action
        assert list(C.diff(n).entries.items()) == \
            list(want.diff(n).entries.items())


def test_json_round_trip():
    G = cyclic(3)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)
    data = complex_to_json(X)
    Y = complex_from_json(data)
    assert structurally_equal(X, Y)


def test_json_round_trip_over_field():
    G = cyclic(2)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, GF(2))
    Y = complex_from_json(complex_to_json(X))
    assert structurally_equal(X, Y)


def test_json_round_trip_over_Q_gives_canonical_values():
    # a QQ value read back is an int when integral, a Fraction otherwise
    G = cyclic(3)
    N = index_p_normal_subgroups(G)[0]
    Xq = base_change_complex(u_complex(G, N, ZZ), QQ)
    M = trivial_module(G, QQ)
    half = two_term_complex(EquivMap(M, M, {(0, 0): Fraction(-1, 2)}))
    for X in (Xq, half):
        Y = complex_from_json(complex_to_json(X))
        assert structurally_equal(X, Y)
        for n, f in X.diffs.items():
            got = Y.diffs[n].entries
            assert got == f.entries
            assert [type(v) for v in got.values()] == \
                [type(v) for v in f.entries.values()]
    assert {type(v) for f in Xq.diffs.values()
            for v in f.entries.values()} == {int}
    assert type(complex_from_json(complex_to_json(half)).diffs[1]
                .entries[(0, 0)]) is Fraction


def test_underlying_homology_of_u_complex():
    # u sits in a triangle with the unit: its underlying homology is
    # that of the reduced chain complex of spheres glued from cosets;
    # concretely H_0 = Z and the top is torsion-free
    G = cyclic(2)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)
    fg0 = underlying_homology(X, 0)
    assert fg0.label() in ("Z", "0")


_MISFITS = """
import sys
from ttperm.chain import Complex, ChainMap, two_term_complex
from ttperm.grp import cyclic
from ttperm.permod import (EquivMap, SignedPermModule, trivial_module,
                           perm_module)
from ttperm.rings import ZZ, QQ

assert sys.flags.optimize
G = cyclic(2)
M = trivial_module(G, ZZ)
one = EquivMap(M, M, {(0, 0): 1})
X = two_term_complex(one)
P = perm_module(G, G.trivial_subgroup(), ZZ)
# P's labels with the trivial action: {(0, 0): 1} is equivariant for Q,
# not for P, so a check on one column per orbit of P would not see it
Q = SignedPermModule(G, ZZ, P.basis, [[(0, 1), (1, 1)]] * 2)
Y = Complex(G, ZZ, {0: P}, {})
bad = {
    "outside": lambda: ChainMap(X, X, {5: one}),
    "basis": lambda: ChainMap(X, X, {0: EquivMap(P, M, {(0, 0): 1,
                                                        (0, 1): 1})}),
    "ring": lambda: Complex(G, QQ, {0: M}, {}),
    "differential": lambda: Complex(G, ZZ, {0: M, 1: P}, {1: one}),
    "differential action": lambda: Complex(
        G, ZZ, {0: M, 1: P}, {1: EquivMap(Q, M, {(0, 0): 1})}),
    "component action": lambda: ChainMap(
        Y, Y, {0: EquivMap(Q, Q, {(0, 0): 1})}),
}
for name, build in bad.items():
    try:
        build()
        sys.exit("a misfit %s was accepted" % name)
    except ValueError as exc:
        print(name, exc)
"""


def test_misfit_terms_and_components_raise_under_python_O(python_O):
    # structural checks are ValueErrors, not asserts: python -O keeps
    # them, and cli.run does not report them as failed theory checks; a
    # module with the term's labels but another action is a misfit too
    proc = python_O(_MISFITS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "outside component 5 lies outside the complexes",
        "basis component 0 is not X_0 -> Y_0",
        "ring term 0 has another group or ring",
        "differential d_1 is not X_1 -> X_0",
        "differential action d_1 is not X_1 -> X_0",
        "component action component 0 is not X_0 -> Y_0",
    ]


_NON_INTEGRAL_BASE_CHANGE = """
import sys
from fractions import Fraction
from ttperm.chain import base_change_complex, two_term_complex
from ttperm.grp import cyclic
from ttperm.permod import EquivMap, trivial_module
from ttperm.rings import QQ, GF

assert sys.flags.optimize
M = trivial_module(cyclic(2), QQ)
X = two_term_complex(EquivMap(M, M, {(0, 0): Fraction(1, 2)}))
try:
    Y = base_change_complex(X, GF(3))
    sys.exit("a Q complex was base-changed to F3 with d = %r"
             % (Y.diffs.get(1) and Y.diffs[1].entries,))
except ValueError as exc:
    print(exc)
"""


def test_base_change_from_a_non_integral_ring_raises_under_python_O(
        python_O):
    # from Q, the entry 1/2 would have to be truncated to reach F3
    proc = python_O(_NON_INTEGRAL_BASE_CHANGE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["base change starts from Z, not Q"]


_BROKEN_TENSOR_CONES = """
import sys
from ttperm import chain, koszul
from ttperm.grp import parse_group_name
from ttperm.permod import CertificateError, EquivMap
from ttperm.rings import ZZ

assert sys.flags.optimize
real_cone, real_place = koszul.tensor_cone, chain._place


def dropped_tau_sign(f, g):
    # t with its top component negated: still equivariant, but no longer
    # a chain map when t has a second component, and only the d o d
    # check of the cone sees that
    if len(g.components) > 1:
        n = max(g.components)
        c = g.components[n]
        g.components[n] = EquivMap(c.source, c.target,
                                   {k: -v for k, v in c.entries.items()})
    return real_cone(f, g)


def dropped_minus(acc, r0, c0, A, sign=1):
    real_place(acc, r0, c0, A)


for name, where, attr, fake in (("tau", koszul, "tensor_cone",
                                 dropped_tau_sign),
                                ("dS", chain, "_place", dropped_minus)):
    real = getattr(where, attr)
    setattr(where, attr, fake)
    G = parse_group_name("C2xC2")
    try:
        koszul._build_koszul(G, G.trivial_subgroup(), ZZ)
        sys.exit("a cone with a dropped %s sign was accepted" % name)
    except CertificateError as exc:
        print(name, exc)
    setattr(where, attr, real)
"""


def test_tensor_cone_sign_mutations_fail_the_one_check_under_python_O(
        python_O):
    # d^2 of cone(tau : S -> T) has dT tau - tau dS off the diagonal, so
    # a tau that is not a chain map, or a cone whose -dS lost its minus,
    # fails the single d o d check of the tower's sign modification
    proc = python_O(_BROKEN_TENSOR_CONES)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["tau d o d != 0 at degree 4",
                                        "dS d o d != 0 at degree 4"]
