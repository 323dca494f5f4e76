"""Exact linear algebra, homology, and homotopy-theoretic solvers.

Smith normal form is checked as a property (re-multiplication,
divisibility chain, unimodular transforms) on random integer matrices;
hom groups computed through the invariants complex are compared with
the independent brute-force oracle that imposes equivariance as raw
linear equations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ttperm.grp import cyclic, parse_group_name, subgroups
from ttperm.rings import ZZ, QQ, GF, mat_mul, mat_identity, mat_eq
from ttperm.permod import trivial_module, direct_sum, EquivMap
from ttperm.chain import (Complex, unit_complex, shift_complex,
                          tensor_complex, dual_complex, cone,
                          identity_chain_map, two_term_complex, ChainMap)
from ttperm.homotopy import (smith_normal_form, matrix_inverse,
                             solve_sparse, kernel_sparse, rank_sparse,
                             sparse_rows, FgModule, homology_from_matrices,
                             homology_profile, underlying_homology, hom_group,
                             hom_group_bruteforce, is_contractible,
                             null_homotopy, check_homotopy,
                             find_homotopy_equivalence, Equivalence,
                             NotEquivalent, ContractionCertificate,
                             NonContractibleWitness, SolverCapExceeded,
                             classes_equal_up_to_unit)
from ttperm.twisted import u_complex, index_p_normal_subgroups
from ttperm.koszul import koszul_object


entry = st.integers(min_value=-9, max_value=9)


def matrices(rows, cols):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=60)
@given(matrices(3, 4))
def test_snf_properties_over_Z(A):
    U, D, V = smith_normal_form(ZZ, A)
    assert mat_eq(mat_mul(ZZ, U, mat_mul(ZZ, D, V)), A)
    # D diagonal with a nonnegative divisibility chain
    diag = []
    for i in range(3):
        for j in range(4):
            if i != j:
                assert D[i][j] == 0
        if i < 4:
            diag.append(D[i][i])
    assert all(d >= 0 for d in diag)
    for d1, d2 in zip(diag, diag[1:]):
        if d1 != 0:
            assert d2 % d1 == 0
        else:
            assert d2 == 0
    # U, V invertible over Z
    assert mat_eq(mat_mul(ZZ, U, matrix_inverse(ZZ, U)), mat_identity(ZZ, 3))
    assert mat_eq(mat_mul(ZZ, V, matrix_inverse(ZZ, V)), mat_identity(ZZ, 4))


@settings(max_examples=30)
@given(matrices(3, 3))
def test_snf_over_prime_field(A):
    F5 = GF(5)
    B = [[F5.normalize(v) for v in row] for row in A]
    U, D, V = smith_normal_form(F5, B)
    assert mat_eq(mat_mul(F5, U, mat_mul(F5, D, V)), B)
    diag = [D[i][i] for i in range(3)]
    # over a field every nonzero invariant factor is a unit
    assert all(d == 0 or F5.is_unit(d) for d in diag)


def test_snf_frozen_example():
    # divisors via determinantal gcds: d1 = 2, d1*d2 = 12, det = -144
    A = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    U, D, V = smith_normal_form(ZZ, A)
    assert [D[i][i] for i in range(3)] == [2, 6, 12]


def test_solve_and_kernel_sparse():
    # x + 2y = 5, 3y = 3  ->  x = 3, y = 1
    rows = [{0: 1, 1: 2}, {1: 3}]
    sols = solve_sparse(ZZ, rows, 2, [[5, 3]])
    assert sols is not None
    x, y = sols[0]
    assert x + 2 * y == 5 and 3 * y == 3
    # x + 2y = 1, 2x + 4y = 3 has no integer solution
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
    assert solve_sparse(ZZ, rows, 2, [[1, 3]]) is None
    # kernel of (1 2) is spanned by (2, -1) up to sign
    ker = kernel_sparse(ZZ, [{0: 1, 1: 2}], 2)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + 2 * v[1] == 0 and v != [0, 0]


def test_solve_sparse_over_Z_is_exact():
    # 2x = 1 is solvable over Q but not over Z
    assert solve_sparse(ZZ, [{0: 2}], 1, [[1]]) is None
    sols = solve_sparse(QQ, [{0: QQ.from_int(2)}], 1, [[QQ.one]])
    assert sols is not None


def test_rank_sparse():
    rows = sparse_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank_sparse(ZZ, rows, 3) == 2


def test_fg_module_labels_and_coords():
    # diag(2, 3) has Smith form diag(1, 6): a single cyclic factor
    M = FgModule(ZZ, 2, [[2, 0], [0, 3]])
    assert M.iso_invariants() == (0, (6,))
    assert M.label() == "Z/6"
    # diag(2, 4) is already an invariant-factor chain
    M = FgModule(ZZ, 2, [[2, 0], [0, 4]])
    assert M.iso_invariants() == (0, (2, 4))
    assert M.label() == "Z/2 (+) Z/4"
    free = FgModule(ZZ, 2, [])
    assert free.label() == "Z^2"
    assert free.coords([1, 2]) == (1, 2)
    zero = FgModule(ZZ, 0, [])
    assert zero.is_zero() and zero.label() == "0"
    # Z/2: the classes of 1 and 3 agree, 1 and 2 do not
    T = FgModule(ZZ, 1, [[2]])
    assert T.same_class([1], [3])
    assert not T.same_class([1], [2])
    assert T.class_is_zero([4])


def test_classes_equal_up_to_unit():
    T = FgModule(ZZ, 1, [[5]])
    # 2 and 3 = -2 mod 5 differ by the unit -1
    assert classes_equal_up_to_unit(T, [2], [3])
    assert not classes_equal_up_to_unit(T, [1], [0])


def test_homology_from_matrices():
    # Z --2--> Z --0--> 0: homology at the middle is Z/2
    fg, cycles = homology_from_matrices(ZZ, [], [[2]], 1)
    assert fg.label() == "Z/2"


def test_contractibility_certificates():
    G = cyclic(2)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)
    C = cone(identity_chain_map(X))
    ok, cert = is_contractible(C)
    assert ok
    assert isinstance(cert, ContractionCertificate)
    # without its top degree the contraction fails the identity there
    top = max(cert.h)
    partial = {n: f for n, f in cert.h.items() if n != top}
    with pytest.raises(AssertionError, match="identity fails at degree"):
        check_homotopy(identity_chain_map(C), partial)
    ok2, witness = is_contractible(unit_complex(G, ZZ))
    assert not ok2
    assert isinstance(witness, NonContractibleWitness)
    assert (witness.degree, witness.invariants) == (0, (1, ()))
    M = trivial_module(cyclic(1), ZZ)
    ok3, witness = is_contractible(two_term_complex(EquivMap(M, M, [[2]])))
    assert not ok3
    assert (witness.degree, witness.invariants) == (0, (0, (2,)))


def test_contractibility_uses_averaging_over_Q():
    # over Q every acyclic complex of a finite group is contractible
    G = cyclic(3)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, QQ)
    C = cone(identity_chain_map(X))
    ok, cert = is_contractible(C)
    assert ok


def test_null_homotopy_of_zero_and_nonzero_maps():
    G = cyclic(2)
    U = unit_complex(G, ZZ)
    M = U.term(0)
    zero = ChainMap(U, U, {0: EquivMap(M, M, [[0]])})
    h = null_homotopy(zero)
    assert h is not None
    check_homotopy(zero, h)
    ident = ChainMap(U, U, {0: EquivMap(M, M, [[1]])})
    assert null_homotopy(ident) is None


def test_hom_group_matches_bruteforce_on_small_complexes():
    for n, ring in ((2, ZZ), (3, ZZ), (2, GF(2)), (3, GF(3)), (2, QQ)):
        G = cyclic(n)
        N = index_p_normal_subgroups(G)[0]
        X = u_complex(G, N, ring)
        T = tensor_complex(X, dual_complex(X))
        for Y in (X, dual_complex(X), T):
            if Y.total_rank() > 40:
                continue  # the oracle refuses larger inputs
            for s in range(Y.min_degree - 1, Y.max_degree + 2):
                fast = hom_group(Y, -s).iso_invariants()
                slow, _ = hom_group_bruteforce(Y, -s)
                assert fast == slow.iso_invariants(), (n, ring.name, s)


def test_hom_group_unit():
    G = cyclic(3)
    U = unit_complex(G, ZZ)
    hg = hom_group(U, 0)
    assert hg.label() == "Z"
    assert hom_group(U, 1).is_zero()
    assert hom_group(U, -1).is_zero()


def test_solver_cap(monkeypatch):
    G = cyclic(2)
    N = index_p_normal_subgroups(G)[0]
    X = u_complex(G, N, ZZ)
    monkeypatch.setenv("TTPERM_MAX_RANK", "2")
    with pytest.raises(SolverCapExceeded):
        is_contractible(X)
    with pytest.raises(SolverCapExceeded):
        hom_group(X, 0)
    monkeypatch.setenv("TTPERM_MAX_RANK", "1000")
    hom_group(X, 0)  # under the cap: fine


def test_find_homotopy_equivalence_reflexive():
    G = cyclic(2)
    X = koszul_object(G, G.trivial_subgroup(), ZZ).complex
    eq = find_homotopy_equivalence(X, X)
    assert isinstance(eq, Equivalence)


def test_find_homotopy_equivalence_distinguishes_shifts():
    G = cyclic(2)
    U = unit_complex(G, ZZ)
    res = find_homotopy_equivalence(U, shift_complex(U, 1))
    assert isinstance(res, NotEquivalent)


def test_homology_profile_detects_quasi_isomorphism_type():
    G = cyclic(1)
    M = trivial_module(G, ZZ)
    X = two_term_complex(EquivMap(M, M, [[6]]))
    assert homology_profile(X) == {0: (0, (6,))}


def test_invert_keeps_hom_basis_maps_sparse(monkeypatch, capsys):
    # Hom-basis maps hold their orbit support only; a dense view built
    # on any of them during a whole command would bring back the
    # |target| x |source| matrices per map.
    from ttperm import homotopy
    from ttperm.cli import run
    monkeypatch.setattr(homotopy, "_HOM_BASIS_CACHE", {})
    assert run(["invert", "--group", "C5", "--ring", "Z"]) == 0
    capsys.readouterr()
    maps = [f for basis in homotopy._HOM_BASIS_CACHE.values()
            for f in basis]
    assert len(maps) > 100
    assert not any("matrix" in vars(f) for f in maps)


# ---------------------------------------------------------------------------
# homology profiles from sparse ranks, against Smith normal form

def _snf_profile(X):
    """The generator-tracking path: per-degree homology through SNF."""
    out = {}
    for n in X.degrees():
        fg, _ = underlying_homology(X, n)
        if not fg.is_zero():
            out[n] = fg.iso_invariants()
    return out


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3)], ids=str)
@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C5", "C2xC2", "C9"])
def test_homology_profile_matches_smith_normal_form(name, ring):
    G = parse_group_name(name)
    u = u_complex(G, index_p_normal_subgroups(G)[0], ring)
    powers = [u, tensor_complex(u, u)]
    if name != "C5":
        # the C5 cube has total rank 1331; its SNF oracle takes 30 s over Q
        powers.append(tensor_complex(powers[1], u))
    for X in powers:
        assert homology_profile(X) == _snf_profile(X)


@pytest.mark.parametrize("matrix, factors", [
    ([[2, 0], [0, 3]], (6,)),
    ([[2, 0], [0, 4]], (2, 4)),
    ([[4, 0], [0, 6]], (2, 12)),
    ([[2, 4], [6, 8]], (2, 4)),
])
def test_homology_profile_normalises_invariant_factors(matrix, factors):
    G = cyclic(1)
    M = direct_sum(trivial_module(G, ZZ), trivial_module(G, ZZ))
    X = two_term_complex(EquivMap(M, M, matrix))
    assert homology_profile(X) == {0: (0, factors)} == _snf_profile(X)


def test_homology_profile_checks_unchecked_complexes():
    # complexes built with check=False meet their d o d = 0 check here
    G = cyclic(1)
    M = trivial_module(G, ZZ)
    one = EquivMap(M, M, [[1]])
    X = Complex(G, ZZ, {0: M, 1: M, 2: M}, {1: one, 2: one}, check=False)
    with pytest.raises(AssertionError, match="d o d != 0 at degree 1"):
        homology_profile(X)


def test_dense_differentials_keep_no_sparse_copy():
    # compose, homology_profile and the contraction checks read the
    # nonzeros of a dense-built map transiently: a kept dict of them
    # would double the memory of every large differential
    G = cyclic(3)
    u = u_complex(G, index_p_normal_subgroups(G)[0], ZZ)
    X = tensor_complex(u, u)
    C = cone(identity_chain_map(X))
    assert homology_profile(X) == {4: (1, ())}
    ok, cert = is_contractible(C)
    assert ok
    cert.verify()
    maps = list(X.diffs.values()) + list(C.diffs.values())
    assert all("matrix" in vars(f) for f in maps)          # built dense
    assert not any(isinstance(v, dict) for f in maps for v in vars(f).values())
