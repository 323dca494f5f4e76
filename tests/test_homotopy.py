"""Exact linear algebra, homology, and homotopy-theoretic solvers.

Smith normal form is checked as a property (divisibility chain, dual
coordinates and generators, relations of coordinate zero) and against
the invariant factors of a determinantal-divisor oracle on random
matrices; hom groups computed through the invariants complex are
compared with the independent brute-force oracle that imposes
equivariance as raw linear equations.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ttperm.grp import cyclic, parse_group_name, subgroups
from ttperm.rings import ZZ, QQ, GF
from ttperm.permod import (trivial_module, perm_module, sign_module,
                           BlockModule, EquivMap, equivariant_hom_basis,
                           HomOrbits, CertificateError, _normalized,
                           _scaled)
from ttperm.chain import (Complex, unit_complex, shift_complex,
                          tensor_complex, dual_complex, cone,
                          identity_chain_map, two_term_complex, ChainMap)
from ttperm.homotopy import (smith_normal_form,
                             solve_sparse, kernel_sparse, rank_sparse,
                             FgModule,
                             homology_profile, underlying_homology, hom_group,
                             hom_group_bruteforce, is_contractible,
                             null_homotopy, check_homotopy,
                             find_homotopy_equivalence, Equivalence,
                             NotEquivalent, ContractionCertificate,
                             NonContractibleWitness, SolverCapExceeded,
                             _diagonalize, _column_rows)
from ttperm.twisted import u_complex, index_p_normal_subgroups
from ttperm.koszul import koszul_object


def _left_mul(ring, d_cols, b):
    """Reference: d . b as {(row, col): value}, normalized; ``d_cols``
    is _index(d.entries, 1) and ``b`` a sparse entries dict."""
    acc = {}
    for (t, c), v in b.items():
        for r, a in d_cols.get(t, ()):
            acc[(r, c)] = acc.get((r, c), 0) + a * v
    return _normalized(ring, acc)


def _right_mul(ring, b, d_rows):
    """Reference: b . d as {(row, col): value}, normalized; ``d_rows``
    is _index(d.entries, 0) and ``b`` a sparse entries dict."""
    acc = {}
    for (r, t), v in b.items():
        for c, a in d_rows.get(t, ()):
            acc[(r, c)] = acc.get((r, c), 0) + v * a
    return _normalized(ring, acc)


def _identity_minus(ring, cols, entries):
    """Reference: the entries of id - f on the columns ``cols`` for an
    endomorphism f given by its entries there, normalized."""
    acc = {(i, i): ring.one for i in cols}
    for key, v in entries.items():
        acc[key] = acc.get(key, ring.zero) - v
    return _normalized(ring, acc)


entry = st.integers(min_value=-9, max_value=9)


def matrices(rows, cols):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def sparse_rows(matrix):
    """Row dicts {col: value} of a small dense matrix, nonzeros only,
    columns ascending (as ``EquivMap.rows`` gives them)."""
    return [{c: v for c, v in enumerate(row) if v != 0} for row in matrix]


def _det(ring, M):
    """Determinant by expansion along the first row."""
    if not M:
        return ring.one
    return ring.normalize(sum(
        (-1) ** j * a * _det(ring, [row[:j] + row[j + 1:] for row in M[1:]])
        for j, a in enumerate(M[0]) if a != 0))


def determinantal_factors(ring, A):
    """The ``FgModule.factors`` of R^t / (column span of A), A a t x s
    matrix, from the determinantal divisors: d_k is the gcd of the k x k
    minors and the k-th invariant factor d_k / d_{k-1}; nonunit nonzero
    ones are the torsion, ascending, and the t - rank columns past them
    are free."""
    from itertools import combinations
    from math import gcd
    t, s = len(A), len(A[0]) if A else 0
    factors, prev, rank = [], 1, 0
    for k in range(1, min(t, s) + 1):
        d = 0
        for rs in combinations(range(t), k):
            for cs in combinations(range(s), k):
                m = _det(ring, [[A[r][c] for c in cs] for r in rs])
                d = gcd(d, m) if not ring.is_field else (d or m)
        if d == 0:
            break
        rank = k
        if not ring.is_field:
            if abs(d) // prev != 1:
                factors.append(abs(d) // prev)
            prev = abs(d)
    return factors + [ring.zero] * (t - rank)


def _check_snf(ring, A):
    """Every property of ``smith_normal_form`` on the t x s matrix A;
    returns its factors."""
    t, s = len(A), len(A[0]) if A else 0
    summands = smith_normal_form(ring, sparse_rows(A), s)
    factors = [d for d, _, _ in summands]
    torsion = [d for d in factors if d != 0]
    # torsion first, a chain of nonunits, then free summands
    assert factors == torsion + [ring.zero] * (len(factors) - len(torsion))
    assert all(d > 1 for d in torsion)
    assert all(b % a == 0 for a, b in zip(torsion, torsion[1:]))

    def coord(d, phi, v):
        c = ring.normalize(sum(phi.get(k, 0) * x for k, x in v.items()))
        return c % d if d else c

    for i, (d, phi, _) in enumerate(summands):
        assert [coord(d, phi, gamma) for _, _, gamma in summands] == \
            [1 if j == i else 0 for j in range(len(summands))]
        for k in range(s):
            assert coord(d, phi, {r: A[r][k] for r in range(t)}) == 0
    assert factors == determinantal_factors(ring, A)
    return factors


@settings(max_examples=60)
@given(matrices(3, 4))
def test_snf_properties_over_Z(A):
    _check_snf(ZZ, A)


@settings(max_examples=30)
@given(matrices(3, 3))
def test_snf_over_prime_field(A):
    F5 = GF(5)
    # over a field every invariant factor is a unit or 0: only free
    # summands are left
    factors = _check_snf(F5, [[F5.normalize(v) for v in row] for row in A])
    assert all(d == 0 for d in factors)


def test_snf_frozen_example():
    # divisors via determinantal gcds: d1 = 2, d1*d2 = 12, det = -144
    A = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    assert _check_snf(ZZ, A) == [2, 6, 12]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3), GF(5)], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_snf_matches_determinantal_divisors(ring, data):
    # shapes up to 5 x 5, zero rows or columns included; small entries
    # make nonunit pivots and pairs that are no chain common over Z
    t = data.draw(st.integers(0, 5), label="rows")
    s = data.draw(st.integers(0, 5), label="cols")
    A = data.draw(st.lists(st.lists(
        st.sampled_from([0, 0, 0, 1, -1, 2, 3, 4, 6]), min_size=s,
        max_size=s), min_size=t, max_size=t), label="A")
    _check_snf(ring, [[ring.normalize(v) for v in row] for row in A])


def test_solve_and_kernel_sparse():
    # x + 2y = 5, 3y = 3  ->  x = 3, y = 1
    rows = [{0: 1, 1: 2}, {1: 3}]
    sols = solve_sparse(ZZ, rows, 2, {0: {"b": 5}, 1: {"b": 3}})
    assert sols == {"b": {0: 3, 1: 1}}
    # x + 2y = 1, 2x + 4y = 3 has no integer solution
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
    assert solve_sparse(ZZ, rows, 2, {0: {0: 1}, 1: {0: 3}}) is None
    # kernel of (1 2) is spanned by (2, -1) up to sign
    ker = kernel_sparse(ZZ, [{0: 1, 1: 2}], 2)
    assert ker in ([{0: 2, 1: -1}], [{0: -2, 1: 1}])


def test_solve_sparse_over_Z_is_exact():
    # 2x = 1 is solvable over Q but not over Z
    assert solve_sparse(ZZ, [{0: 2}], 1, {0: {0: 1}}) is None
    sols = solve_sparse(QQ, [{0: QQ.from_int(2)}], 1, {0: {0: QQ.one}})
    assert sols == {0: {0: Fraction(1, 2)}}


def test_solve_sparse_keeps_right_sides_sparse():
    # several right sides by key; zero solutions are absent, and a
    # right side on a dependent row must vanish after elimination
    rows = [{0: 1}, {1: 2}, {0: 1, 1: 2}]
    sols = solve_sparse(ZZ, rows, 2, {0: {"a": 1, "z": 0},
                                      1: {"b": 4}, 2: {"a": 1, "b": 4}})
    assert sols == {"a": {0: 1}, "b": {1: 2}}
    assert solve_sparse(ZZ, rows, 2, {2: {"a": 1}}) is None
    assert solve_sparse(GF(3), rows, 2, {}) == {}


@settings(max_examples=80)
@given(matrices(3, 4))
def test_reported_free_columns_are_injective_on_the_kernel(A):
    # a kernel vector that vanishes on the reported free columns F is 0:
    # restricted to F the kernel basis keeps its rank.  A field always
    # reports F; over Z a pivot moved to a remainder's column may not
    for ring in (ZZ, GF(5)):
        rows = sparse_rows([[ring.normalize(v) for v in row] for row in A])
        sols, free = solve_sparse(ring, rows, 4, {}, return_free=True)
        assert sols == {}
        assert free is not None or ring is ZZ
        if free is not None:
            ker = kernel_sparse(ring, rows, 4)
            on_free = [{i: v for i, v in x.items() if i in free}
                       for x in ker]
            assert len(free) == len(ker) == rank_sparse(
                ring, _column_rows(on_free, 4), len(ker))


def test_rank_sparse():
    rows = sparse_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank_sparse(ZZ, rows, 3) == 2


def test_fg_module_labels_and_coords():
    # boundaries 2 e_0 and 3 e_1, relations diag(2, 3), have Smith form
    # diag(1, 6): a single cyclic factor
    M = FgModule(ZZ, [], [{0: 2}, {1: 3}], 2)
    assert M.iso_invariants() == (0, (6,))
    assert M.label() == "Z/6"
    # diag(2, 4) is already an invariant-factor chain
    M = FgModule(ZZ, [], [{0: 2}, {1: 4}], 2)
    assert M.iso_invariants() == (0, (2, 4))
    assert M.label() == "Z/2 (+) Z/4"
    free = FgModule(ZZ, [], [], 2)
    assert free.label() == "Z^2"
    assert free.coords({0: 1, 1: 2}) == (1, 2)
    zero = FgModule(ZZ, [], [], 0)
    assert zero.is_zero() and zero.label() == "0"
    # Z/2: the classes of 1 and 3 agree, 1 and 2 do not
    T = FgModule(ZZ, [], [{0: 2}], 1)
    assert T.classes_equal({0: 1}, {0: 3})
    assert not T.classes_equal({0: 1}, {0: 2})
    assert T.class_is_zero({0: 4})


def test_fg_module_reads_classes_in_its_cycle_basis():
    # Z^2 --(1 -1)--> Z with boundary 2 (e_0 + e_1): cycles are the
    # multiples of e_0 + e_1 and the homology is Z/2
    M = FgModule(ZZ, [{0: 1, 1: -1}], [{0: 2, 1: 2}], 2)
    assert M.cycles == [{0: 1, 1: 1}]
    assert M.label() == "Z/2"
    assert M.generators == [{0: 1, 1: 1}]
    assert M.coords({0: 3, 1: 3}) == (1,)
    assert M.class_is_zero({0: -2, 1: -2})
    with pytest.raises(ValueError, match="not a cycle"):
        M.coords({0: 1})
    # identity cycles: every vector of the space is a cycle, a vector
    # outside it is not
    free = FgModule(QQ, [], [], 2)
    assert free.coords({1: 5}) == (0, 5)
    with pytest.raises(ValueError, match="not a cycle"):
        free.coords({2: 1})
    with pytest.raises(ValueError, match="not a cycle"):
        FgModule(GF(3), [], [], 0).coords({0: 1})


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2)], ids=str)
def test_fg_module_without_relations_takes_the_smith_form_path(
        ring, monkeypatch):
    # no relations is t empty rows of no columns, free on the standard
    # basis, t = 0 included
    from ttperm import homotopy
    calls = []
    real = homotopy.smith_normal_form

    def recording(ring, rows, ncols):
        calls.append((rows, ncols))
        return real(ring, rows, ncols)

    monkeypatch.setattr(homotopy, "smith_normal_form", recording)
    free = FgModule(ring, [], [], 3)
    assert free.factors == [ring.zero] * 3
    assert free.generators == [{i: ring.one} for i in range(3)]
    assert free.coords({0: ring.one, 2: ring.from_int(2)}) == \
        (ring.one, ring.zero, ring.normalize(2))
    zero = FgModule(ring, [], [], 0)
    assert zero.factors == zero.generators == []
    assert zero.coords({}) == () and zero.label() == "0"
    assert calls == [([{}, {}, {}], 0), ([], 0)]


@pytest.mark.parametrize("ring", [ZZ, GF(3), QQ], ids=str)
def test_hom_group_generators_have_unit_coordinates(ring):
    # HomGroup reads its FgModule through the invariant coordinates: the
    # i-th generator, an ambient cycle, has coordinates e_i
    G = cyclic(3)
    X = u_complex(G, index_p_normal_subgroups(G)[0], ring)
    for Y in (X, tensor_complex(X, X)):
        for s in range(-Y.max_degree, 1):
            hg = hom_group(Y, s)
            t = len(hg.generators)
            assert [hg.coords(g) for _, g in hg.generators] == [
                tuple(ring.one if j == i else ring.zero for j in range(t))
                for i in range(t)]
            for _, g in hg.generators:
                assert hg.classes_equal(g, _scaled(ring, -1, g),
                                        up_to_unit=True)
    with pytest.raises(ValueError, match="not invariant"):
        hom_group(X, -1).coords({0: 1})


def test_fg_module_classes_equal_up_to_a_unit():
    T = FgModule(ZZ, [], [{0: 5}], 1)
    # 2 and 3 = -2 mod 5 differ by the unit -1
    assert T.classes_equal({0: 2}, {0: 3}, up_to_unit=True)
    assert not T.classes_equal({0: 2}, {0: 3})
    assert not T.classes_equal({0: 1}, {}, up_to_unit=True)
    # over Q the unit is the ratio of coordinates, here exactly 1/3 (an
    # int division 1 / 3 would give a float)
    Q2 = FgModule(QQ, [], [], 2)
    assert Q2.classes_equal({0: 1, 1: 2}, {0: 3, 1: 6}, up_to_unit=True)
    assert Q2.classes_equal({0: Fraction(1, 3), 1: 1}, {0: 1, 1: 3},
                            up_to_unit=True)
    assert not Q2.classes_equal({0: 1, 1: 2}, {0: 3, 1: 7},
                                up_to_unit=True)
    assert not Q2.classes_equal({}, {0: 3, 1: 6}, up_to_unit=True)
    # over F_5 every nonzero scalar is a unit: 2 = 4 . 3
    F = FgModule(GF(5), [], [], 1)
    assert F.classes_equal({0: 2}, {0: 3}, up_to_unit=True)
    assert not F.classes_equal({0: 2}, {}, up_to_unit=True)


def test_fg_module_of_a_two_term_complex():
    # Z --2--> Z --0--> 0: homology at the middle is Z/2
    fg = FgModule(ZZ, [], [{0: 2}], 1)
    assert fg.label() == "Z/2"


def _identity_entries(X):
    return {n: {(i, i): 1 for i in range(M.rank)} for n, M in X.terms.items()}


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
    with pytest.raises(CertificateError, match="identity fails at degree"):
        check_homotopy(C, C, _identity_entries(C), partial)
    ok2, witness = is_contractible(unit_complex(G, ZZ))
    assert not ok2
    assert isinstance(witness, NonContractibleWitness)
    assert (witness.degree, witness.invariants) == (0, (1, ()))
    M = trivial_module(cyclic(1), ZZ)
    X = two_term_complex(EquivMap(M, M, {(0, 0): 2}))
    ok3, witness = is_contractible(X)
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


def test_contractibility_averages_signed_modules():
    # R -> R(G) -> L, with L the sign module, is acyclic over Q; the
    # averaged contraction L -> R(G) must carry the sign of L, and the
    # only equivariant h_0 with d_1 h_0 = id is 1 -> (e_0 - e_1) / 2
    G = cyclic(2)
    R = trivial_module(G, QQ)
    P = perm_module(G, G.trivial_subgroup(), QQ)
    L = sign_module(G, G.trivial_subgroup(), QQ)
    X = Complex(G, QQ, {2: R, 1: P, 0: L},
                {2: EquivMap(R, P, {(0, 0): 1, (1, 0): 1}),
                 1: EquivMap(P, L, {(0, 0): 1, (0, 1): -1})})
    ok, cert = is_contractible(X)
    assert ok
    assert cert.h[0].entries == {(0, 0): Fraction(1, 2),
                                 (1, 0): Fraction(-1, 2)}


def test_null_homotopy_of_zero_and_nonzero_maps():
    G = cyclic(2)
    U = unit_complex(G, ZZ)
    M = U.term(0)
    zero = ChainMap(U, U, {0: EquivMap(M, M, {})})
    h = null_homotopy(zero)
    assert h is not None
    check_homotopy(U, U, {}, h)
    ident = ChainMap(U, U, {0: EquivMap(M, M, {(0, 0): 1})})
    assert null_homotopy(ident) is None


def test_check_homotopy_rejects_a_homotopy_over_a_subgroup():
    # a contraction of Res_1 X is equivariant only for the trivial group;
    # checked on one column per G-orbit of X it could pass unseen, so a
    # homotopy on modules with another action is a caller's bug
    from ttperm.chain import restrict_complex
    G = cyclic(3)
    X = cone(identity_chain_map(
        u_complex(G, index_p_normal_subgroups(G)[0], ZZ)))
    ok, cert = is_contractible(restrict_complex(X, G.trivial_subgroup()))
    assert ok and cert.verify()
    broken = 0
    for n, f in cert.h.items():
        try:
            EquivMap(X.terms[n], X.terms[n + 1], f.entries)
        except CertificateError:
            broken += 1
    assert broken                 # not G-equivariant
    with pytest.raises(ValueError, match="h_-?[0-9]+ is not X_"):
        check_homotopy(X, X, 1, cert.h)


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
    # a hom group already kept on X is still refused under a lower cap
    monkeypatch.setenv("TTPERM_MAX_RANK", "2")
    with pytest.raises(SolverCapExceeded):
        hom_group(X, 0)


def test_hom_groups_are_kept_on_their_complex():
    G = cyclic(3)
    Y = u_complex(G, index_p_normal_subgroups(G)[0], ZZ)
    assert hom_group(Y, 0) is hom_group(Y, 0)
    assert hom_group(Y, 0).inv is hom_group(Y, -1).inv
    assert Y.hom_groups.keys() == {0, -1}


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
    X = two_term_complex(EquivMap(M, M, {(0, 0): 6}))
    assert homology_profile(X) == {0: (0, (6,))}


def _search_pairs(argv):
    """The (X, Y) pairs whose equivalences the command argv searched
    before its transports and its invert candidate were built: (u (x)
    u*, 1) for invert, and for a twisted table the tensor and target of
    each transport key that holds a map."""
    from ttperm.rings import domain_from_name
    from ttperm.twisted import Twist, canonical_u_power, twisted_table
    opts = dict(zip(argv[1::2], argv[2::2]))
    G = parse_group_name(opts["--group"])
    ring = domain_from_name(opts.get("--ring", "Z"))
    if argv[0] == "invert":
        u = u_complex(G, index_p_normal_subgroups(G)[0], ring)
        return [(tensor_complex(u, dual_complex(u)), unit_complex(G, ring))]
    twisted_table(G, ring, int(opts.get("--max-twist", 3)))
    subgroup = {N.elements: N for N in index_p_normal_subgroups(G)}
    pairs = []
    for key, value in G.twist_complexes.items():
        if len(key) == 3 and value[0] is not None:
            q1, q2 = (Twist([(subgroup[el], e) for el, e in k])
                      for k in key[1:])
            pairs.append((tensor_complex(canonical_u_power(G, q1, ring),
                                         canonical_u_power(G, q2, ring)),
                          canonical_u_power(G, q1 + q2, ring)))
    return pairs


def _search(argv):
    """Search an equivalence for each of the command's ``_search_pairs``."""
    pairs = _search_pairs(argv)
    assert pairs
    for X, Y in pairs:
        assert isinstance(find_homotopy_equivalence(X, Y), Equivalence)


def _run_and_search(argv):
    """Run the command argv, then ``_search`` its pairs."""
    from ttperm.cli import run
    assert run(argv) == 0
    _search(argv)


def _koszul_restriction(argv):
    """Res_H X for the object of the ``kos`` command argv: the complex
    the command contracted by the sweep before it built its contraction
    along the tower."""
    from ttperm.chain import restrict_complex
    from ttperm.cli import resolve_subgroup
    from ttperm.rings import domain_from_name
    opts = dict(zip(argv[1::2], argv[2::2]))
    G = parse_group_name(opts["--group"])
    H = resolve_subgroup(G, opts["--subgroup"])[0]
    ring = domain_from_name(opts.get("--ring", "Z"))
    return restrict_complex(koszul_object(G, H, ring).complex, H)


def test_invert_caches_hom_bases_as_orbit_codes(monkeypatch, capsys):
    # every hom basis a search caches is an orbit table: the orbit
    # roots and one 4-byte code per basis pair, no map.  Contractions
    # and lifts cache none, so the commands are driven with the searches
    # they made before their candidates were built; the transports of a
    # twisted table cache enough of them to reach the size threshold.
    from array import array
    from ttperm import homotopy
    cached = []
    real = homotopy._hom_basis

    def recording(M, N):
        basis = real(M, N)
        cached.append(basis)
        return basis

    monkeypatch.setattr(homotopy, "_hom_basis", recording)
    _run_and_search(["invert", "--group", "C5", "--ring", "Z"])
    assert cached
    _run_and_search(["twisted", "--group", "C3", "--ring", "Z",
                     "--max-twist", "3"])
    capsys.readouterr()
    tables = list({id(H): H for H in cached}.values())
    assert len(tables) >= 5 and sum(map(len, tables)) > 100
    for H in tables:
        assert isinstance(H, HomOrbits)
        assert H.source.hom_bases[H.target] is H
        assert set(vars(H)) == {"source", "target", "code", "roots"}
        for table in (H.code, H.roots):
            assert type(table) is array and table.itemsize == 4
        assert len(H.code) == H.source.rank * H.target.rank


def test_hom_basis_cache_dies_with_its_modules():
    # hom bases are cached on their source module, so a homotopy solve
    # keeps no module alive once the caller drops it
    import gc
    import weakref
    from ttperm.homotopy import _hom_basis
    G = cyclic(2)
    X = cone(identity_chain_map(u_complex(G, index_p_normal_subgroups(G)[0],
                                          ZZ)))
    ok, cert = is_contractible(X)       # over Z: an orbit-basis solve
    assert ok
    M = X.terms[0]
    assert _hom_basis(M, X.terms[1]) is _hom_basis(M, X.terms[1])
    refs = [weakref.ref(M) for M in X.terms.values()]
    del X, M, cert
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_fixed_orbits_keep_rank_one_modules_on_the_group():
    # the stabilizer K is the lattice's Subgroup, and the rank-one module
    # of each (K, chi, ring) is built once and dies with its group
    import gc
    import weakref
    from ttperm.homotopy import _fixed_orbits, _source_classes
    G = parse_group_name("C2xC2")
    X = cone(identity_chain_map(u_complex(G, index_p_normal_subgroups(G)[0],
                                          ZZ)))
    assert is_contractible(X)[0]
    kept = dict(G.rank_one_modules)
    assert kept
    for (K, chi, ring), (S, L) in kept.items():
        assert any(S is T for T in subgroups(G)) and S.elements == K
        assert L.rank == 1 and ring is ZZ
    for M in X.terms.values():
        for cls in _source_classes(M):
            _fixed_orbits(M, *cls)
    assert all(G.rank_one_modules[key] is kept[key] for key in kept)
    ref = weakref.ref(G)
    del G, X, M, S, L, kept
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# homology profiles from sparse ranks, against Smith normal form

def _snf_profile(X):
    """The generator-tracking path: per-degree homology through SNF."""
    out = {}
    for n in X.degrees():
        fg = underlying_homology(X, n)
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
    M = BlockModule(G, ZZ, [("a", trivial_module(G, ZZ)),
                            ("b", trivial_module(G, ZZ))]).module
    X = two_term_complex(EquivMap(M, M, {(r, c): v
                                         for r, row in enumerate(matrix)
                                         for c, v in enumerate(row)}))
    assert homology_profile(X) == {0: (0, factors)} == _snf_profile(X)


def test_homology_profile_checks_unchecked_complexes():
    # complexes built with check=False meet their d o d = 0 check here
    G = cyclic(1)
    M = trivial_module(G, ZZ)
    one = EquivMap(M, M, {(0, 0): 1})
    X = Complex(G, ZZ, {0: M, 1: M, 2: M}, {1: one, 2: one}, check=False)
    with pytest.raises(CertificateError, match="d o d != 0 at degree 1"):
        homology_profile(X)


# ---------------------------------------------------------------------------
# the incremental pivot search against the full rescan it replaced

def _diagonalize_by_rescan(ring, rows, ncols, rhs=None):
    """The elimination with a full rescan of the active submatrix for
    every pivot: the reference for the pivot rule of ``_diagonalize``."""
    nrows = len(rows)
    if rhs is None:
        rhs = [dict() for _ in range(nrows)]
    col_rows = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)
    P = {c: {c: ring.one} for c in range(ncols)}
    active_rows = set(range(nrows))
    active_cols = set(range(ncols))
    pivots = []
    exact = ring.is_field
    zero = ring.zero

    def row_op(r2, r1, q):
        row1, row2 = rows[r1], rows[r2]
        for c, v in row1.items():
            nv = ring.normalize(row2.get(c, zero) - q * v)
            if nv == 0:
                if c in row2:
                    del row2[c]
                    col_rows[c].discard(r2)
            else:
                if c not in row2:
                    col_rows[c].add(r2)
                row2[c] = nv
        rb1, rb2 = rhs[r1], rhs[r2]
        for k, v in rb1.items():
            nv = ring.normalize(rb2.get(k, zero) - q * v)
            if nv == 0:
                rb2.pop(k, None)
            else:
                rb2[k] = nv

    def col_op(c2, c1, q):
        for r in list(col_rows[c1]):
            v = rows[r][c1]
            nv = ring.normalize(rows[r].get(c2, zero) - q * v)
            if nv == 0:
                if c2 in rows[r]:
                    del rows[r][c2]
                    col_rows[c2].discard(r)
            else:
                if c2 not in rows[r]:
                    col_rows[c2].add(r)
                rows[r][c2] = nv
        P1, P2 = P[c1], P[c2]
        for k, v in P1.items():
            nv = ring.normalize(P2.get(k, zero) - q * v)
            if nv == 0:
                P2.pop(k, None)
            else:
                P2[k] = nv

    def pick_pivot():
        # rows ascending, as iterating set(range(nrows)) gives them
        best = None
        for r in sorted(active_rows):
            row = rows[r]
            if not row:
                continue
            for c, v in row.items():
                if c not in active_cols:
                    continue
                if exact:
                    cost = (len(row), len(col_rows[c]))
                else:
                    cost = (abs(v), len(row), len(col_rows[c]))
                if best is None or cost < best[0]:
                    best = (cost, r, c)
                    if exact and cost[0] == 1:
                        return r, c
                    if not exact and cost[0] == 1 and cost[1] == 1:
                        return r, c
        return (best[1], best[2]) if best else None

    while True:
        pv = pick_pivot()
        if pv is None:
            break
        r, c = pv
        while True:
            v = rows[r][c]
            moved = False
            for r2 in sorted(col_rows[c]):
                if r2 == r:
                    continue
                w = rows[r2][c]
                if exact:
                    q = ring.normalize(w * ring.inv(v))
                else:
                    q = w // v
                if q != 0:
                    row_op(r2, r, q)
                if not exact and c in rows[r2]:
                    r = r2
                    moved = True
                    break
            if moved:
                continue
            v = rows[r][c]
            dirty = False
            for c2 in sorted(rows[r]):
                if c2 == c:
                    continue
                w = rows[r][c2]
                if exact:
                    q = ring.normalize(w * ring.inv(v))
                else:
                    q = w // v
                if q != 0:
                    col_op(c2, c, q)
                if not exact and c2 in rows[r]:
                    c = c2
                    dirty = True
                    break
            if dirty:
                continue
            break
        pivots.append((r, c, rows[r][c]))
        active_rows.discard(r)
        active_cols.discard(c)
    free_cols = sorted(active_cols)
    return pivots, P, free_cols, rhs


def _same_elimination(ring, rows, ncols, rhs):
    """Run both searches on copies of one input; True if they agree on
    pivots, column transform, free columns, right sides and the reduced
    rows (dict order included)."""
    def copy(ds):
        return None if ds is None else [dict(d) for d in ds]
    rows1, rows2 = copy(rows), copy(rows)
    got = _diagonalize(ring, rows1, ncols, copy(rhs))
    want = _diagonalize_by_rescan(ring, rows2, ncols, copy(rhs))
    return (got == want and [list(r.items()) for r in rows1]
            == [list(r.items()) for r in rows2]
            and [list(P.items()) for _, P in sorted(got[1].items())]
            == [list(P.items()) for _, P in sorted(want[1].items())])


def _random_rows(rnd, ring, nrows, ncols, density, values):
    rows = []
    for _ in range(nrows):
        cols = [c for c in range(ncols) if rnd.random() < density]
        rnd.shuffle(cols)       # pivot ties follow insertion order
        row = {}
        for c in cols:
            v = ring.normalize(rnd.choice(values))
            if v != 0:
                row[c] = v
        rows.append(row)
    return rows


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3), GF(7)], ids=str)
def test_incremental_pivot_search_matches_rescan_on_random_matrices(ring):
    import random
    rnd = random.Random(7)
    if ring is ZZ:
        # many ties in |v|, non-unit entries and remainders
        values = [1, -1, 2, -2, 3, 4, -6, 9]
    elif ring is QQ:
        values = [QQ.from_int(k) for k in (1, -1, 2, 3)] + [
            Fraction(1, 2), Fraction(-1, 3)]
    else:
        values = list(range(1, 9))
    for trial in range(120):
        nrows, ncols = rnd.randint(1, 14), rnd.randint(1, 14)
        density = rnd.choice([0.1, 0.25, 0.5, 0.9])
        rows = _random_rows(rnd, ring, nrows, ncols, density, values)
        rhs = [{k: ring.normalize(rnd.choice(values))
                for k in range(2) if rnd.random() < 0.5}
               for _ in range(nrows)]
        assert _same_elimination(ring, rows, ncols, rhs), trial
        assert _same_elimination(ring, rows, ncols, None), trial


@pytest.mark.parametrize("argv", [
    ["twisted", "--group", "C3", "--ring", "Z", "--max-twist", "5"],
    ["twisted", "--group", "C3", "--ring", "F3", "--max-twist", "4"],
])
def test_incremental_pivot_search_matches_rescan_on_command_systems(
        argv, monkeypatch, capsys):
    # every system a command and its searches eliminate, replayed
    # through the rescan
    from ttperm import homotopy
    seen = []
    real = homotopy._diagonalize

    def recording(ring, rows, ncols, rhs=None):
        seen.append((ring, [dict(r) for r in rows], ncols,
                     None if rhs is None else [dict(b) for b in rhs]))
        return real(ring, rows, ncols, rhs)

    monkeypatch.setattr(homotopy, "_diagonalize", recording)
    _run_and_search(argv)
    capsys.readouterr()
    monkeypatch.undo()
    assert len(seen) >= 10
    assert sum(len(rows) for _, rows, _, _ in seen) > 1000
    for ring, rows, ncols, rhs in seen:
        assert _same_elimination(ring, rows, ncols, rhs)


_CORRUPTED_CONTRACTION = """
import sys
from ttperm import homotopy
from ttperm.chain import cone, identity_chain_map
from ttperm.cli import run
from ttperm.grp import cyclic
from ttperm.twisted import u_complex, index_p_normal_subgroups
from ttperm.rings import ZZ

assert sys.flags.optimize
G = cyclic(2)
C = cone(identity_chain_map(u_complex(G, index_p_normal_subgroups(G)[0], ZZ)))
ok, cert = homotopy.is_contractible(C)
partial = {n: f for n, f in cert.h.items() if n != max(cert.h)}
try:
    homotopy.check_homotopy(C, C, {n: {(i, i): 1 for i in range(M.rank)}
                                   for n, M in C.terms.items()}, partial)
    sys.exit("a partial contraction passed check_homotopy")
except homotopy.CertificateError:
    pass

real = homotopy._contract_equivariant

def doubled(X):
    # the equivariant contraction with its lowest component doubled
    h = real(X)
    if h:
        f = h[min(h)]
        h[min(h)] = homotopy.EquivMap(f.source, f.target,
                                      {k: 2 * v for k, v in f.entries.items()})
    return h

homotopy._contract_equivariant = doubled
sys.exit(run(["invert", "--group", "C3", "--ring", "Z"]))
"""


def test_corrupted_contractions_are_rejected_under_python_O(python_O):
    # certificate checks raise CertificateError instead of asserting, so
    # python -O keeps them, and the command still exits 2 with the error
    import json
    proc = python_O(_CORRUPTED_CONTRACTION)
    assert proc.returncode == 2, proc.stderr
    out = json.loads(proc.stdout)
    assert out["error"] == "CertificateError"
    assert "identity fails" in out["message"]


_RATIONAL_EQUIVALENCE = """
import io
import sys
from contextlib import redirect_stdout
from ttperm.chain import ChainMap, evaluation_pairing
from ttperm.cli import run
from ttperm.grp import parse_group_name
from ttperm.homotopy import Equivalence, unit_equivalence
from ttperm.permod import CertificateError, EquivMap
from ttperm.rings import QQ
from ttperm.twisted import u_complex, index_p_normal_subgroups

assert sys.flags.optimize
with redirect_stdout(io.StringIO()):
    assert run(["invert", "--group", "C5", "--ring", "Q"]) == 0


def denominators(maps):
    return sorted({getattr(v, "denominator", 1)
                   for f in maps for v in f.entries.values()})


G = parse_group_name("C5")
eq = unit_equivalence(evaluation_pairing(
    u_complex(G, index_p_normal_subgroups(G)[0], QQ)), 0)
print("g", denominators(eq.g.components.values()))
print("h", denominators(eq.h.values()))
eq.verify()
g2 = ChainMap(eq.g.source, eq.g.target, {
    n: EquivMap(c.source, c.target, {k: 2 * v for k, v in c.entries.items()})
    for n, c in eq.g.components.items()})
try:
    Equivalence(eq.f, g2, eq.h, eq.hp).verify()
    sys.exit("a doubled rational quasi-inverse passed")
except CertificateError as exc:
    print("doubled", exc)
"""


def test_a_rational_equivalence_with_g_doubled_fails_under_python_O(
        python_O):
    # over Q the quasi-inverse of invert C5 has denominator 4 and the
    # homotopy h denominators 2 and 4, so id - g f is checked with
    # cleared denominators; 2 g breaks it
    proc = python_O(_RATIONAL_EQUIVALENCE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "g [4]", "h [1, 2, 4]",
        "doubled homotopy identity fails at degree 0"]


_CORRUPTED_INPUTS = """
import sys
from ttperm.chain import Complex, ChainMap, two_term_complex
from ttperm.grp import cyclic
from ttperm.permod import (CertificateError, EquivMap, SignedPermModule,
                           trivial_module)
from ttperm.rings import ZZ

assert sys.flags.optimize
G = cyclic(4)
M = trivial_module(cyclic(1), ZZ)
one = EquivMap(M, M, {(0, 0): 1})
X = two_term_complex(one)
free = SignedPermModule(G, ZZ, tuple(G.elements()),
                        [[(G.mul(g, x), 1) for x in G.elements()]
                         for g in G.elements()])
action = [list(row) for row in free.action]
action[2] = action[3]
bad = {
    "action": lambda: SignedPermModule(G, ZZ, free.basis, action),
    "equivariance": lambda: EquivMap(free, free, {(0, 0): 1}),
    "square": lambda: ChainMap(X, X, {0: one}),
    "d o d": lambda: Complex(M.group, ZZ, {0: M, 1: M, 2: M},
                             {1: one, 2: one}),
    "bounds": lambda: EquivMap(M, M, {(M.rank, 0): 1}),
}
for name, build in bad.items():
    try:
        build()
        sys.exit("a bad %s passed its check" % name)
    except CertificateError as exc:
        print(name, exc)
"""


def test_corrupted_inputs_are_rejected_under_python_O(python_O):
    # the action, equivariance, chain-map square, d o d and entry bounds
    # checks raise CertificateError, so python -O keeps them
    from ttperm import homotopy, permod
    assert homotopy.CertificateError is permod.CertificateError
    proc = python_O(_CORRUPTED_INPUTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "action action is not a homomorphism",
        "equivariance map is not equivariant",
        "square square at degree 1 does not commute",
        "d o d d o d != 0 at degree 1",
        "bounds entry (1, 0) lies outside a 1 x 1 map",
    ]


def test_chain_maps_are_built_only_for_tried_candidates(monkeypatch):
    from ttperm import homotopy
    vectors, built, tried = [], [], []

    def spy(name, log, count):
        real = getattr(homotopy, name)

        def wrapper(*args):
            result = real(*args)
            log.append(count(result))
            return result

        monkeypatch.setattr(homotopy, name, wrapper)

    spy("chain_map_space", vectors, lambda out: len(out[1]))
    spy("_chain_map", built, lambda f: 1)
    spy("_try_equivalence", tried, lambda eq: 1)
    _search(["twisted", "--group", "C3", "--ring", "Z", "--max-twist", "3"])
    assert len(built) <= len(tried) < sum(vectors)


def test_combined_chain_map_keeps_the_entry_order_of_the_summed_maps():
    # the Bezout candidate is built from combined coefficient vectors;
    # the reference sums the built maps, whose entry order elimination
    # reads for its pivot ties
    from ttperm.homotopy import chain_map_space, _chain_map, _combine_vectors
    G = cyclic(3)
    U = u_complex(G, index_p_normal_subgroups(G)[0], ZZ)
    X = tensor_complex(U, U)
    bases, space = chain_map_space(X, X)
    maps = [_chain_map(X, X, bases, v) for v in space]  # squares checked
    assert maps and not any(m.is_zero() for m in maps)
    combo = [(-1) ** i * (i % 5) for i in range(len(space))]
    f = _chain_map(X, X, bases, _combine_vectors(space, combo))
    for n, M in X.terms.items():
        acc = {}
        for m, c in zip(maps, combo):
            if c:
                for key, v in m.component(n).entries.items():
                    acc[key] = acc.get(key, 0) + c * v
        ref = EquivMap(M, M, acc)
        assert list(f.component(n).entries.items()) == \
            list(ref.entries.items()), n


# ---------------------------------------------------------------------------
# equations read off orbit codes at the roots, against full products

def _rows_by_products(sys, proj, contributions, rhs):
    """The assembly that ``_System.add_rows`` replaced: every basis map
    of a block multiplied in full by d, and its product's entries at the
    root pairs of the projection's basis maps summed into the rows; the
    reference for its rows, right sides and dict order."""
    from ttperm.permod import _index
    ring = sys.ring
    roots = {}
    for idx, e in enumerate(equivariant_hom_basis(proj.source, proj.target)):
        i, j = e.root_pair
        roots[(j, i)] = idx
    eqs = [{} for _ in roots]
    for tag, d, left in contributions:
        off, basis = sys.blocks[tag]
        for k, b in enumerate(equivariant_hom_basis(basis.source,
                                                    basis.target)):
            if left:
                prod = _left_mul(ring, _index(d, 1), b.entries)
            else:
                prod = _right_mul(ring, b.entries, _index(d, 0))
            for key, v in prod.items():
                idx = roots.get(key)
                if idx is not None:
                    row = eqs[idx]
                    row[off + k] = ring.normalize(row.get(off + k, 0) + v)
    rows, rights = [], {}
    for key, idx in roots.items():
        row = {c: v for c, v in eqs[idx].items() if v != 0}
        b = ring.zero if rhs is None else rhs.get(key, ring.zero)
        if b != 0:
            rights[len(rows)] = b
        rows.append(row)
    return rows, rights


def _record_assemblies(monkeypatch):
    """Wrap ``_System.add_rows``; each call appends to the returned list
    whether the rows and right sides it added match the reference (its
    rows at the kept orbits), in dict order, the number of rows, and the
    number of inconsistent pairs of its tables."""
    from ttperm import homotopy
    real = homotopy._System.add_rows
    seen = []

    def recording(self, proj, contributions, rhs=None, kept=None):
        start, before = len(self.rows), dict(self.rhs)
        real(self, proj, contributions, rhs, kept)
        got = ([list(row.items()) for row in self.rows[start:]],
               [(r - start, b) for r, b in self.rhs.items()
                if r not in before])
        rows, rights = _rows_by_products(self, proj, contributions, rhs)
        if kept is not None:
            rights = {i: rights[e] for i, e in enumerate(kept)
                      if e in rights}
            rows = [rows[e] for e in kept]
        tables = [proj] + [self.blocks[tag][1] for tag, _, _ in contributions]
        seen.append((got == ([list(row.items()) for row in rows],
                             list(rights.items())), len(rows),
                     sum(list(H.code).count(0) for H in tables)))

    monkeypatch.setattr(homotopy._System, "add_rows", recording)
    return seen


@pytest.mark.parametrize("argv", [
    ["twisted", "--group", "C3", "--ring", "Z", "--max-twist", "5"],
    # twist 4: its disjoint-support transports are identities, which
    # assemble no system, so twist 3 no longer reaches the floor
    ["twisted", "--group", "C2xC2", "--ring", "F2", "--max-twist", "4"],
])
def test_root_assembly_matches_full_products_on_commands(
        argv, monkeypatch, capsys):
    # the commands and the searches their built transports replaced
    seen = _record_assemblies(monkeypatch)
    _run_and_search(argv)
    capsys.readouterr()
    assert sum(n for _, n, _ in seen) >= 800
    assert all(same for same, _, _ in seen)


def _inconsistent_orbit_complex():
    """u (x) u twisted by (sign (+) trivial) over Z, the sign taken along
    another index-2 subgroup than u's: Hom(sign, trivial) and its kin
    carry orbits whose signs do not close up (code 0)."""
    from ttperm.chain import module_complex
    G = parse_group_name("C2xC2")
    N = index_p_normal_subgroups(G)[0]
    S = [H for H in subgroups(G) if H.index == 2 and H != N][0]
    L = BlockModule(G, ZZ, [("a", sign_module(G, S, ZZ)),
                            ("b", trivial_module(G, ZZ))]).module
    U = u_complex(G, N, ZZ)
    return tensor_complex(tensor_complex(module_complex(L), U), U)


def test_root_assembly_matches_full_products_on_inconsistent_orbits(
        monkeypatch):
    X = _inconsistent_orbit_complex()
    seen = _record_assemblies(monkeypatch)
    assert isinstance(find_homotopy_equivalence(X, X), Equivalence)
    C = cone(identity_chain_map(X))
    assert null_homotopy(identity_chain_map(C))
    # the orbit-pair contraction steps, which contractions no longer
    # assemble
    assert _orbit_pair_contraction(C)
    assert sum(n for _, n, _ in seen) >= 200
    assert all(zeros for _, _, zeros in seen)
    assert all(same for same, _, _ in seen)


# ---------------------------------------------------------------------------
# one graded builder, against the assemblies it replaced

def _old_homotopy_system(X, Y, sys):
    """The homotopy blocks h_n : X_n -> Y_{n+1}, as null_homotopy added
    them before ``_graded_system``; {n: basis}."""
    from ttperm.homotopy import _hom_basis
    bases = {}
    for n in sorted(X.terms):
        if (n + 1) in Y.terms:
            basis = _hom_basis(X.terms[n], Y.terms[n + 1])
            if basis:
                sys.add_block(("h", n), basis)
                bases[n] = basis
    return bases


def _old_add_homotopy_equations(X, Y, sys, h_bases, rhs_maps):
    """The equations proj(d h + h d) = rhs of null_homotopy, degree by
    degree, as they were added before ``_graded_system``."""
    from ttperm.homotopy import _hom_basis
    for n in sorted(set(X.terms) | set(Y.terms)):
        if n not in X.terms or n not in Y.terms:
            continue
        contributions = []
        if n in h_bases and (n + 1) in Y.diffs:
            contributions.append((("h", n), Y.diffs[n + 1].entries, True))
        if (n - 1) in h_bases and n in X.diffs:
            contributions.append((("h", n - 1), X.diffs[n].entries, False))
        sys.add_rows(_hom_basis(X.terms[n], Y.terms[n]), contributions,
                     rhs_maps.get(n) if rhs_maps else None)


def _old_null_homotopy_system(X, Y, rhs):
    from ttperm.homotopy import _System
    sys = _System(X.ring)
    _old_add_homotopy_equations(X, Y, sys, _old_homotopy_system(X, Y, sys),
                                rhs)
    return sys


def _old_chain_map_system(X, Y):
    """The commuting-square system of chain_map_space before
    ``_graded_system``."""
    from ttperm.homotopy import _System, _hom_basis
    sys = _System(X.ring)
    f_bases = {}
    for n in sorted(X.terms):
        if n in Y.terms:
            basis = _hom_basis(X.terms[n], Y.terms[n])
            if basis:
                sys.add_block(n, basis)
                f_bases[n] = basis
    for n in sorted(set(X.terms) | set(Y.terms)):
        if n not in X.terms or (n - 1) not in Y.terms:
            continue
        contributions = []
        if n in f_bases and n in Y.diffs:
            contributions.append((n, Y.diffs[n].entries, True))
        if (n - 1) in f_bases and n in X.diffs:
            contributions.append((n - 1, {k: -v for k, v in
                                          X.diffs[n].entries.items()}, False))
        if contributions:
            sys.add_rows(_hom_basis(X.terms[n], Y.terms[n - 1]),
                         contributions)
    return sys


def _old_contraction_step(X, n, rhs):
    """The system of step n of the orbit-pair contraction before
    ``_graded_system``, or None where that step solved nothing (no
    unknowns)."""
    from ttperm.homotopy import _System, _hom_basis
    Xn = X.terms[n]
    basis = _hom_basis(Xn, X.terms[n + 1]) if (n + 1) in X.terms else []
    if not basis:
        return None
    sys = _System(X.ring)
    sys.add_block("h", basis)
    sys.add_rows(_hom_basis(Xn, Xn), [("h", X.diff(n + 1).entries, True)],
                 rhs)
    return sys


def _system_layout(sys):
    """Blocks (offset, basis identity), rows and right sides of a system,
    in dict order; tags are left out."""
    return ([(off, id(basis)) for off, basis in sys.blocks.values()],
            sys.ncols, [list(row.items()) for row in sys.rows],
            list(sys.rhs.items()))


def _old_invariant_columns(X):
    """({n: orbit sums}, {n: columns of d_n}) of the invariants complex
    as ``invariant_data`` and ``_in_invariant_coords`` gave them: one
    checked map per orbit, d_n applied to each orbit sum, and the image
    read at the roots and checked against the orbit sums."""
    from ttperm.permod import _combination
    ring = X.ring
    sums, roots = {}, {}
    for n, M in X.terms.items():
        maps = equivariant_hom_basis(trivial_module(M.group, ring), M)
        sums[n] = [f.columns()[0] for f in maps]
        roots[n] = [f.root_pair[1] for f in maps]
    dcols = {}
    for n in X.terms:
        if (n - 1) not in X.terms or n not in X.diffs:
            continue
        dcols[n] = []
        for col in sums[n]:
            v = X.diffs[n].apply(col)
            coeff = {k: v[r] for k, r in enumerate(roots[n - 1]) if r in v}
            assert _combination(ring, coeff, sums[n - 1]) == v
            dcols[n].append(coeff)
    return sums, dcols


def _record_builders(monkeypatch):
    """Wrap ``_graded_system`` and ``InvariantsComplex``; each call
    appends (caller, matches its old assembly in dict order, rows) to
    the returned list."""
    import sys as _sys
    from ttperm import homotopy
    from ttperm.homotopy import _column_rows
    real_graded = homotopy._graded_system
    real_init = homotopy.InvariantsComplex.__init__
    seen = []

    def graded(X, Y, k, degrees, rhs=None):
        sys = real_graded(X, Y, k, degrees, rhs)
        caller = _sys._getframe(1).f_code.co_name
        if caller == "chain_map_space":
            ref = _old_chain_map_system(X, Y)
        elif caller == "null_homotopy":
            ref = _old_null_homotopy_system(X, Y, rhs)
        else:
            assert caller == "_orbit_pair_contraction", caller
            [n] = degrees
            ref = _old_contraction_step(X, n, rhs[n])
        if ref is None:
            # no unknowns: the step is feasible exactly when rhs is zero
            same = not sys.blocks and bool(sys.rhs) == bool(rhs[n])
        else:
            same = _system_layout(sys) == _system_layout(ref)
        seen.append((caller, same, len(sys.rows)))
        return sys

    def invariants(self, X):
        real_init(self, X)
        sums, dcols = _old_invariant_columns(X)
        dims = {n: len(v) for n, v in sums.items()}
        same = ({n: self.dim(n) for n in X.terms} == dims and all(
            list(self.to_ambient(n, {k: X.ring.one}).items())
            == list(col.items())
            for n, cols in sums.items() for k, col in enumerate(cols)))
        for n, cols in dcols.items():
            same = same and [list(c.items()) for c in _column_rows(
                self.rows[n], dims[n])] == [list(c.items()) for c in cols]
            same = same and [list(r.items()) for r in self.rows[n]] == \
                [list(r.items()) for r in _column_rows(cols, dims[n - 1])]
        seen.append(("InvariantsComplex", same,
                     sum(map(len, self.rows.values()))))

    monkeypatch.setattr(homotopy, "_graded_system", graded)
    monkeypatch.setattr(homotopy.InvariantsComplex, "__init__", invariants)
    return seen


def _rows_by_caller(seen):
    out = {}
    for caller, _, rows in seen:
        out[caller] = out.get(caller, 0) + rows
    return out


@pytest.mark.parametrize("argv, callers", [
    (["invert", "--group", "C5", "--ring", "Z"],
     {"chain_map_space"}),
    (["twisted", "--group", "C2xC2", "--ring", "F2", "--max-twist", "2"],
     {"InvariantsComplex", "chain_map_space"}),
    (["twisted", "--group", "C3", "--ring", "Z", "--max-twist", "3"],
     {"InvariantsComplex", "chain_map_space"}),
])
def test_graded_builder_matches_old_assemblies_on_commands(
        argv, callers, monkeypatch, capsys):
    seen = _record_builders(monkeypatch)
    _run_and_search(argv)
    capsys.readouterr()
    rows = _rows_by_caller(seen)
    assert callers <= set(rows), rows
    assert all(rows[c] > 0 for c in callers), rows
    assert all(same for _, same, _ in seen)


def test_graded_builder_matches_old_assemblies_on_inconsistent_orbits(
        monkeypatch):
    X = _inconsistent_orbit_complex()
    seen = _record_builders(monkeypatch)
    from ttperm.homotopy import chain_map_space
    assert isinstance(find_homotopy_equivalence(X, X), Equivalence)
    C = cone(identity_chain_map(X))
    assert null_homotopy(identity_chain_map(C))
    assert chain_map_space(X, X)[1]
    hom_group(X, 0)
    # the reference orbit-pair contraction, one _graded_system per step
    assert _orbit_pair_contraction(C)
    rows = _rows_by_caller(seen)
    assert set(rows) == {"chain_map_space", "_orbit_pair_contraction",
                         "null_homotopy", "InvariantsComplex"}, rows
    assert all(same for _, same, _ in seen)


_NOT_A_CYCLE = """
import sys
from ttperm.grp import cyclic
from ttperm.homotopy import hom_group
from ttperm.rings import ZZ
from ttperm.twisted import u_complex, index_p_normal_subgroups

assert sys.flags.optimize
G = cyclic(2)
hg = hom_group(u_complex(G, index_p_normal_subgroups(G)[0], ZZ), -1)
for v, why in (({0: 1}, "not invariant"), ({0: 1, 1: 1}, "not a cycle")):
    try:
        print(v, "has coordinates", hg.coords(v))
    except ValueError as exc:
        print(v, exc)
        if why not in str(exc):
            sys.exit("wrong message")
    else:
        sys.exit("a vector off the cycles got coordinates")
"""


def test_coordinates_of_non_cycles_raise_under_python_O(python_O):
    # a ValueError, not an AssertionError: cli.run would report the
    # latter as a failed theory check
    proc = python_O(_NOT_A_CYCLE)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _check_vector(ring, vec, ascending=False):
    assert isinstance(vec, dict)
    for v in vec.values():
        assert v != 0 and ring.normalize(v) == v and \
            type(ring.normalize(v)) is type(v), vec
    if ascending:
        assert list(vec) == sorted(vec), vec


@pytest.mark.parametrize("argv", [
    ["twisted", "--group", "C3", "--ring", "Z"],
    # a contraction over Z on a nontrivial group (C2, the restriction)
    ["kos", "--group", "C4", "--subgroup", "C2"],
])
def test_vectors_hold_normalized_nonzeros(argv, monkeypatch, capsys):
    # every vector a command passes between functions is the dict of its
    # normalized nonzero coordinates; kernel and block vectors list their
    # indices in ascending order.  Contractions solve one multi-right-side
    # system per stabilizer class and pass its solutions on; no command
    # solves a _System any more, so a null homotopy follows the command.
    # A table's transports are lifted, so its searches follow it too, and
    # kos builds its contraction, so the sweep on Res_H X follows it.
    from ttperm import homotopy, permod, twisted
    from ttperm.cli import run
    seen = {}

    def spy(owner, name, check):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            seen[name] = seen.get(name, 0) + 1
            check(args, result, **kwargs)
            return result

        monkeypatch.setattr(owner, name, wrapper)

    def kernel(args, vecs):
        for x in vecs:
            _check_vector(args[0], x, ascending=True)

    def blocks(ring, sol):
        for block in sol.values():
            _check_vector(ring, block, ascending=True)

    def solve(args, sol):
        if sol is not None:
            blocks(args[0].ring, sol)

    def solutions(args, sols, return_free=False):
        if return_free:
            sols, free = sols
            assert free is None or free == sorted(set(free))
        for x in (sols or {}).values():
            _check_vector(args[0], x)

    def system_kernel(args, sols):
        for sol in sols:
            blocks(args[0].ring, sol)

    def apply(args, w):
        _check_vector(args[0].ring, args[1])
        _check_vector(args[0].ring, w)

    def hom_group_init(args, _):
        for _d, g in args[0].generators:
            _check_vector(args[0].ring, g)

    def product(args, z):
        _check_vector(z.ring, z.cycle)

    spy(homotopy, "kernel_sparse", kernel)
    spy(twisted, "kernel_sparse", kernel)
    spy(homotopy, "solve_sparse", solutions)
    spy(homotopy._System, "solve", solve)
    spy(homotopy._System, "kernel", system_kernel)
    spy(permod.EquivMap, "apply", apply)
    spy(homotopy.HomGroup, "__init__", hom_group_init)
    spy(twisted, "class_product", product)
    if argv[0] == "twisted":
        _run_and_search(argv)
    else:
        assert run(argv) == 0
        assert is_contractible(_koszul_restriction(argv))[0]
    capsys.readouterr()
    assert seen["solve_sparse"]
    G = cyclic(2)
    U = u_complex(G, index_p_normal_subgroups(G)[0], ZZ)
    assert null_homotopy(identity_chain_map(cone(identity_chain_map(U))))
    assert seen["solve"]
    if argv[0] == "twisted":
        assert seen.keys() == {"kernel_sparse", "solve_sparse", "solve",
                               "kernel", "apply", "__init__",
                               "class_product"}


# ---------------------------------------------------------------------------
# contraction by stabilizer class, against the sweeps it replaced

def _contraction_rhs(X, n, h_below):
    """Entries of id - h_{n-1} d_n, the right side of the contraction
    step at degree n (``h_below`` the entries of h_{n-1} or None)."""
    from ttperm.permod import _index
    hd = {}
    if h_below and n in X.diffs:
        hd = _right_mul(X.ring, h_below, _index(X.diffs[n].entries, 0))
    return _identity_minus(X.ring, range(X.terms[n].rank), hd)


def _orbit_pair_contraction(X):
    """The equivariant sweep with each step one ``_graded_system`` on
    the one degree n: unknowns on the orbit basis of Hom_G(X_n, X_{n+1})
    and equations at the roots of Hom_G(X_n, X_n), over every orbit of
    basis pairs.  {n: EquivMap} or None."""
    from ttperm.homotopy import _graded_system, _maps
    h = {}
    for n in sorted(X.terms):
        below = h[n - 1].entries if (n - 1) in h else None
        sys = _graded_system(X, X, 1, [n],
                             {n: _contraction_rhs(X, n, below)})
        sol = sys.solve()
        if sol is None:
            return None
        h.update(_maps(sys.bases(), sol))
    return h


def _contract_raw(X, square=True):
    """The non-equivariant sweep: d_{n+1} h_n = id - h_{n-1} d_n by one
    elimination of d_{n+1} carrying every right-hand column.  With
    ``square`` each step keeps only the rows that the step below left
    free when it reports them, as the class sweep does; otherwise every
    row.  {n: entries} or None."""
    ring = X.ring
    h = {}
    kept_rows = {}
    for n in sorted(X.terms):
        rhs = _contraction_rhs(X, n, h.get(n - 1))
        kept = kept_rows.get(n, range(X.terms[n].rank))
        position = {e: i for i, e in enumerate(kept)}
        by_rows = {}
        for (r, c), v in rhs.items():
            if r in position:
                by_rows.setdefault(position[r], {})[c] = v
        if (n + 1) not in X.terms:
            if by_rows:
                return None
            continue
        d = X.diff(n + 1)
        rows = d.rows()
        sols, free = solve_sparse(ring, [rows[e] for e in kept],
                                  d.source.rank, by_rows, return_free=True)
        if sols is None:
            return None
        if square and free is not None:
            kept_rows[n + 1] = free
        h[n] = {(r, c): v for c, x in sols.items() for r, v in x.items()}
    return h


def _contract_full_rows(X):
    """The class sweep on every equation row of every step, as it ran
    before steps kept only the rows their cycles need:
    ``_contract_equivariant`` with ``solve_sparse`` reporting no free
    columns.  {n: EquivMap} or None."""
    from ttperm import homotopy
    real = homotopy.solve_sparse

    def no_free(*args, **kwargs):
        return real(*args, **kwargs)[0], None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homotopy, "solve_sparse", no_free)
        return homotopy._contract_equivariant(X)


def _contracted_by(argv, monkeypatch, capsys):
    """The complexes that a command hands to the contraction sweep; a
    ``kos`` command hands it none, as it builds its contraction, and
    stands for Res_H X (``_koszul_restriction``), which it handed
    before."""
    from ttperm import homotopy
    from ttperm.cli import run
    seen = []
    real = homotopy._contract_equivariant

    def recording(X):
        seen.append(X)
        return real(X)

    monkeypatch.setattr(homotopy, "_contract_equivariant", recording)
    assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.undo()
    if argv[0] == "kos":
        assert seen == []
        return [_koszul_restriction(argv)]
    return seen


def _identity(X):
    return {n: {(i, i): X.ring.one for i in range(M.rank)}
            for n, M in X.terms.items()}


def _same_feasibility(complexes):
    """The stabilizer-class sweep contracts exactly the complexes that
    the orbit-pair sweep contracts, each h passing check_homotopy; the
    number of contracted and of refused complexes."""
    from ttperm.homotopy import _contract_equivariant
    outcomes = []
    for X in complexes:
        h = _contract_equivariant(X)
        assert (h is None) == (_orbit_pair_contraction(X) is None)
        assert (h is None) == (_contract_full_rows(X) is None)
        if h is not None:
            check_homotopy(X, X, _identity(X), h)
        outcomes.append(h is not None)
    return outcomes.count(True), outcomes.count(False)


@pytest.mark.parametrize("argv", [
    ["invert", "--group", "C3", "--ring", "Z"],
    ["invert", "--group", "C5", "--ring", "Z"],
    ["invert", "--group", "C7", "--ring", "Z"],
    ["twisted", "--group", "C2xC2", "--ring", "F2", "--max-twist", "2"],
    ["twisted", "--group", "C3", "--ring", "Z", "--max-twist", "3"],
    # |G| a unit of the ring
    ["invert", "--group", "C3", "--ring", "Q"],
    ["twisted", "--group", "C2", "--ring", "F3"],
    # the Koszul restrictions Res_H X
    ["kos", "--group", "C9", "--subgroup", "C3"],
    ["kos", "--group", "C8", "--subgroup", "C2"],
], ids=" ".join)
def test_class_sweep_contracts_what_the_orbit_pair_sweep_contracts(
        argv, monkeypatch, capsys):
    complexes = _contracted_by(argv, monkeypatch, capsys)
    assert complexes and any(X.group.order > 1 for X in complexes)
    contracted, _ = _same_feasibility(complexes)
    assert contracted


def test_class_sweep_on_inconsistent_orbits():
    # signed modules whose orbits of basis pairs do not all close up;
    # X has homology, so only its cone contracts
    X = _inconsistent_orbit_complex()
    assert _same_feasibility([X, cone(identity_chain_map(X))]) == (1, 1)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=str)
def test_class_sweep_on_exact_complexes(ring):
    # exact complexes that contract equivariantly exactly when 2 is a
    # unit: R -> R(C2) -> L, L the sign module, and
    # R -> R(C2) -> R(C2) -> R (norm, 1 - g, augmentation)
    G = cyclic(2)
    R = trivial_module(G, ring)
    P = perm_module(G, G.trivial_subgroup(), ring)
    L = sign_module(G, G.trivial_subgroup(), ring)
    norm = EquivMap(R, P, {(0, 0): 1, (1, 0): 1})
    signed = Complex(G, ring, {2: R, 1: P, 0: L},
                     {2: norm, 1: EquivMap(P, L, {(0, 0): 1, (0, 1): -1})})
    periodic = Complex(G, ring, {3: R, 2: P, 1: P, 0: R},
                       {3: norm,
                        2: EquivMap(P, P, {(0, 0): 1, (1, 0): -1,
                                           (0, 1): -1, (1, 1): 1}),
                        1: EquivMap(P, R, {(0, 0): 1, (0, 1): 1})})
    for X in (signed, periodic):
        assert not homology_profile(X)
    contracted, refused = _same_feasibility([signed, periodic])
    assert (contracted, refused) == ((0, 2) if ring is ZZ else (2, 0))
    if ring is ZZ:
        ok, witness = is_contractible(signed)
        assert not ok and "no equivariant contraction" in witness.reason


@pytest.mark.parametrize("argv", [
    ["kos", "--group", "C4", "--subgroup", "1"],
    ["kos", "--group", "C2xC2", "--subgroup", "1", "--ring", "F3"],
], ids=" ".join)
def test_class_sweep_is_the_raw_sweep_over_the_trivial_group(
        argv, monkeypatch, capsys):
    # over the trivial group every orbit is one basis vector, so the one
    # class solves d_{n+1} for every column, as the raw sweep does
    from ttperm.chain import restrict_complex
    from ttperm.homotopy import _contract_equivariant
    complexes = _contracted_by(argv, monkeypatch, capsys)
    G = cyclic(3)
    one = G.trivial_subgroup()
    U = u_complex(G, index_p_normal_subgroups(G)[0], QQ)
    complexes += [restrict_complex(cone(identity_chain_map(U)), one),
                  restrict_complex(U, one)]
    contracted = 0
    for X in complexes:
        assert X.group.order == 1
        h, raw = _contract_equivariant(X), _contract_raw(X)
        # and on every row, as the sweeps ran before they kept fewer
        full, raw_full = _contract_full_rows(X), _contract_raw(X, False)
        assert (h is None) == (raw is None) == (full is None) == \
            (raw_full is None)
        if h is not None:
            contracted += 1
            for sweep, ref in [(h, raw), (full, raw_full)]:
                assert {n: f.entries for n, f in sweep.items()} == \
                    {n: e for n, e in ref.items() if e}
    assert 0 < contracted < len(complexes)


@pytest.mark.parametrize("ring", ["Z", "F3", "Q"])
def test_class_sweep_systems_are_square_on_a_koszul_restriction(
        ring, monkeypatch, capsys):
    # Res_1 kos(C2xC2, 1) is contractible: each step keeps the rows of
    # the cycles of its degree, rank d_{n+1} of them, and pivots on all,
    # so the rows add up to half the total rank (623 of 1,246)
    from ttperm import homotopy
    argv = ["kos", "--group", "C2xC2", "--subgroup", "1", "--ring", ring]
    [X] = _contracted_by(argv, monkeypatch, capsys)
    shapes = []
    real = homotopy._diagonalize

    def recording(ring, rows, ncols, rhs=None):
        out = real(ring, rows, ncols, rhs)
        shapes.append((len(rows), len(out[0])))
        return out

    monkeypatch.setattr(homotopy, "_diagonalize", recording)
    h = homotopy._contract_equivariant(X)
    monkeypatch.undo()
    assert h is not None and _contract_full_rows(X) is not None
    assert all(rows == pivots for rows, pivots in shapes)
    assert 2 * sum(rows for rows, _ in shapes) == X.total_rank() == 1246


def test_contraction_keeps_every_row_after_a_column_switch(monkeypatch):
    # Z --[3, -2]^T--> Z^2 --[2 3]--> Z over Z has no unit entry: [2 3]
    # pivots on 2, moves to the remainder 1 in column 1 and leaves
    # column 0 free with P[F, F] = [[3]], so degree 1 keeps both rows
    from ttperm import homotopy
    G = cyclic(1)
    R = trivial_module(G, ZZ)
    R2 = BlockModule(G, ZZ, [("a", R), ("b", R)]).module
    X = Complex(G, ZZ, {2: R, 1: R2, 0: R},
                {2: EquivMap(R, R2, {(0, 0): 3, (1, 0): -2}),
                 1: EquivMap(R2, R, {(0, 0): 2, (0, 1): 3})})
    systems = []
    real = homotopy.solve_sparse

    def recording(ring, rows, ncols, rhs, **kwargs):
        out = real(ring, rows, ncols, rhs, **kwargs)
        systems.append((len(rows), out[1]))
        return out

    monkeypatch.setattr(homotopy, "solve_sparse", recording)
    ok, cert = is_contractible(X)
    assert ok
    assert systems == [(1, None), (2, []), (0, [])]
    check_homotopy(X, X, _identity(X), cert.h)


_ROWS_NOT_INJECTIVE_ON_CYCLES = """
import json
import sys
from ttperm import homotopy
from ttperm.chain import restrict_complex
from ttperm.grp import parse_group_name
from ttperm.koszul import koszul_object
from ttperm.permod import CertificateError
from ttperm.rings import ZZ

assert sys.flags.optimize
G = parse_group_name("C2xC2")
H = G.trivial_subgroup()
X = restrict_complex(koszul_object(G, H, ZZ).complex, H)
real = homotopy.solve_sparse

def dropping(*args, **kwargs):
    # the next step loses the row of the last free column, so a
    # residual cycle can be nonzero there
    out = real(*args, **kwargs)
    if kwargs.get("return_free") and out[1]:
        return out[0], out[1][:-1]
    return out

homotopy.solve_sparse = dropping
try:
    homotopy.is_contractible(X)
except CertificateError as exc:
    print(json.dumps({"error": "CertificateError", "message": str(exc)}))
    sys.exit(2)
"""


def test_rows_not_injective_on_cycles_fail_verify_under_python_O(
        python_O):
    import json
    proc = python_O(_ROWS_NOT_INJECTIVE_ON_CYCLES)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {
        "error": "CertificateError",
        "message": "homotopy identity fails at degree 1"}


_MISSIGNED_SPREAD = """
import json
import sys
from ttperm import homotopy
from ttperm.cli import run

assert sys.flags.optimize
real = homotopy._source_classes

def missigned(M):
    # every member of an orbit but its first gets the wrong sign
    classes = real(M)
    for reps in classes.values():
        for j, spread in reps:
            for j2, (g, s) in spread.items():
                if j2 != j:
                    spread[j2] = (g, -s)
    return classes

homotopy._source_classes = missigned
sys.exit(run(["invert", "--group", "C3", "--ring", "Z"]))
"""


def test_missigned_spread_is_rejected_under_python_O(python_O):
    # a solved column spread over its orbit with a wrong sign is not
    # equivariant: EquivMap's check raises, also under python -O
    import json
    proc = python_O(_MISSIGNED_SPREAD)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {"error": "CertificateError",
                                       "message": "map is not equivariant"}


# ---------------------------------------------------------------------------
# equivalences are built: the identity, or one unit combination

def _old_search(X, Y):
    """The candidate search that ``find_homotopy_equivalence`` replaced:
    the identity, then the Bezout combination, then every lattice basis
    map, each promoted by contracting its cone."""
    from ttperm.chain import ChainMap, structurally_equal
    from ttperm.homotopy import (chain_map_space, _chain_map,
                                 _combine_vectors, _maps, _try_equivalence,
                                 _unit_combination)
    prof = homology_profile(X)
    if prof != homology_profile(Y):
        return None

    def candidates():
        if structurally_equal(X, Y):
            yield ChainMap(X, Y, {n: EquivMap(M, Y.terms[n],
                                              {(i, i): 1 for i in range(M.rank)})
                                  for n, M in X.terms.items()})
        bases, space = chain_map_space(X, Y)
        conc = [n for n, inv in prof.items() if inv != (0, ())]
        if len(conc) == 1 and prof[conc[0]] == (1, ()):
            n0 = conc[0]
            vX = underlying_homology(X, n0).generators[0]
            fgY = underlying_homology(Y, n0)
            scalars = []
            for v in space:
                f = _maps(bases, {n0: v.get(n0)}).get(n0)
                scalars.append(fgY.coords(f.apply(vX) if f else {})[0])
            combo = _unit_combination(X.ring, scalars)
            if combo is not None:
                yield _chain_map(X, Y, bases, _combine_vectors(space, combo))
        for v in space:
            yield _chain_map(X, Y, bases, v)

    for f in candidates():
        eq = _try_equivalence(f)
        if eq is not None:
            return eq
    return None


def _spy_calls(monkeypatch, module, name):
    """Wrap ``module.name``; the returned list grows by one per call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_disjoint_support_transport_is_the_identity_without_a_cone(
        monkeypatch):
    from ttperm import chain, homotopy
    from ttperm.chain import structurally_equal
    from ttperm.twisted import Twist, canonical_u_power
    G = parse_group_name("C2xC2")
    N1, N2 = index_p_normal_subgroups(G)[:2]
    assert N1.elements < N2.elements
    q1, q2 = Twist.single(N1), Twist.single(N2)
    X = tensor_complex(canonical_u_power(G, q1, GF(2)),
                       canonical_u_power(G, q2, GF(2)))
    Y = canonical_u_power(G, q1 + q2, GF(2))
    assert X is not Y and structurally_equal(X, Y)
    cones = _spy_calls(monkeypatch, chain, "cone")
    contractions = _spy_calls(monkeypatch, homotopy, "is_contractible")
    eq = find_homotopy_equivalence(X, Y)
    assert isinstance(eq, Equivalence)
    assert not cones and not contractions
    assert (eq.f.source, eq.f.target, eq.g.source, eq.g.target) == (X, Y, Y, X)
    for f in (eq.f, eq.g):
        assert {n: f.component(n).entries for n in X.terms} == {
            n: {(i, i): 1 for i in range(M.rank)} for n, M in X.terms.items()}
    assert eq.h == {} and eq.hp == {}
    assert eq.verify()


_CORRUPTED_IDENTITY = """
import sys
from ttperm.chain import ChainMap
from ttperm.grp import cyclic
from ttperm.homotopy import Equivalence, find_homotopy_equivalence
from ttperm.permod import CertificateError, EquivMap
from ttperm.rings import ZZ
from ttperm.twisted import u_complex, index_p_normal_subgroups

assert sys.flags.optimize
G = cyclic(2)
X = u_complex(G, index_p_normal_subgroups(G)[0], ZZ)
eq = find_homotopy_equivalence(X, X)
if eq.h or eq.hp:
    sys.exit("the identity equivalence carries homotopies")
doubled = ChainMap(X, X, {n: EquivMap(M, M, {k: 2 * v for k, v in
                                             eq.g.component(n).entries.items()})
                          for n, M in X.terms.items()})
try:
    Equivalence(eq.f, doubled, eq.h, eq.hp).verify()
except CertificateError as exc:
    print(exc)
else:
    sys.exit("an identity with a doubled inverse passed verify")
"""


def test_identity_with_a_corrupted_inverse_is_rejected_under_python_O(
        python_O):
    # with zero homotopies, id - g f must vanish; 2 id does not
    proc = python_O(_CORRUPTED_IDENTITY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "identity fails" in proc.stdout


def test_distinct_pair_off_rank_one_homology_is_inconclusive_at_once(
        monkeypatch):
    from ttperm import homotopy
    from ttperm.chain import module_complex
    from ttperm.homotopy import Inconclusive
    # Z[C2] and Z (+) Z: both have homology Z^2 in degree 0
    G = cyclic(2)
    X = module_complex(perm_module(G, G.trivial_subgroup(), ZZ))
    Y = module_complex(BlockModule(G, ZZ, [("a", trivial_module(G, ZZ)),
                                           ("b", trivial_module(G, ZZ))]).module)
    assert homology_profile(X) == homology_profile(Y) == {0: (2, ())}
    spaces = _spy_calls(monkeypatch, homotopy, "chain_map_space")
    res = find_homotopy_equivalence(X, Y)
    assert isinstance(res, Inconclusive), res
    assert "rank one" in res.reason
    assert not spaces


@pytest.mark.parametrize("group, ring, max_twist", [
    ("C2xC2", GF(2), 2),
    ("C3xC3", GF(3), 2),
    ("C2xC2xC2", GF(2), 2),
    ("C3", GF(3), 4),
    ("C2", GF(2), 4),
    ("C3", ZZ, 5),
    ("C2", ZZ, 4),
])
def test_transports_match_the_old_search(monkeypatch, group, ring,
                                         max_twist):
    # a built transport is another representative of the search's
    # homotopy class, so the product classes agree, not the entries.
    # Over Z the unit the search picks is an artifact of its lattice
    # order: on `flips` of the keys its map induces -1 on homology where
    # the built one induces 1, so their classes agree up to -1 there.
    flips = 2 if (group, ring) == ("C2", ZZ) else 0
    from ttperm import twisted
    from ttperm.chain import structurally_equal, tensor_index
    from ttperm.twisted import Twist, canonical_u_power, twisted_table
    G = parse_group_name(group)
    products = []
    real = twisted.class_product

    def spy(z1, z2):
        products.append((z1, z2, real(z1, z2)))
        return products[-1][2]

    monkeypatch.setattr(twisted, "class_product", spy)
    twisted_table(G, ring, max_twist)
    subgroup = {N.elements: N for N in index_p_normal_subgroups(G)}
    keys = [key for key in G.twist_complexes if len(key) == 3]
    assert keys
    by_construction, old, flipped = 0, {}, set()
    for key in keys:
        f, index = G.twist_complexes[key]
        if f is None:
            # can(q1 + q2) is the tensor itself: no map, nothing to search
            by_construction += 1
            q1, q2 = (Twist([(subgroup[el], e) for el, e in k])
                      for k in key[1:])
            factors = (canonical_u_power(G, q1, ring),
                       canonical_u_power(G, q2, ring))
            assert structurally_equal(tensor_complex(*factors),
                                      canonical_u_power(G, q1 + q2, ring))
            assert index == tensor_index(factors)
            continue
        old[key] = _old_search(f.source, f.target)
        assert isinstance(old[key], Equivalence)
        # the scalars both maps induce on H_n0 = R, n0 the top degree
        X, Y = f.source, f.target
        n0 = max(Y.terms)
        vX = underlying_homology(X, n0).generators[0]
        fgY = underlying_homology(Y, n0)
        c, c_old = (fgY.coords(g.component(n0).apply(vX))
                    for g in (f, old[key].f))
        assert c == (ring.one,), key
        if c != c_old:
            assert ring is ZZ and c_old == (-1,), key
            flipped.add(key)
    compared = 0
    for z1, z2, z in products:
        key = (ring, z1.twist.key(), z2.twist.key())
        if key not in old:
            continue
        _, index = G.twist_complexes[key]
        n1, n2 = -z1.shift, -z2.shift
        sgn = 1 if (z1.shift * z2.shift) % 2 == 0 else -1
        v = _scaled(ring, sgn, {index[n1 + n2][((n1, n2), (a, b))]: x * y
                                for a, x in z1.cycle.items()
                                for b, y in z2.cycle.items()})
        w = old[key].f.component(n1 + n2).apply(v)
        assert z.hom().classes_equal(z.cycle, w, key in flipped), key
        compared += 1
    assert compared and len(flipped) == flips, sorted(flipped)
    # the products by a later subgroup are built, the shared-N ones are
    # lifted
    assert (by_construction > 0) == (len(subgroup) > 1)
    assert by_construction < len(keys)


_HOMOTOPY_PRECONDITIONS = """
import sys
from ttperm import homotopy
from ttperm.chain import module_complex
from ttperm.grp import cyclic
from ttperm.permod import CertificateError, perm_module
from ttperm.rings import ZZ

assert sys.flags.optimize
G = cyclic(41)
big = module_complex(perm_module(G, G.trivial_subgroup(), ZZ))
system = homotopy._System(ZZ)
system.add_block("x", [])


def corrupted(name, corrupt, rows):
    # smith_normal_form on rows over Z, with the result of homotopy.name
    # passed through corrupt
    real = getattr(homotopy, name)
    setattr(homotopy, name, lambda *args: corrupt(real(*args)))
    try:
        return homotopy.smith_normal_form(ZZ, rows, 1)
    finally:
        setattr(homotopy, name, real)


def wrong_row(out):
    # R[0] += e_1: R A P is no longer the pivot diagonal
    out[3][0][1] = out[3][0].get(1, 0) + 1
    return out


def off_by_one(inverse):
    # the generator of Z/2 becomes twice its class
    inverse[0][0] += 1
    return inverse


bad = {
    "transform": lambda: corrupted("_diagonalize", wrong_row,
                                   [{0: 2}, {0: 4}]),
    "generator": lambda: corrupted("solve_sparse", off_by_one, [{0: 2}]),
    "boundaries": lambda: homotopy.FgModule(ZZ, [{0: 1}], [{0: 1}], 2),
    "oracle": lambda: homotopy.hom_group_bruteforce(big, 0),
    "tag": lambda: system.add_block("x", []),
}
for name, build in bad.items():
    try:
        build()
        sys.exit("a bad %s passed its check" % name)
    except (CertificateError, ValueError) as exc:
        print(name, type(exc).__name__, exc)
"""


def test_homotopy_preconditions_raise_under_python_O(python_O):
    proc = python_O(_HOMOTOPY_PRECONDITIONS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "transform CertificateError Smith transforms do not diagonalize",
        "generator CertificateError Smith generator 0 has coordinate 0 on "
        "summand 0",
        "boundaries CertificateError boundaries must be cycles",
        "oracle ValueError oracle is limited to total rank 40",
        "tag ValueError duplicate block tag 'x'",
    ]
