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
from ttperm.rings import ZZ, QQ, GF, mat_mul, mat_identity
from ttperm.permod import (trivial_module, perm_module, sign_module,
                           direct_sum, EquivMap, equivariant_hom_basis)
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
                             classes_equal_up_to_unit, _diagonalize)
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
    assert mat_mul(ZZ, U, mat_mul(ZZ, D, V)) == A
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
    assert mat_mul(ZZ, U, matrix_inverse(ZZ, U)) == mat_identity(ZZ, 3)
    assert mat_mul(ZZ, V, matrix_inverse(ZZ, V)) == mat_identity(ZZ, 4)


@settings(max_examples=30)
@given(matrices(3, 3))
def test_snf_over_prime_field(A):
    F5 = GF(5)
    B = [[F5.normalize(v) for v in row] for row in A]
    U, D, V = smith_normal_form(F5, B)
    assert mat_mul(F5, U, mat_mul(F5, D, V)) == B
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
    sols = solve_sparse(ZZ, rows, 2, {0: {"b": 5}, 1: {"b": 3}})
    assert sols == {"b": {0: 3, 1: 1}}
    # x + 2y = 1, 2x + 4y = 3 has no integer solution
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
    assert solve_sparse(ZZ, rows, 2, {0: {0: 1}, 1: {0: 3}}) is None
    # kernel of (1 2) is spanned by (2, -1) up to sign
    ker = kernel_sparse(ZZ, [{0: 1, 1: 2}], 2)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + 2 * v[1] == 0 and v != [0, 0]


def test_solve_sparse_over_Z_is_exact():
    # 2x = 1 is solvable over Q but not over Z
    assert solve_sparse(ZZ, [{0: 2}], 1, {0: {0: 1}}) is None
    sols = solve_sparse(QQ, [{0: QQ.from_int(2)}], 1, {0: {0: QQ.one}})
    assert sols == {0: {0: QQ.one / 2}}


def test_solve_sparse_keeps_right_sides_sparse():
    # several right sides by key; zero solutions are absent, and a
    # right side on a dependent row must vanish after elimination
    rows = [{0: 1}, {1: 2}, {0: 1, 1: 2}]
    sols = solve_sparse(ZZ, rows, 2, {0: {"a": 1, "z": 0},
                                      1: {"b": 4}, 2: {"a": 1, "b": 4}})
    assert sols == {"a": {0: 1}, "b": {1: 2}}
    assert solve_sparse(ZZ, rows, 2, {2: {"a": 1}}) is None
    assert solve_sparse(GF(3), rows, 2, {}) == {}


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
    assert cert.h[0].entries == {(0, 0): QQ.normalize(1) / 2,
                                 (1, 0): QQ.normalize(-1) / 2}


def test_null_homotopy_of_zero_and_nonzero_maps():
    G = cyclic(2)
    U = unit_complex(G, ZZ)
    M = U.term(0)
    zero = ChainMap(U, U, {0: EquivMap(M, M, {})})
    h = null_homotopy(zero)
    assert h is not None
    check_homotopy(zero, h)
    ident = ChainMap(U, U, {0: EquivMap(M, M, {(0, 0): 1})})
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


def test_invert_keeps_hom_basis_maps_sparse(monkeypatch, capsys):
    # Hom-basis maps hold their orbit support only, at most |G| entries
    # each, and no other view of the map, over a whole command
    from ttperm import homotopy
    from ttperm.cli import run
    built = []

    def recording(M, N):
        basis = equivariant_hom_basis(M, N)
        built.extend(basis)
        return basis

    monkeypatch.setattr(homotopy, "equivariant_hom_basis", recording)
    assert run(["invert", "--group", "C5", "--ring", "Z"]) == 0
    capsys.readouterr()
    assert len(built) > 100
    assert all(len(f.entries) <= 5 for f in built)
    assert all(set(vars(f)) == {"source", "target", "ring", "entries",
                                "root_pair"} for f in built)


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
    with pytest.raises(AssertionError, match="d o d != 0 at degree 1"):
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
            QQ.one / 2, -QQ.one / 3]
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
    ["invert", "--group", "C5", "--ring", "Z"],
    ["kos", "--group", "C2xC2", "--subgroup", "1", "--ring", "F3"],
])
def test_incremental_pivot_search_matches_rescan_on_command_systems(
        argv, monkeypatch, capsys):
    # every system a command eliminates, replayed through the rescan
    from ttperm import homotopy
    from ttperm.cli import run
    seen = []
    real = homotopy._diagonalize

    def recording(ring, rows, ncols, rhs=None):
        seen.append((ring, [dict(r) for r in rows], ncols,
                     None if rhs is None else [dict(b) for b in rhs]))
        return real(ring, rows, ncols, rhs)

    monkeypatch.setattr(homotopy, "_diagonalize", recording)
    assert run(argv) == 0
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
    homotopy.check_homotopy(identity_chain_map(C), partial)
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


def test_corrupted_contractions_are_rejected_under_python_O():
    # certificate checks raise CertificateError instead of asserting, so
    # python -O keeps them, and the command still exits 2 with the error
    import json
    import os
    import subprocess
    import sys
    import ttperm
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttperm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_CONTRACTION],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2, proc.stderr
    out = json.loads(proc.stdout)
    assert out["error"] == "CertificateError"
    assert "identity fails" in out["message"]


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
}
for name, build in bad.items():
    try:
        build()
        sys.exit("a bad %s passed its check" % name)
    except CertificateError as exc:
        print(name, exc)
"""


def test_corrupted_inputs_are_rejected_under_python_O():
    # the action, equivariance, chain-map square and d o d checks raise
    # CertificateError, so python -O keeps them
    import os
    import subprocess
    import sys
    import ttperm
    from ttperm import homotopy, permod
    assert homotopy.CertificateError is permod.CertificateError
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttperm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_INPUTS],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "action action is not a homomorphism",
        "equivariance map is not equivariant",
        "square square at degree 1 does not commute",
        "d o d d o d != 0 at degree 1",
    ]
