"""Signed permutation modules and their equivariant maps.

The load-bearing oracle: dim Hom_G(R[G/H], R[G/K]) equals the number
of double cosets H\\G/K, counted independently here by enumerating
orbits of the double action.
"""

import gc
import weakref

import pytest

from ttperm.grp import cyclic, parse_group_name, subgroups
from ttperm.rings import ZZ, QQ, GF, mat_mul, mat_zero
from ttperm.permod import (perm_module, trivial_module, sign_module,
                           tensor_module, dual_module, direct_sum,
                           restrict, base_change_module,
                           equivariant_hom_basis, SignedPermModule,
                           identity_map, zero_map, subgroup_as_group,
                           is_induced_from, rebase_to_permutation, EquivMap,
                           CertificateError)
from ttperm.chain import tensor_complex
from ttperm.homotopy import (_index, _left_mul, _right_mul, sparse_rows,
                             invariant_data)
from ttperm.twisted import u_complex, index_p_normal_subgroups


def double_coset_count(G, H, K):
    """Number of H\\G/K double cosets, by brute enumeration."""
    seen = set()
    count = 0
    for g in G.elements():
        if g in seen:
            continue
        count += 1
        for h in H.elements:
            for k in K.elements:
                seen.add(G.mul(G.mul(h, g), k))
    return count


def test_perm_module_shape():
    G = cyclic(4)
    for S in subgroups(G):
        M = perm_module(G, S, ZZ)
        assert M.rank == G.order // S.order
        for g in G.elements():
            images = set()
            for i in range(M.rank):
                j, sign = M.act(g, i)
                assert sign == 1
                images.add(j)
            assert images == set(range(M.rank))


def test_trivial_module_fixed():
    G = cyclic(3)
    M = trivial_module(G, ZZ)
    assert M.rank == 1
    assert all(M.act(g, 0) == (0, 1) for g in G.elements())


def test_equivariant_hom_dimension_is_double_coset_count():
    for name in ("C4", "C2xC2", "C6", "D8"):
        G = parse_group_name(name)
        subs = subgroups(G)
        for H in subs:
            for K in subs:
                M = perm_module(G, H, ZZ)
                N = perm_module(G, K, ZZ)
                basis = equivariant_hom_basis(M, N)
                assert len(basis) == double_coset_count(G, H, K), \
                    (name, H.elements, K.elements)


def test_equivariant_hom_basis_maps_are_equivariant():
    G = parse_group_name("D8")
    H = [S for S in subgroups(G) if S.order == 2][0]
    M = perm_module(G, H, ZZ)
    N = perm_module(G, G.trivial_subgroup(), ZZ)
    for f in equivariant_hom_basis(M, N):
        f._check_equivariance()


def test_tensor_and_dual_ranks():
    G = cyclic(2)
    M = perm_module(G, G.trivial_subgroup(), ZZ)
    N = trivial_module(G, ZZ)
    T = tensor_module(M, M)
    assert T.rank == 4
    D = dual_module(M)
    assert D.rank == M.rank
    S = direct_sum(M, N)
    assert S.rank == 3


def test_invariant_basis_of_permutation_module():
    # invariants of R[G/H] are spanned by the single full orbit sum
    G = parse_group_name("C2xC2")
    for S in subgroups(G):
        M = perm_module(G, S, ZZ)
        cols, roots = invariant_data(M)
        assert cols == [[1] * M.rank] and len(roots) == 1


def test_restrict_and_induce_ranks():
    G = cyclic(4)
    C2 = [S for S in subgroups(G) if S.order == 2][0]
    M = perm_module(G, G.trivial_subgroup(), ZZ)
    resM = restrict(M, C2)
    assert resM.rank == M.rank
    assert resM.group.order == 2


def test_subgroup_as_group_is_kept_on_its_ambient_group():
    G = parse_group_name("C2xC2")
    C2 = [S for S in subgroups(G) if S.order == 2][0]
    H, elems = subgroup_as_group(C2)
    assert subgroup_as_group(C2)[0] is H
    assert elems == C2.elements
    refs = [weakref.ref(G), weakref.ref(H)]
    del G, C2, H
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_frobenius_reciprocity_dimension():
    # dim Hom_G(ind M, N) = dim Hom_H(M, res N), for M the trivial
    # module of H, whose induction is the permutation module R[G/H]
    G = parse_group_name("C2xC2")
    C2 = [S for S in subgroups(G) if S.order == 2][0]
    H, _ = subgroup_as_group(C2)
    M = trivial_module(H, ZZ)
    for K in subgroups(G):
        N = perm_module(G, K, ZZ)
        lhs = len(equivariant_hom_basis(perm_module(G, C2, ZZ), N))
        rhs = len(equivariant_hom_basis(M, restrict(N, C2)))
        assert lhs == rhs


def test_is_induced_from():
    G = cyclic(4)
    C2 = [S for S in subgroups(G) if S.order == 2][0]
    M = perm_module(G, C2, ZZ)
    assert is_induced_from(M, C2)
    assert not is_induced_from(trivial_module(G, ZZ), C2)


def test_base_change_module():
    G = cyclic(3)
    M = perm_module(G, G.trivial_subgroup(), ZZ)
    F3 = GF(3)
    Mp = base_change_module(M, F3)
    assert Mp.ring is F3
    assert Mp.rank == M.rank
    assert Mp.act(1, 0) == M.act(1, 0)


def test_identity_and_zero_maps():
    G = cyclic(2)
    M = perm_module(G, G.trivial_subgroup(), ZZ)
    idm = identity_map(M)
    idm._check_equivariance()
    z = zero_map(M, M)
    assert z.is_zero()
    assert not idm.is_zero()


def test_map_composition_order():
    # f.compose(g) is "f after g": g maps first
    G = cyclic(2)
    M = perm_module(G, G.trivial_subgroup(), ZZ)
    N = trivial_module(G, ZZ)
    f = equivariant_hom_basis(M, N)[0]
    composite = identity_map(N).compose(f)
    composite._check_equivariance()
    assert composite.source is f.source
    assert composite.entries == f.entries


def test_rebase_to_permutation():
    G = cyclic(2)
    # the rank-one sign character has no permutation basis
    sgn = sign_module(G, G.trivial_subgroup(), ZZ)
    assert sgn.rank == 1
    assert rebase_to_permutation(sgn) is None
    # sign tensor sign is the trivial character: rebasable
    sq = tensor_module(sgn, sgn)
    out = rebase_to_permutation(sq)
    assert out is not None
    P, iso = out
    assert P.is_permutation()
    iso._check_equivariance()
    # sign tensor the regular module: free action, rebasable
    reg = perm_module(G, G.trivial_subgroup(), ZZ)
    out = rebase_to_permutation(tensor_module(sgn, reg))
    assert out is not None
    assert out[0].is_permutation()


# ---------------------------------------------------------------------------
# sparse hom-basis maps

def _dense(ring, entries, rows, cols):
    mat = mat_zero(ring, rows, cols)
    for (r, c), v in entries.items():
        mat[r][c] = v
    return [list(row) for row in mat]


def dense(f):
    """The dense matrix of a map, the reference for sparse products."""
    return _dense(f.ring, f.entries, f.target.rank, f.source.rank)


def _dense_equivariant(M, N, entries):
    """The dense criterion: M[g.r][g.i] = s t M[r][i] for every g and
    every cell (r, i), zero cells included."""
    ring = M.ring
    mat = _dense(ring, entries, N.rank, M.rank)
    return all(mat[N.act(g, r)[0]][M.act(g, i)[0]]
               == ring.normalize(N.act(g, r)[1] * M.act(g, i)[1] * mat[r][i])
               for g in M.group.elements()
               for r in range(N.rank) for i in range(M.rank))


def _module_pairs(name, ring):
    G = parse_group_name(name)
    mods = [perm_module(G, S, ring) for S in subgroups(G)]
    if name == "C4":
        # a signed module: the sign character tensored with a free module
        C2 = [S for S in subgroups(G) if S.order == 2][0]
        signed = tensor_module(sign_module(G, C2, ring),
                               perm_module(G, G.trivial_subgroup(), ring))
        assert not signed.is_permutation()
        mods.append(signed)
    return G, [(M, N) for M in mods for N in mods]


def test_sparse_half_orbit_fails_equivariance_like_dense():
    G = cyclic(4)
    M = perm_module(G, G.trivial_subgroup(), ZZ)
    f = max(equivariant_hom_basis(M, M), key=lambda b: len(b.entries))
    assert len(f.entries) == 4
    half = dict(sorted(f.entries.items())[:2])
    with pytest.raises(AssertionError, match="not equivariant"):
        EquivMap(M, M, half)
    assert not _dense_equivariant(M, M, half)
    # the full support passes the sparse and the dense criterion
    assert EquivMap(M, M, f.entries).entries == f.entries
    assert _dense_equivariant(M, M, f.entries)


@pytest.mark.parametrize("name", ["C4", "C2xC2", "D8"])
def test_hom_basis_dense_view_matches_orbit_signs(name):
    ring = ZZ
    G, pairs = _module_pairs(name, ring)
    for M, N in pairs:
        for f in equivariant_hom_basis(M, N):
            i, j = f.root_pair
            expect = mat_zero(ring, N.rank, M.rank)
            for g in G.elements():
                i2, s = M.act(g, i)
                j2, t = N.act(g, j)
                expect[j2][i2] = ring.normalize(s * t)
            assert dense(f) == expect
            assert len(f.entries) <= G.order
            assert _dense_equivariant(M, N, f.entries)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)])
def test_sparse_products_match_mat_mul(ring):
    G = cyclic(3)
    N = index_p_normal_subgroups(G)[0]
    u = u_complex(G, N, ring)
    X = tensor_complex(u, u)
    checked = 0
    for n, d in X.diffs.items():
        src, tgt = X.terms[n], X.terms[n - 1]
        d_cols, d_rows = _index(d.entries, 1), _index(d.entries, 0)
        for b in equivariant_hom_basis(tgt, src):
            db = _left_mul(ring, d_cols, b.entries)
            bd = _right_mul(ring, b.entries, d_rows)
            assert _dense(ring, db, tgt.rank, tgt.rank) == \
                mat_mul(ring, dense(d), dense(b))
            assert _dense(ring, bd, src.rank, src.rank) == \
                mat_mul(ring, dense(b), dense(d))
            assert all(v != 0 for v in list(db.values()) + list(bd.values()))
            checked += 1
    assert checked


def test_rows_columns_and_blocks_match_the_dense_matrix():
    # rows() lists the columns of each row in ascending order, the order
    # sparse_rows reads off a dense matrix: elimination breaks pivot ties
    # in that order, so it decides which certificates a report shows
    G = cyclic(4)
    u = u_complex(G, index_p_normal_subgroups(G)[0], ZZ)
    X = tensor_complex(u, u)
    for d in X.diffs.values():
        # the same map with its entries inserted in reverse order
        f = EquivMap(d.source, d.target, dict(reversed(d.entries.items())))
        mat = dense(f)
        rows = f.rows()
        assert rows == sparse_rows(mat)
        assert all(list(row) == sorted(row) for row in rows)
        assert f.columns() == [list(col) for col in zip(*mat)]
        rs, cs = range(1, f.target.rank), range(2, f.source.rank)
        assert _dense(ZZ, f.block(rs, cs), len(rs), len(cs)) == \
            [row[2:] for row in mat[1:]]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=str)
def test_sparse_compose_matches_mat_mul(ring):
    # C4 permutation modules and a signed module
    G, pairs = _module_pairs("C4", ring)
    mods = []
    for M, _ in pairs:
        if M not in mods:
            mods.append(M)
    checked = 0
    for L in mods:
        for M in mods:
            for N in mods:
                for g in equivariant_hom_basis(L, M):
                    for f in equivariant_hom_basis(M, N):
                        assert dense(f.compose(g)) == \
                            mat_mul(ring, dense(f), dense(g))
                        checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# checks on the generating set: each must still see a fault that lies
# outside the generators

def _regular_action(G):
    """The left regular action, g.e_x = e_(g x)."""
    return [[(G.mul(g, x), 1) for x in G.elements()] for g in G.elements()]


def test_action_wrong_only_at_a_non_generator_is_rejected():
    G = cyclic(4)
    assert G.generators == (1,)
    basis = tuple(G.elements())
    SignedPermModule(G, ZZ, basis, _regular_action(G))
    # rho(2) != rho(1)^2: rho(2) acts as rho(3), everything else is right
    action = _regular_action(G)
    action[2] = list(action[3])
    with pytest.raises(CertificateError, match="not a homomorphism"):
        SignedPermModule(G, ZZ, basis, action)
    # a sign fault at the non-generator: the character 1, -1, -1, -1
    # instead of the sign character 1, -1, 1, -1
    signs = [((0, 1),), ((0, -1),), ((0, 1),), ((0, -1),)]
    SignedPermModule(G, ZZ, ("x",), signs)
    signs[2] = ((0, -1),)
    with pytest.raises(CertificateError, match="not a homomorphism"):
        SignedPermModule(G, ZZ, ("x",), signs)


@pytest.mark.parametrize("name", ["C2xC2", "D8"])
def test_map_equivariant_for_one_generator_only_is_rejected(name):
    # trivial -> regular, 1 |-> the sum of the elements of <s1>: fixed by
    # rho(s1) but moved by rho(s2), since s2 is not in <s1>
    G = parse_group_name(name)
    s1, s2 = G.generators[:2]
    T = trivial_module(G, ZZ)
    R = perm_module(G, G.trivial_subgroup(), ZZ)
    support = G.closure([s1])
    assert s2 not in support
    entries = {(x, 0): 1 for x in support}

    def commutes(g):
        return all(entries.get((G.mul(g, x), 0)) == 1 for x in support)

    assert commutes(s1) and not commutes(s2)
    with pytest.raises(CertificateError, match="not equivariant"):
        EquivMap(T, R, entries)
    assert not _dense_equivariant(T, R, entries)


def _reference_hom_basis(M, N):
    """The orbit walk over every group element: (root_pair, sorted
    entries) of each consistent orbit, in start order."""
    G, ring = M.group, M.ring
    nN = N.rank
    assigned = set()
    out = []
    for start in range(M.rank * nN):
        if start in assigned:
            continue
        sign = {start: 1}
        consistent = True
        frontier = [start]
        while frontier:
            x = frontier.pop()
            i, j = divmod(x, nN)
            for g in G.elements():
                i2, s = M.act(g, i)
                j2, t = N.act(g, j)
                y = i2 * nN + j2
                if y in sign:
                    consistent = consistent and sign[y] == sign[x] * s * t
                else:
                    sign[y] = sign[x] * s * t
                    frontier.append(y)
        assigned.update(sign)
        if consistent:
            entries = sorted(((j, i), ring.normalize(w)) for x, w
                             in sign.items() for i, j in [divmod(x, nN)])
            out.append((divmod(start, nN), entries))
    return out


def _reference_orbits(M):
    """(members, path signs, consistent, stabilizer, character) of each
    orbit, walked over every group element."""
    G = M.group
    seen = set()
    out = []
    for root in range(M.rank):
        if root in seen:
            continue
        sign = {root: 1}
        consistent = True
        frontier = [root]
        while frontier:
            x = frontier.pop()
            for g in G.elements():
                y, s = M.act(g, x)
                if y in sign:
                    consistent = consistent and sign[y] == sign[x] * s
                else:
                    sign[y] = sign[x] * s
                    frontier.append(y)
        seen.update(sign)
        stab = [g for g in G.elements() if M.act(g, root)[0] == root]
        out.append((tuple(sorted(sign)), sign, consistent, tuple(stab),
                    {g: M.act(g, root)[1] for g in stab}))
    return out


@pytest.mark.parametrize("name", ["C4", "C2xC2", "D8"])
def test_generator_orbit_walks_match_the_all_elements_walk(name):
    G, pairs = _module_pairs(name, ZZ)
    for M, N in pairs:
        got = [(f.root_pair, sorted(f.entries.items()))
               for f in equivariant_hom_basis(M, N)]
        assert got == _reference_hom_basis(M, N)
    # the rank-one sign modules add orbits whose signs do not close up
    modules = list(dict.fromkeys(M for M, _ in pairs))
    signs = [sign_module(G, S, ZZ) for S in subgroups(G) if S.index == 2]
    for M in modules + signs:
        for N in signs:
            for A, B in ((M, N), (N, M)):
                got = [(f.root_pair, sorted(f.entries.items()))
                       for f in equivariant_hom_basis(A, B)]
                assert got == _reference_hom_basis(A, B)
    inconsistent = 0
    for M in modules + signs:
        got = [(o["members"], o["path_sign"], o["consistent"],
                o["stabilizer"].elements, o["character"])
               for o in M.orbits()]
        assert got == _reference_orbits(M)
        inconsistent += sum(not o[2] for o in got)
    # path signs are walk-dependent only on inconsistent orbits, and
    # those are the rank-one sign modules here
    assert inconsistent == len(signs)
