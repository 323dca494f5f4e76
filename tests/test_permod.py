"""Signed permutation modules and their equivariant maps.

The load-bearing oracle: dim Hom_G(R[G/H], R[G/K]) equals the number
of double cosets H\\G/K, counted independently here by enumerating
orbits of the double action.
"""

import gc
import re
import weakref

import pytest

from ttperm.grp import Subgroup, cyclic, parse_group_name, subgroups
from ttperm.rings import ZZ, QQ, GF, mat_mul, mat_zero
from ttperm.permod import (perm_module, trivial_module, sign_module,
                           tensor_module, dual_module, BlockModule,
                           restrict, base_change_module,
                           equivariant_hom_basis, SignedPermModule,
                           identity_map, zero_map, subgroup_as_group,
                           is_induced_from, rebase_to_permutation, EquivMap,
                           CertificateError, HomOrbits, _index, _left_mul,
                           _right_mul, sign_decompose,
                           SignDecompositionError)
from ttperm.chain import tensor_complex, module_complex
from ttperm.homotopy import InvariantsComplex
from ttperm.twisted import u_complex, index_p_normal_subgroups
from ttperm import koszul
from ttperm.cli import resolve_subgroup


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
    S = BlockModule(G, ZZ, [("a", M), ("b", N)]).module
    assert S.rank == 3


def test_invariant_basis_of_permutation_module():
    # invariants of R[G/H] are spanned by the single full orbit sum
    G = parse_group_name("C2xC2")
    for S in subgroups(G):
        M = perm_module(G, S, ZZ)
        I = InvariantsComplex(module_complex(M))
        assert I.dim(0) == 1
        assert I.to_ambient(0, {0: 1}) == {i: 1 for i in range(M.rank)}
        assert I.from_ambient(0, {i: 3 for i in range(M.rank)}) == {0: 3}


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


def test_a_whole_group_is_its_own_subgroup_as_group():
    G = parse_group_name("C2xC2")
    whole = [S for S in subgroups(G) if S.order == G.order][0]
    assert subgroup_as_group(whole) == (G, tuple(range(G.order)))
    assert not G.subgroup_groups


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
    with pytest.raises(CertificateError, match="not equivariant"):
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
    # of the dense matrix's rows: elimination breaks pivot ties
    # in that order, so it decides which certificates a report shows
    G = cyclic(4)
    u = u_complex(G, index_p_normal_subgroups(G)[0], ZZ)
    X = tensor_complex(u, u)
    for d in X.diffs.values():
        # the same map with its entries inserted in reverse order
        f = EquivMap(d.source, d.target, dict(reversed(d.entries.items())))
        mat = dense(f)
        rows = f.rows()
        assert rows == [{c: v for c, v in enumerate(row) if v != 0}
                        for row in mat]
        assert all(list(row) == sorted(row) for row in rows)
        assert f.columns() == [{r: v for r, v in enumerate(col) if v != 0}
                               for col in zip(*mat)]
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
    # the orbit of e_x is the orbit of the pair (0, x) in Hom(R, M), R
    # trivial, and its L-twisted orbit is that pair's orbit in Hom(L, M),
    # which the reference walks as the basis orbit of L (x) M
    R = trivial_module(G, ZZ)
    inconsistent = 0
    for M in modules + signs:
        for A in [R] + signs:
            H = HomOrbits(A, M)
            roots = []
            for members, sign, consistent, _, character in \
                    _reference_orbits(M if A is R else tensor_module(A, M)):
                assert consistent == all(c == 1 for c in character.values())
                codes = [H.code[x] for x in members]
                if consistent:
                    roots.append(members[0])
                    assert codes == [sign[x] * len(roots) for x in members]
                else:
                    assert codes == [0] * len(members)
                    inconsistent += A is R
            assert list(H.roots) == roots
    # path signs are walk-dependent only on inconsistent orbits, and
    # for R those are the rank-one sign modules' here
    assert inconsistent == len(signs)


@pytest.mark.parametrize("name", ["C4", "C2xC2", "D8"])
def test_orbit_codes_match_the_basis_maps(name):
    # code[i rank N + j] is +-(k + 1) exactly on the support of basis map
    # k, signed by its entry, and 0 on the pairs of inconsistent orbits
    G, pairs = _module_pairs(name, ZZ)
    signs = [sign_module(G, S, ZZ) for S in subgroups(G) if S.index == 2]
    modules = list(dict.fromkeys(M for M, _ in pairs)) + signs
    zeros = 0
    for A, B in pairs + [(M, L) for M in modules for L in signs] + \
            [(L, M) for M in modules for L in signs]:
        H = HomOrbits(A, B)
        want = [0] * (A.rank * B.rank)
        basis = equivariant_hom_basis(A, B)
        for k, f in enumerate(basis):
            assert divmod(H.roots[k], B.rank) == f.root_pair
            for (j, i), v in f.entries.items():
                want[i * B.rank + j] = (k + 1) * v
        assert len(H) == len(basis) and list(H.code) == want
        zeros += want.count(0)
    assert zeros


_MISMATCHED_MAPS = """
import sys
from ttperm.grp import cyclic
from ttperm.permod import EquivMap, trivial_module, perm_module
from ttperm.rings import ZZ, QQ

assert sys.flags.optimize
G = cyclic(2)
MZ, MQ = trivial_module(G, ZZ), trivial_module(G, QQ)
P = perm_module(G, G.trivial_subgroup(), ZZ)
bad = {
    "group": lambda: EquivMap(trivial_module(cyclic(1), ZZ), MZ, {}),
    "ring": lambda: EquivMap(MZ, MQ, {(0, 0): 1}),
    "compose": lambda: EquivMap(MZ, MZ, {(0, 0): 1}).compose(
        EquivMap(MZ, P, {(0, 0): 1, (1, 0): 1})),
    "compose-ring": lambda: EquivMap(MQ, MQ, {(0, 0): 1}).compose(
        EquivMap(MZ, MZ, {(0, 0): 1})),
}
for name, build in bad.items():
    try:
        build()
        sys.exit("a map with a mismatched %s was accepted" % name)
    except ValueError as exc:
        print(name, exc)
"""


def test_mismatched_maps_raise_under_python_O(python_O):
    # Z and Q values are both ints, so only these checks keep a Z module
    # from meeting a Q module; they are ValueErrors, not asserts
    proc = python_O(_MISMATCHED_MAPS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "group source and target have different groups",
        "ring source and target have different rings",
        "compose the target of the first map is not the source of the second",
        "compose-ring source and target have different rings",
    ]


_STRUCTURAL_MISUSE = """
import sys
from ttperm.cli import _point_from_id
from ttperm.grp import cyclic
from ttperm.permod import (BlockModule, EquivMap, HomOrbits, perm_module,
                           sign_module, restrict, sign_decompose,
                           map_inverse_monomial, trivial_module)
from ttperm.rings import ZZ, QQ, mat_mul

assert sys.flags.optimize
C2, C4 = cyclic(2), cyclic(4)
one = C4.trivial_subgroup()
R = trivial_module(C2, ZZ)
R2 = BlockModule(C2, ZZ, [("a", R), ("b", R)]).module
bad = {
    "perm_module": lambda: perm_module(C2, one, ZZ),
    "sign_module": lambda: sign_module(C4, one, ZZ),
    "BlockModule": lambda: BlockModule(C2, ZZ, [("a", R), ("a", R)]),
    "restrict": lambda: restrict(R, one),
    "HomOrbits": lambda: HomOrbits(R, trivial_module(C2, QQ)),
    "sign_decompose": lambda: sign_decompose(trivial_module(C4, ZZ), one),
    "square": lambda: map_inverse_monomial(
        EquivMap(R2, R, {(0, 0): 1, (0, 1): 1})),
    "monomial": lambda: map_inverse_monomial(
        EquivMap(R2, R2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})),
    "unit": lambda: map_inverse_monomial(EquivMap(R, R, {(0, 0): 2})),
    "point": lambda: _point_from_id("Q(1)"),
    "mat_mul": lambda: mat_mul(ZZ, [[1, 2]], [[1, 2]]),
}
for name, build in bad.items():
    try:
        build()
        sys.exit("%s accepted a caller's bug" % name)
    except ValueError as exc:
        print(name, exc)
"""


def test_structural_misuse_raises_under_python_O(python_O):
    # a caller's bug in permod, rings or cli is a ValueError (exit 1
    # with a traceback), never an assert that -O strips
    proc = python_O(_STRUCTURAL_MISUSE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "perm_module the subgroup lies in another group",
        "sign_module sign module needs an index-2 subgroup",
        "BlockModule block 'a' appears twice",
        "restrict the subgroup lies in another group",
        "HomOrbits hom between different groups or rings",
        "sign_decompose sign module needs an index-2 subgroup",
        "square map is not monomial with unit entries",
        "monomial map is not monomial with unit entries",
        "unit map is not monomial with unit entries",
        "point unknown point id 'Q(1)'",
        "mat_mul shape mismatch (1, 2) * (1, 2)",
    ]


# The basis-orbit walk, sign decomposition, rebasing and induction test
# as they were written before they read HomOrbits: one walk per orbit,
# the eps-twisted walk inside sign decomposition, and a direct sum of
# two modules.  The differential test below holds the HomOrbits versions
# to the same modules, actions and iso entries, in order.

def _old_orbits(M):
    G = M.group
    gen_rows = [M.action[s] for s in G.generators]
    seen = set()
    out = []
    for root in range(M.rank):
        if root in seen:
            continue
        path_sign = {root: 1}
        consistent = True
        frontier = [root]
        while frontier:
            x = frontier.pop()
            for row in gen_rows:
                y, s = row[x]
                sign_y = path_sign[x] * s
                if y in path_sign:
                    if path_sign[y] != sign_y:
                        consistent = False
                else:
                    path_sign[y] = sign_y
                    frontier.append(y)
        members = tuple(sorted(path_sign))
        seen.update(members)
        stab_elems = []
        character = {}
        for g in G.elements():
            j, s = M.action[g][root]
            if j == root:
                stab_elems.append(g)
                character[g] = s
        out.append({"members": members, "root": root,
                    "path_sign": path_sign,
                    "stabilizer": Subgroup(G, stab_elems),
                    "character": character, "consistent": consistent})
    return out


def _old_direct_sum(M, N, tags):
    basis = tuple((tags[0], l) for l in M.basis) + \
        tuple((tags[1], l) for l in N.basis)
    off = M.rank
    action = []
    for g in M.group.elements():
        row = [(j, s) for (j, s) in M.action[g]]
        row += [(j + off, s) for (j, s) in N.action[g]]
        action.append(tuple(row))
    return SignedPermModule(M.group, M.ring, basis, tuple(action))


def _old_sign_decompose(M, S):
    G = M.group
    ring = M.ring
    inside = set(S.elements)
    eps = {g: (1 if g in inside else -1) for g in G.elements()}
    plus_entries = []
    minus_entries = []
    for orb in _old_orbits(M):
        chi = orb["character"]
        if all(s == 1 for s in chi.values()):
            if orb["consistent"]:
                for x in orb["members"]:
                    plus_entries.append((x, orb["path_sign"][x]))
                continue
        if all(chi[g] == eps[g] for g in chi):
            sign = {orb["root"]: 1}
            frontier = [orb["root"]]
            ok = True
            while frontier:
                x = frontier.pop()
                for g in G.generators:
                    y, s = M.action[g][x]
                    w = sign[x] * s * eps[g]
                    if y in sign:
                        if sign[y] != w:
                            ok = False
                    else:
                        sign[y] = w
                        frontier.append(y)
            if ok:
                for x in orb["members"]:
                    minus_entries.append((x, sign[x]))
                continue
        raise SignDecompositionError(
            "orbit at basis index %d resists sign decomposition along %s"
            % (orb["root"], S.describe()))
    plus_entries.sort()
    minus_entries.sort()

    def submodule(entries, twist):
        idx = [x for (x, _) in entries]
        back = {x: k for k, (x, _) in enumerate(entries)}
        sgn = {x: s for (x, s) in entries}
        basis = tuple(M.basis[x] for x in idx)
        action = []
        for g in G.elements():
            row = []
            for x in idx:
                y, s = M.action[g][x]
                row.append((back[y], s * sgn[x] * sgn[y] * twist[g]))
            action.append(tuple(row))
        return basis, tuple(action)

    Mplus = SignedPermModule(G, ring, *submodule(
        plus_entries, {g: 1 for g in G.elements()}))
    Mminus = SignedPermModule(G, ring, *submodule(minus_entries, eps))
    L = sign_module(G, S, ring)
    dom = _old_direct_sum(Mplus, tensor_module(L, Mminus), ("+", "-"))
    iso = EquivMap(dom, M, {(x, k): s for k, (x, s)
                            in enumerate(plus_entries + minus_entries)})
    return Mplus, Mminus, iso


def _old_rebase_to_permutation(M):
    entries = []
    for orb in _old_orbits(M):
        if not orb["consistent"] or \
                any(s != 1 for s in orb["character"].values()):
            return None
        for x in orb["members"]:
            entries.append((x, orb["path_sign"][x]))
    entries.sort()
    basis = tuple(M.basis[x] for (x, _) in entries)
    sgn = {x: s for (x, s) in entries}
    action = []
    for g in M.group.elements():
        row = []
        for (x, _) in entries:
            y, s = M.action[g][x]
            row.append((y, s * sgn[x] * sgn[y]))
        action.append(tuple(row))
    Mperm = SignedPermModule(M.group, M.ring, basis, tuple(action))
    iso = EquivMap(Mperm, M, {(x, k): s for k, (x, s) in enumerate(entries)})
    return Mperm, iso


def _old_is_induced_from(M, S):
    G = M.group
    for orb in _old_orbits(M):
        stab = orb["stabilizer"]
        if any(s != 1 for s in orb["character"].values()):
            return False
        if not any(stab.conjugate(g) <= S for g in G.elements()):
            return False
    return True


def _flat(x):
    """Modules as (basis, action), maps as (source, target, entries in
    order), recursively through tuples."""
    if isinstance(x, SignedPermModule):
        return ("module", x.basis, x.action)
    if isinstance(x, EquivMap):
        return ("map", _flat(x.source), _flat(x.target),
                list(x.entries.items()))
    if isinstance(x, tuple):
        return tuple(_flat(y) for y in x)
    return x


def _outcome(f, *args):
    try:
        return _flat(f(*args))
    except SignDecompositionError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("name, sub", [("C4", "1"), ("C2xC2", "1"),
                                       ("D8", "C2#0")])
def test_orbit_table_readers_match_the_basis_orbit_walk(name, sub,
                                                        monkeypatch):
    # every term that the p = 2 tower of kos(G, H) meets: the terms
    # entering and leaving each sign modification, and every module it
    # decomposes along its index-2 subgroup
    terms = {}
    decompose, modify = koszul.sign_decompose, koszul.sign_modify

    def spy_decompose(M, S):
        terms.setdefault(id(M), M)
        return decompose(M, S)

    def spy_modify(X, S, h):
        terms.update((id(M), M) for M in X.terms.values())
        Y, audit, h = modify(X, S, h)
        terms.update((id(M), M) for M in Y.terms.values())
        return Y, audit, h

    monkeypatch.setattr(koszul, "sign_decompose", spy_decompose)
    monkeypatch.setattr(koszul, "sign_modify", spy_modify)
    G = parse_group_name(name)
    koszul._build_koszul(G, resolve_subgroup(G, sub)[0], ZZ)
    seen = {"minus": 0, "none": 0, "induced": 0}
    for M in terms.values():
        for S in subgroups(M.group):
            got = _outcome(is_induced_from, M, S)
            assert got == _outcome(_old_is_induced_from, M, S)
            seen["induced"] += got
            if S.index == 2:
                got = _outcome(sign_decompose, M, S)
                assert got == _outcome(_old_sign_decompose, M, S)
                if got[0] != "error":
                    seen["minus"] += bool(got[1][1])
        got = _outcome(rebase_to_permutation, M)
        assert got == _outcome(_old_rebase_to_permutation, M)
        seen["none"] += got is None
    assert all(seen.values()), seen


def test_sign_module_resists_decomposition_along_another_subgroup():
    G = parse_group_name("C2xC2")
    S, T = [H for H in subgroups(G) if H.index == 2][:2]
    with pytest.raises(SignDecompositionError,
                       match=re.escape("orbit at basis index 0 resists sign "
                                       "decomposition along " + T.describe())):
        sign_decompose(sign_module(G, S, ZZ), T)
    # along its own subgroup it is L (x) R
    P, N, iso = sign_decompose(sign_module(G, S, ZZ), S)
    assert (P.rank, N.rank) == (0, 1) and N.is_permutation()
    assert iso.entries == {(0, 0): 1}
