"""The tensor layout (``chain.tensor_index``) and its readers.

Every tensor product of the package reads one basis index and one
Leibniz differential: ``tensor_complex``, ``tensor_cone``,
``koszul.tensor_induce`` and ``twisted.class_product``.  The references
here compute the same objects independently, from block offsets and
strides: the Kronecker placement of dX (x) id and (-1)^i id (x) dY, the
stride arithmetic and hand-written Leibniz loop of tensor induction, and
``off + a * r2 + b`` for a product of cycles.  Bases, actions and
differential entries are compared as dicts, so only the insertion order
of the entries is free.
"""

from itertools import product as iproduct

import pytest

from ttperm import koszul, twisted
from ttperm.grp import cyclic, parse_group_name
from ttperm.rings import ZZ, QQ, GF
from ttperm.permod import (SignedPermModule, EquivMap, BlockModule,
                           tensor_module, subgroup_as_group, _index)
from ttperm.chain import (Complex, ChainMap, tensor_index,
                          tensor_differentials, tensor_complex, cone,
                          dual_complex, transport_complex)
from ttperm.cli import resolve_subgroup
from ttperm.twisted import (Twist, u_complex, canonical_u_power,
                            index_p_normal_subgroups, generator_maps,
                            class_product)


# ---------------------------------------------------------------------------
# references: block offsets, strides and Kronecker placement

def _ref_place(acc, r0, c0, A, B, b_shape, sign=1):
    br, bc = b_shape
    for (a, ap), v in A.items():
        for (b, bp), w in B.items():
            acc[(r0 + a * br + b, c0 + ap * bc + bp)] = sign * v * w


def _ref_identity(n):
    return {(i, i): 1 for i in range(n)}


def _ref_offsets(X, Y, n):
    out = {}
    off = 0
    for i in sorted(X.terms):
        j = n - i
        if j in Y.terms:
            out[(i, j)] = off
            off += X.terms[i].rank * Y.terms[j].rank
    return out


def _ref_tensor_complex(X, Y):
    """{n: (basis, action, differential entries of d_n or None)}."""
    pieces = {}
    for i, Mi in sorted(X.terms.items()):
        for j, Nj in sorted(Y.terms.items()):
            pieces.setdefault(i + j, []).append(((i, j), tensor_module(Mi, Nj)))
    blocks = {n: BlockModule(X.group, X.ring, bl) for n, bl in pieces.items()}
    out = {}
    for n, B in blocks.items():
        acc = None
        if (n - 1) in blocks:
            C = blocks[n - 1]
            acc = {}
            for (i, j) in B.blocks:
                c0 = B.offsets[(i, j)]
                Mi, Nj = X.term(i), Y.term(j)
                if (i - 1, j) in C.offsets and i in X.diffs:
                    _ref_place(acc, C.offsets[(i - 1, j)], c0,
                               X.diffs[i].entries, _ref_identity(Nj.rank),
                               (Nj.rank, Nj.rank))
                if (i, j - 1) in C.offsets and j in Y.diffs:
                    dY = Y.diffs[j]
                    _ref_place(acc, C.offsets[(i, j - 1)], c0,
                               _ref_identity(Mi.rank), dY.entries,
                               (dY.target.rank, Nj.rank),
                               sign=1 if i % 2 == 0 else -1)
        out[n] = (B.module.basis, B.module.action, acc)
    return out


def _ref_tensor_chain_maps(f, g, degrees):
    """{n: component entries} of f (x) g in the given degrees."""
    X, Y = f.source, f.target
    Xp, Yp = g.source, g.target
    out = {}
    for n in degrees:
        SB, TB = _ref_offsets(X, Xp, n), _ref_offsets(Y, Yp, n)
        acc = {}
        for (i, j), c0 in SB.items():
            if (i, j) in TB:
                gj = g.component(j)
                _ref_place(acc, TB[(i, j)], c0, f.component(i).entries,
                           gj.entries, (gj.target.rank, gj.source.rank))
        out[n] = acc
    return out


def _ref_koszul_sign(sigma, degs):
    s = 1
    for i in range(len(degs)):
        for j in range(i + 1, len(degs)):
            if sigma[i] > sigma[j] and degs[i] % 2 and degs[j] % 2:
                s = -s
    return s


def _ref_tensor_induce(X, S):
    """{n: (basis, action, differential entries of d_n or None)} of the
    tensor induction of X along S, by offsets and strides."""
    G = S.parent
    k = S.index
    H_grp, elems = subgroup_as_group(S)
    X = transport_complex(X, H_grp)
    pos_in_H = {x: i for i, x in enumerate(elems)}
    reps = S.coset_reps()
    rep_index = {}
    for idx, r in enumerate(reps):
        for h in elems:
            rep_index[G.mul(r, h)] = idx
    sigma, hpart = {}, {}
    for g in G.elements():
        sg, hg = [], []
        for r in reps:
            gr = G.mul(g, r)
            j2 = rep_index[gr]
            sg.append(j2)
            hg.append(pos_in_H[G.mul(G.inv(reps[j2]), gr)])
        sigma[g], hpart[g] = sg, hg
    by_degree = {}
    for tup in iproduct(X.degrees(), repeat=k):
        by_degree.setdefault(sum(tup), []).append(tup)

    def dims(tup):
        return [X.terms[d].rank for d in tup]

    def strides(ds):
        st = [1] * len(ds)
        for i in range(len(ds) - 2, -1, -1):
            st[i] = st[i + 1] * ds[i + 1]
        return st

    offsets = {}
    for n, tups in by_degree.items():
        off, offs = 0, {}
        for tup in tups:
            offs[tup] = off
            r = 1
            for d in dims(tup):
                r *= d
            off += r
        offsets[n] = offs
    out = {}
    for n, tups in sorted(by_degree.items()):
        basis = []
        for tup in tups:
            for btup in iproduct(*[X.terms[d].basis for d in tup]):
                basis.append(("ti", tup, btup))
        action = []
        for g in G.elements():
            sg, hg = sigma[g], hpart[g]
            row = []
            for tup in tups:
                ttup = [0] * k
                for j in range(k):
                    ttup[sg[j]] = tup[j]
                ttup = tuple(ttup)
                tst = strides(dims(ttup))
                ks = _ref_koszul_sign(sg, tup)
                acts = [X.terms[tup[j]].action[hg[j]] for j in range(k)]
                for src in iproduct(*[range(d) for d in dims(tup)]):
                    idx, sgn = 0, ks
                    for j in range(k):
                        bj, sj = acts[j][src[j]]
                        idx += bj * tst[sg[j]]
                        sgn *= sj
                    row.append((offsets[n][ttup] + idx, sgn))
            action.append(tuple(row))
        acc = None
        if (n - 1) in by_degree:
            acc = {}
            for tup in tups:
                st = strides(dims(tup))
                for j in range(k):
                    dj = tup[j]
                    if dj not in X.diffs:
                        continue
                    ttup = tup[:j] + (dj - 1,) + tup[j + 1:]
                    tst = strides(dims(ttup))
                    sgn = 1 if sum(tup[:j]) % 2 == 0 else -1
                    d_cols = _index(X.diffs[dj].entries, 1)
                    for src in iproduct(*[range(d) for d in dims(tup)]):
                        c = offsets[n][tup] + sum(src[i] * st[i]
                                                  for i in range(k))
                        base = sum(src[i] * tst[i] for i in range(k) if i != j)
                        for b2, v in d_cols.get(src[j], ()):
                            acc[(offsets[n - 1][ttup] + base + b2 * tst[j],
                                 c)] = sgn * v
        out[n] = (tuple(basis), tuple(action), acc)
    return out


def _entries(ring, acc):
    """A reference entries dict as EquivMap keeps it: normalized,
    nonzero."""
    out = {k: ring.normalize(v) for k, v in acc.items()}
    return {k: v for k, v in out.items() if v != 0}


def _same(Y, ref):
    """Y has the reference's terms, and d_n has its entries in every
    degree with a term below (an absent d_n is an empty one)."""
    assert set(Y.terms) == set(ref)
    for n, M in Y.terms.items():
        basis, action, acc = ref[n]
        assert M.basis == basis, n
        # as a module keeps it: over F_2 every sign is +1
        assert M.action == SignedPermModule(M.group, M.ring, basis,
                                            action).action, n
        assert Y.diff(n).entries == _entries(Y.ring, acc or {}), n


def _checked_tensor_chain_map(f, g):
    """f (x) g : X (x) X' -> Y (x) Y' as a ChainMap between checked
    tensor complexes, one tensor_module per block: the construction
    whose cone ``chain.tensor_cone`` writes in one pass."""
    def tensor(X, Y, index):
        pieces = {}
        for i, Mi in sorted(X.terms.items()):
            for j, Nj in sorted(Y.terms.items()):
                pieces.setdefault(i + j, []).append(
                    ((i, j), tensor_module(Mi, Nj)))
        terms = {n: BlockModule(X.group, X.ring, bl).module
                 for n, bl in pieces.items()}
        diffs = {n: EquivMap(terms[n], terms[n - 1], acc)
                 for n, acc in tensor_differentials((X, Y), index).items()}
        return Complex(X.group, X.ring, terms, diffs)

    SI = tensor_index((f.source, g.source))
    TI = tensor_index((f.target, g.target))
    S, T = tensor(f.source, g.source, SI), tensor(f.target, g.target, TI)
    fcols = {i: _index(c.entries, 1) for i, c in f.components.items()}
    gcols = {j: _index(c.entries, 1) for j, c in g.components.items()}
    comps = {}
    for n in [n for n in S.terms if n in T.terms]:
        acc = {}
        for ((i, j), (a, b)), c in SI[n].items():
            for a2, v in fcols.get(i, {}).get(a, ()):
                for b2, w in gcols.get(j, {}).get(b, ()):
                    acc[(TI[n][((i, j), (a2, b2))], c)] = v * w
        comps[n] = EquivMap(S.terms[n], T.terms[n], acc)
    return ChainMap(S, T, comps)


def _split_cone(C):
    """(T, S, tau) for C = cone(tau : S -> T), read off the ("cY",) and
    ("cX",) blocks of C: T and S as unchecked complexes and tau as
    {n: entries of tau_n}."""
    pos = {n: {} for n in C.terms}
    for n, M in C.terms.items():
        for p, (key, _) in enumerate(M.basis):
            back = pos[n].setdefault(key, {})
            back[p] = len(back)

    def module(n, key):
        M, back = C.terms[n], pos[n][key]
        return SignedPermModule(C.group, C.ring,
                                [M.basis[p][1] for p in back],
                                [[(back[row[p][0]], row[p][1]) for p in back]
                                 for row in M.action])

    def block(n, rkey, ckey, sign=1):
        rows, cols = pos.get(n - 1, {}).get(rkey, {}), pos[n].get(ckey, {})
        return _entries(C.ring, {(rows[r], cols[c]): sign * v
                                 for (r, c), v in C.diff(n).entries.items()
                                 if r in rows and c in cols})

    T = {n: module(n, ("cY",)) for n in C.terms if ("cY",) in pos[n]}
    S = {n - 1: module(n, ("cX",)) for n in C.terms if ("cX",) in pos[n]}
    dT = {n: EquivMap(T[n], T[n - 1], block(n, ("cY",), ("cY",)))
          for n in T if n - 1 in T}
    dS = {n: EquivMap(S[n], S[n - 1], block(n + 1, ("cX",), ("cX",), -1))
          for n in S if n - 1 in S}
    tau = {n: block(n + 1, ("cY",), ("cX",)) for n in S if n in T}
    return (Complex(C.group, C.ring, T, dT, check=False),
            Complex(C.group, C.ring, S, dS, check=False), tau)


# ---------------------------------------------------------------------------
# the Koszul towers: every tensor induction and every cone of a tensor of
# chain maps

TOWERS = [("C4", "1", "Z"), ("C2xC2", "1", "Z"), ("C8", "C2", "Z"),
          ("D8", "C2#0", "Z"), ("C9", "C3", "Z"), ("C27", "C9", "Z"),
          ("C3xC3", "C3#0", "Z"), ("C16", "C2", "F2")]
TOWER_IDS = ["-".join(t) for t in TOWERS]


def _tower_calls(monkeypatch, gname, hname, rname):
    """Build the tower of kos(G, H) over the ring, recording every
    tensor induction (X, S, result) and tensor cone (f, g, result)."""
    induced, coned = [], []
    real_induce, real_cone = koszul.tensor_induce, koszul.tensor_cone

    def induce(X, S):
        out = real_induce(X, S)
        induced.append((X, S, out))
        return out

    def tensor_cone(f, g):
        out = real_cone(f, g)
        coned.append((f, g, out))
        return out

    monkeypatch.setattr(koszul, "tensor_induce", induce)
    monkeypatch.setattr(koszul, "tensor_cone", tensor_cone)
    G = parse_group_name(gname)
    H = resolve_subgroup(G, hname)[0]
    ring = {"Z": ZZ, "F2": GF(2)}[rname]
    koszul._build_koszul(G, H, ring)
    return G, ring, induced, coned


@pytest.mark.parametrize("gname,hname,rname", TOWERS, ids=TOWER_IDS)
def test_koszul_tower_products_match_the_offset_references(
        monkeypatch, gname, hname, rname):
    G, ring, induced, coned = _tower_calls(monkeypatch, gname, hname, rname)
    assert induced
    for X, S, Y in induced:
        _same(Y, _ref_tensor_induce(X, S))
    for f, g, C in coned:
        T, S, tau = _split_cone(C)
        _same(S, _ref_tensor_complex(f.source, g.source))
        _same(T, _ref_tensor_complex(f.target, g.target))
        want = _ref_tensor_chain_maps(f, g, set(S.terms) & set(T.terms))
        assert set(tau) == set(want)
        for n, acc in want.items():
            assert tau[n] == _entries(ring, acc), n
    # over Z the p = 2 towers modify signs through tensors of chain maps
    if ring is ZZ:
        assert bool(coned) == (G.order % 2 == 0)


@pytest.mark.parametrize("gname,hname,rname", TOWERS, ids=TOWER_IDS)
def test_tensor_cone_is_the_cone_of_the_checked_tensor_chain_map(
        monkeypatch, gname, hname, rname):
    _, _, _, coned = _tower_calls(monkeypatch, gname, hname, rname)
    for f, g, C in coned:
        want = cone(_checked_tensor_chain_map(f, g))
        assert C.degrees() == want.degrees()
        for n in want.degrees():
            assert C.term(n).basis == want.term(n).basis, n
            assert C.term(n).action == want.term(n).action, n
            # the same entries, inserted in the same order
            assert list(C.diff(n).entries.items()) == \
                list(want.diff(n).entries.items()), n


# ---------------------------------------------------------------------------
# u_N, its dual and can(2 e_N)

U_CASES = [("C2", ZZ), ("C3", ZZ), ("C2xC2", ZZ), ("C2", GF(2)),
           ("C5", GF(5)), ("C3", QQ)]


@pytest.mark.parametrize("gname,ring", U_CASES,
                         ids=["%s-%s" % (g, r.name) for g, r in U_CASES])
def test_tensor_complex_of_u_matches_the_kronecker_reference(gname, ring):
    G = parse_group_name(gname)
    N = index_p_normal_subgroups(G)[0]
    u = u_complex(G, N, ring)
    factors = [u, dual_complex(u),
               canonical_u_power(G, Twist.single(N, 2), ring)]
    for X in factors:
        for Y in factors:
            _same(tensor_complex(X, Y), _ref_tensor_complex(X, Y))


def test_tensor_index_is_the_block_offset_layout():
    G = cyclic(3)
    N = index_p_normal_subgroups(G)[0]
    u = u_complex(G, N, ZZ)
    X, Y = u, dual_complex(u)
    index = tensor_index((X, Y))
    for n, block in index.items():
        offs = _ref_offsets(X, Y, n)
        for ((i, j), (a, b)), pos in block.items():
            assert pos == offs[(i, j)] + a * Y.terms[j].rank + b
        assert sorted(block.values()) == list(range(len(block)))


# ---------------------------------------------------------------------------
# class products

@pytest.mark.parametrize("gname,ring", [("C2", ZZ), ("C3", ZZ),
                                        ("C2xC2", GF(2))],
                         ids=["C2-Z", "C3-Z", "C2xC2-F2"])
def test_class_product_positions_are_the_block_offsets(gname, ring):
    G = parse_group_name(gname)
    N = index_p_normal_subgroups(G)[0]
    gm = generator_maps(G, N, ring)
    syms = [s for s in ("a", "b", "c") if s in gm]
    for s1 in syms:
        for s2 in syms:
            z1, z2 = gm[s1], gm[s2]
            Y1 = canonical_u_power(G, z1.twist, ring)
            Y2 = canonical_u_power(G, z2.twist, ring)
            n1, n2 = -z1.shift, -z2.shift
            off = _ref_offsets(Y1, Y2, n1 + n2)[(n1, n2)]
            r2 = Y2.term(n2).rank
            sgn = 1 if (z1.shift * z2.shift) % 2 == 0 else -1
            v = _entries(ring, {off + a * r2 + b: sgn * va * vb
                                for a, va in z1.cycle.items()
                                for b, vb in z2.cycle.items()})
            f, _ = twisted._transport(G, ring, z1.twist, z2.twist)
            want = f.component(n1 + n2).apply(v)
            assert class_product(z1, z2).cycle == want, (s1, s2)
