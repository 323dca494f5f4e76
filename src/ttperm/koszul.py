"""Koszul objects: tensor induction, sign modification, verification.

For an index-n normal subgroup H of G, tensor induction sends a
complex x over H to the restriction of x^{(x) n} along the embedding
i : G -> S_n x| H^n determined by fixed coset representatives
(g r_j = r_{sigma_g(j)} h_j); the S_n part permutes tensor factors
with the Koszul sign prod_{i<j, sigma(i)>sigma(j)} (-1)^{|v_i||v_j|}.

A Koszul object kos(G, H) starts from the two-term complex R -> R over
H.  For odd p the single tensor induction already has permutation
terms after an orbitwise change of basis; for p = 2 the construction
walks an index-2 filtration H = S_0 < S_1 < ... < G and alternates
tensor induction with sign modification, which trades the sign module
L appearing in top degrees for the two-term permutation complex
Ltilde = (R -> R(G/S)) via the cone of s (x) t (s : Ltilde -> L the
signed augmentation, t the attaching map of the degree-m slice).

Every constructed object is verified before being returned: terms are
permutation modules, degree 0 is R, degree 1 is induced from H, the
complex is acyclic, and its restriction to H is contractible with an
explicit contraction certificate.
"""

from itertools import product as iproduct

from .grp import Subgroup, subgroups
from .permod import (SignedPermModule, EquivMap, subgroup_as_group,
                     trivial_module, sign_module, perm_module, tensor_module,
                     sign_decompose, map_inverse_monomial,
                     rebase_to_permutation, is_induced_from, _index)
from .chain import (Complex, ChainMap, module_complex, shift_complex,
                    tensor_chain_maps, cone, restrict_complex,
                    transport_complex, base_change_complex)
from .homotopy import is_contractible, homology_profile
from .rings import factorize


def prime_power(n):
    """(p, k) with n = p^k, or None."""
    factors = list(factorize(n).items())
    return factors[0] if len(factors) == 1 else None


def index2_filtration(G, H):
    """A chain H = S_0 < S_1 < ... < S_l = G with index-2 steps.

    Exists for every subgroup of a 2-group; the step is chosen as the
    lexicographically smallest eligible overgroup, so the filtration
    is deterministic.
    """
    all_subs = subgroups(G)
    chain = [H]
    current = H
    while current.order < G.order:
        candidates = [T for T in all_subs
                      if T.order == 2 * current.order and current <= T]
        candidates = [T for T in candidates
                      if all(frozenset(G.conj(x, g) for x in current.elements)
                             == frozenset(current.elements)
                             for g in T.elements)]
        assert candidates, "no index-2 step above %s" % current.describe()
        current = min(candidates, key=lambda T: T.elements)
        chain.append(current)
    return chain


def koszul_base(group, ring):
    """The two-term complex R --1--> R (degrees 1, 0)."""
    R0 = trivial_module(group, ring)
    R1 = trivial_module(group, ring)
    d = EquivMap(R1, R0, {(0, 0): 1})
    return Complex(group, ring, {0: R0, 1: R1}, {1: d})


def _koszul_sign(sigma, degs):
    """Sign of permuting homogeneous letters of degrees ``degs`` by
    sigma (letter j moves to slot sigma[j])."""
    s = 1
    k = len(degs)
    for i in range(k):
        for j in range(i + 1, k):
            if sigma[i] > sigma[j] and degs[i] % 2 and degs[j] % 2:
                s = -s
    return s


def tensor_induce(X, S):
    """Tensor induction of the complex X along the normal subgroup S.

    X must live over the standalone group of S (same multiplication
    table); the result lives over S.parent.  Index at most 4.
    """
    G = S.parent
    k = S.index
    assert k <= 4, "index bound exceeded (index %d > 4)" % k
    H_grp, elems = subgroup_as_group(S)
    X = transport_complex(X, H_grp)
    if k == 1:
        return transport_complex(X, G)
    assert S.is_normal(), "tensor induction requires a normal subgroup"
    ring = X.ring
    pos_in_H = {x: i for i, x in enumerate(elems)}
    reps = S.coset_reps()
    rep_index = {}
    for idx, r in enumerate(reps):
        for h in elems:
            rep_index[G.mul(r, h)] = idx
    sigma = {}
    hpart = {}
    for g in G.elements():
        sg = []
        hg = []
        for r in reps:
            gr = G.mul(g, r)
            j2 = rep_index[gr]
            sg.append(j2)
            hg.append(pos_in_H[G.mul(G.inv(reps[j2]), gr)])
        sigma[g] = sg
        hpart[g] = hg

    degrees = X.degrees()
    blocks_by_degree = {}
    for tup in iproduct(degrees, repeat=k):
        blocks_by_degree.setdefault(sum(tup), []).append(tup)

    def block_dims(tup):
        return [X.terms[d].rank for d in tup]

    def block_rank(tup):
        r = 1
        for d in tup:
            r *= X.terms[d].rank
        return r

    offsets = {}
    term_rank = {}
    for n, tups in sorted(blocks_by_degree.items()):
        off = 0
        offs = {}
        for tup in tups:
            offs[tup] = off
            off += block_rank(tup)
        offsets[n] = offs
        term_rank[n] = off

    def strides(dims):
        st = [1] * len(dims)
        for i in range(len(dims) - 2, -1, -1):
            st[i] = st[i + 1] * dims[i + 1]
        return st

    terms = {}
    for n, tups in sorted(blocks_by_degree.items()):
        basis = []
        for tup in tups:
            for btup in iproduct(*[X.terms[d].basis for d in tup]):
                basis.append(("ti", tup, btup))
        action = []
        for g in G.elements():
            sg, hg = sigma[g], hpart[g]
            row = []
            for tup in tups:
                dims = block_dims(tup)
                st = strides(dims)
                # target composition: slot sg[j] has degree tup[j]
                ttup = [0] * k
                for j in range(k):
                    ttup[sg[j]] = tup[j]
                ttup = tuple(ttup)
                toff = offsets[n][ttup]
                tdims = block_dims(ttup)
                tst = strides(tdims)
                ks = _koszul_sign(sg, tup)
                acts = [X.terms[tup[j]].action[hg[j]] for j in range(k)]
                for src in iproduct(*[range(d) for d in dims]):
                    tgt_idx = 0
                    sgn = ks
                    for j in range(k):
                        bj, sj = acts[j][src[j]]
                        tgt_idx += bj * tst[sg[j]]
                        sgn *= sj
                    row.append((toff + tgt_idx, sgn))
            action.append(tuple(row))
        terms[n] = SignedPermModule(G, ring, tuple(basis), tuple(action))

    diffs = {}
    for n in sorted(blocks_by_degree):
        if (n - 1) not in term_rank:
            continue
        acc = {}
        for tup in blocks_by_degree[n]:
            dims = block_dims(tup)
            st = strides(dims)
            coff = offsets[n][tup]
            for j in range(k):
                dj = tup[j]
                if dj not in X.diffs:
                    continue
                ttup = tup[:j] + (dj - 1,) + tup[j + 1:]
                if ttup not in offsets.get(n - 1, {}):
                    continue
                roff = offsets[n - 1][ttup]
                tdims = block_dims(ttup)
                tst = strides(tdims)
                pre = sum(tup[:j])
                sgn = 1 if pre % 2 == 0 else -1
                d_cols = _index(X.diffs[dj].entries, 1)
                for src in iproduct(*[range(d) for d in dims]):
                    cidx = coff + sum(src[i] * st[i] for i in range(k))
                    base = sum(src[i] * tst[i] for i in range(k) if i != j)
                    for b2, v in d_cols.get(src[j], ()):
                        acc[(roff + base + b2 * tst[j], cidx)] = sgn * v
        diffs[n] = EquivMap(terms[n], terms[n - 1], acc)
    return Complex(G, ring, terms, diffs)


# ---------------------------------------------------------------------------
# sign modification (p = 2)

def sign_twist_complex(S, ring):
    """Ltilde = (R --eta--> R(G/S)), R in degree 1, with the signed
    augmentation s : Ltilde -> L (x_0 -> 1, x_1 -> -1) as a ChainMap."""
    G = S.parent
    RGH = perm_module(G, S, ring)
    R = trivial_module(G, ring)
    eta = EquivMap(R, RGH, {(0, 0): 1, (1, 0): 1})
    Lt = Complex(G, ring, {0: RGH, 1: R}, {1: eta})
    L = sign_module(G, S, ring)
    Lc = module_complex(L)
    smap = EquivMap(RGH, L, {(0, 0): 1, (0, 1): -1})
    return Lt, Lc, ChainMap(Lt, Lc, {0: smap})


def sign_modify(X, S):
    """Descending induction replacing signed degree-m terms.

    At each m (top to 0) the term x_m splits as P (+) L (x) N along the
    index-2 subgroup S.  When N = 0 the term is merely rebased onto P.
    Otherwise, with x = cone(t : x_top[-1] -> x_bot) the slice
    decomposition at m, the modified complex is cone(s (x) t) whose
    degree-j term is L (x) x_bot_j (+) R(G/S) (x) x_top_j (+)
    x_top_{j-1}: all new contributions in degrees > m are permutation,
    degree m becomes N (+) ..., and degrees < m pick up a factor L
    that later (smaller-m) steps remove.  Returns (complex, audit).
    """
    G = S.parent
    ring = X.ring
    audit = []
    Lt, Lc, smap = sign_twist_complex(S, ring)
    L = Lc.terms[0]
    for m in range(X.max_degree, -1, -1):
        M = X.terms.get(m)
        if M is None:
            audit.append({"degree": m, "action": "absent"})
            continue
        if M.is_permutation():
            audit.append({"degree": m, "action": "already-permutation"})
            continue
        P, N, iso = sign_decompose(M, S)
        if N.rank == 0:
            # change of basis only: conjugate the differentials by iso
            inv = map_inverse_monomial(iso)
            terms = dict(X.terms)
            newP = SignedPermModule(G, ring, P.basis, P.action)
            terms[m] = newP
            diffs = dict(X.diffs)
            if m in X.diffs:
                comp = X.diffs[m].compose(iso)
                diffs[m] = EquivMap(newP, X.terms[m - 1], comp.entries)
            if (m + 1) in X.diffs:
                comp = inv.compose(X.diffs[m + 1])
                diffs[m + 1] = EquivMap(X.terms[m + 1], newP, comp.entries)
            X = Complex(G, ring, terms, diffs, check=False)
            audit.append({"degree": m, "action": "rebased"})
            continue
        inv = map_inverse_monomial(iso)
        pr = P.rank
        plus, minus = range(pr), range(pr, pr + N.rank)
        # upper slice: degrees > m unchanged, P at degree m
        top_terms = {j: X.terms[j] for j in X.terms if j > m}
        top_diffs = {j: X.diffs[j] for j in X.diffs if j > m + 1}
        if pr > 0:
            top_terms[m] = P
            if (m + 1) in X.diffs:
                comp = inv.compose(X.diffs[m + 1])
                top_diffs[m + 1] = EquivMap(
                    X.terms[m + 1], P,
                    comp.block(plus, range(comp.source.rank)))
        x_top = Complex(G, ring, top_terms, top_diffs, check=False)
        # lower slice: degrees < m unchanged, L (x) N at degree m
        LN = tensor_module(L, N)
        # identify LN with the minus block of M through iso (the block
        # columns of iso are exactly the embedding of L (x) N)
        emb = EquivMap(LN, M, iso.block(range(M.rank), minus))
        bot_terms = {j: X.terms[j] for j in X.terms if j < m}
        bot_diffs = {j: X.diffs[j] for j in X.diffs if j < m}
        bot_terms[m] = LN
        if m in X.diffs:
            comp = X.diffs[m].compose(emb)
            bot_diffs[m] = EquivMap(LN, X.terms[m - 1], comp.entries)
        x_bot = Complex(G, ring, bot_terms, bot_diffs, check=False)
        # attaching map t : x_top[-1] -> x_bot
        shifted = shift_complex(x_top, -1)
        t_comps = {}
        if (m + 1) in X.diffs:
            comp = inv.compose(X.diffs[m + 1])
            t_comps[m] = EquivMap(X.terms[m + 1], LN,
                                  comp.block(minus, range(comp.source.rank)))
        if pr > 0 and m in X.diffs:
            embP = EquivMap(P, M, iso.block(range(M.rank), plus))
            comp = X.diffs[m].compose(embP)
            t_comps[m - 1] = EquivMap(P, X.terms[m - 1], comp.entries)
        t = ChainMap(shifted, x_bot, t_comps)
        tau = tensor_chain_maps(smap, t)
        X = cone(tau)
        audit.append({"degree": m, "action": "modified",
                      "minus_rank": N.rank, "plus_rank": pr})
    assert X.all_terms_permutation(), \
        "sign modification left a signed term"
    return X, audit


# ---------------------------------------------------------------------------
# Koszul objects

class KoszulObject:
    def __init__(self, complex_, group, subgroup, ring, audit, certificate):
        self.complex = complex_
        self.group = group
        self.subgroup = subgroup
        self.ring = ring
        self.audit = audit
        self.certificate = certificate

    def __repr__(self):
        return "KoszulObject(%s, H=%s over %s; ranks %s)" % (
            self.group.name, self.subgroup.describe(), self.ring.name,
            self.complex.rank_vector())


class KoszulVerificationError(AssertionError):
    pass


def verify_koszul(X, G, H, ring, check_restriction=True):
    """Check the four defining invariants; returns the audit dict.

    Raises KoszulVerificationError on any failure (these are theory
    violations, never silently tolerated).
    """
    report = {}
    if not X.all_terms_permutation():
        raise KoszulVerificationError("terms are not permutation modules")
    report["terms_permutation"] = True
    deg0 = X.term(0)
    if deg0.rank != 1 or not all(
            deg0.action[g][0] == (0, 1) for g in G.elements()):
        raise KoszulVerificationError("degree-0 term is not R")
    report["degree0_trivial"] = True
    if 1 in X.terms and not is_induced_from(X.terms[1], H):
        raise KoszulVerificationError("degree-1 term is not induced from H")
    report["degree1_induced"] = True
    prof = homology_profile(X)
    if prof:
        raise KoszulVerificationError("complex is not acyclic: %r" % (prof,))
    report["acyclic"] = True
    if check_restriction:
        res = restrict_complex(X, H)
        ok, cert = is_contractible(res)
        if not ok:
            raise KoszulVerificationError(
                "restriction to H is not contractible: %r" % (cert,))
        report["restriction_contractible"] = True
        return report, cert
    return report, None


def _subgroup_in_level(level, sub):
    """The image of ``sub`` as a Subgroup of subgroup_as_group(level)."""
    Gi, elems = subgroup_as_group(level)
    pos = {x: i for i, x in enumerate(elems)}
    return Gi, Subgroup(Gi, [pos[x] for x in sub.elements])


def koszul_object(G, H, ring):
    """kos(G, H): the Koszul object of H <= G over the ring.

    G must be a p-group.  For p > 2 a single tensor induction (index
    at most 4) followed by an orbitwise rebase; for p = 2 the iterated
    tensor-induce / sign-modify tower along the index-2 filtration.
    """
    pk = prime_power(G.order) if G.order > 1 else (2, 0)
    assert pk is not None, "Koszul objects need a p-group"
    p = pk[0]
    audit = {"group": G.name, "subgroup": H.describe(), "ring": ring.name}
    if H.order == G.order:
        X = koszul_base(G, ring) if G.order == 1 else \
            transport_complex(koszul_base(subgroup_as_group(H)[0], ring), G)
        audit["tower"] = []
        report, cert = verify_koszul(X, G, H, ring)
        audit["checks"] = report
        return KoszulObject(X, G, H, ring, audit, cert)
    if p != 2:
        H_grp, _ = subgroup_as_group(H)
        X = tensor_induce(koszul_base(H_grp, ring), H)
        # orbitwise change of basis to a permutation complex
        terms = {}
        isos = {}
        for n, M in X.terms.items():
            rb = rebase_to_permutation(M)
            assert rb is not None, \
                "odd-p tensor induction failed to rebase at degree %d" % n
            terms[n], isos[n] = rb
        diffs = {}
        for n, f in X.diffs.items():
            comp = map_inverse_monomial(isos[n - 1]).compose(
                f.compose(isos[n]))
            diffs[n] = EquivMap(terms[n], terms[n - 1], comp.entries)
        X = Complex(G, ring, terms, diffs)
        audit["tower"] = [{"from": H.describe(), "to": G.name,
                           "index": H.index, "action": "tensor-induce+rebase"}]
        report, cert = verify_koszul(X, G, H, ring)
        audit["checks"] = report
        return KoszulObject(X, G, H, ring, audit, cert)
    # p = 2: walk the index-2 filtration
    chain = index2_filtration(G, H)
    audit["filtration"] = [S.describe() for S in chain]
    H0_grp, _ = subgroup_as_group(chain[0])
    X = koszul_base(H0_grp, ring)
    steps = []
    for i in range(1, len(chain)):
        Gi, Si = _subgroup_in_level(chain[i], chain[i - 1])
        X = tensor_induce(X, Si)
        X, mod_audit = sign_modify(X, Si)
        steps.append({"level": chain[i].describe(),
                      "ranks": X.rank_vector(),
                      "modification": mod_audit})
    audit["tower"] = steps
    X = transport_complex(X, G)
    report, cert = verify_koszul(X, G, H, ring)
    audit["checks"] = report
    return KoszulObject(X, G, H, ring, audit, cert)


def base_change_koszul_check(G, H, p):
    """Build kos(G, H) over Z and re-verify after base change.

    To F_p the three structural postconditions and the contractible
    restriction must survive; over Q additionally the whole complex is
    contractible (the group order is invertible).  Returns a report.
    """
    from .rings import ZZ, QQ, GF
    kos = koszul_object(G, H, ZZ)
    report = {"integral": kos.audit["checks"]}
    Xp = base_change_complex(kos.complex, GF(p))
    rp, _ = verify_koszul(Xp, G, H, GF(p))
    report["mod_p"] = rp
    Xq = base_change_complex(kos.complex, QQ)
    rq, _ = verify_koszul(Xq, G, H, QQ)
    ok, cert = is_contractible(Xq)
    assert ok, "rational Koszul object must be contractible"
    rq["rational_contractible"] = True
    report["rational"] = rq
    return report
