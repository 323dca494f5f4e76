"""Koszul objects: tensor induction, sign modification, verification.

For an index-n normal subgroup H of G, tensor induction sends a
complex x over H to the restriction of x^{(x) n} along the embedding
i : G -> S_n x| H^n determined by fixed coset representatives
(g r_j = r_{sigma_g(j)} h_j); the S_n part permutes tensor factors
with the Koszul sign prod_{i<j, sigma(i)>sigma(j)} (-1)^{|v_i||v_j|}.
Its basis and differential are the n-fold tensor layout of
``chain.tensor_index`` and ``chain.tensor_differentials``; only the
action is induced.  Action rows and differentials are written at
positions read off block starts and strides, with shared pairs and
normalized values, so the modules and maps keep them as written.

A Koszul object kos(G, H) starts from the two-term complex R -> R over
H.  For odd p the single tensor induction already has permutation
terms after an orbitwise change of basis; for p = 2 the construction
walks an index-2 filtration H = S_0 < S_1 < ... < G and alternates
tensor induction with sign modification, which trades the sign module
L appearing in top degrees for the two-term permutation complex
Ltilde = (R -> R(G/S)) via the cone of s (x) t (s : Ltilde -> L the
signed augmentation, t the attaching map of the degree-m slice), built
in one pass by ``chain.tensor_cone``; the top level lives over G.

Every constructed object is verified before being returned: terms are
permutation modules, degree 0 is R, degree 1 is induced from H, the
complex is acyclic, and its restriction to H is contractible with an
explicit contraction certificate.  That contraction is built along the
tower and then verified like a solved one: h_0 = 1 on R --1--> R, h (x)
1 (x) ... (x) 1 after a tensor induction, h conjugated by the iso of a
rebase, and K + Psi h Phi across a sign modification's cone (the basic
perturbation lemma; ``_cone_contraction``).  Acyclicity is certified
by d o d = 0 (``Complex.check_square_zero``) with the verified contraction
of the restriction, which contracts the underlying complex; homology is
computed only to name a failure.  Each object is built once per
(group, subgroup, ring) and kept on its group (``Group.koszul_objects``).

The base-change checks along Z -> F_p and Z -> Q carry the integral
contraction certificate through the ring map and re-verify it over
each ring, and over Q sum its G-conjugates into |G| times a
contraction of the whole complex (|G| is invertible there), verified
in turn in integer arithmetic; nothing is solved again.
"""

from itertools import product as iproduct
from math import prod

from .grp import subgroups
from .permod import (SignedPermModule, EquivMap, subgroup_as_group,
                     subgroup_meet, trivial_module, sign_module, perm_module,
                     tensor_module, sign_decompose, map_inverse_monomial,
                     rebase_to_permutation, is_induced_from, _index, _pairs)
from .chain import (Complex, ChainMap, module_complex, shift_complex,
                    tensor_differentials, tensor_cone, restrict_complex,
                    transport_complex, base_change_complex, _layout,
                    _layout_degrees)
from .homotopy import (ContractionCertificate, is_contractible,
                       homology_profile, check_homotopy, _average_homotopy,
                       _enforce_rank_cap)
from .rings import prime_power


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
        if not candidates:
            raise ValueError("no index-2 step above %s" % current.describe())
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
    table); the result lives over S.parent.  Index at most 4.  On the
    layout of X^{(x) k}, g sends slot j to slot sigma_g(j), acts there
    by h_j and carries the Koszul sign: the image of a block's basis is
    the target block's start plus, slot by slot, h_j's indices times
    the stride of slot sigma_g(j) there.
    """
    G = S.parent
    k = S.index
    if k > 4:
        raise ValueError("index bound exceeded (index %d > 4)" % k)
    if not S.is_normal():
        raise ValueError("tensor induction requires a normal subgroup")
    H_grp, elems = subgroup_as_group(S)
    X = transport_complex(X, H_grp)
    pos_in_H = {x: i for i, x in enumerate(elems)}
    reps = S.coset_reps()
    rep_index = {}
    for idx, r in enumerate(reps):
        for h in elems:
            rep_index[G.mul(r, h)] = idx
    moves = []   # per g: sigma_g and the h_j, g r_j = r_{sigma_g(j)} h_j
    for g in G.elements():
        sigma, h = [], []
        for r in reps:
            gr = G.mul(g, r)
            sigma.append(rep_index[gr])
            h.append(pos_in_H[G.mul(G.inv(reps[sigma[-1]]), gr)])
        moves.append((sigma, h))
    factors = [X] * k
    layouts = {n: _layout(factors, n) for n in _layout_degrees(factors)}
    terms = {}
    for n, (blocks, size) in layouts.items():
        basis = tuple(("ti", tup, labels) for tup in blocks for labels in
                      iproduct(*[X.terms[d].basis for d in tup]))
        plus, minus = _pairs(size)
        action = []
        for sigma, h in moves:
            row = []
            for tup, (_, ranks) in blocks.items():
                # slot j goes to slot sigma[j]: its index b lands at
                # b' = h_j . b, at the stride of slot sigma[j] of the
                # target block, with the sign of h_j
                ttup = [0] * k
                for j2, d in zip(sigma, tup):
                    ttup[j2] = d
                tstart, tranks = blocks[tuple(ttup)]
                pos, sgn = [tstart], [_koszul_sign(sigma, tup)]
                for j2, hj, d in zip(sigma, h, tup):
                    stride = prod(tranks[j2 + 1:])
                    act = X.terms[d].action[hj]
                    pos = [p + b * stride for p in pos for b, _ in act]
                    sgn = [s * t for s in sgn for _, t in act]
                row += [(plus if s == 1 else minus)[p]
                        for p, s in zip(pos, sgn)]
            action.append(row)
        terms[n] = SignedPermModule(G, X.ring, basis, action)
    diffs = {n: EquivMap(terms[n], terms[n - 1], acc)
             for n, acc in tensor_differentials(factors, layouts).items()}
    return Complex(G, X.ring, terms, diffs)


# ---------------------------------------------------------------------------
# the contraction of Res_H X, carried up the tower as {n: entries of h_n}

def _induced_contraction(h, X, k):
    """h (x) 1 (x) ... (x) 1 on the layout ``tensor_index([X] * k)`` of
    ``tensor_induce``: h acts in slot 0, the identity coset's, and
    needs no Koszul sign there.  Slot 0 has the stride of the rest of a
    block, so the column at offset a * inner + low of a block meets row
    r * inner + low of the block above, for each entry (r, a) of h."""
    factors = [X] * k
    layouts = {n: _layout(factors, n)[0] for n in _layout_degrees(factors)}
    cols = {d: _index(entries, 1) for d, entries in h.items()}
    out = {}
    for n, blocks in layouts.items():
        acc = {}
        for tup, (start, ranks) in blocks.items():
            hcols = cols.get(tup[0])
            if not hcols:
                continue
            inner = prod(ranks[1:])
            above = layouts[n + 1][(tup[0] + 1,) + tup[1:]][0]
            for off in range(ranks[0] * inner):
                a, low = divmod(off, inner)
                for r, v in hcols.get(a, ()):
                    acc[(above + r * inner + low, start + off)] = v
        if acc:
            out[n] = acc
    return out


def _moved(h, isos, ring, place=lambda j: j):
    """J^-1 h J for the monomial isomorphisms J_n = iso_n : X'_n -> X_n
    of ``isos`` {n: iso_n}, column j of iso_n read as X'_n's basis
    vector place(j); degrees not in ``isos`` keep their basis."""
    cols = {n: {i: (place(j), v) for (i, j), v in iso.entries.items()}
            for n, iso in isos.items()}
    rows = {n: {i: (j, ring.inv(v)) for i, (j, v) in mv.items()}
            for n, mv in cols.items()}
    out = {}
    for n, entries in h.items():
        rmove, cmove = rows.get(n + 1), cols.get(n)
        acc = {}
        for (r, c), v in entries.items():
            r, a = rmove[r] if rmove else (r, 1)
            c, b = cmove[c] if cmove else (c, 1)
            acc[(r, c)] = ring.normalize(a * v * b)
        out[n] = acc
    return out


def _cone_contraction(hC, rb, rt, ring):
    """The contraction K + Psi hC Phi of cone(s (x) t) from hC on
    cone(t), both on their layouts: cone(t)_n is x_bot_n (rank rb[n])
    then x_top_n (rank rt[n]), and ``tensor_cone`` writes cone(s (x) t)_n
    as L (x) x_bot_n, then Ltilde_0 (x) x_top_n, e_S block first, then
    Ltilde_1 (x) x_top_{n-1}.  The chain maps Phi = id (+) s (x) 1 (e_S
    (x) x -> x, e_other (x) x -> -x) and Psi = id (+) e_S (x) 1 have
    Phi Psi = 1, and K = -(k (x) 1), k(e_other) = 1 the homotopy of
    Ltilde with d k + k d = 1 - e_S s and s k = 0, has d K + K d = 1 -
    Psi Phi; so d h' + h' d = 1.  Over H <= S, L is trivial and e_S
    fixed, so all three are H-equivariant."""
    minus = ring.normalize(-1)
    out = {}
    for n in set(hC) | {n for n, r in rt.items() if r}:
        acc = {}
        b, t = rb.get(n, 0), rt.get(n, 0)
        for (r, c), v in hC.get(n, {}).items():
            acc[(r, c)] = v
            if c >= b:
                acc[(r, c + t)] = ring.normalize(-v)
        up = rb.get(n + 1, 0) + 2 * rt.get(n + 1, 0)
        for x in range(t):
            acc[(up + x, b + t + x)] = minus
        out[n] = acc
    return out


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


def sign_modify(X, S, h):
    """Descending induction replacing signed degree-m terms.

    At each m (top to 0) the term x_m splits as P (+) L (x) N along the
    index-2 subgroup S.  When N = 0 the term is merely rebased onto P.
    Otherwise, with x = cone(t : x_top[-1] -> x_bot) the slice
    decomposition at m, the modified complex is cone(s (x) t) whose
    degree-j term is L (x) x_bot_j (+) R(G/S) (x) x_top_j (+)
    x_top_{j-1}: all new contributions in degrees > m are permutation,
    degree m becomes N (+) ..., and degrees < m pick up a factor L
    that later (smaller-m) steps remove.  ``chain.tensor_cone`` builds
    and checks the cone in one pass.  ``h`` is a contraction {n:
    entries} of Res_H X for some H <= S, and each step carries it along
    (``_moved``, ``_cone_contraction``).  Returns (complex, audit, the
    contraction of its restriction).
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
            terms[m] = P
            diffs = dict(X.diffs)
            if m in X.diffs:
                comp = X.diffs[m].compose(iso)
                diffs[m] = EquivMap(P, X.terms[m - 1], comp.entries)
            if (m + 1) in X.diffs:
                comp = inv.compose(X.diffs[m + 1])
                diffs[m + 1] = EquivMap(X.terms[m + 1], P, comp.entries)
            X = Complex(G, ring, terms, diffs, check=False)
            h = _moved(h, {m: iso}, ring)
            audit.append({"degree": m, "action": "rebased"})
            continue
        inv = map_inverse_monomial(iso)
        pr = P.rank
        plus, minus = range(pr), range(pr, pr + N.rank)
        LN = tensor_module(L, N)
        # the slices: degrees > m with P at m on top, degrees < m with
        # L (x) N at m below; the block columns of iso embed P and L (x) N
        # in M, and t : x_top[-1] -> x_bot is the attaching map
        top_terms = {j: X.terms[j] for j in X.terms if j > m}
        top_diffs = {j: X.diffs[j] for j in X.diffs if j > m + 1}
        bot_terms = {j: X.terms[j] for j in X.terms if j < m}
        bot_diffs = {j: X.diffs[j] for j in X.diffs if j < m}
        bot_terms[m] = LN
        if pr > 0:
            top_terms[m] = P
        t_comps = {}
        if (m + 1) in X.diffs:
            up = inv.compose(X.diffs[m + 1])
            cols = range(up.source.rank)
            if pr > 0:
                top_diffs[m + 1] = EquivMap(X.terms[m + 1], P,
                                            up.block(plus, cols))
            t_comps[m] = EquivMap(X.terms[m + 1], LN, up.block(minus, cols))
        if m in X.diffs:
            bot_diffs[m] = X.diffs[m].compose(
                EquivMap(LN, M, iso.block(range(M.rank), minus)))
            if pr > 0:
                t_comps[m - 1] = X.diffs[m].compose(
                    EquivMap(P, M, iso.block(range(M.rank), plus)))
        x_top = Complex(G, ring, top_terms, top_diffs, check=False)
        x_bot = Complex(G, ring, bot_terms, bot_diffs, check=False)
        X = tensor_cone(smap, ChainMap(shift_complex(x_top, -1), x_bot,
                                       t_comps))
        # cone(t)_m is x_bot_m = L (x) N, then x_top_m = P
        h = _cone_contraction(
            _moved(h, {m: iso}, ring,
                   lambda j: j - pr if j >= pr else N.rank + j),
            {j: T.rank for j, T in x_bot.terms.items()},
            {j: T.rank for j, T in x_top.terms.items()}, ring)
        audit.append({"degree": m, "action": "modified",
                      "minus_rank": N.rank, "plus_rank": pr})
    if not X.all_terms_permutation():
        raise KoszulVerificationError("sign modification left a signed term")
    return X, audit, h


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


class KoszulVerificationError(Exception):
    """A Koszul object fails one of its defining invariants; ``cli.run``
    reports it with exit status 2."""


def verify_koszul(X, G, H, ring, contraction=None):
    """Check the four defining invariants; returns (audit dict,
    contraction certificate of the restriction to H).

    The solver cap (``TTPERM_MAX_RANK``) is enforced on Res_H X first.
    d o d = 0 is checked once per complex (``Complex.check_square_zero``).
    A verified contraction of Res_H X contracts the underlying complex,
    so it certifies acyclicity too; ``homology_profile`` runs only when
    no contraction exists, to tell "not acyclic" from "restriction not
    contractible".  ``contraction`` is a contraction {n: entries} of
    Res_H X, or of the restriction of the integral complex that X is
    the base change of (values in ``ring`` or integers): it is carried
    over to ``ring`` and verified there.  ``koszul_object`` passes the
    one it builds along the tower.  Without it the contraction is
    solved from scratch (``is_contractible``, the sweep of
    ``homotopy._contract_equivariant``).

    Raises KoszulVerificationError on any failure (these are theory
    violations, never silently tolerated), and CertificateError when
    d o d != 0 or a given contraction does not verify.
    """
    res = restrict_complex(X, H)
    _enforce_rank_cap(res)
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
    X.check_square_zero()
    if contraction is None:
        ok, cert = is_contractible(res)
    else:
        ok, cert = True, ContractionCertificate.carried(contraction, res)
        cert.verify()
    if not ok:
        prof = homology_profile(X)
        if prof:
            raise KoszulVerificationError("complex is not acyclic: %r"
                                          % (prof,))
        raise KoszulVerificationError(
            "restriction to H is not contractible: %r" % (cert,))
    report["acyclic"] = True
    report["restriction_contractible"] = True
    return report, cert


def koszul_object(G, H, ring):
    """kos(G, H): the Koszul object of H <= G over the ring.

    G must be a p-group.  For p > 2 a single tensor induction (index
    at most 4) followed by an orbitwise rebase; for p = 2 the iterated
    tensor-induce / sign-modify tower along the index-2 filtration.
    The contraction of Res_H X is built with X and verified by
    ``verify_koszul``; nothing is solved.  The object is built and
    verified once per (H, ring) and kept on G in ``G.koszul_objects``;
    later calls return the same object.
    """
    key = (H.elements, ring)
    kos = G.koszul_objects.get(key)
    if kos is None:
        X, audit, h = _build_koszul(G, H, ring)
        audit["checks"], cert = verify_koszul(X, G, H, ring, contraction=h)
        kos = G.koszul_objects[key] = KoszulObject(X, G, H, ring, audit,
                                                   cert)
    return kos


def _build_koszul(G, H, ring):
    """The unverified complex of kos(G, H), its audit, and the
    contraction {n: entries} of its restriction to H, built along."""
    pk = prime_power(G.order) if G.order > 1 else (2, 0)
    if pk is None:
        raise ValueError("Koszul objects need a p-group, not %s" % G.name)
    p = pk[0]
    audit = {"group": G.name, "subgroup": H.describe(), "ring": ring.name}
    h = {0: {(0, 0): ring.one}}
    if H.order == G.order:
        audit["tower"] = []
        return koszul_base(G, ring), audit, h
    if p != 2:
        H_grp, _ = subgroup_as_group(H)
        base = koszul_base(H_grp, ring)
        X = tensor_induce(base, H)
        # orbitwise change of basis to a permutation complex
        terms = {}
        isos = {}
        for n, M in X.terms.items():
            rb = rebase_to_permutation(M)
            if rb is None:
                raise KoszulVerificationError(
                    "odd-p tensor induction failed to rebase at degree %d" % n)
            terms[n], isos[n] = rb
        diffs = {n: map_inverse_monomial(isos[n - 1]).compose(
                     f.compose(isos[n])) for n, f in X.diffs.items()}
        X = Complex(G, ring, terms, diffs)
        h = _moved(_induced_contraction(h, base, H.index), isos, ring)
        audit["tower"] = [{"from": H.describe(), "to": G.name,
                           "index": H.index, "action": "tensor-induce+rebase"}]
        return X, audit, h
    # p = 2: walk the index-2 filtration
    chain = index2_filtration(G, H)
    audit["filtration"] = [S.describe() for S in chain]
    H0_grp, _ = subgroup_as_group(chain[0])
    X = koszul_base(H0_grp, ring)
    steps = []
    for i in range(1, len(chain)):
        Gi, Si = subgroup_meet(chain[i], chain[i - 1])
        h = _induced_contraction(h, X, Si.index)
        # sign_modify alone holds the induced complex, and drops it
        X, mod_audit, h = sign_modify(tensor_induce(X, Si), Si, h)
        steps.append({"level": chain[i].describe(),
                      "ranks": X.rank_vector(),
                      "modification": mod_audit})
    audit["tower"] = steps
    return X, audit, h


def base_change_koszul_check(G, H, p):
    """Re-verify kos(G, H) over Z after base change to F_p and to Q.

    The integral object is the one kept on G (built once).  Over F_p
    the three structural postconditions, d o d = 0 and the integral
    contraction of the restriction, carried through the ring map and
    re-verified, must survive.  Over Q additionally the whole complex
    is contractible, since |G| is invertible: the sum of the G-conjugates
    of the carried contraction is checked against |G| id.  Nothing is
    solved again; a certificate that fails raises CertificateError.
    """
    from .rings import ZZ, QQ, GF
    kos = koszul_object(G, H, ZZ)
    h = {n: f.entries for n, f in kos.certificate.h.items()}
    report = {"integral": kos.audit["checks"]}
    Xp = base_change_complex(kos.complex, GF(p))
    report["mod_p"], _ = verify_koszul(Xp, G, H, GF(p), contraction=h)
    Xq = base_change_complex(kos.complex, QQ)
    rq, cert = verify_koszul(Xq, G, H, QQ, contraction=h)
    total = _average_homotopy(Xq, {n: f.entries for n, f in cert.h.items()})
    check_homotopy(Xq, Xq, {n: {(i, i): G.order for i in range(M.rank)}
                            for n, M in Xq.terms.items()}, total)
    rq["rational_contractible"] = True
    report["rational"] = rq
    return report
