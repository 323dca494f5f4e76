"""Invertible twist complexes, twisted cohomology tables, localization.

For an index-p normal subgroup N of G the complex u_N is the brutal
truncation of the standard periodic resolution of R by R(G/N):

    p = 2:   R(G/N) --eps--> R               (degrees 1, 0)
    p odd:   R(G/N) --sigma-1--> R(G/N) --eps--> R   (degrees 2, 1, 0)

where sigma is a generator of G/N acting on cosets and eps the sum of
coefficients.  u_N is invertible up to homotopy and its homology is R
concentrated in degree 2' (= 1 for p = 2, else 2).

Twists are finitely supported exponent vectors q over the index-p
normal subgroups.  canonical_u_power(G, q, ring) is the standard small
model of the q-fold tensor power: for each N a single tower
R(G/N) -> ... -> R(G/N) -> R of length 2'.q_N with differentials
alternating (sigma - 1) and the norm above eps, tensored over the
distinct N in a fixed order.  The twisted cohomology group in bidegree
(s, q) is hom_group(canonical_u_power(q), s), i.e. chain maps
unit -> can(q)[s] up to homotopy.

Products of classes tensor cycle representatives (with the Koszul sign
(-1)^{s1 s2}) and transport along a solver-found homotopy equivalence
tensor(can(q1), can(q2)) -> can(q1+q2); transports are cached per
(q1, q2).  Both sides have homology R concentrated in one degree, so
the induced identification is independent of the choice up to a unit.

Generator classes per N (cycles written in the canonical complexes):
case (C1) p = 2 over F_2: a = 1 in degree (0, e_N), b = eta in
(-1, e_N); case (C2) p = 2 otherwise: a, and b = the invariant vector
in (-2, 2e_N); case (C3) p odd over F_p: a, b in (-2, e_N), c = eta in
(-1, e_N); case (C4) p odd otherwise: a, b only.  eta is the
all-ones column R -> R(G/N), the only equivariant map up to scalar.

Ring presentations are bounded: every table entry is checked to be
spanned by generator monomials and the relation lattice is computed
per bidegree; reports always carry the bound and never claim
completeness beyond it.  localize_twist0 forms the twist-zero part of
the localization of a cyclic-group table at a_N or b_N as a colimit
along multiplication, with stabilization certified by two consecutive
isomorphisms.
"""

from .grp import Subgroup, subgroups
from .rings import ZZ, factorize
from .permod import EquivMap, perm_module, trivial_module
from .chain import (Complex, ChainMap, unit_complex, shift_complex,
                    tensor_complex, restrict_complex)
from .homotopy import (hom_group, InvariantsComplex,
                       find_homotopy_equivalence, Equivalence, null_homotopy,
                       homology_profile, classes_equal_up_to_unit,
                       smith_normal_form, kernel_sparse, check_homotopy)


class TheoryCheckFailure(Exception):
    """A postcondition that the theory guarantees failed on the data."""


class BoundsInsufficient(Exception):
    """The requested computation does not fit in the declared bounds."""


def u_degree(p):
    """The homological degree carrying the homology of u_N (1 or 2)."""
    return 1 if p == 2 else 2


def index_p_normal_subgroups(G):
    """Normal subgroups of prime index, sorted by element tuple."""
    out = [S for S in subgroups(G)
           if factorize(S.index) == {S.index: 1} and S.is_normal()]
    return sorted(out, key=lambda S: S.elements)


class Twist:
    """Finitely supported exponent vector over index-p normal subgroups."""

    def __init__(self, items=()):
        if isinstance(items, dict):
            items = items.items()
        pairs = {}
        for N, e in items:
            assert isinstance(N, Subgroup) and e >= 0
            if e:
                pairs[N.elements] = (N, pairs.get(N.elements, (N, 0))[1] + e)
        self.items = tuple(sorted(pairs.values(), key=lambda t: t[0].elements))

    @classmethod
    def single(cls, N, e=1):
        return cls([(N, e)])

    @classmethod
    def zero(cls):
        return cls()

    def key(self):
        return tuple((N.elements, e) for N, e in self.items)

    def total(self):
        return sum(e for _, e in self.items)

    def support(self):
        return [N for N, _ in self.items]

    def exponent(self, N):
        for M, e in self.items:
            if M.elements == N.elements:
                return e
        return 0

    def __add__(self, other):
        return Twist(list(self.items) + list(other.items))

    def __eq__(self, other):
        return isinstance(other, Twist) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.items:
            return "Twist(0)"
        return "Twist(%s)" % ", ".join(
            "%s^%d" % (N.describe(), e) for N, e in self.items)


def _coset_generator(G, N):
    """The minimal group element outside N (a generator of G/N when
    the quotient has prime order)."""
    for g in G.elements():
        if g not in N.elements:
            return g
    raise AssertionError("N is the whole group")


def _sigma_minus_one(M, g):
    """Entries of e_j -> g.e_j - e_j."""
    acc = {}
    for j in range(M.rank):
        i, s = M.act(g, j)
        acc[(i, j)] = acc.get((i, j), 0) + s
        acc[(j, j)] = acc.get((j, j), 0) - 1
    return acc


def _norm_entries(M, g, p):
    """Entries of e_j -> sum_{k < p} g^k.e_j (signs ignored: M is a
    permutation module)."""
    acc = {}
    for j in range(M.rank):
        i = j
        for _ in range(p):
            acc[(i, j)] = acc.get((i, j), 0) + 1
            i, _s = M.act(g, i)
    return acc


def _check_index_p(G, N):
    assert N.is_normal(), "twist subgroups must be normal"
    p = N.index
    assert factorize(p) == {p: 1}, "twist subgroups must have prime index"
    return p


def u_complex(G, N, ring):
    """The invertible complex u_N (brutal truncation, inflated to G)."""
    return _single_power(G, N, 1, ring)


def _single_power(G, N, e, ring):
    p = _check_index_p(G, N)
    L = u_degree(p) * e
    R = trivial_module(G, ring)
    M = perm_module(G, N, ring)
    g0 = _coset_generator(G, N)
    terms = {0: R}
    diffs = {}
    for k in range(1, L + 1):
        terms[k] = M
        if k == 1:
            diffs[1] = EquivMap(M, R, {(0, j): 1 for j in range(M.rank)})
        elif k % 2 == 0:
            diffs[k] = EquivMap(M, M, _sigma_minus_one(M, g0))
        else:
            diffs[k] = EquivMap(M, M, _norm_entries(M, g0, p))
    return Complex(G, ring, terms, diffs)


_CAN_CACHE = {}
_INV_CACHE = {}
_HOM_CACHE = {}
_TRANSPORT_CACHE = {}


def _group_key(G):
    # id-based: cached complexes must live over the exact group object
    # (they keep it alive, so the id cannot be recycled)
    return (id(G), G.order)


def canonical_u_power(G, q, ring):
    """The canonical small model of the tensor power u^q.

    Single-N towers are tensored over the distinct N in element order.
    Asserts the homology is R concentrated in degree 2'.|q| (weighted
    by each subgroup's own 2')."""
    key = (_group_key(G), ring.name, q.key())
    if key in _CAN_CACHE:
        return _CAN_CACHE[key]
    X = None
    top = 0
    for N, e in q.items:
        P = _single_power(G, N, e, ring)
        X = P if X is None else tensor_complex(X, P)
        top += u_degree(N.index) * e
    if X is None:
        X = unit_complex(G, ring)
    prof = {n: inv for n, inv in homology_profile(X).items()
            if inv != (0, ())}
    assert prof == {top: (1, ())}, \
        "tensor power homology not concentrated: %s" % prof
    _CAN_CACHE[key] = X
    return X


def _can_hom(G, ring, q, s):
    """Cached hom_group(canonical_u_power(q), s) with shared invariants."""
    key = (_group_key(G), ring.name, q.key())
    if key not in _INV_CACHE:
        _INV_CACHE[key] = InvariantsComplex(canonical_u_power(G, q, ring))
    hkey = key + (s,)
    if hkey not in _HOM_CACHE:
        _HOM_CACHE[hkey] = hom_group(
            canonical_u_power(G, q, ring), s, inv=_INV_CACHE[key])
    return _HOM_CACHE[hkey]


def _transport(G, ring, q1, q2):
    """Cached equivalence tensor(can(q1), can(q2)) -> can(q1 + q2)."""
    key = (_group_key(G), ring.name, q1.key(), q2.key())
    if key not in _TRANSPORT_CACHE:
        X = tensor_complex(canonical_u_power(G, q1, ring),
                           canonical_u_power(G, q2, ring))
        Y = canonical_u_power(G, q1 + q2, ring)
        eq = find_homotopy_equivalence(X, Y)
        assert isinstance(eq, Equivalence), \
            "no canonical identification for %s x %s: %r" % (q1, q2, eq)
        _TRANSPORT_CACHE[key] = (eq, X)
    return _TRANSPORT_CACHE[key]


class TwistedClass:
    """A twisted cohomology class: an invariant cycle in the canonical
    complex of its twist at homological degree -shift."""

    def __init__(self, G, ring, shift, twist, cycle, mono=None):
        self.G = G
        self.ring = ring
        self.shift = shift
        self.twist = twist
        self.cycle = list(cycle)
        self.mono = mono  # tuple of ((symbol, N-elements), exponent)

    def hom(self):
        return _can_hom(self.G, self.ring, self.twist, self.shift)

    def coords(self):
        return self.hom().coords(self.cycle)

    def is_zero_class(self):
        return self.hom().class_is_zero(self.cycle)

    def __repr__(self):
        return "TwistedClass(%s at (%d, %r))" % (
            mono_str(self.mono), self.shift, self.twist)


def unit_class(G, ring):
    return TwistedClass(G, ring, 0, Twist.zero(), [ring.one], mono=())


def mono_str(mono, many_subgroups=False):
    if mono is None:
        return "?"
    if not mono:
        return "1"
    parts = []
    for (sym, nelems), e in mono:
        tag = sym if not many_subgroups else "%s[%s]" % (sym, ",".join(
            str(x) for x in nelems))
        parts.append(tag if e == 1 else "%s^%d" % (tag, e))
    return "*".join(parts)


def _mono_mul(m1, m2):
    if m1 is None or m2 is None:
        return None
    acc = {}
    for k, e in list(m1) + list(m2):
        acc[k] = acc.get(k, 0) + e
    return tuple(sorted(acc.items()))


def class_product(z1, z2):
    """The product class: Koszul-signed tensor of cycles, transported
    to the canonical complex of the sum twist."""
    G, ring = z1.G, z1.ring
    assert z2.G is G and z2.ring is ring
    if not z1.twist.items and z1.shift == 0:
        z1, z2 = z2, z1
    if not z2.twist.items and z2.shift == 0:
        # multiply by the coefficient of the unit class
        c = z2.cycle[0]
        return TwistedClass(G, ring, z1.shift, z1.twist,
                            [ring.normalize(c * v) for v in z1.cycle],
                            mono=_mono_mul(z1.mono, z2.mono))
    Y1 = canonical_u_power(G, z1.twist, ring)
    Y2 = canonical_u_power(G, z2.twist, ring)
    n1, n2 = -z1.shift, -z2.shift
    n = n1 + n2
    eq, X = _transport(G, ring, z1.twist, z2.twist)
    from .chain import _tensor_offsets
    offsets = _tensor_offsets(Y1, Y2, n)
    v = [ring.zero] * X.term(n).rank
    sgn = ring.one if (z1.shift * z2.shift) % 2 == 0 else -ring.one
    off = offsets[(n1, n2)]
    r2 = Y2.term(n2).rank
    for a, va in enumerate(z1.cycle):
        if va == 0:
            continue
        for b, vb in enumerate(z2.cycle):
            if vb == 0:
                continue
            v[off + a * r2 + b] = ring.normalize(sgn * va * vb)
    w = eq.f.component(n).apply(v)
    return TwistedClass(G, ring, z1.shift + z2.shift, z1.twist + z2.twist,
                        w, mono=_mono_mul(z1.mono, z2.mono))


def class_power(z, k):
    out = unit_class(z.G, z.ring)
    for _ in range(k):
        out = class_product(out, z)
    return out


def _eta_cycle(G, N, ring):
    return [ring.one] * N.index


def generator_maps(G, N, ring):
    """The generator classes a_N, b_N (and c_N in case (C3)).

    Case tags: (C1) p = 2 and char = 2; (C2) p = 2 otherwise;
    (C3) p odd and char = p; (C4) p odd otherwise.  Each class is
    verified to be a nonzero element of its hom_group.
    """
    p = _check_index_p(G, N)
    modular = ring.is_field and ring.characteristic == p
    case = ("C1" if modular else "C2") if p == 2 else \
        ("C3" if modular else "C4")
    e = Twist.single(N)
    key = lambda sym: ((sym, N.elements), 1)
    out = {"case": case, "p": p}
    a = TwistedClass(G, ring, 0, e, [ring.one], mono=(key("a"),))
    out["a"] = a
    if case == "C1":
        b = TwistedClass(G, ring, -1, e, _eta_cycle(G, N, ring),
                         mono=(key("b"),))
    elif case == "C2":
        b = TwistedClass(G, ring, -2, Twist.single(N, 2),
                         _eta_cycle(G, N, ring), mono=(key("b"),))
    else:
        b = TwistedClass(G, ring, -2, e, _eta_cycle(G, N, ring),
                         mono=(key("b"),))
    out["b"] = b
    if case == "C3":
        out["c"] = TwistedClass(G, ring, -1, e, _eta_cycle(G, N, ring),
                                mono=(key("c"),))
    for sym in ("a", "b", "c"):
        if sym in out:
            if sym == "a" and ring.is_field and ring.characteristic != p:
                # a_N is p-torsion, so it genuinely vanishes once p is a
                # unit (over Q or GF(l), l != p); keep the (zero) class
                # so tables can still tag a-monomials
                continue
            assert not out[sym].is_zero_class(), \
                "generator %s_N is zero in its hom group" % sym
    return out


def require_c_absent(case):
    if case != "C3":
        raise TheoryCheckFailure("c_N exists only in case (C3)")


def is_elementary_abelian(G):
    from .koszul import prime_power
    pk = prime_power(G.order)
    if pk is None:
        return G.order == 1
    p = pk[0]
    return all(G.power(g, p) == 0 for g in G.elements()) and all(
        G.mul(a, b) == G.mul(b, a) for a in G.elements() for b in G.elements())


class GradedTable:
    """Twisted cohomology table on a bounded (shift, twist) window.

    entries[(s, twist key)] = {"label", "free_rank", "torsion",
    "generators", "monomials": [(mono, coords)]}.
    """

    def __init__(self, G, ring, max_twist, shift_window, entries,
                 generators, subgroups_):
        self.group = G
        self.ring = ring
        self.max_twist = max_twist
        self.shift_window = shift_window
        self.entries = entries
        self.generators = generators
        self.subgroups = subgroups_

    def hom(self, s, q):
        return _can_hom(self.group, self.ring, q, s)

    def to_json(self):
        out = {}
        for (s, qk), ent in sorted(self.entries.items()):
            tag = "s=%d,q=(%s)" % (s, ";".join(
                "%s:%d" % (",".join(map(str, nel)), e) for nel, e in qk))
            out[tag] = {
                "group": ent["label"],
                "free_rank": ent["free_rank"],
                "torsion": list(ent["torsion"]),
                "monomials": [mono_str(m, len(self.subgroups) > 1)
                              for m, _ in ent["monomials"]],
            }
        return out


def _all_twists(Ns, max_total):
    """All exponent vectors over Ns with total at most max_total."""
    if not Ns:
        return [Twist.zero()]
    out = []

    def rec(i, left, acc):
        if i == len(Ns):
            out.append(Twist(list(acc)))
            return
        for e in range(left + 1):
            rec(i + 1, left - e, acc + [(Ns[i], e)])
    rec(0, max_total, [])
    out.sort(key=lambda q: (q.total(), q.key()))
    return out


def _table_entry(G, ring, q, s, monos):
    hg = _can_hom(G, ring, q, s)
    tagged = []
    for mono, z in sorted(monos.items()):
        if z.twist == q and z.shift == s:
            tagged.append((mono, hg.coords(z.cycle)))
    return {
        "label": hg.label(),
        "free_rank": hg.fg.free_rank(),
        "torsion": tuple(hg.fg.torsion()),
        "factors": tuple(hg.fg.factors),
        "generators": hg.generators,
        "monomials": tagged,
    }


def twisted_table(G, ring, max_twist, shift_window=None):
    """Fill the (shift, twist) window with hom groups and monomial tags.

    G must be elementary abelian so that every index-p subgroup is
    normal and the twist monoid needs no conjugation bookkeeping.
    """
    assert is_elementary_abelian(G), "tables need an elementary abelian group"
    assert max_twist <= 8, "bound exceeded: max_twist is limited to 8"
    Ns = index_p_normal_subgroups(G)
    p = Ns[0].index if Ns else 2
    L = u_degree(p)
    if shift_window is None:
        shift_window = (-L * max_twist, 0)
    smin, smax = shift_window
    # generator classes and all monomials within the window
    gens = {}
    for N in Ns:
        gm = generator_maps(G, N, ring)
        for sym in ("a", "b", "c"):
            if sym in gm:
                gens[(sym, N.elements)] = gm[sym]
    monos = {(): unit_class(G, ring)}
    frontier = dict(monos)
    while frontier:
        new = {}
        for mono, z in frontier.items():
            for gk, g in gens.items():
                z2 = class_product(z, g)
                if z2.twist.total() > max_twist or z2.shift < smin:
                    continue
                if z2.mono not in monos and z2.mono not in new:
                    new[z2.mono] = z2
        monos.update(new)
        frontier = new
    entries = {(s, q.key()): _table_entry(G, ring, q, s, monos)
               for q in _all_twists(Ns, max_twist)
               for s in range(smin, smax + 1)}
    return GradedTable(G, ring, max_twist, shift_window, entries,
                       gens, Ns)


def ring_presentation(table):
    """Bounded-degree presentation: spanning check plus relation lattice.

    Asserts every entry is generated by the tagged monomials (raises
    TheoryCheckFailure otherwise) and reports, per bidegree, a basis of
    the relations among monomials.  The report is complete only up to
    the table bounds and says so.
    """
    ring = table.ring
    relations = []
    for (s, qk), ent in sorted(table.entries.items()):
        facs = list(ent["factors"])
        monos = ent["monomials"]
        coords = [list(c) for _, c in monos]
        t = len(facs)
        if t and not monos:
            raise TheoryCheckFailure(
                "entry (%d, %s) is nonzero but no monomial lands there"
                % (s, qk))
        if not t:
            # zero group: every monomial is a relation
            for mono, _ in monos:
                relations.append(((s, qk), ((1, mono),)))
            continue
        # spanning: cokernel of [monomial coords | invariant factors]
        cols = [list(c) for _, c in monos]
        for i, d in enumerate(facs):
            if d != 0:
                col = [ring.zero] * t
                col[i] = ring.from_int(d)
                cols.append(col)
        A = [[cols[j][i] for j in range(len(cols))] for i in range(t)]
        U, D, V = smith_normal_form(ring, A)
        divisors = [D[i][i] for i in range(min(t, len(cols)))]
        if len([d for d in divisors if d != 0 and ring.is_unit(d)]) < t:
            raise TheoryCheckFailure(
                "entry (%d, %s) is not spanned by generator monomials"
                % (s, qk))
        # relations: kernel of monomial evaluation modulo the factors
        m = len(monos)
        rows = []
        for i in range(t):
            row = {j: coords[j][i] for j in range(m) if coords[j][i] != 0}
            if facs[i] != 0:
                row[m + i] = ring.from_int(facs[i])
            if row:
                rows.append(row)
        for vec in kernel_sparse(ring, rows, m + t):
            x = vec[:m]
            if all(v == 0 for v in x):
                continue
            rel = tuple((x[j], monos[j][0]) for j in range(m) if x[j] != 0)
            relations.append(((s, qk), rel))
    return {
        "generators": sorted(table.generators),
        "relations": relations,
        "spanned": True,
        "note": "relations complete up to total twist %d" % table.max_twist,
    }


def relation_strings(report, many=False):
    out = []
    for (s, qk), rel in report["relations"]:
        txt = " + ".join(
            ("%s*%s" % (c, mono_str(m, many))) if c != 1 else mono_str(m, many)
            for c, m in rel)
        out.append("(%d): %s = 0" % (s, txt))
    return out


# ---------------------------------------------------------------------------
# restriction and base change of twists and classes

def _subgroup_inside(H, N):
    """H cap N as a Subgroup of subgroup_as_group(H)."""
    from .permod import subgroup_as_group
    Hg, elems = subgroup_as_group(H)
    pos = {x: i for i, x in enumerate(elems)}
    inter = sorted(set(H.elements) & set(N.elements))
    return Hg, Subgroup(Hg, [pos[x] for x in inter])


def restriction_check(G, N, H, ring=ZZ):
    """Verify the two restriction shapes of u_N and the class images.

    H <= N: Res u_N is a shifted unit; a and c restrict to zero and b
    to the identity class (up to a unit).  Otherwise Res u_N is
    u_{H cap N} over H and a, b, c restrict to the corresponding
    generators (up to a unit).
    """
    p = _check_index_p(G, N)
    L = u_degree(p)
    gm = generator_maps(G, N, ring)
    report = {"G": G.name, "N": N.describe(), "H": H.describe(),
              "case": gm["case"]}
    inside = all(x in N.elements for x in H.elements)
    Hg, K = _subgroup_inside(H, N)
    if inside:
        report["u_shape"] = "unit shift"
        resu = restrict_complex(canonical_u_power(G, Twist.single(N), ring), H)
        eq = find_homotopy_equivalence(
            resu, shift_complex(unit_complex(Hg, ring), L))
        assert isinstance(eq, Equivalence), "Res u_N is not a shifted unit"
        report["u_ok"] = True
        # a restricts to zero
        resa = hom_group(resu, 0)
        report["a_to_zero"] = resa.class_is_zero(gm["a"].cycle)
        # b restricts to the identity class
        bq = gm["b"].twist
        resb = restrict_complex(canonical_u_power(G, bq, ring), H)
        shift_target = shift_complex(unit_complex(Hg, ring),
                                     -gm["b"].shift)
        eqb = find_homotopy_equivalence(resb, shift_target)
        assert isinstance(eqb, Equivalence)
        hg = hom_group(shift_target, gm["b"].shift)
        w = eqb.f.component(-gm["b"].shift).apply(gm["b"].cycle)
        one = hg.generators[0][1]
        report["b_to_id"] = classes_equal_up_to_unit(
            hg.fg, hg._cycle_coords(w), hg._cycle_coords(one))
        if "c" in gm:
            resc = hom_group(resu, -1)
            report["c_to_zero"] = resc.class_is_zero(gm["c"].cycle)
    else:
        report["u_shape"] = "u of the intersection"
        gmK = generator_maps(Hg, K, ring)
        resu = restrict_complex(canonical_u_power(G, Twist.single(N), ring), H)
        canK = canonical_u_power(Hg, Twist.single(K), ring)
        eq = find_homotopy_equivalence(resu, canK)
        assert isinstance(eq, Equivalence), "Res u_N is not u_{H cap N}"
        report["u_ok"] = True
        for sym in ("a", "b", "c"):
            if sym not in gm:
                continue
            z = gm[sym]
            resz = restrict_complex(
                canonical_u_power(G, z.twist, ring), H)
            canT = canonical_u_power(Hg, _push_twist(z.twist, Hg, K), ring)
            eqz = find_homotopy_equivalence(resz, canT)
            assert isinstance(eqz, Equivalence)
            hg = _can_hom(Hg, ring, _push_twist(z.twist, Hg, K), z.shift)
            w = eqz.f.component(-z.shift).apply(z.cycle)
            report["%s_to_%s" % (sym, sym)] = classes_equal_up_to_unit(
                hg.fg, hg._cycle_coords(w),
                hg._cycle_coords(gmK[sym].cycle))
    report["ok"] = all(v for k, v in report.items()
                       if k.endswith(("_ok", "_to_zero", "_to_id"))
                       or "_to_" in k)
    return report


def _push_twist(q, Hg, K):
    """The twist over H with the same exponents, supported on K."""
    total = q.total()
    return Twist.single(K, total) if total else Twist.zero()


def base_change_class_check(G, N, bound=3):
    """Reduction mod p of the integral generator classes.

    iota_p(a_Z) agrees with a_{F_p} in every case; iota_p(b_Z) agrees
    with b_{F_p} except in case (C2) where it is b_{F_2}^2.  Also
    checks power surjectivity within the bound (some power of each
    modular generator lifts) and the rational collapse: over Q the
    groups of positive twist are one-dimensional, concentrated in
    shift -2'.twist.
    """
    from .rings import GF, QQ
    p = _check_index_p(G, N)
    gZ = generator_maps(G, N, ZZ)
    gp = generator_maps(G, N, GF(p))
    report = {"case_integral": gZ["case"], "case_modular": gp["case"]}

    def reduce_class(z):
        Fp = GF(p)
        return TwistedClass(G, Fp, z.shift, z.twist,
                            [Fp.from_int(v) for v in z.cycle], mono=z.mono)

    # a always reduces to a
    ra = reduce_class(gZ["a"])
    hg = ra.hom()
    report["a_reduces_to_a"] = hg.classes_equal(
        ra.cycle, gp["a"].cycle, up_to_unit=True)
    # b: square in case (C2), on the nose otherwise
    rb = reduce_class(gZ["b"])
    if gZ["case"] == "C2":
        b2 = class_product(gp["b"], gp["b"])
        assert b2.twist == rb.twist and b2.shift == rb.shift
        report["b_reduces_to"] = "b^2"
        report["b_ok"] = rb.hom().classes_equal(
            rb.cycle, b2.cycle, up_to_unit=True)
    else:
        report["b_reduces_to"] = "b"
        report["b_ok"] = rb.hom().classes_equal(
            rb.cycle, gp["b"].cycle, up_to_unit=True)
    # power surjectivity within the bound: some power of each modular
    # generator is a reduction of an integral class
    power = {}
    for sym in ("a", "b", "c"):
        if sym not in gp:
            continue
        found = None
        for k in range(1, bound + 1):
            zk = class_power(gp[sym], k)
            if zk.is_zero_class():
                found = (k, "zero")
                break
            for wsym in ("a", "b"):
                w = gZ[wsym]
                for j in range(1, bound + 1):
                    wj = class_power(w, j)
                    if wj.twist == zk.twist and wj.shift == zk.shift:
                        rw = reduce_class(wj)
                        if zk.hom().classes_equal(rw.cycle, zk.cycle,
                                                  up_to_unit=True):
                            found = (k, "%s^%d" % (wsym, j))
            if found:
                break
        power[sym] = found
        report["power_surjective_%s" % sym] = found is not None
    report["powers"] = power
    # rational collapse: over Q the only surviving groups sit at shift
    # -2'.twist and are one-dimensional.  For p = 2 this happens only
    # at even twists: rationally u_N is a shifted sign representation,
    # so odd tensor powers have no maps from the unit at all.
    L = u_degree(p)
    rational = True
    for e in (1, 2):
        q = Twist.single(N, e)
        alive = p != 2 or e % 2 == 0
        for s in range(-L * e - 1, 1):
            hgq = _can_hom(G, QQ, q, s)
            want = (1, ()) if (alive and s == -L * e) else (0, ())
            if hgq.fg.iso_invariants() != want:
                rational = False
    report["rational_concentrated"] = rational
    report["ok"] = all(v for k, v in report.items()
                       if isinstance(v, bool))
    return report


# ---------------------------------------------------------------------------
# nilpotence and explicit null homotopies

def class_as_chain_map(z):
    """The class as a chain map unit -> can(q)[shift] (degree-0 data:
    the cycle vector placed at homological degree -shift)."""
    Y = canonical_u_power(z.G, z.twist, z.ring)
    Ys = shift_complex(Y, z.shift)
    U = unit_complex(z.G, z.ring)
    comp = EquivMap(U.terms[0], Ys.terms[0],
                    {(r, 0): v for r, v in enumerate(z.cycle)})
    return ChainMap(U, Ys, {0: comp})


def certified_null_homotopy(z):
    """An explicit homotopy witnessing that the class is zero, or None."""
    F = class_as_chain_map(z)
    h = null_homotopy(F)
    if h is None:
        return None
    check_homotopy(F, h)
    return h


def scaled_class(z, c):
    return TwistedClass(z.G, z.ring, z.shift, z.twist,
                        [z.ring.normalize(c * v) for v in z.cycle],
                        mono=None)


def nilpotence_check(G, N, ring):
    """c_N tensor c_N is null-homotopic whenever c_N exists."""
    gm = generator_maps(G, N, ring)
    if "c" not in gm:
        return {"case": gm["case"], "c": "absent"}
    c2 = class_product(gm["c"], gm["c"])
    h = certified_null_homotopy(c2)
    return {"case": gm["case"], "c_squared_null": h is not None,
            "homotopy_degrees": sorted(h) if h else None}


# ---------------------------------------------------------------------------
# twist-zero localization for cyclic groups

def _iso_of_fg(ring, src_facs, dst_facs, mat):
    """Whether the map given by ``mat`` on generators is an isomorphism
    of the presented groups (invariants equal and map surjective)."""
    if tuple(src_facs) != tuple(dst_facs):
        return False
    t = len(dst_facs)
    if t == 0:
        return True
    cols = [[mat[i][j] for i in range(t)] for j in range(len(mat[0]))]
    for i, d in enumerate(dst_facs):
        if d != 0:
            col = [ring.zero] * t
            col[i] = ring.from_int(d)
            cols.append(col)
    A = [[cols[j][i] for j in range(len(cols))] for i in range(t)]
    U, D, V = smith_normal_form(ring, A)
    divisors = [D[i][i] for i in range(min(len(A), len(cols)))]
    return len([d for d in divisors if d != 0 and ring.is_unit(d)]) == t


def localize_twist0(table, H, degree_window=(-4, 4)):
    """The twist-zero graded ring of the localization at S_H.

    For cyclic G with its unique index-p normal subgroup N, S_H
    inverts a_N when H is not contained in N and b_N when it is.  The
    degree-s piece is the colimit of entry(s + k.shift(g), k.twist(g))
    along multiplication by the inverted generator g; stabilization is
    certified by two consecutive isomorphisms, otherwise the bounds are
    declared insufficient.
    """
    G, ring = table.group, table.ring
    assert len(table.subgroups) == 1, "localization needs a cyclic group"
    N = table.subgroups[0]
    inside = all(x in N.elements for x in H.elements)
    gm = {k: v for k, v in table.generators.items()}
    g = gm[("b", N.elements)] if inside else gm[("a", N.elements)]
    inverted = "b" if inside else "a"
    smin, smax = degree_window
    max_k = table.max_twist // max(1, g.twist.total())
    hilbert = {}
    for s in range(smin, smax + 1):
        # skip ahead to the first stage whose entry lies in the support
        # cone of its canonical complex; earlier stages are zero and
        # must not count towards stabilization
        start = None
        for k in range(max_k + 1):
            s1 = s + k * g.shift
            if s1 <= 0 and -s1 <= _twist_length(_scale_twist(g.twist, k)):
                start = k
                break
        if start is None:
            # every stage is outside the support cone, hence zero
            hilbert[s] = "0"
            continue
        prev_iso = False
        for k in range(start, max_k):
            s1, q1 = s + k * g.shift, _scale_twist(g.twist, k)
            s2, q2 = s + (k + 1) * g.shift, _scale_twist(g.twist, k + 1)
            h1 = _hom_or_zero(table, s1, q1)
            h2 = _hom_or_zero(table, s2, q2)
            mat = _multiplication_matrix(table, h1, s1, q1, g, h2)
            iso = _iso_of_fg(ring, h1["facs"], h2["facs"], mat)
            if iso and prev_iso:
                hilbert[s] = h1["label"]
                break
            prev_iso = iso
        if s not in hilbert:
            raise BoundsInsufficient(
                "degree %d of the localization at %s did not stabilize "
                "within twist %d" % (s, H.describe(), table.max_twist))
    return {"H": H.describe(), "inverted": inverted,
            "degree_window": list(degree_window), "hilbert": hilbert}


def _scale_twist(q, k):
    return Twist([(N, e * k) for N, e in q.items])


def _twist_length(q):
    """Homological length of canonical_u_power(q)."""
    return sum(u_degree(N.index) * e for N, e in q.items)


def _hom_or_zero(table, s, q):
    """Entry data at (s, q); shifts outside the support of the
    canonical complex give zero groups without computing anything."""
    if s > 0 or -s > _twist_length(q):
        return {"label": "0", "facs": [], "hom": None, "s": s, "q": q}
    hg = table.hom(s, q)
    return {"label": hg.label(), "facs": list(hg.fg.factors),
            "hom": hg, "s": s, "q": q}


def _multiplication_matrix(table, h1, s1, q1, g, h2):
    """Matrix of multiplication by g from entry (s1,q1) to the next."""
    ring = table.ring
    t2 = len(h2["facs"])
    t1 = len(h1["facs"])
    if t1 == 0 or t2 == 0:
        return [[ring.zero] * t1 for _ in range(t2)]
    cols = []
    for d, gen in h1["hom"].generators:
        z = TwistedClass(table.group, ring, s1, q1, gen)
        w = class_product(z, g)
        cols.append(list(h2["hom"].coords(w.cycle)))
    return [[cols[j][i] for j in range(t1)] for i in range(t2)]
