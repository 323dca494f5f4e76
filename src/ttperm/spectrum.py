"""Symbolic spectra for bounded permutation-module homotopy categories
of cyclic groups over the integers.

The spectrum of K(G, Z) for G cyclic is a finite poset of primes plus
one uniform infinite part: the closed points (q) of Spec(Z) for q away
from the primes dividing |G| all sit in the picture in exactly the same
way.  We therefore model such spaces as finite *symbolic* posets built
from four kinds of points:

 * ``zero``             the generic point (0) of Spec(Z);
 * ``prime(q)``         a concrete closed point (q) of Spec(Z);
 * ``family(E)``        one symbolic point standing for every closed
                        point (q) with q prime outside the finite
                        excluded set E;
 * ``modular(H, a, p)`` the point P(H, a, p) of the fiber over p,
                        named by a subgroup H, a cohomological tag a,
                        and the prime p.

A relation (x, y) means that y lies in the closure of x ("x specializes
to y").  Stored relations are strict (never x = y) and kept transitively
closed; exports emit either the full closure (JSON) or the transitive
reduction (DOT).

Shape of the space, for G a cyclic p-group of order p^n:

 * over a field of characteristic p the spectrum is a chain of V's on
   2n+1 points: closed points m_0, ..., m_n and generic points
   p_1, ..., p_n with p_i specializing to m_{i-1} and m_i.  Writing
   N_0 = G > N_1 > ... > N_n = 1 for the subgroup chain, the points are
   m_i = P(N_i, "0", p) and p_i = P(N_i, "dperf", p): the tag "0" marks
   the image of the zero cohomological prime (these are the closed
   points), "dperf" the generic point of each V;
 * over Z the spectrum adds the ordinary fiber {(0)} + family({p}),
   with (0) specializing to every family member and to every m_i but
   to none of the p_i.

Two independent constructions are provided and cross-checked: the
direct description (``assemble_over_Z``) and a colimit engine that
glues the spectra of all elementary abelian sections (H, K) of G along
the maps induced by the section category (``sections_colimit``).  The
gluing is label-driven: the spectrum map induced by a section morphism
(H, K) --g--> (H', K') sends P(S, a, p) to P(S^g, a, p) and is the
identity on ordinary points, so each identification simply matches
point labels (conjugation is trivial for the cyclic groups admitted
here).  For cyclic groups of composite order, ``orbit_colimit`` glues
one sections-colimit per Sylow subgroup along the shared copy of
Spec(Z); intermediate subgroups of prime-power order factor through
their Sylow subgroup and contribute no further identifications.
"""

import json

from .grp import cyclic, conjugation_table, sections_category, subgroups
from .rings import factorize
from .twisted import TheoryCheckFailure

# Tags for modular points: images of the closed cohomological prime
# versus the generic point of a V.
TAG_CLOSED = "0"
TAG_GENERIC = "dperf"


# ---------------------------------------------------------------------------
# points

class SpcPoint:
    """One symbolic point: zero | prime(q) | family(E) | modular(H, a, p)."""

    def __init__(self, kind, q=None, excluded=None, subgroup=None,
                 tag=None, p=None):
        if kind not in ("zero", "prime", "family", "modular"):
            raise ValueError("unknown point kind %r" % (kind,))
        self.kind = kind
        if kind == "prime":
            if not (isinstance(q, int) and q >= 2):
                raise ValueError("a prime point needs an integer q >= 2")
        if kind == "family":
            excluded = tuple(sorted(set(excluded or ())))
        if kind == "modular":
            if tag not in (TAG_CLOSED, TAG_GENERIC):
                raise ValueError("unknown modular tag %r" % (tag,))
            if not (isinstance(p, int) and p >= 2):
                raise ValueError("a modular point needs an integer p >= 2")
            if not (isinstance(subgroup, str) and subgroup):
                raise ValueError("a modular point needs a subgroup label")
        self.q = q
        self.excluded = excluded
        self.subgroup = subgroup
        self.tag = tag
        self.p = p

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def prime(cls, q):
        return cls("prime", q=q)

    @classmethod
    def family(cls, excluded=()):
        return cls("family", excluded=excluded)

    @classmethod
    def modular(cls, subgroup, tag, p):
        return cls("modular", subgroup=subgroup, tag=tag, p=p)

    def key(self):
        if self.kind == "zero":
            return ("zero",)
        if self.kind == "prime":
            return ("prime", self.q)
        if self.kind == "family":
            return ("family", self.excluded)
        return ("modular", self.p, self.subgroup, self.tag)

    def point_id(self):
        """Stable machine identifier, unique within a poset."""
        if self.kind == "zero":
            return "(0)"
        if self.kind == "prime":
            return "(%d)" % self.q
        if self.kind == "family":
            return "family:" + ",".join(str(q) for q in self.excluded)
        return "P(%s,%s,%d)" % (self.subgroup, self.tag, self.p)

    def label(self):
        """Human-readable display label."""
        if self.kind == "family":
            if not self.excluded:
                return "(q) for q prime"
            return "(q) for q not in {%s}" % \
                ",".join(str(q) for q in self.excluded)
        return self.point_id()

    def is_ordinary(self):
        return self.kind != "modular"

    def __eq__(self, other):
        return isinstance(other, SpcPoint) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "SpcPoint(%s)" % self.point_id()


# ---------------------------------------------------------------------------
# posets

class SymbolicPoset:
    """Finite set of SpcPoints with transitively closed specializations.

    ``relations`` holds strict pairs (x.key(), y.key()) meaning y lies
    in the closure of x; the set is re-closed after every insertion.
    """

    def __init__(self):
        self.points = {}
        self.relations = set()

    def add_point(self, pt):
        k = pt.key()
        if k in self.points:
            raise ValueError("duplicate point %s" % pt.point_id())
        self.points[k] = pt
        return pt

    def add_relation(self, src, tgt):
        a = src.key() if isinstance(src, SpcPoint) else src
        b = tgt.key() if isinstance(tgt, SpcPoint) else tgt
        if a not in self.points or b not in self.points:
            raise ValueError("unknown endpoint")
        if a == b:
            raise ValueError("specialization relations are strict")
        self.relations.add((a, b))
        self._close()

    def _close(self):
        changed = True
        while changed:
            changed = False
            for (a, b) in sorted(self.relations):
                for (c, d) in sorted(self.relations):
                    if b == c and a != d and (a, d) not in self.relations:
                        self.relations.add((a, d))
                        changed = True

    def specializes(self, src, tgt):
        a = src.key() if isinstance(src, SpcPoint) else src
        b = tgt.key() if isinstance(tgt, SpcPoint) else tgt
        return (a, b) in self.relations

    def point_list(self):
        return [self.points[k] for k in sorted(self.points)]

    def modular_points(self, p=None):
        return [pt for pt in self.point_list() if pt.kind == "modular"
                and (p is None or pt.p == p)]

    def ordinary_points(self):
        return [pt for pt in self.point_list() if pt.is_ordinary()]

    def closure_pairs(self):
        return sorted(self.relations)

    def reduction_pairs(self):
        """Transitive reduction: pairs not implied by any two-step path."""
        out = []
        for (a, b) in sorted(self.relations):
            via = any((a, c) in self.relations and (c, b) in self.relations
                      for c in self.points if c not in (a, b))
            if not via:
                out.append((a, b))
        return out

    def canonical_form(self):
        return (tuple(sorted(self.points)), tuple(sorted(self.relations)))

    def __repr__(self):
        return "SymbolicPoset(%d points, %d relations)" % \
            (len(self.points), len(self.relations))


def labeled_isomorphic(A, B):
    """Equality of canonical forms: same labeled points, same closure."""
    return A.canonical_form() == B.canonical_form()


# ---------------------------------------------------------------------------
# validation

def validate(poset):
    """Check the poset is a sensible symbolic spectrum.

    Violation kinds, each reported with a witness pair:
      unknown_point        relation endpoint not among the points
      irreflexive          self-specialization stored
      T0                   two points mutually specializing
      not_closed           missing composite of two stored relations
      family_relation      a family as source, or targeted by a
                           non-generic point (families stand for
                           infinitely many closed points and carry no
                           internal structure)
      modular_to_ordinary  a specialization leaving a modular fiber
                           (modular fibers are closed)
      cross_prime          a specialization between fibers of two
                           different primes
    """
    violations = []
    pts = poset.points
    rel = poset.relations
    for (a, b) in sorted(rel):
        if a not in pts or b not in pts:
            violations.append(("unknown_point", (a, b)))
            continue
        if a == b:
            violations.append(("irreflexive", (a, b)))
        if (b, a) in rel:
            violations.append(("T0", (a, b)))
        x, y = pts[a], pts[b]
        if x.kind == "family":
            violations.append(("family_relation", (a, b)))
        if y.kind == "family" and x.kind != "zero":
            violations.append(("family_relation", (a, b)))
        if x.kind == "modular" and y.is_ordinary():
            violations.append(("modular_to_ordinary", (a, b)))
        if x.kind == "modular" and y.kind == "modular" and x.p != y.p:
            violations.append(("cross_prime", (a, b)))
    for (a, b) in sorted(rel):
        for (c, d) in sorted(rel):
            if b == c and a != d and (a, d) not in rel:
                violations.append(("not_closed", (a, d)))
    report = {"ok": not violations, "violations": violations,
              "points": len(pts), "relations": len(rel)}
    return report


def _validated(poset):
    report = validate(poset)
    if not report["ok"]:
        raise TheoryCheckFailure("poset validation failed: %r" %
                                 (report["violations"][:3],))
    return poset


# ---------------------------------------------------------------------------
# group plumbing

def _cyclic_p_chain(G):
    """(p, n, [N_0, ..., N_n]) with N_0 = G > ... > N_n = 1 of index p.

    Requires G cyclic of prime-power order p^n, n >= 1.  A cyclic group
    has exactly one subgroup per divisor of its order, so the chain is
    unique.
    """
    if not G.is_cyclic():
        raise ValueError("spectrum assembly admits cyclic groups only")
    factors = list(factorize(G.order))
    if len(factors) != 1:
        raise ValueError("expected a p-group")
    p = factors[0]
    by_order = {}
    for S in subgroups(G):
        if S.order in by_order:
            raise ValueError("cyclic groups have one subgroup per order")
        by_order[S.order] = S
    chain = []
    order = G.order
    while order >= 1:
        chain.append(by_order[order])
        order //= p
    n = len(chain) - 1
    if chain[0].order != G.order or chain[-1].order != 1:
        raise ValueError("the subgroup chain runs from G down to 1")
    return p, n, chain


# ---------------------------------------------------------------------------
# seeds and direct assembly

def seed_cyclic_field(n, p, names=None):
    """Spectrum over a field of characteristic p for a cyclic p-group
    of order p^n: the chain of V's on 2n+1 points.

    ``names`` optionally renames the subgroup chain (default
    "N0", ..., "Nn", from the whole group down to the trivial one).
    """
    if n < 0:
        raise ValueError("a cyclic p-group of order p^n needs n >= 0")
    if names is None:
        names = ["N%d" % i for i in range(n + 1)]
    if len(names) != n + 1:
        raise ValueError("names must list the n + 1 subgroups")
    P = SymbolicPoset()
    m = [P.add_point(SpcPoint.modular(names[i], TAG_CLOSED, p))
         for i in range(n + 1)]
    for i in range(1, n + 1):
        gi = P.add_point(SpcPoint.modular(names[i], TAG_GENERIC, p))
        P.add_relation(gi, m[i - 1])
        P.add_relation(gi, m[i])
    return P


def assemble_over_Z(G):
    """Direct description of the spectrum over Z for a cyclic p-group:
    modular chain of V's, plus the ordinary fiber {(0), family({p})},
    with (0) specializing to every family member and every closed
    modular point m_i — and to none of the generic points p_i.

    The trivial group degenerates to Spec(Z) itself: {(0), family(())}.
    """
    if G.order == 1:
        P = SymbolicPoset()
        zero = P.add_point(SpcPoint.zero())
        fam = P.add_point(SpcPoint.family(()))
        P.add_relation(zero, fam)
        return _validated(P)
    p, n, chain = _cyclic_p_chain(G)
    names = [S.label() for S in chain]
    P = seed_cyclic_field(n, p, names=names)
    zero = P.add_point(SpcPoint.zero())
    fam = P.add_point(SpcPoint.family((p,)))
    P.add_relation(zero, fam)
    for pt in P.modular_points():
        if pt.tag == TAG_CLOSED:
            P.add_relation(zero, pt)
    return _validated(P)


# ---------------------------------------------------------------------------
# colimit engine

def _glue(pieces, identifications):
    """Quotient a disjoint union of posets by the given identifications.

    ``pieces``: list of SymbolicPoset.  ``identifications``: pairs
    ((i, key_in_piece_i), (j, key_in_piece_j)).  Union-find quotient;
    each class must either contain modular members with one common
    label (which names the class) or consist of ordinary points with
    one common label.  Relations are pushed down and re-closed.
    """
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for i, piece in enumerate(pieces):
        for k in piece.points:
            parent[(i, k)] = (i, k)
    for (a, b) in identifications:
        if a not in parent or b not in parent:
            raise ValueError("identification of unknown point")
        union(a, b)

    classes = {}
    for node in parent:
        classes.setdefault(find(node), []).append(node)

    out = SymbolicPoset()
    canon = {}
    for root, members in sorted(classes.items()):
        mod = sorted({pieces[i].points[k].key()
                      for (i, k) in members
                      if pieces[i].points[k].kind == "modular"})
        if mod:
            if len(mod) != 1:
                raise ValueError("glued modular points disagree: %r" % (mod,))
            i, k = next((i, k) for (i, k) in members
                        if pieces[i].points[k].key() == mod[0])
        else:
            keys = {k for (_, k) in members}
            if len(keys) != 1:
                raise ValueError("glued ordinary points disagree: %r"
                                 % (sorted(keys),))
            i, k = members[0]
        pt = pieces[i].points[k]
        if pt.key() not in out.points:
            out.add_point(pt)
        for node in members:
            canon[node] = pt.key()
    for i, piece in enumerate(pieces):
        for (a, b) in piece.closure_pairs():
            ca, cb = canon[(i, a)], canon[(i, b)]
            if ca != cb:
                out.relations.add((ca, cb))
    out._close()
    return out


def _section_seed(G, p, obj):
    """Seed poset of one section (H, K): Spec(Z) when H = K, otherwise
    the spectrum of the C_p-quotient H/K over Z, with modular points
    labeled by the global subgroups H and K."""
    P = SymbolicPoset()
    zero = P.add_point(SpcPoint.zero())
    fam = P.add_point(SpcPoint.family((p,)))
    P.add_relation(zero, fam)
    if obj.is_trivial_section():
        m = P.add_point(SpcPoint.modular(obj.H.label(),
                                         TAG_CLOSED, p))
        P.add_relation(zero, m)
        return P
    if obj.H.order != p * obj.K.order:
        raise ValueError("cyclic sections are trivial or of index p")
    m0 = P.add_point(SpcPoint.modular(obj.H.label(),
                                      TAG_CLOSED, p))
    m1 = P.add_point(SpcPoint.modular(obj.K.label(),
                                      TAG_CLOSED, p))
    g1 = P.add_point(SpcPoint.modular(obj.K.label(),
                                      TAG_GENERIC, p))
    P.add_relation(g1, m0)
    P.add_relation(g1, m1)
    P.add_relation(zero, m0)
    P.add_relation(zero, m1)
    return P


def sections_colimit(G):
    """Spectrum over Z of a cyclic p-group, assembled as the colimit of
    the seed spectra of its elementary abelian sections.

    Each trivial section (H, H) contributes Spec(Z) with modular point
    P(H, "0", p); each section (H, K) of index p contributes the
    spectrum of H/K = C_p over Z with modular points labeled by the
    global subgroups H and K.  A section morphism carried by g maps
    P(S, a, p) to P(S^g, a, p) and fixes ordinary points, with S^g read
    from the group's conjugation table; for cyclic groups conjugation is
    trivial, so every transition matches labels.  The images read g only
    through its conjugation row, so the identifications are replayed
    once per (source, target, row), not once per morphism.
    The trivial-section maps into an adjacent index-p section land on
    the two V-endpoints (the closed point named by the section's top
    subgroup and the one named by its kernel), which is what chains
    consecutive V's together.
    """
    if G.order == 1:
        return assemble_over_Z(G)
    p, _, _ = _cyclic_p_chain(G)
    labels = [S.label() for S in subgroups(G)]
    number = {label: i for i, label in enumerate(labels)}
    conj = conjugation_table(G)
    cat = sections_category(G, p)
    index = {obj.key(): i for i, obj in enumerate(cat.objects)}
    seeds = [_section_seed(G, p, obj) for obj in cat.objects]
    idents = []
    seen = set()
    applied = set()
    for f in cat.morphisms:
        i, j = index[f.source.key()], index[f.target.key()]
        if (i, j, conj[f.g]) in applied:
            continue
        applied.add((i, j, conj[f.g]))
        for k, pt in sorted(seeds[i].points.items()):
            if pt.kind == "modular":
                image = labels[conj[f.g][number[pt.subgroup]]]
                img = SpcPoint.modular(image, pt.tag, p).key()
            else:
                img = k
            if img not in seeds[j].points:
                raise ValueError("transition image missing from target seed")
            if ((i, k), (j, img)) not in seen:
                seen.add(((i, k), (j, img)))
                idents.append(((i, k), (j, img)))
    return _validated(_glue(seeds, idents))


def orbit_colimit(G):
    """Spectrum over Z of a cyclic group of any order: one
    sections-colimit per Sylow subgroup, glued along the shared copy of
    Spec(Z) contributed by the trivial subgroup.

    The gluing splits the symbolic family at every prime dividing |G|:
    each Sylow piece keeps its own modular fiber and re-expresses the
    other relevant primes as concrete ordinary points; the map from
    Spec(Z) into the p-piece sends (p) to the closed cohomological
    point P(1, "0", p) and every other point to itself.  Subgroups of
    prime-power order other than the Sylow subgroups factor through
    their Sylow subgroup and add no identifications.
    """
    if not G.is_cyclic():
        raise ValueError("spectrum assembly admits cyclic groups only")
    if G.order == 1:
        return assemble_over_Z(G)
    factors = factorize(G.order)
    primes = list(factors)
    if len(primes) == 1:
        return sections_colimit(G)
    excluded = tuple(primes)

    def sylow_piece(p):
        piece = sections_colimit(cyclic(p ** factors[p]))
        # widen the symbolic granularity: family({p}) becomes
        # family(all primes dividing |G|) plus concrete points (q)
        wide = SymbolicPoset()
        rename = {}
        for pt in piece.point_list():
            img = SpcPoint.family(excluded) if pt.kind == "family" else pt
            wide.add_point(img)
            rename[pt.key()] = img.key()
        for (a, b) in piece.closure_pairs():
            wide.relations.add((rename[a], rename[b]))
        zero = SpcPoint.zero()
        for q in primes:
            if q != p:
                cq = wide.add_point(SpcPoint.prime(q))
                wide.relations.add((zero.key(), cq.key()))
        wide._close()
        return wide

    base = SymbolicPoset()
    zero = base.add_point(SpcPoint.zero())
    fam = base.add_point(SpcPoint.family(excluded))
    base.add_relation(zero, fam)
    for q in primes:
        cq = base.add_point(SpcPoint.prime(q))
        base.add_relation(zero, cq)

    pieces = [base] + [sylow_piece(p) for p in primes]
    idents = []
    for pi, p in enumerate(primes, start=1):
        idents.append(((0, zero.key()), (pi, zero.key())))
        idents.append(((0, fam.key()), (pi, fam.key())))
        for q in primes:
            if q == p:
                target = SpcPoint.modular("1", TAG_CLOSED, p).key()
            else:
                target = SpcPoint.prime(q).key()
            idents.append(((0, SpcPoint.prime(q).key()), (pi, target)))
    return _validated(_glue(pieces, idents))


# ---------------------------------------------------------------------------
# export

_ORDINARY_COLOR = "brown"
_MODULAR_COLORS = ["olivedrab", "blue3", "purple", "darkorange", "red3"]


def export_json(poset):
    """Stable JSON: full specialization closure, sorted."""
    pts = poset.point_list()
    data = {
        "points": [{"id": pt.point_id(), "kind": pt.kind,
                    "label": pt.label()} for pt in pts],
        "specializations": sorted(
            [poset.points[a].point_id(), poset.points[b].point_id()]
            for (a, b) in poset.closure_pairs()),
    }
    return json.dumps(data, indent=2, sort_keys=True)


def export_dot(poset):
    """Graphviz digraph: transitive reduction, edges from generic to
    special, modular fibers colored per prime, ordinary part distinct."""
    fiber_primes = sorted({pt.p for pt in poset.modular_points()})
    color = {p: _MODULAR_COLORS[i % len(_MODULAR_COLORS)]
             for i, p in enumerate(fiber_primes)}
    lines = ["digraph spc {", "  rankdir=BT;",
             '  node [shape=plaintext];']
    for pt in poset.point_list():
        c = color[pt.p] if pt.kind == "modular" else _ORDINARY_COLOR
        lines.append('  "%s" [label="%s", fontcolor=%s];' %
                     (pt.point_id(), pt.label(), c))
    for (a, b) in poset.reduction_pairs():
        lines.append('  "%s" -> "%s";' %
                     (poset.points[a].point_id(),
                      poset.points[b].point_id()))
    lines.append("}")
    return "\n".join(lines) + "\n"
