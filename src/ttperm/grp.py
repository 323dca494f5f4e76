"""Finite groups as explicit multiplication tables, and their subgroup data.

Everything here is desk scale: groups of order at most 64, stored as a
full Cayley table ``table[i][j] = index of g_i * g_j`` with the identity
at index 0.  Subgroups are element sets of a fixed parent group; they
are enumerated exactly (closure search), never up to isomorphism.

The spectrum assembler consumes the category of sections ``(H, K)``
with elementary abelian quotient.  The orbit category on a family of
subgroups is also provided.
"""

from itertools import product as iter_product

from .rings import factorize


class Group:
    def __init__(self, table, name, element_names=None):
        table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(table)
        assert n >= 1
        for row in table:
            assert len(row) == n, "multiplication table must be square"
            assert all(0 <= x < n for x in row)
        # locate the identity, then check group axioms outright
        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        assert identity is not None, "table has no identity element"
        for a in range(n):
            assert identity in table[a], "element %d has no inverse" % a
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert table[table[a][b]][c] == table[a][table[b][c]], \
                        "table is not associative"
        self.table = table
        self.order = n
        self.identity = identity
        self.name = name
        self.element_names = tuple(element_names) if element_names \
            else tuple(str(i) for i in range(n))
        self._inv = tuple(table[a].index(identity) for a in range(n))

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, x, g):
        """x^g = g^{-1} x g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def power(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        out = self.identity
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def is_cyclic(self):
        return any(self.element_order(g) == self.order
                   for g in self.elements())

    def elements(self):
        return range(self.order)

    def closure(self, gens):
        """Subgroup generated by ``gens`` as a sorted tuple of elements."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = set(gens) | {self.identity}
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mul(x, g), self.mul(g, x)):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        # close under products of what we have (gens may not suffice if
        # frontier elements combine); iterate to a fixed point
        while True:
            new = set()
            lst = sorted(seen)
            for a in lst:
                for b in lst:
                    c = self.mul(a, b)
                    if c not in seen:
                        new.add(c)
            if not new:
                break
            seen |= new
        return tuple(sorted(seen))

    def trivial_subgroup(self):
        return Subgroup(self, (self.identity,))

    def full_subgroup(self):
        return Subgroup(self, range(self.order))

    def __repr__(self):
        return "Group(%s, order %d)" % (self.name, self.order)


class Subgroup:
    def __init__(self, parent, elements):
        self.parent = parent
        self.elements = tuple(sorted(set(int(x) for x in elements)))
        assert parent.identity in self.elements
        members = set(self.elements)
        for a in self.elements:
            assert parent.inv(a) in members
            for b in self.elements:
                assert parent.mul(a, b) in members, "not closed"

    @property
    def order(self):
        return len(self.elements)

    @property
    def index(self):
        return self.parent.order // self.order

    def __contains__(self, x):
        return x in set(self.elements)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.elements == self.elements)

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __le__(self, other):
        assert other.parent is self.parent
        return set(self.elements) <= set(other.elements)

    def __lt__(self, other):
        return self <= other and self.order < other.order

    def conjugate(self, g):
        G = self.parent
        return Subgroup(G, (G.conj(x, g) for x in self.elements))

    def is_normal(self, ambient=None):
        """Normal in ``ambient`` (a Subgroup), or in the whole group."""
        G = self.parent
        amb = ambient.elements if ambient is not None else G.elements()
        mine = set(self.elements)
        return all(G.conj(x, g) in mine for g in amb for x in self.elements)

    def left_cosets(self):
        """Left cosets gH, each a sorted tuple, ordered by smallest member."""
        G = self.parent
        return sorted({tuple(sorted(G.mul(g, h) for h in self.elements))
                       for g in G.elements()})

    def coset_reps(self):
        return tuple(c[0] for c in self.left_cosets())

    def describe(self):
        G = self.parent
        if self.order == 1:
            return "1"
        if self.order == G.order:
            return G.name
        return "{" + ",".join(G.element_names[x] for x in self.elements) + "}"

    def __repr__(self):
        return "Subgroup(%s of %s)" % (self.describe(), self.parent.name)


# ---------------------------------------------------------------------------
# constructors

def cyclic(n, name=None):
    assert n >= 1
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + ["g%s" % ("" if i == 1 else "^%d" % i) for i in range(1, n)]
    return Group(table, name or "C%d" % n, names)


def direct_product(*factors):
    """Direct product; elements are tuples ordered lexicographically."""
    assert factors
    if len(factors) == 1:
        return factors[0]
    orders = [G.order for G in factors]
    elems = list(iter_product(*[range(o) for o in orders]))
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[tuple(G.mul(a, b) for G, a, b in zip(factors, ea, eb))]
              for eb in elems] for ea in elems]
    names = ["(" + ",".join(G.element_names[x] for G, x in zip(factors, e)) + ")"
             for e in elems]
    return Group(table, "x".join(G.name for G in factors), names)


def dihedral(order, name=None):
    """Dihedral group of the given (even) order 2n, n >= 1."""
    assert order % 2 == 0 and order >= 2
    n = order // 2
    # elements: (i, 0) = r^i and (i, 1) = r^i s, with s r s = r^{-1}
    elems = [(i, f) for f in (0, 1) for i in range(n)]
    index = {e: k for k, e in enumerate(elems)}

    def mult(a, b):
        (i, f), (j, g) = a, b
        if f == 0:
            return ((i + j) % n, g)
        return ((i - j) % n, 1 - g)

    table = [[index[mult(a, b)] for b in elems] for a in elems]
    names = ["%s%s" % ("r^%d" % i if i else "e" if not f else "",
                       "s" if f else "") or "e" for (i, f) in elems]
    return Group(table, name or "D%d" % order, names)


def quaternion8(name=None):
    """The quaternion group of order 8: {1,-1,i,-i,j,-j,k,-k}."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    idx = {u: n for n, u in enumerate(units)}

    def q_mul(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        basic = {("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j",
                 ("1", "k"): "k", ("i", "1"): "i", ("j", "1"): "j",
                 ("k", "1"): "k", ("i", "i"): "-1", ("j", "j"): "-1",
                 ("k", "k"): "-1", ("i", "j"): "k", ("j", "i"): "-k",
                 ("j", "k"): "i", ("k", "j"): "-i", ("k", "i"): "j",
                 ("i", "k"): "-j"}
        out = basic[(a, b)]
        if out.startswith("-"):
            sign, out = -sign, out[1:]
        return out if sign == 1 else "-" + out

    table = [[idx[q_mul(a, b)] for b in units] for a in units]
    return Group(table, name or "Q8", units)


def make_group(descriptor):
    """Build a group from a JSON-style descriptor.

    Supported kinds::

        {"kind": "cyclic", "n": 4}
        {"kind": "product", "factors": [descr, descr, ...]}
        {"kind": "dihedral", "order": 8}
        {"kind": "quaternion"}
        {"kind": "table", "mul": [[...], ...], "name": "..."}
    """
    kind = descriptor["kind"]
    if kind == "cyclic":
        return cyclic(int(descriptor["n"]))
    if kind == "product":
        return direct_product(*[make_group(d) for d in descriptor["factors"]])
    if kind == "dihedral":
        return dihedral(int(descriptor["order"]))
    if kind == "quaternion":
        return quaternion8()
    if kind == "table":
        return Group(descriptor["mul"], descriptor.get("name", "G"))
    raise ValueError("unknown group descriptor kind %r" % (kind,))


def parse_group_name(text):
    """Parse CLI group names: C4, C2xC2, D8, Q8, C2xC4x..."""
    factors = []
    for part in text.strip().split("x"):
        part = part.strip()
        if part.startswith("C") and part[1:].isdigit():
            factors.append({"kind": "cyclic", "n": int(part[1:])})
        elif part.startswith("D") and part[1:].isdigit():
            factors.append({"kind": "dihedral", "order": int(part[1:])})
        elif part == "Q8":
            factors.append({"kind": "quaternion"})
        else:
            raise ValueError("cannot parse group name %r" % (text,))
    if len(factors) == 1:
        return make_group(factors[0])
    return make_group({"kind": "product", "factors": factors})


# ---------------------------------------------------------------------------
# subgroup enumeration

# Largest group order whose subgroups are enumerated.
MAX_ORDER = 64


def subgroups(G):
    """All subgroups of G, sorted by (order, element tuple).

    Breadth-first closure search: grow each known subgroup by a single
    extra generator.  Exact for any table group; intended for order <= 64.
    """
    assert G.order <= MAX_ORDER, \
        "subgroup enumeration is desk scale (order <= %d)" % MAX_ORDER
    triv = (G.identity,)
    seen = {triv}
    frontier = [triv]
    while frontier:
        S = frontier.pop()
        inside = set(S)
        for g in G.elements():
            if g in inside:
                continue
            T = G.closure(set(S) | {g})
            if T not in seen:
                seen.add(T)
                frontier.append(T)
    return [Subgroup(G, t) for t in sorted(seen, key=lambda t: (len(t), t))]


def conjugacy_classes_of_subgroups(G):
    """Partition of subgroups(G) into conjugacy classes.

    Each class is a list of Subgroups; the class representative is the
    one with the smallest element tuple.  Classes are sorted the same
    way subgroups are.
    """
    all_subs = subgroups(G)
    by_elements = {S.elements: S for S in all_subs}
    unassigned = set(by_elements)
    classes = []
    for S in all_subs:
        if S.elements not in unassigned:
            continue
        orbit = {S.conjugate(g).elements for g in G.elements()}
        classes.append([by_elements[t] for t in sorted(orbit)])
        unassigned -= orbit
    return classes


# ---------------------------------------------------------------------------
# category of sections (p-groups)

class SectionObject:
    """A pair K <= H with K normal in H and H/K elementary abelian."""

    def __init__(self, H, K):
        assert K.parent is H.parent and K <= H
        self.H = H
        self.K = K

    def key(self):
        return (self.H.elements, self.K.elements)

    def __eq__(self, other):
        return isinstance(other, SectionObject) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def is_trivial_section(self):
        return self.H.order == self.K.order

    def __repr__(self):
        return "(%s, %s)" % (self.H.describe(), self.K.describe())


class SectionMorphism:
    """g with K' <= K^g <= H^g <= H', from (H, K) to (H', K')."""

    def __init__(self, source, target, g):
        G = source.H.parent
        Hg = source.H.conjugate(g)
        Kg = source.K.conjugate(g)
        assert target.K <= Kg and Kg <= Hg and Hg <= target.H, \
            "not a section morphism"
        self.source = source
        self.target = target
        self.g = g

    def __repr__(self):
        return "%r --%s--> %r" % (self.source,
                                  self.source.H.parent.element_names[self.g],
                                  self.target)


class SectionsCategory:
    def __init__(self, group, objects, morphisms):
        self.group = group
        self.objects = objects
        self.morphisms = morphisms

    def compose(self, m1, m2):
        """Composite of m1: A -> B and m2: B -> C (conjugation acts on
        the right, so the composite is carried by m1.g * m2.g)."""
        assert m1.target == m2.source
        g = self.group.mul(m1.g, m2.g)
        return SectionMorphism(m1.source, m2.target, g)

    def morphisms_between(self, src, tgt):
        return [m for m in self.morphisms if m.source == src and m.target == tgt]


def _is_elementary_abelian_section(G, H, K, p):
    Kset = set(K.elements)
    for a in H.elements:
        if G.power(a, p) not in Kset:
            return False
        for b in H.elements:
            comm = G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))
            if comm not in Kset:
                return False
    return True


def sections_category(G, p):
    """All sections (H, K) of the p-group G with H/K elementary abelian,
    and all morphisms between them."""
    order = G.order
    assert set(factorize(order)) <= {p}, \
        "sections_category expects a p-group"
    subs = subgroups(G)
    objects = []
    for H in subs:
        for K in subs:
            if K <= H and K.is_normal(H) and \
                    _is_elementary_abelian_section(G, H, K, p):
                objects.append(SectionObject(H, K))
    objects.sort(key=lambda o: o.key())
    morphisms = []
    for src in objects:
        for tgt in objects:
            for g in G.elements():
                Hg = src.H.conjugate(g)
                Kg = src.K.conjugate(g)
                if tgt.K <= Kg and Kg <= Hg and Hg <= tgt.H:
                    morphisms.append(SectionMorphism(src, tgt, g))
    return SectionsCategory(G, objects, morphisms)


# ---------------------------------------------------------------------------
# orbit category

class OrbitCategory:
    """Orbit category on a family of subgroups.

    Morphisms G/H -> G/K are G-maps; the map sending eH to xK exists
    iff x^{-1} H x <= K, and is recorded by the coset xK.
    """

    def __init__(self, group, family):
        self.group = group
        self.objects = sorted({S.elements: S for S in family}.values(),
                              key=lambda S: (S.order, S.elements))

    def morphism_cosets(self, H, K):
        G = self.group
        out = []
        seen = set()
        Kset = set(K.elements)
        for x in G.elements():
            coset = tuple(sorted(G.mul(x, k) for k in K.elements))
            if coset in seen:
                continue
            seen.add(coset)
            if all(G.conj(h, x) in Kset for h in H.elements):
                out.append(coset)
        return sorted(out)

    def morphism_count(self, H, K):
        return len(self.morphism_cosets(H, K))

    def maps_up_to_automorphism(self, H, K):
        """Orbits of Aut(G/K) (post-composition) on Map(G/H, G/K)."""
        G = self.group
        maps = self.morphism_cosets(H, K)
        auts = self.morphism_cosets(K, K)
        remaining = set(maps)
        orbits = []
        for m in maps:
            if m not in remaining:
                continue
            x = m[0]
            orbit = set()
            for a in auts:
                y = a[0]
                xy = G.mul(x, y)
                orbit.add(tuple(sorted(G.mul(xy, k) for k in K.elements)))
            orbits.append(sorted(orbit))
            remaining -= orbit
        return orbits


def orbit_category(G, family):
    return OrbitCategory(G, family)
