"""Finite groups as explicit multiplication tables, and their subgroup data.

Everything here is desk scale: groups of order at most 64, stored as a
full Cayley table ``table[i][j] = index of g_i * g_j`` with the identity
at index 0.  Subgroups are element sets of a fixed parent group, read
through their generators; they are enumerated exactly (one extension
per coset), never up to isomorphism.

Each group enumerates its subgroup lattice once and keeps it, numbered,
together with the conjugation action on it (``conjugation_table``).
The spectrum assembler consumes the category of sections ``(H, K)``
with elementary abelian quotient, enumerated from that table and from
per-subgroup element bitmasks.
"""

from itertools import product as iter_product

from .rings import factorize


class Group:
    def __init__(self, table, name, element_names=None):
        table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(table)
        if n < 1:
            raise ValueError("a group table needs at least one element")
        for row in table:
            if len(row) != n:
                raise ValueError("multiplication table must be square")
            if not all(0 <= x < n for x in row):
                raise ValueError("table entries must lie in 0..%d" % (n - 1))
        # locate the identity, then check group axioms outright
        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        for a in range(n):
            if identity not in table[a]:
                raise ValueError("element %d has no inverse" % a)
        self.table = table
        self.order = n
        self.identity = identity
        self._inv = tuple(table[a].index(identity) for a in range(n))
        self.generators = self._greedy_generators(range(n), range(n))
        # Light's associativity test: (x s) y = x (s y) for every
        # generator s.  Elements a with (x a) y = x (a y) for all x, y
        # are closed under products and include the identity, and every
        # element is a product e s_1 ... s_k of generators, so this
        # covers all n^3 triples in O(n^2 |S|) lookups.
        for s in self.generators:
            ts = table[s]
            for x in range(n):
                tx = table[x]
                if table[tx[s]] != tuple(tx[y] for y in ts):
                    raise ValueError("table is not associative")
        self.name = name
        self.element_names = tuple(element_names) if element_names \
            else tuple(str(i) for i in range(n))
        # the subgroup lattice and its conjugation table, built on demand
        # by subgroups() and conjugation_table()
        self._subgroups = None
        self._conjugation = None
        # element tuple -> (Group, elements), filled by
        # permod.subgroup_as_group
        self.subgroup_groups = {}
        # (ring, twist key) -> canonical complex and (ring, twist key,
        # twist key) -> (transport chain map or None, tensor index),
        # filled by twisted.canonical_u_power and twisted._transport
        self.twist_complexes = {}
        # (subgroup elements, ring) -> verified KoszulObject, filled by
        # koszul.koszul_object
        self.koszul_objects = {}
        # (subgroup elements, signs, ring) -> (Subgroup, rank-one module),
        # filled by homotopy._fixed_orbits
        self.rank_one_modules = {}

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
        """Subgroup generated by ``gens`` as a sorted tuple of elements.

        Multiplying on the right by the generators, starting from the
        identity, reaches the monoid they generate; in a finite group
        that monoid is already the subgroup.
        """
        gens = tuple(set(gens))
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            row = self.table[frontier.pop()]
            for g in gens:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return tuple(sorted(seen))

    def _greedy_generators(self, elements, members):
        """A generating set of ``elements`` (ascending): each element
        that the closure of the ones taken so far does not reach.  Each
        new generator's inverse and each closure must stay inside their
        set ``members``: a subgroup check in O(|S| k^2)."""
        gens = []
        reached = {self.identity}
        for g in elements:
            if g in reached:
                continue
            if self.inv(g) not in members:
                raise ValueError("not closed under inverses")
            gens.append(g)
            reached = set(self.closure(gens))
            if not reached.issubset(members):
                raise ValueError("not closed")
        return tuple(gens)

    def trivial_subgroup(self):
        return Subgroup(self, (self.identity,))

    def full_subgroup(self):
        return Subgroup(self, range(self.order))

    def __repr__(self):
        return "Group(%s, order %d)" % (self.name, self.order)


class Subgroup:
    """Sorted elements of a subgroup of ``parent``, checked through the
    greedy ``generators`` (``Group._greedy_generators``) it keeps."""

    def __init__(self, parent, elements):
        self.parent = parent
        self.elements = tuple(sorted(set(int(x) for x in elements)))
        members = frozenset(self.elements)
        if parent.identity not in members:
            raise ValueError("a subgroup must contain the identity")
        self.generators = parent._greedy_generators(self.elements, members)
        self.members = members
        self.mask = sum(1 << x for x in self.elements)

    @property
    def order(self):
        return len(self.elements)

    @property
    def index(self):
        return self.parent.order // self.order

    def __contains__(self, x):
        return x in self.members

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.elements == self.elements)

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __le__(self, other):
        if other.parent is not self.parent:
            raise ValueError("subgroups of different groups")
        return self.mask & ~other.mask == 0

    def __lt__(self, other):
        return self <= other and self.order < other.order

    def conjugate(self, g):
        G = self.parent
        return Subgroup(G, (G.conj(x, g) for x in self.elements))

    def is_normal(self):
        """Normal in the whole group: S^g is generated by the s^g, so
        s^g in S for the generators g of G and s of S suffices."""
        G = self.parent
        return all(G.conj(s, g) in self.members
                   for g in G.generators for s in self.generators)

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

    def label(self):
        """Isomorphism-type name: "1", "C2", "C4", ... for a cyclic
        subgroup (of that order), otherwise the order as "ord<n>"."""
        if self.order == 1:
            return "1"
        if any(self.parent.element_order(g) == self.order
               for g in self.elements):
            return "C%d" % self.order
        return "ord%d" % self.order

    def __repr__(self):
        return "Subgroup(%s of %s)" % (self.describe(), self.parent.name)


# ---------------------------------------------------------------------------
# constructors

def cyclic(n, name=None):
    if n < 1:
        raise ValueError("a cyclic group needs order >= 1, got %d" % n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + ["g%s" % ("" if i == 1 else "^%d" % i) for i in range(1, n)]
    return Group(table, name or "C%d" % n, names)


def direct_product(*factors):
    """Direct product; elements are tuples ordered lexicographically."""
    if not factors:
        raise ValueError("a direct product needs a factor")
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
    if order % 2 or order < 2:
        raise ValueError("a dihedral group needs an even order >= 2, got %d"
                         % order)
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

    Cyclic extension: grow each known subgroup S, with the generators
    that reached it, by one g per left coset gS, since <S, g> = <S, gs>.
    Exact for any table group; intended for order <= 64.  The lattice
    is enumerated once and kept on G; each call returns a fresh list of
    the same Subgroup objects.
    """
    if G._subgroups is None:
        if G.order > MAX_ORDER:
            raise ValueError("subgroup enumeration is desk scale "
                             "(order <= %d)" % MAX_ORDER)
        triv = (G.identity,)
        seen = {triv}
        frontier = [(triv, ())]
        while frontier:
            S, gens = frontier.pop()
            covered = set(S)
            for g in G.elements():
                if g in covered:
                    continue
                covered.update(G.mul(g, s) for s in S)
                T = G.closure(gens + (g,))
                if T not in seen:
                    seen.add(T)
                    frontier.append((T, gens + (g,)))
        G._subgroups = tuple(Subgroup(G, t) for t in
                             sorted(seen, key=lambda t: (len(t), t)))
    return list(G._subgroups)


def conjugation_table(G):
    """``conj[g][i] = j`` when subgroups(G)[i]^g is subgroups(G)[j].

    Only the rows of G's generators conjugate elements: the conjugate
    of a subgroup is a subgroup, so each image is looked up by its
    sorted element tuple and never re-checked; an image missing from
    the lattice is an error.  Every other row is composed along the
    Cayley graph, as x^(gs) = (x^g)^s gives row(gs)[i] = row(s)[row(g)[i]].
    Kept on G.
    """
    if G._conjugation is None:
        subs = subgroups(G)
        number = {S.elements: i for i, S in enumerate(subs)}
        gen_rows = []
        for g in G.generators:
            row = []
            for i, S in enumerate(subs):
                image = tuple(sorted(G.conj(x, g) for x in S.elements))
                if image not in number:
                    raise LookupError("conjugate of subgroup %d by %d is not "
                                      "in the lattice of %s" % (i, g, G.name))
                row.append(number[image])
            gen_rows.append((g, tuple(row)))
        rows = {G.identity: tuple(range(len(subs)))}
        frontier = [G.identity]
        for g in frontier:
            for s, row in gen_rows:
                gs = G.mul(g, s)
                if gs not in rows:
                    rows[gs] = tuple(row[j] for j in rows[g])
                    frontier.append(gs)
        G._conjugation = tuple(rows[g] for g in G.elements())
    return G._conjugation


# ---------------------------------------------------------------------------
# category of sections (p-groups)

class SectionObject:
    """A pair K <= H with K normal in H and H/K elementary abelian."""

    def __init__(self, H, K):
        if K.parent is not H.parent or not K <= H:
            raise ValueError("not a section: K must lie in H")
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
    """g with K' <= K^g <= H^g <= H', from (H, K) to (H', K').

    ``Hg`` and ``Kg`` are the conjugates H^g and K^g, as the enumeration
    in sections_category found them in the subgroup lattice.
    """

    def __init__(self, source, target, g, Hg, Kg):
        if not (target.K <= Kg and Kg <= Hg and Hg <= target.H):
            raise ValueError("not a section morphism")
        self.source = source
        self.target = target
        self.g = g
        self.Hg = Hg
        self.Kg = Kg

    def __repr__(self):
        return "%r --%s--> %r" % (self.source,
                                  self.source.H.parent.element_names[self.g],
                                  self.target)


class SectionsCategory:
    def __init__(self, group, objects, morphisms):
        self.group = group
        self.objects = objects
        self.morphisms = morphisms


def _is_elementary_abelian_section(G, H, K, p):
    """Whether K is normal in H with H/K elementary abelian, on
    generators: False unless K <= H and k^h lies in K for the generators
    h of H and k of K.  H/K is then generated by the images of H's
    generators, so it has exponent p and is abelian exactly when their
    p-th powers and pairwise commutators lie in K."""
    inside, gens = K.members, H.generators
    if not K <= H or any(G.conj(k, h) not in inside
                         for h in gens for k in K.generators):
        return False
    return all(G.power(a, p) in inside for a in gens) and \
        all(G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b)) in inside
            for a in gens for b in gens)


def sections_category(G, p):
    """All sections (H, K) of the p-group G with H/K elementary abelian,
    and all morphisms between them.

    Sections are tested on generators.  g carries (H, K) to (H', K')
    when the element bitmasks give K' <= K^g and H^g <= H', read from
    g's row of the conjugation table: the test runs once per distinct
    row, then every g with a passing row gives a morphism, in order.
    """
    order = G.order
    if not set(factorize(order)) <= {p}:
        raise ValueError("sections_category expects a p-group")
    subs = subgroups(G)
    conj = conjugation_table(G)
    pairs = []
    for h, H in enumerate(subs):
        for k, K in enumerate(subs):
            if _is_elementary_abelian_section(G, H, K, p):
                pairs.append((h, k))
    pairs.sort(key=lambda hk: (subs[hk[0]].elements, subs[hk[1]].elements))
    objects = [SectionObject(subs[h], subs[k]) for h, k in pairs]
    mask = [S.mask for S in subs]
    row_class = {}
    cls = [row_class.setdefault(row, len(row_class)) for row in conj]
    morphisms = []
    for src, (h, k) in zip(objects, pairs):
        for tgt, (h2, k2) in zip(objects, pairs):
            ok = [mask[k2] & ~mask[row[k]] == 0 and
                  mask[row[h]] & ~mask[h2] == 0 for row in row_class]
            for g in G.elements():
                if ok[cls[g]]:
                    morphisms.append(SectionMorphism(
                        src, tgt, g, subs[conj[g][h]], subs[conj[g][k]]))
    return SectionsCategory(G, objects, morphisms)
