"""Bounded complexes of signed permutation modules.

Grading and sign conventions, fixed once and used everywhere:

* differentials lower degree: d_n : X_n -> X_{n-1}, with d d = 0;
* shift: X[s]_n = X_{n-s} and d^{X[s]} = (-1)^s d^X;
* tensor: (X (x) Y)_n = (+)_{i+j=n} X_i (x) Y_j with
  d(x (x) y) = dx (x) y + (-1)^i x (x) dy for x in X_i; every tensor
  product, of two complexes or of k (``koszul.tensor_induce``), has
  the basis layout ``tensor_index`` and the differential
  ``tensor_differentials``, both read off block starts and strides
  (``_layout``, ``_write_leibniz``);
* cone of f : X -> Y: cone(f)_n = Y_n (+) X_{n-1},
  d(y, x) = (dy + f(x), -dx); ``tensor_cone`` writes the cone of a
  tensor of chain maps on the tensor layouts and checks it once, and
  ``cone(f)`` is the cone of f (x) id on the unit complex;
* dual: dual(X)_n = (X_{-n})^* with d_n = (-1)^n (d^X_{1-n})^T on the
  dual bases (signed permutation modules are self-dual on basis).

Terms of rank zero are dropped; ``term(n)`` returns a zero module for
any absent degree and ``diff(n)`` a zero map.

d o d = 0 and the chain-map squares are checked by the one identity
check, ``permod._check_orbit_columns``, on one column per G-orbit of
the source term's basis (the rule and its preconditions are in
``permod``), adjacent degrees sharing the column index of a map: every
orbit has a start, signed ones too, and a differential or component
is accepted only when its source and target are the terms or carry
their basis and action (``permod._same_module``).  A failed identity
raises ``permod.CertificateError``, also under
``python -O``.  Terms and components that do not fit together are a
caller's bug and raise ``ValueError``, also under ``python -O``.
"""

from itertools import product as iproduct
from math import prod

from .permod import (SignedPermModule, EquivMap, zero_module, zero_map,
                     identity_map, trivial_module, dual_module,
                     base_change_module, restrict, subgroup_as_group,
                     _index, _pairs, _same_module, _normalized,
                     _column_image, _column_indexes, _check_orbit_columns)


class Complex:
    def __init__(self, group, ring, terms, diffs, check=True):
        self.group = group
        self.ring = ring
        self.terms = {n: M for n, M in terms.items() if M.rank > 0}
        self.diffs = {}
        for n, f in diffs.items():
            if n in self.terms and (n - 1) in self.terms:
                self.diffs[n] = f
        for n, M in self.terms.items():
            if M.group is not group or M.ring is not ring:
                raise ValueError("term %d has another group or ring" % n)
        for n, f in self.diffs.items():
            if not (_same_module(f.source, self.terms[n]) and
                    _same_module(f.target, self.terms[n - 1])):
                raise ValueError("d_%d is not X_%d -> X_%d" % (n, n, n - 1))
        # a complex is never changed after construction, so a passed
        # d o d check and its hom groups (shift -> HomGroup, filled by
        # homotopy.hom_group) stay valid
        self.squares_to_zero = False
        if check:
            self.check_square_zero()
        self.hom_groups = {}

    def check_square_zero(self):
        """d_n o d_{n+1} = 0 in every degree, on one column per orbit of
        X_{n+1} (``permod._check_orbit_columns``); raises
        CertificateError otherwise.  Runs once: a passed check is
        kept."""
        if self.squares_to_zero:
            return
        index = {}
        for n, d in sorted(self.diffs.items()):
            up = self.diffs.get(n + 1)
            if up is not None:
                index = _column_indexes(index, (up, d))
                _check_orbit_columns(self.terms[n + 1],
                                     [(index[up], index[d])],
                                     "d o d != 0 at degree %d" % n)
        self.squares_to_zero = True

    def degrees(self):
        return sorted(self.terms)

    @property
    def min_degree(self):
        return min(self.terms) if self.terms else 0

    @property
    def max_degree(self):
        return max(self.terms) if self.terms else 0

    def term(self, n):
        if n in self.terms:
            return self.terms[n]
        return zero_module(self.group, self.ring)

    def diff(self, n):
        if n in self.diffs:
            return self.diffs[n]
        return zero_map(self.term(n), self.term(n - 1))

    def rank_vector(self):
        return {n: M.rank for n, M in sorted(self.terms.items())}

    def total_rank(self):
        return sum(M.rank for M in self.terms.values())

    def is_zero(self):
        return not self.terms

    def all_terms_permutation(self):
        return all(M.is_permutation() for M in self.terms.values())

    def __repr__(self):
        rv = self.rank_vector()
        return "Complex(%s over %s; ranks %s)" % (
            self.group.name, self.ring.name,
            " ".join("%d:%d" % kv for kv in rv.items()) or "0")


class ChainMap:
    """A degree-0 map of complexes; commuting squares checked, each on
    one column per orbit of its source term."""

    def __init__(self, source, target, components):
        if source.group is not target.group or source.ring is not target.ring:
            raise ValueError("a chain map needs one group and one ring")
        self.source = source
        self.target = target
        comps = {}
        for n, f in components.items():
            if n in source.terms and n in target.terms:
                if not (_same_module(f.source, source.terms[n]) and
                        _same_module(f.target, target.terms[n])):
                    raise ValueError("component %d is not X_%d -> Y_%d"
                                     % (n, n, n))
                comps[n] = f
            elif not f.is_zero():
                raise ValueError("component %d lies outside the complexes" % n)
        self.components = comps
        ring, index = source.ring, {}
        for n, M in sorted(source.terms.items()):
            # d f_n = f_(n-1) d on X_n; both sides vanish where X_n is zero
            maps = (comps.get(n), target.diffs.get(n),
                    source.diffs.get(n), comps.get(n - 1))
            index = _column_indexes(index, maps)
            lhs, rhs = ([(index[a], index[b])] if a in index and b in index
                        else [] for a, b in (maps[:2], maps[2:]))
            _check_orbit_columns(
                M, lhs, "square at degree %d does not commute" % n,
                lambda c: _normalized(ring, _column_image(c, rhs)))

    def component(self, n):
        if n in self.components:
            return self.components[n]
        return zero_map(self.source.term(n), self.target.term(n))

    def is_zero(self):
        return all(f.is_zero() for f in self.components.values())

    def __repr__(self):
        return "ChainMap(%r -> %r)" % (self.source, self.target)


def identity_chain_map(X):
    return ChainMap(X, X, {n: identity_map(M) for n, M in X.terms.items()})


# ---------------------------------------------------------------------------
# constructors

def unit_complex(group, ring):
    return Complex(group, ring, {0: trivial_module(group, ring)}, {})


def module_complex(M, degree=0):
    return Complex(M.group, M.ring, {degree: M}, {})


def two_term_complex(f, top_degree=1):
    """The complex [source -> target] with source in ``top_degree``."""
    n = top_degree
    return Complex(f.source.group, f.source.ring,
                   {n: f.source, n - 1: f.target}, {n: f})


def shift_complex(X, s):
    if s == 0:
        return X
    terms = {n + s: M for n, M in X.terms.items()}
    norm = X.ring.normalize
    diffs = {}
    for n, f in X.diffs.items():
        if s % 2 == 0:
            diffs[n + s] = f
        else:
            diffs[n + s] = EquivMap(f.source, f.target, {
                k: norm(-v) for k, v in f.entries.items()})
    return Complex(X.group, X.ring, terms, diffs, check=False)


def tensor_index(factors):
    """The basis layout of the tensor product of the complexes
    ``factors``: {n: {(tup, src): position}}.

    ``tup`` holds the degrees of the factors and ``src`` one basis
    index per factor; the basis vector is e_src[0] (x) ... (x) e_src[-1]
    in the block X_tup[0] (x) ... (x) X_tup[-1] of degree n = sum(tup).
    Blocks come in lexicographic order of tup, and src is lexicographic
    within a block, the order of ``permod.tensor_module``; degrees come
    in the order in which their first block does.  The position is the
    block's start plus src against the block's strides (``_layout``),
    which is all that the tensor products of this package read.
    """
    index = {}
    for n in _layout_degrees(factors):
        block = index[n] = {}
        for tup, (start, ranks) in _layout(factors, n)[0].items():
            for k, src in enumerate(iproduct(*map(range, ranks))):
                block[(tup, src)] = start + k
    return index


def _degree_tuples(factors, n=None):
    """The degree tuples of the layout's blocks, in layout order; only
    those of degree n when it is given."""
    return [tup for tup in iproduct(*[sorted(X.terms) for X in factors])
            if n is None or sum(tup) == n]


def _layout_degrees(factors):
    """The layout's degrees, in the order in which their first block
    comes."""
    return list(dict.fromkeys(sum(tup) for tup in _degree_tuples(factors)))


def _layout(factors, n):
    """Degree n of the layout as ({tup: (start, ranks)}, rank): each
    block's start and its factors' ranks, whose suffix products are the
    strides of src; empty when the degree is absent."""
    blocks, start = {}, 0
    for tup in _degree_tuples(factors, n):
        ranks = [X.terms[d].rank for X, d in zip(factors, tup)]
        blocks[tup] = (start, ranks)
        start += prod(ranks)
    return blocks, start


def tensor_differentials(factors, index):
    """{n: entries of d_n} of the layout of ``factors``, by the Leibniz
    rule (``_write_leibniz``), for every degree n of ``index`` (a dict
    keyed by the layout's degrees, ``tensor_index(factors)`` for one)
    with n - 1 among them; an entry may be empty.  The entries are
    normalized, so a map built on them keeps them."""
    layouts = {n: _layout(factors, n)[0] for n in index}
    out = {}
    for n, blocks in layouts.items():
        if (n - 1) in layouts:
            out[n] = acc = {}
            _write_leibniz(acc, factors, blocks, layouts[n - 1])
    return out


def _write_leibniz(acc, factors, blocks, below, r0=0, c0=0, sign=1):
    """Write sign times d of the layout of ``factors``, from the degree-n
    ``blocks`` to ``below``, the blocks of n - 1, into ``acc`` with its
    top left corner at (r0, c0), values normalized: d applied in slot j
    is signed by (-1)^(sum of the degrees before j).

    Positions come from block starts and strides: with inner the stride
    of slot j, the column at offset (o * rank_j + a) * inner + low of
    its block meets row (o * rank'_j + b) * inner + low of the block
    below, for each entry (b, a) of d in slot j.  Columns are written
    ascending and, within one, slot by slot in the order of the factor's
    entries, the order of ``_index``.  Only the column indexes of the
    factor differentials that these blocks read are built, one per sign
    they need."""
    norm = factors[0].ring.normalize
    cols = {}               # (factor, degree, sign): column index
    for tup, (start, ranks) in blocks.items():
        size = inner = prod(ranks)
        sgn, slots = sign, []
        for j, (X, d) in enumerate(zip(factors, tup)):
            inner //= ranks[j]
            f = X.diffs.get(d)
            if f is not None:
                if (X, d, sgn) not in cols:
                    cols[X, d, sgn] = _index(f.entries if sgn == 1 else {
                        k: norm(-v) for k, v in f.entries.items()}, 1)
                slots.append((cols[X, d, sgn],
                              r0 + below[tup[:j] + (d - 1,) + tup[j + 1:]][0],
                              inner, ranks[j], f.target.rank * inner))
            if d % 2:
                sgn = -sgn
        if not slots:
            continue
        for off in range(size):
            c = c0 + start + off
            for idx, base, stride, rank, step in slots:
                q, low = divmod(off, stride)
                q, a = divmod(q, rank)
                hits = idx.get(a)
                if hits:
                    r = base + q * step + low
                    for b, v in hits:
                        acc[(r + b * stride, c)] = v


def _tensor_rows(A, B, layout, rows, off=0):
    """Append the action of the term of A (x) B with the ``_layout``
    ``layout``, moved down by ``off``, to ``rows``, one list per group
    element, as shared pairs (``permod._pairs``), and return its labels
    ((i, j), ("t", a, b)), one (i, j) per block."""
    blocks, size = layout
    plus, minus = _pairs(off + size)
    labels = []
    for (i, j), (start, _) in blocks.items():
        M, N = A.terms[i], B.terms[j]
        o, nN, ij = off + start, N.rank, (i, j)
        labels += [(ij, ("t", a, b)) for a in M.basis for b in N.basis]
        for row, rM, rN in zip(rows, M.action, N.action):
            for a, s in rM:
                base = o + a * nN
                same, other = (plus, minus) if s == 1 else (minus, plus)
                row += [(same if t == 1 else other)[base + b]
                        for b, t in rN]
    return labels


def tensor_complex(X, Y):
    """X (x) Y on the layout ``tensor_index((X, Y))``; the term of
    degree n is the sum of the blocks X_i (x) Y_j, i + j = n."""
    if X.group is not Y.group or X.ring is not Y.ring:
        raise ValueError("tensor factors over different groups or rings")
    terms = {}
    for n in _layout_degrees((X, Y)):
        rows = [[] for _ in X.group.elements()]
        basis = _tensor_rows(X, Y, _layout((X, Y), n), rows)
        terms[n] = SignedPermModule(X.group, X.ring, basis, rows)
    diffs = {n: EquivMap(terms[n], terms[n - 1], acc)
             for n, acc in tensor_differentials((X, Y), terms).items()}
    return Complex(X.group, X.ring, terms, diffs)


def tensor_cone(f, g):
    """cone(tau) for tau = f (x) g : S = X (x) X' -> T = Y (x) Y', f and
    g chain maps, on the layouts of T then S, labels ("cY",) or ("cX",)
    before ((i, j), ("t", a, b)), without building S, T or tau.  One
    d o d check covers all three, since d^2 = [[dT^2, dT tau - tau dS],
    [0, dS^2]] for d = [[dT, tau], [0, -dS]]; each term is a sum of
    G-stable blocks, so its action and equivariance checks cover every
    block.

    The cone is written degree by degree, upward, each d_n into one
    accumulator that the map then owns: dT, tau and -dS in that order,
    values normalized, at positions read off block starts and strides
    (``_write_leibniz``; tau's block (i, j) of S goes to the block
    (i, j) of T).  While degree n is written only the block starts of
    degrees n and n - 1 are alive, with the column indexes of the
    factor differentials that d_n reads.
    """
    X, Y, Xp, Yp = f.source, f.target, g.source, g.target
    if X.group is not Xp.group or X.ring is not Xp.ring:
        raise ValueError("tensor factors over different groups or rings")
    S, T = (X, Xp), (Y, Yp)
    norm = X.ring.normalize
    taus = ({i: _index(c.entries, 1) for i, c in f.components.items()},
            {j: _index(c.entries, 1) for j, c in g.components.items()})
    terms, diffs = {}, {}
    below = None            # (n - 1, its T layout, its S layout of n - 2)
    for n in sorted({sum(tup) for tup in _degree_tuples(T)} |
                    {sum(tup) + 1 for tup in _degree_tuples(S)}):
        layouts = _layout(T, n), _layout(S, n - 1)
        rows = [[] for _ in X.group.elements()]
        basis = [(("cY",), l) for l in _tensor_rows(Y, Yp, layouts[0], rows)]
        basis += [(("cX",), l) for l in _tensor_rows(
            X, Xp, layouts[1], rows, layouts[0][1])]
        terms[n] = SignedPermModule(X.group, X.ring, basis, rows)
        if below is not None and below[0] == n - 1:
            diffs[n] = EquivMap(terms[n], terms[n - 1], _cone_differential(
                S, T, taus, layouts, below[1:], norm))
        below = (n,) + layouts
    below = layouts = taus = None
    return Complex(X.group, X.ring, terms, diffs)


def _cone_differential(S, T, taus, layouts, lower, norm):
    """The entries of d_n of ``tensor_cone``, [[dT, tau], [0, -dS]]
    from the T and S layouts ``layouts`` of degrees n and n - 1 to
    ``lower``, those of n - 1 and n - 2, written in that order into one
    accumulator; ``taus`` holds the column indexes of f's and g's
    components."""
    ((TB, nTB), (SB, _)), ((TL, nTL), (SL, _)) = layouts, lower
    fcols, gcols = taus
    acc = {}
    _write_leibniz(acc, T, TB, TL)
    for (i, j), (start, (na, nb)) in SB.items():
        if i not in fcols or j not in gcols:
            continue
        fi, gj = fcols[i], gcols[j]
        r0, (_, nT) = TL[(i, j)]
        for off in range(na * nb):
            a, b = divmod(off, nb)
            c = nTB + start + off
            for a2, v in fi.get(a, ()):
                for b2, w in gj.get(b, ()):
                    acc[(r0 + a2 * nT + b2, c)] = norm(v * w)
    _write_leibniz(acc, S, SB, SL, nTL, nTB, -1)
    return acc


def cone(f):
    """Mapping cone of a chain map f : X -> Y, written by
    ``tensor_cone`` as the cone of f (x) id on the unit complex, whose
    tensor layouts are those of X and Y."""
    return tensor_cone(f, identity_chain_map(unit_complex(f.source.group,
                                                          f.source.ring)))


def dual_complex(X):
    ring = X.ring
    terms = {-n: dual_module(M) for n, M in X.terms.items()}
    diffs = {}
    for n in terms:
        if (n - 1) not in terms or (1 - n) not in X.diffs:
            continue
        # d_n : (X_{-n})^* -> (X_{1-n})^*, the (-1)^n transpose of d^X_{1-n}
        sgn = 1 if n % 2 == 0 else -1
        diffs[n] = EquivMap(terms[n], terms[n - 1],
                            {(c, r): sgn * v for (r, c), v
                             in X.diffs[1 - n].entries.items()})
    return Complex(X.group, ring, terms, diffs)


def evaluation_pairing(X):
    """X (x) dual(X) -> unit, e_k (x) e_k^* -> 1: ChainMap checks it."""
    D = dual_complex(X)
    T, U = tensor_complex(X, D), unit_complex(X.group, X.ring)
    block = tensor_index((X, D))[0]
    return ChainMap(T, U, {0: EquivMap(T.terms[0], U.terms[0], {
        (0, block[((i, -i), (k, k))]): X.ring.one
        for i, M in X.terms.items() for k in range(M.rank)})})


# ---------------------------------------------------------------------------
# change of group / coefficients

def restrict_complex(X, S):
    """Res_H X over the standalone group of the subgroup S."""
    H, elems = subgroup_as_group(S)
    terms = {n: restrict(M, S) for n, M in X.terms.items()}
    diffs = {n: EquivMap(terms[n], terms[n - 1], f.entries)
             for n, f in X.diffs.items()}
    return Complex(H, X.ring, terms, diffs, check=False)


def base_change_complex(X, ring2):
    """Extend coefficients Z -> ring2, entrywise: ``EquivMap``
    normalizes each integer over ring2.  Any other source ring raises
    ValueError, also under ``python -O``."""
    if X.ring.name != "Z":
        raise ValueError("base change starts from Z, not %s" % X.ring.name)
    terms = {n: base_change_module(M, ring2) for n, M in X.terms.items()}
    # an integer is its own image over Q, so a map there keeps X's entries
    diffs = {n: EquivMap(terms[n], terms[n - 1], f.entries)
             for n, f in X.diffs.items()}
    return Complex(X.group, ring2, terms, diffs, check=False)


def transport_complex(X, G2):
    """Rebuild X over the group object G2 with the same multiplication
    table (identical element indexing); used to move complexes between
    a subgroup-as-group and an equal standalone group."""
    if X.group is G2:
        return X
    if tuple(map(tuple, X.group.table)) != tuple(map(tuple, G2.table)):
        raise ValueError("groups differ as tables, not just as objects")
    terms = {n: SignedPermModule(G2, X.ring, M.basis, M.action)
             for n, M in X.terms.items()}
    diffs = {n: EquivMap(terms[n], terms[n - 1], f.entries)
             for n, f in X.diffs.items()}
    return Complex(G2, X.ring, terms, diffs, check=False)


# ---------------------------------------------------------------------------
# structural comparison and serialization

def structurally_equal(X, Y):
    """Same degrees, action tables, and differential entries.

    Labels are ignored; this detects 'the same complex built twice'.
    """
    if X.group is not Y.group and X.group.table != Y.group.table:
        return False
    if X.ring is not Y.ring:
        return False
    if X.degrees() != Y.degrees():
        return False
    for n in X.degrees():
        if X.terms[n].action != Y.terms[n].action:
            return False
        if X.diff(n).entries != Y.diff(n).entries:
            return False
    return True


def _label_to_json(l):
    if isinstance(l, tuple):
        return [_label_to_json(x) for x in l]
    return l


def _label_from_json(l):
    if isinstance(l, list):
        return tuple(_label_from_json(x) for x in l)
    return l


def _value_to_json(ring, v):
    if ring.name == "Q":
        return [v.numerator, v.denominator]
    return int(v)


def _map_to_json(f):
    """A map as dense rows of JSON numbers."""
    rows = [[f.ring.zero] * f.source.rank for _ in range(f.target.rank)]
    for (r, c), v in f.entries.items():
        rows[r][c] = v
    return [[_value_to_json(f.ring, v) for v in row] for row in rows]


def _value_from_json(ring, v):
    if ring.name == "Q":
        from fractions import Fraction
        v = Fraction(v[0], v[1])
    return ring.normalize(v)


def complex_to_json(X):
    data = {
        "ring": X.ring.name,
        "group": {
            "name": X.group.name,
            "table": [list(r) for r in X.group.table],
            "element_names": list(X.group.element_names),
        },
        "terms": {},
        "diffs": {},
    }
    for n, M in X.terms.items():
        data["terms"][str(n)] = {
            "basis": [_label_to_json(l) for l in M.basis],
            "action": [[[j, s] for (j, s) in row] for row in M.action],
        }
    for n, f in X.diffs.items():
        data["diffs"][str(n)] = _map_to_json(f)
    return data


def complex_from_json(data):
    from .grp import Group
    from .rings import domain_from_name
    ring = domain_from_name(data["ring"])
    g = data["group"]
    G = Group([tuple(r) for r in g["table"]], g["name"],
              list(g["element_names"]))
    terms = {}
    for k, t in data["terms"].items():
        basis = tuple(_label_from_json(l) for l in t["basis"])
        action = tuple(tuple((j, s) for (j, s) in row) for row in t["action"])
        terms[int(k)] = SignedPermModule(G, ring, basis, action)
    diffs = {}
    for k, m in data["diffs"].items():
        n = int(k)
        diffs[n] = EquivMap(terms[n], terms[n - 1],
                            {(r, c): _value_from_json(ring, v)
                             for r, row in enumerate(m)
                             for c, v in enumerate(row)})
    return Complex(G, ring, terms, diffs)
