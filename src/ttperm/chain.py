"""Bounded complexes of signed permutation modules.

Grading and sign conventions, fixed once and used everywhere:

* differentials lower degree: d_n : X_n -> X_{n-1}, with d d = 0;
* shift: X[s]_n = X_{n-s} and d^{X[s]} = (-1)^s d^X;
* tensor: (X (x) Y)_n = (+)_{i+j=n} X_i (x) Y_j with
  d(x (x) y) = dx (x) y + (-1)^i x (x) dy for x in X_i; every tensor
  product, of two complexes or of k (``koszul.tensor_induce``), has
  the basis layout ``tensor_index`` and the differential
  ``tensor_differentials``;
* cone of f : X -> Y: cone(f)_n = Y_n (+) X_{n-1},
  d(y, x) = (dy + f(x), -dx); ``tensor_cone`` writes the cone of a
  tensor of chain maps on the tensor layouts and checks it once;
* dual: dual(X)_n = (X_{-n})^* with d_n = (-1)^n (d^X_{1-n})^T on the
  dual bases (signed permutation modules are self-dual on basis).

Terms of rank zero are dropped; ``term(n)`` returns a zero module for
any absent degree and ``diff(n)`` a zero map.

d o d = 0 and the chain-map squares are checked on the entries of
sparse products (``permod._composite``), without building maps, and on
one column per G-orbit of the source term's basis (the rule and its
preconditions are stated in ``permod``): ``orbit_starts`` gives every
orbit a representative, signed orbits included, and a differential or
component is accepted only when its source and target are the terms
themselves or carry their basis and action (``permod._same_module``).
A failed identity raises ``permod.CertificateError``, also under
``python -O``.  Terms and components that do not fit together are a
caller's bug and raise ``ValueError``, also under ``python -O``.
"""

from itertools import product as iproduct

from .permod import (SignedPermModule, EquivMap, CertificateError,
                     BlockModule, zero_module, zero_map, trivial_module,
                     dual_module, base_change_module, restrict,
                     subgroup_as_group, _composite, _index, _same_module)


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
        """d_n o d_{n+1} = 0 in every degree, compared as sparse
        products on one column per orbit of X_{n+1}; raises
        CertificateError otherwise.  Runs once: a passed check is
        kept."""
        if self.squares_to_zero:
            return
        for n, d in sorted(self.diffs.items()):
            if (n + 1) in self.diffs and _composite(
                    d, self.diffs[n + 1],
                    set(self.terms[n + 1].orbit_starts())):
                raise CertificateError("d o d != 0 at degree %d" % n)
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
        for n in set(source.terms) | set(target.terms):
            if n not in source.terms:
                continue        # both sides vanish where X_n is zero
            cols = set(source.terms[n].orbit_starts())
            if _square_side(comps.get(n - 1), source.diffs.get(n), cols) != \
                    _square_side(target.diffs.get(n), comps.get(n), cols):
                raise CertificateError(
                    "square at degree %d does not commute" % n)

    def component(self, n):
        if n in self.components:
            return self.components[n]
        return zero_map(self.source.term(n), self.target.term(n))

    def is_zero(self):
        return all(f.is_zero() for f in self.components.values())

    def __repr__(self):
        return "ChainMap(%r -> %r)" % (self.source, self.target)


def _square_side(f, g, cols):
    """The entries of f o g on the columns ``cols``, or none when either
    map is absent (zero)."""
    if f is None or g is None:
        return {}
    return _composite(f, g, cols)


def identity_chain_map(X):
    from .permod import identity_map
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
    diffs = {}
    for n, f in X.diffs.items():
        if s % 2 == 0:
            diffs[n + s] = f
        else:
            diffs[n + s] = EquivMap(f.source, f.target,
                                    {k: -v for k, v in f.entries.items()})
    return Complex(X.group, X.ring, terms, diffs, check=False)


def _place(acc, r0, c0, A, sign=1):
    """Write sign * A into ``acc`` with its top left corner at (r0, c0)."""
    for (a, ap), v in A.items():
        acc[(r0 + a, c0 + ap)] = sign * v


def tensor_index(factors):
    """The basis layout of the tensor product of the complexes
    ``factors``: {n: {(tup, src): position}}.

    ``tup`` holds the degrees of the factors and ``src`` one basis
    index per factor; the basis vector is e_src[0] (x) ... (x) e_src[-1]
    in the block X_tup[0] (x) ... (x) X_tup[-1] of degree n = sum(tup).
    Blocks come in lexicographic order of tup, and src is lexicographic
    within a block, the order of ``permod.tensor_module``; degrees come
    in the order in which their first block does.
    """
    degrees = dict.fromkeys(sum(tup) for tup in _degree_tuples(factors))
    return {n: _tensor_block(factors, n) for n in degrees}


def _degree_tuples(factors, n=None):
    """The degree tuples of the layout's blocks, in layout order; only
    those of degree n when it is given."""
    return [tup for tup in iproduct(*[sorted(X.terms) for X in factors])
            if n is None or sum(tup) == n]


def _tensor_block(factors, n):
    """Degree n of ``tensor_index(factors)``, empty when it is absent."""
    block = {}
    for tup in _degree_tuples(factors, n):
        for src in iproduct(*[range(X.terms[d].rank)
                              for X, d in zip(factors, tup)]):
            block[(tup, src)] = len(block)
    return block


def _factor_columns(factors, tups):
    """[{d: _index of d_d of factor j, by columns}] over the degrees d
    that the degree tuples ``tups`` hold in slot j."""
    return [{d: _index(X.diffs[d].entries, 1)
             for d in {tup[j] for tup in tups} if d in X.diffs}
            for j, X in enumerate(factors)]


def tensor_differentials(factors, index):
    """{n: entries of d_n} on the layout ``index`` of ``factors``, by
    the Leibniz rule (``_tensor_differential``).  Every degree n with
    n - 1 in the layout gets an entry, possibly empty."""
    cols = _factor_columns(factors, _degree_tuples(factors))
    return {n: _tensor_differential(cols, block, index[n - 1])
            for n, block in index.items() if (n - 1) in index}


def _tensor_differential(cols, block, below):
    """The entries of d from the layout block ``block`` to ``below``,
    one degree down: d applied in slot j is signed by (-1)^(sum of the
    degrees before j).  ``cols`` is ``_factor_columns`` over at least
    the block's degree tuples."""
    acc = {}
    for (tup, src), c in block.items():
        sgn = 1
        for j, d in enumerate(tup):
            for b, v in cols[j].get(d, {}).get(src[j], ()):
                r = below[(tup[:j] + (d - 1,) + tup[j + 1:],
                           src[:j] + (b,) + src[j + 1:])]
                acc[(r, c)] = sgn * v
            if d % 2:
                sgn = -sgn
    return acc


def _tensor_rows(A, B, n, block, rows, off=0):
    """Append the action of the degree-n term of A (x) B (layout
    ``block``, moved down by ``off``) to ``rows``, one list per group
    element, and return its labels ((i, j), ("t", a, b))."""
    labels = []
    for i in sorted(A.terms):
        if n - i in B.terms:
            M, N = A.terms[i], B.terms[n - i]
            o, nN = off + block[((i, n - i), (0, 0))], N.rank
            labels += [((i, n - i), ("t", a, b))
                       for a in M.basis for b in N.basis]
            for row, rM, rN in zip(rows, M.action, N.action):
                row += [(o + a * nN + b, s * t) for a, s in rM for b, t in rN]
    return labels


def tensor_complex(X, Y):
    """X (x) Y on the layout ``tensor_index((X, Y))``; the term of
    degree n is the sum of the blocks X_i (x) Y_j, i + j = n."""
    if X.group is not Y.group or X.ring is not Y.ring:
        raise ValueError("tensor factors over different groups or rings")
    index = tensor_index((X, Y))
    terms = {}
    for n, block in index.items():
        rows = [[] for _ in X.group.elements()]
        basis = _tensor_rows(X, Y, n, block, rows)
        terms[n] = SignedPermModule(X.group, X.ring, basis, rows)
    diffs = {n: EquivMap(terms[n], terms[n - 1], acc)
             for n, acc in tensor_differentials((X, Y), index).items()}
    return Complex(X.group, X.ring, terms, diffs)


def tensor_cone(f, g):
    """cone(tau) for tau = f (x) g : S = X (x) X' -> T = Y (x) Y', f and
    g chain maps, written on the layouts of S and T without building S,
    T or tau: the terms, labels (("cY",), ((i, j), ("t", a, b))), actions
    and ordered entries of ``cone`` of the checked tau.  One d o d check
    covers all three, since d^2 = [[dT^2, dT tau - tau dS], [0, dS^2]]
    for d = [[dT, tau], [0, -dS]]; each term is a sum of G-stable
    blocks, so its action and equivariance checks cover every block.

    The cone is written degree by degree, upward: while degree n is
    written only the layouts of degrees n and n - 1 are alive, with the
    factor column indexes that the differential of degree n reads, and
    none of them is left when the cone checks d o d.
    """
    X, Y, Xp, Yp = f.source, f.target, g.source, g.target
    if X.group is not Xp.group or X.ring is not Xp.ring:
        raise ValueError("tensor factors over different groups or rings")
    S, T = (X, Xp), (Y, Yp)
    taus = ({i: _index(c.entries, 1) for i, c in f.components.items()},
            {j: _index(c.entries, 1) for j, c in g.components.items()})
    terms, diffs = {}, {}
    below = None            # (n - 1, its T block, its S block of n - 2)
    for n in sorted({sum(tup) for tup in _degree_tuples(T)} |
                    {sum(tup) + 1 for tup in _degree_tuples(S)}):
        blocks = _tensor_block(T, n), _tensor_block(S, n - 1)
        rows = [[] for _ in X.group.elements()]
        basis = [(("cY",), l) for l in _tensor_rows(Y, Yp, n, blocks[0], rows)]
        basis += [(("cX",), l) for l in _tensor_rows(
            X, Xp, n - 1, blocks[1], rows, len(blocks[0]))]
        terms[n] = SignedPermModule(X.group, X.ring, basis, rows)
        if below is not None and below[0] == n - 1:
            diffs[n] = EquivMap(terms[n], terms[n - 1], _cone_differential(
                S, T, taus, n, blocks, below[1:]))
        below = (n,) + blocks
    below = blocks = taus = None
    return Complex(X.group, X.ring, terms, diffs)


def _cone_differential(S, T, taus, n, blocks, lower):
    """The entries of d_n of ``tensor_cone``: [[dT, tau], [0, -dS]] from
    the T and S blocks ``blocks`` of degrees n and n - 1 to ``lower``,
    those of n - 1 and n - 2; ``taus`` holds the column indexes of f's
    and g's components."""
    (TB, SB), (TL, SL) = blocks, lower
    fcols, gcols = taus
    acc = {}
    _place(acc, 0, 0, _tensor_differential(
        _factor_columns(T, _degree_tuples(T, n)), TB, TL))
    for ((i, j), (a, b)), c in SB.items():
        for a2, v in fcols.get(i, {}).get(a, ()):
            for b2, w in gcols.get(j, {}).get(b, ()):
                acc[(TL[((i, j), (a2, b2))], len(TB) + c)] = v * w
    _place(acc, len(TL), len(TB), _tensor_differential(
        _factor_columns(S, _degree_tuples(S, n - 1)), SB, SL), sign=-1)
    return acc


def cone(f):
    """Mapping cone of a chain map f : X -> Y."""
    X, Y = f.source, f.target
    ring = X.ring
    degs = set(Y.terms) | {n + 1 for n in X.terms}
    blocks = {}
    for n in sorted(degs):
        bl = []
        if n in Y.terms:
            bl.append((("cY",), Y.terms[n]))
        if (n - 1) in X.terms:
            bl.append((("cX",), X.terms[n - 1]))
        if bl:
            blocks[n] = BlockModule(X.group, ring, bl)
    terms = {n: B.module for n, B in blocks.items()}
    diffs = {}
    for n, B in blocks.items():
        if (n - 1) not in blocks:
            continue
        C = blocks[n - 1]
        acc = {}
        if ("cY",) in B.offsets and ("cY",) in C.offsets and n in Y.diffs:
            _place(acc, C.offsets[("cY",)], B.offsets[("cY",)],
                   Y.diffs[n].entries)
        if ("cX",) in B.offsets:
            if ("cY",) in C.offsets:
                _place(acc, C.offsets[("cY",)], B.offsets[("cX",)],
                       f.component(n - 1).entries)
            if ("cX",) in C.offsets and (n - 1) in X.diffs:
                _place(acc, C.offsets[("cX",)], B.offsets[("cX",)],
                       X.diffs[n - 1].entries, sign=-1)
        diffs[n] = EquivMap(B.module, C.module, acc)
    return Complex(X.group, ring, terms, diffs)


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
    """Extend coefficients Z -> ring2 (entrywise via from_int).  Any
    other source ring raises ValueError, also under ``python -O``."""
    if X.ring.name != "Z":
        raise ValueError("base change starts from Z, not %s" % X.ring.name)
    terms = {n: base_change_module(M, ring2) for n, M in X.terms.items()}
    diffs = {}
    for n, f in X.diffs.items():
        diffs[n] = EquivMap(terms[n], terms[n - 1],
                            {k: ring2.from_int(v) for k, v in f.entries.items()})
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
