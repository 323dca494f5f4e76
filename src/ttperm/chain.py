"""Bounded complexes of signed permutation modules.

Grading and sign conventions, fixed once and used everywhere:

* differentials lower degree: d_n : X_n -> X_{n-1}, with d d = 0;
* shift: X[s]_n = X_{n-s} and d^{X[s]} = (-1)^s d^X;
* tensor: (X (x) Y)_n = (+)_{i+j=n} X_i (x) Y_j with
  d(x (x) y) = dx (x) y + (-1)^i x (x) dy for x in X_i;
* cone of f : X -> Y: cone(f)_n = Y_n (+) X_{n-1},
  d(y, x) = (dy + f(x), -dx);
* dual: dual(X)_n = (X_{-n})^* with d_n = (-1)^n (d^X_{1-n})^T on the
  dual bases (signed permutation modules are self-dual on basis).

Terms of rank zero are dropped; ``term(n)`` returns a zero module for
any absent degree and ``diff(n)`` a zero map.

d o d = 0 and the chain-map squares are checked on the entries of
sparse products (``permod._composite``), without building maps; a
failure raises ``permod.CertificateError``, also under ``python -O``.
"""

from .permod import (SignedPermModule, EquivMap, CertificateError,
                     zero_module, zero_map, trivial_module, tensor_module,
                     dual_module, base_change_module, restrict,
                     subgroup_as_group, _composite)


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
            assert M.group is group and M.ring is ring
        for n, f in self.diffs.items():
            assert f.source is self.terms[n] or \
                f.source.basis == self.terms[n].basis
            assert f.target is self.terms[n - 1] or \
                f.target.basis == self.terms[n - 1].basis
        if check:
            for n, d in self.diffs.items():
                if (n + 1) in self.diffs and _composite(d, self.diffs[n + 1]):
                    raise CertificateError("d o d != 0 at degree %d" % n)
        # shift -> HomGroup, filled by homotopy.hom_group; a complex is
        # never changed after construction, so its hom groups stay valid
        self.hom_groups = {}

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
    """A degree-0 map of complexes; commuting squares checked."""

    def __init__(self, source, target, components):
        assert source.group is target.group and source.ring is target.ring
        self.source = source
        self.target = target
        comps = {}
        for n, f in components.items():
            if n in source.terms and n in target.terms:
                assert f.source.basis == source.terms[n].basis
                assert f.target.basis == target.terms[n].basis
                comps[n] = f
            else:
                assert f.is_zero()
        self.components = comps
        for n in set(source.terms) | set(target.terms):
            if _square_side(comps.get(n - 1), source.diffs.get(n)) != \
                    _square_side(target.diffs.get(n), comps.get(n)):
                raise CertificateError(
                    "square at degree %d does not commute" % n)

    def component(self, n):
        if n in self.components:
            return self.components[n]
        return zero_map(self.source.term(n), self.target.term(n))

    def is_zero(self):
        return all(f.is_zero() for f in self.components.values())

    def compose(self, other):
        """self o other."""
        comps = {}
        for n in other.components:
            comps[n] = self.component(n).compose(other.components[n])
        return ChainMap(other.source, self.target, comps)

    def __repr__(self):
        return "ChainMap(%r -> %r)" % (self.source, self.target)


def _square_side(f, g):
    """The entries of f o g, or none when either map is absent (zero)."""
    if f is None or g is None:
        return {}
    return _composite(f, g)


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


class BlockModule:
    """A direct sum of named blocks, remembering offsets.

    ``blocks`` is a list of (key, SignedPermModule) with distinct keys;
    labels of the sum are (key, original label).
    """

    def __init__(self, group, ring, blocks):
        basis = []
        action_rows = [[] for _ in group.elements()]
        offsets = {}
        off = 0
        for key, M in blocks:
            assert key not in offsets
            offsets[key] = off
            basis.extend((key, l) for l in M.basis)
            for gi, row in enumerate(M.action):
                action_rows[gi].extend((j + off, s) for (j, s) in row)
            off += M.rank
        self.module = SignedPermModule(group, ring, tuple(basis),
                                       tuple(tuple(r) for r in action_rows))
        self.offsets = offsets
        self.blocks = dict(blocks)


def _place(acc, r0, c0, A, B=None, b_shape=(1, 1), sign=1):
    """Write sign * (A (x) B) into the entries dict ``acc`` with its
    top left corner at (r0, c0).  A and B are entries dicts, B has
    shape ``b_shape`` and defaults to the 1 x 1 identity, which places
    A itself."""
    B = _identity(1) if B is None else B
    br, bc = b_shape
    for (a, ap), v in A.items():
        for (b, bp), w in B.items():
            acc[(r0 + a * br + b, c0 + ap * bc + bp)] = sign * v * w


def _identity(n):
    return {(i, i): 1 for i in range(n)}


def tensor_complex(X, Y):
    assert X.group is Y.group and X.ring is Y.ring
    if X.is_zero() or Y.is_zero():
        return Complex(X.group, X.ring, {}, {})
    ring = X.ring
    pieces = {}   # degree -> list of ((i, j), module)
    for i, Mi in sorted(X.terms.items()):
        for j, Nj in sorted(Y.terms.items()):
            pieces.setdefault(i + j, []).append(((i, j), tensor_module(Mi, Nj)))
    blocks = {n: BlockModule(X.group, ring, bl) for n, bl in pieces.items()}
    terms = {n: B.module for n, B in blocks.items()}
    diffs = {}
    for n, B in blocks.items():
        if (n - 1) not in blocks:
            continue
        C = blocks[n - 1]
        acc = {}
        for (i, j) in B.blocks:
            c0 = B.offsets[(i, j)]
            Mi, Nj = X.term(i), Y.term(j)
            if (i - 1, j) in C.offsets and i in X.diffs:
                # dX (x) id: block entry [(a,b),(a',b)] = dX[a][a']
                _place(acc, C.offsets[(i - 1, j)], c0, X.diffs[i].entries,
                       _identity(Nj.rank), (Nj.rank, Nj.rank))
            if (i, j - 1) in C.offsets and j in Y.diffs:
                # (-1)^i id (x) dY
                dY = Y.diffs[j]
                _place(acc, C.offsets[(i, j - 1)], c0, _identity(Mi.rank),
                       dY.entries, (dY.target.rank, Nj.rank),
                       sign=1 if i % 2 == 0 else -1)
        diffs[n] = EquivMap(B.module, C.module, acc)
    return Complex(X.group, ring, terms, diffs)


def _tensor_offsets(X, Y, n):
    """Block offsets of (X (x) Y)_n, in the order tensor_complex uses."""
    out = {}
    off = 0
    for i in sorted(X.terms):
        j = n - i
        if j in Y.terms:
            out[(i, j)] = off
            off += X.terms[i].rank * Y.terms[j].rank
    return out


def tensor_chain_maps(f, g):
    """(f (x) g) : X (x) X' -> Y (x) Y' for degree-0 chain maps."""
    X, Y = f.source, f.target
    Xp, Yp = g.source, g.target
    S = tensor_complex(X, Xp)
    T = tensor_complex(Y, Yp)
    comps = {}
    for n in S.terms:
        if n not in T.terms:
            continue
        SB = _tensor_offsets(X, Xp, n)
        TB = _tensor_offsets(Y, Yp, n)
        acc = {}
        for (i, j), c0 in SB.items():
            if (i, j) in TB:
                gj = g.component(j)
                _place(acc, TB[(i, j)], c0, f.component(i).entries,
                       gj.entries, (gj.target.rank, gj.source.rank))
        comps[n] = EquivMap(S.terms[n], T.terms[n], acc)
    return ChainMap(S, T, comps)


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
    """Extend coefficients Z -> ring2 (entrywise via from_int)."""
    assert X.ring.name == "Z"
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
    assert tuple(map(tuple, X.group.table)) == tuple(map(tuple, G2.table)), \
        "groups differ as tables, not just as objects"
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
        return Fraction(v[0], v[1])
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
