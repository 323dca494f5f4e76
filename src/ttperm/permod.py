"""Signed permutation modules and equivariant maps between them.

A signed permutation module is a free module with a distinguished basis
X such that every group element sends a basis vector to a basis vector
or its negative: ``g . e_i = s * e_j`` with ``s`` in {+1, -1}.  A
permutation module is the special case where every sign is +1.  Over
GF(2) the two notions coincide and signs are erased on construction,
once they are checked.

Conventions used throughout the package:

* the action is stored as ``act[g][i] = (j, s)`` meaning g.e_i = s e_j;
  the pairs (j, s) are shared, one object per index and sign, from a
  table in this module (``_pairs``) that is as long as the largest rank
  built; the pass that checks a row looks them up;
* an ``EquivMap`` is its ``entries``, the dict {(row, col): value} of
  its nonzero entries; rows index the target basis and columns the
  source basis, and the map acts on coordinate columns,
  f(e_c) = sum_r E[(r, c)] f_r.  Every map is built from entries and
  read through them: a composite is the sparse product of nonzeros
  (``_composite``), an identity is checked on compact column indexes
  (``_column_index``, ``_check_orbit_columns``) and ``rows`` gives the
  row dicts that elimination reads, columns ascending within each
  row.  A map owns the dict it is given when its values are already
  nonzero and normalized, and keeps it without a copy, so a caller
  hands over an accumulator and never touches it again, and maps with
  the same entries (a restriction, a transport, a base change to Q)
  share one dict.  Nothing changes the entries of a map;
* values are normalized (``rings``): ints over Z and GF(p), and over Q
  an int when integral and a non-integral ``Fraction`` otherwise, so a
  Z module and a Q module hold values of the same type and only the
  ring identity that ``EquivMap`` checks tells them apart; values are
  divided only through ``ring.inv``;
* a vector is the dict {index: value} of its nonzero coordinates,
  values normalized: the one-index form of ``EquivMap.entries``.  Maps
  apply to vectors (``EquivMap.apply``, ``EquivMap.columns``), and
  ``_combination`` and ``_scaled`` form linear combinations of them.
  Every vector that crosses a function boundary has this form; dense
  lists are left only in the JSON report format;
* Hom_G(M, N) is an orbit table (``HomOrbits``): the orbits of basis
  pairs (i, j), pair index i * rank N + j, each held as the index of
  its root pair plus one signed 4-byte code per pair, never as maps.
  An orbit's members are re-walked from its root when a map is built
  from them (``HomOrbits.map``, checked like every map).  It is the one
  signed orbit walk (``orbit_starts`` walks bare basis orbits, for the
  checks below): the orbit of e_x in M is the orbit of the pair (0, x) in
  Hom_G(R, M), R trivial, so sign decomposition, rebasing and the
  induction test read ``HomOrbits`` too, and a contraction step reads
  the (K, chi)-orbits of a module as ``HomOrbits`` from a rank-one
  module over the stabilizer K;
* basis labels are nested tuples of strings/ints, so they stay hashable,
  deterministic, and JSON-serializable (tuples become lists in JSON).

Actions and maps are checked on the group's generating set S
(``Group.generators``), not on all of G: every element is a product
s_1 ... s_k of generators, so an action that is multiplicative on the
products g s, and a map that commutes with every rho(s), are a
homomorphism and an equivariant map for the whole group.  Orbits of
basis pairs are closures under the generators for the same reason.  A
failed check raises ``CertificateError``, so the checks also run under
``python -O``.

An identity between equivariant maps A -> B (d o d = 0, a chain-map
square, d h + h d = f, d h + h d = id - g f) is checked by one function,
``_check_orbit_columns``, on one column per G-orbit of A's basis, at
``SignedPermModule.orbit_starts``: the difference F of the two
sides is equivariant, F(g.e_x) = s rho(g) F(e_x) for g.e_x = s e_(g.x),
so it vanishes on the orbit of e_x when it vanishes at e_x.  The rule
has two preconditions, which the checks enforce:

* every orbit has a representative, signed ones too (an orbit on which
  some stabilizer element sends e_x to -e_x has no root in
  ``HomOrbits(R, M)``, yet F(e_x) need not vanish there over Z);
* every factor is an ``EquivMap``, checked when it was built, and each
  module where two factors meet, or where the columns are read, is the
  complex's term itself or carries its action (``_same_module``), so
  every factor is equivariant for the same action.
"""

from array import array

from .grp import Group, Subgroup


class CertificateError(Exception):
    """An exact certificate check failed: a group action, an
    equivariant map, a chain-map square, d o d = 0, a homotopy identity,
    or a Smith form whose transforms or generators fail their check.
    Raised explicitly, so the checks also run under ``python -O``;
    ``cli.run`` reports it with exit status 2."""


# The shared pairs of action rows: _PLUS[j] = (j, 1), _MINUS[j] = (j, -1).
_PLUS, _MINUS = [], []


def _pairs(n):
    """The pair tables (_PLUS, _MINUS), grown to at least n.  Every
    action row holds these objects, one per index and sign, so a module
    adds one reference per entry; the tables are as long as the largest
    rank built."""
    for j in range(len(_PLUS), n):
        _PLUS.append((j, 1))
        _MINUS.append((j, -1))
    return _PLUS, _MINUS


class SignedPermModule:
    def __init__(self, group, ring, basis, action):
        self.group = group
        self.ring = ring
        self.basis = tuple(basis)
        n = len(self.basis)
        if len(action) != group.order:
            raise CertificateError("action needs one row per group element")
        # every row is checked as a permutation before a pair is looked
        # up (an index -1 would pick a pair from the end of the table), and
        # every sign is checked before GF(2) erases it
        indices = list(range(n))
        plus, minus = _pairs(n)
        shared = {1: plus, -1: plus if ring.characteristic == 2 else minus}
        bad = "action rows must be signed permutations"
        rows = []
        for row in action:
            if sorted([j for j, _ in row]) != indices:
                raise CertificateError(bad)
            try:
                rows.append(tuple([shared[s][j] for j, s in row]))
            except KeyError:
                raise CertificateError(bad) from None
        action = tuple(rows)
        if action[group.identity] != tuple(plus[:n]):
            raise CertificateError("identity must act trivially")
        # rho(g s) = rho(g) rho(s) for every g and every generator s.
        # Elements a with rho(g a) = rho(g) rho(a) for all g include the
        # identity, and a s is one of them whenever a is, since
        # rho(g a s) = rho(g a) rho(s) = rho(g) rho(a) rho(s); every
        # element is a product e s_1 ... s_k of generators, so this
        # covers all |G|^2 products in O(|G| |S| n) lookups.
        for s in group.generators:
            act_s = action[s]
            mul_s = [row[s] for row in group.table]
            for g, act_g in enumerate(action):
                if action[mul_s[g]] != tuple((act_g[j][0], a * act_g[j][1])
                                             for (j, a) in act_s):
                    raise CertificateError("action is not a homomorphism")
        self.action = action
        # {target module: HomOrbits(self, target)}, filled by
        # homotopy._hom_basis; it lives and dies with this module
        self.hom_bases = {}
        self._starts = None

    def orbit_starts(self):
        """The smallest index of every G-orbit of the basis, signed or
        not, ascending; walked once along the generators, without the
        signs that ``HomOrbits`` weighs, and kept on the module."""
        if self._starts is None:
            gens = [self.action[g] for g in self.group.generators]
            seen = bytearray(self.rank)
            self._starts = array("i")
            for x in range(self.rank):
                if not seen[x]:
                    self._starts.append(x)
                    seen[x], stack = 1, [x]
                    while stack:
                        y = stack.pop()
                        for row in gens:
                            z = row[y][0]
                            if not seen[z]:
                                seen[z] = 1
                                stack.append(z)
        return self._starts

    @property
    def rank(self):
        return len(self.basis)

    def act(self, g, i):
        return self.action[g][i]

    def is_permutation(self):
        return all(s == 1 for row in self.action for (_, s) in row)

    def __repr__(self):
        return "SignedPermModule(%s, rank %d over %s)" % (
            self.group.name, self.rank, self.ring.name)


class EquivMap:
    """A G-equivariant linear map between signed permutation modules,
    held as ``entries`` {(row, col): value}, normalized and nonzero.

    Equivariance is checked on construction, on the nonzero entries and
    the generators of G: a map that commutes with rho(s) for every
    generator s commutes with every product of generators, which is
    every element.  The check costs O(|S| nnz).  Source and target over
    different groups or rings raise ``ValueError``, also under
    ``python -O``: Z and Q values are both ints, so the ring identity is
    what keeps a Z module from meeting a Q module.

    The map owns ``entries``: a dict whose values are all nonzero and
    their own normal form, type included, is kept as it is, so the
    caller hands it over and never changes it again; any other is
    copied normalized (an F3 value -1, a Q value ``Fraction(2, 1)``, a
    zero).
    """

    def __init__(self, source, target, entries):
        if source.group is not target.group:
            raise ValueError("source and target have different groups")
        if source.ring is not target.ring:
            raise ValueError("source and target have different rings")
        self.source = source
        self.target = target
        self.ring = source.ring
        self.entries = _owned(self.ring, entries)
        rows, cols = target.rank, source.rank
        for (r, c) in self.entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise CertificateError("entry (%d, %d) lies outside a "
                                       "%d x %d map" % (r, c, rows, cols))
        self._check_equivariance()

    def _check_equivariance(self):
        """M[g.r][g.i] = s t M[r][i] for every generator g and every
        nonzero (r, i), where g.e_i = s e_(g.i) and g.f_r = t f_(g.r);
        raises CertificateError otherwise.

        Checking nonzero entries only suffices: g permutes the index
        pairs, and the check shows that it maps the nonzero entries
        injectively into themselves, so onto themselves, and zero
        entries onto zero entries.
        """
        src, tgt = self.source, self.target
        E = self.entries
        norm = self.ring.normalize
        for g in src.group.generators:
            sact, tact = src.action[g], tgt.action[g]
            for (r, i), v in E.items():
                r2, t = tact[r]
                i2, s = sact[i]
                if E.get((r2, i2)) != (v if s == t else norm(-v)):
                    raise CertificateError("map is not equivariant")

    def rows(self):
        """Row dicts {col: value}, columns ascending within each row:
        the order in which elimination meets them and breaks pivot
        ties."""
        out = [{} for _ in range(self.target.rank)]
        E = self.entries
        for r, c in sorted(E):
            out[r][c] = E[(r, c)]
        return out

    def columns(self):
        """The images of the source basis vectors, as vectors."""
        out = [{} for _ in range(self.source.rank)]
        for (r, c), v in self.entries.items():
            out[c][r] = v
        return out

    def block(self, rows, cols):
        """The entries inside rows x cols (two ranges), re-indexed so the
        block starts at (0, 0)."""
        r0, c0 = rows.start, cols.start
        return {(r - r0, c - c0): v for (r, c), v in self.entries.items()
                if r in rows and c in cols}

    def apply(self, vec):
        """The image of a vector."""
        acc = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x is not None:
                acc[r] = acc.get(r, 0) + v * x
        return _normalized(self.ring, acc)

    def compose(self, other):
        """self o other (other first), the sparse product of the two
        maps' nonzeros."""
        if other.target is not self.source and \
                other.target.basis != self.source.basis:
            raise ValueError("the target of the first map is not the "
                             "source of the second")
        return EquivMap(other.source, self.target, _composite(self, other))

    def is_zero(self):
        return not self.entries

    def __repr__(self):
        return "EquivMap(%d x %d over %s)" % (
            self.target.rank, self.source.rank, self.ring.name)


def _same_module(M, N):
    """M is N, or has its basis and its action (identity first: the
    common, free case).  Equal actions make a map that is equivariant
    for M equivariant for N."""
    return M is N or (M.basis == N.basis and M.action == N.action)


def _index(entries, axis):
    """{k: [(other index, value)]} grouping sparse entries by their row
    (axis 0) or column (axis 1) index."""
    out = {}
    for key, v in entries.items():
        out.setdefault(key[axis], []).append((key[1 - axis], v))
    return out


def _owned(ring, entries):
    """``entries`` itself when it is a dict whose values are all nonzero
    and already their own normal form, type included; otherwise its
    normalized copy."""
    if type(entries) is dict:
        norm = ring.normalize
        for v in entries.values():
            w = norm(v)
            if w == 0 or w != v or type(w) is not type(v):
                break
        else:
            return entries
    return _normalized(ring, entries)


def _normalized(ring, acc):
    """The nonzero entries of ``acc``, normalized, in their order: always
    a new dict, which callers such as ``solve_sparse`` may change in
    place."""
    norm = ring.normalize
    out = {}
    for key, v in acc.items():
        v = norm(v)
        if v != 0:
            out[key] = v
    return out


def _combination(ring, coeffs, vectors):
    """sum_k c_k vectors[k] for the coefficient vector ``coeffs``
    {k: c_k}, as a vector."""
    acc = {}
    for k, c in coeffs.items():
        for i, x in vectors[k].items():
            acc[i] = acc.get(i, 0) + c * x
    return _normalized(ring, acc)


def _by_rows(cols):
    """{row: {k: value}} for the column vectors cols[k]: the matrix they
    form, or right-hand sides for ``solve_sparse``.  The columns are
    walked in k order, so every row dict is k-ascending."""
    out = {}
    for k, col in enumerate(cols):
        for r, v in col.items():
            out.setdefault(r, {})[k] = v
    return out


def _column_rows(cols, nrows):
    """The row dicts of the matrix whose columns are ``cols``, columns
    ascending within each row."""
    by_rows = _by_rows(cols)
    return [by_rows.get(r, {}) for r in range(nrows)]


def _scaled(ring, c, vec):
    """The vector c . vec, its values normalized over ``ring``."""
    return _normalized(ring, {i: c * x for i, x in vec.items()})


def _composite(f, g):
    """The entries of f o g (g first), the sparse product of the two
    maps' nonzeros; no map is built."""
    f_cols, acc = _index(f.entries, 1), {}
    for (t, c), v in g.entries.items():
        for r, a in f_cols.get(t, ()):
            acc[(r, c)] = acc.get((r, c), 0) + a * v
    return _normalized(f.ring, acc)


def _column_index(E, ncols, scale=1):
    """The entries E of a map with ``ncols`` columns by column, compact:
    (start, rows, values) with column c at positions start[c] to
    start[c + 1] and every value times ``scale``, an integer that clears
    its denominator; two int arrays and a list, no tuple or list per
    entry or column."""
    start = array("i", bytes(4 * (ncols + 1)))
    for _, c in E:
        start[c + 1] += 1
    for c in range(ncols):
        start[c + 1] += start[c]
    fill = array("i", start)
    rows = array("i", bytes(4 * len(E)))
    vals = [0] * len(E)
    for (r, c), v in E.items():
        k = fill[c]
        fill[c] = k + 1
        rows[k] = r
        vals[k] = v if scale == 1 else v.numerator * (scale // v.denominator)
    return start, rows, vals


def _column_image(c, pairs):
    """sum B(A(e_c)) over the pairs (A, B) of ``_column_index``es, as
    an accumulator dict, not normalized."""
    acc = {}
    for (first, first_rows, first_vals), (then, rows, vals) in pairs:
        for k in range(first[c], first[c + 1]):
            t, a = first_rows[k], first_vals[k]
            for m in range(then[t], then[t + 1]):
                r = rows[m]
                acc[r] = acc.get(r, 0) + a * vals[m]
    return acc


def _column_indexes(kept, maps, scale=1, scaled=0):
    """{g: _column_index of g} for the maps of ``maps`` other than None,
    the first ``scaled`` times ``scale``, reusing those in ``kept`` (the
    degree before's); the rest of ``kept`` is dropped."""
    out = {}
    for k, g in enumerate(maps):
        if g is not None:
            out[g] = kept.get(g) or _column_index(
                g.entries, g.source.rank, scale if k < scaled else 1)
    return out


def _check_orbit_columns(M, pairs, message, expected=None):
    """The package's one identity check: sum B(A(e_c)) over the pairs
    (A, B) of ``_column_index``es, normalized, is the vector expected(c)
    (zero without ``expected``) at every c of ``M.orbit_starts()``, M
    the source of every A; else CertificateError(message)."""
    for c in M.orbit_starts():
        if _normalized(M.ring, _column_image(c, pairs)) != (
                expected(c) if expected else {}):
            raise CertificateError(message)


def zero_map(source, target):
    return EquivMap(source, target, {})


def identity_map(M):
    return EquivMap(M, M, {(i, i): M.ring.one for i in range(M.rank)})


# ---------------------------------------------------------------------------
# constructors

def zero_module(group, ring):
    return SignedPermModule(group, ring, (), tuple(() for _ in group.elements()))


def trivial_module(group, ring):
    action = tuple(((0, 1),) for _ in group.elements())
    return SignedPermModule(group, ring, ("1",), action)


def perm_module(group, subgroup, ring):
    """R(G/H) with basis the left cosets gH, ordered by smallest member."""
    if subgroup.parent is not group:
        raise ValueError("the subgroup lies in another group")
    cosets = subgroup.left_cosets()
    index = {}
    for k, c in enumerate(cosets):
        for x in c:
            index[x] = k
    basis = tuple(("coset", c[0]) for c in cosets)
    action = tuple(tuple((index[group.mul(g, c[0])], 1) for c in cosets)
                   for g in group.elements())
    return SignedPermModule(group, ring, basis, action)


def sign_module(group, subgroup, ring):
    """The rank-one module where H acts by +1 and G - H by -1.

    ``subgroup`` must have index 2; this is the inflation of the sign
    representation of the order-2 quotient.
    """
    if subgroup.index != 2:
        raise ValueError("sign module needs an index-2 subgroup")
    inside = set(subgroup.elements)
    action = tuple(((0, 1 if g in inside else -1),) for g in group.elements())
    return SignedPermModule(group, ring, ("sgn",), action)


def tensor_module(M, N):
    if M.group is not N.group or M.ring is not N.ring:
        raise ValueError("tensor factors over different groups or rings")
    basis = tuple(("t", a, b) for a in M.basis for b in N.basis)
    nN = N.rank
    action = []
    for g in M.group.elements():
        rowM, rowN = M.action[g], N.action[g]
        row = []
        for i in range(M.rank):
            a, s = rowM[i]
            for j in range(nN):
                b, t = rowN[j]
                row.append((a * nN + b, s * t))
        action.append(tuple(row))
    return SignedPermModule(M.group, M.ring, basis, tuple(action))


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
            if key in offsets:
                raise ValueError("block %r appears twice" % (key,))
            offsets[key] = off
            basis.extend((key, l) for l in M.basis)
            for gi, row in enumerate(M.action):
                action_rows[gi].extend((j + off, s) for (j, s) in row)
            off += M.rank
        self.module = SignedPermModule(group, ring, tuple(basis),
                                       tuple(tuple(r) for r in action_rows))
        self.offsets = offsets
        self.blocks = dict(blocks)


def dual_module(M):
    """Dual basis with the contragredient action.

    For signed permutation modules the dual action has the same
    permutation and the same signs: if g.e_i = s e_j then g.e_i* = s e_j*.
    """
    basis = tuple(("d", l) for l in M.basis)
    return SignedPermModule(M.group, M.ring, basis, M.action)


# ---------------------------------------------------------------------------
# induction / restriction

def subgroup_as_group(S):
    """A Subgroup as a standalone Group, plus the element embedding.

    The whole group is its own parent.  Any other subgroup's Group is
    kept on the ambient group (``Group.subgroup_groups``, keyed by the
    element tuple) so repeated restrictions share one Group object;
    maps between restricted modules require identical group objects.
    """
    if S.order == S.parent.order:
        return S.parent, S.elements
    cache = S.parent.subgroup_groups
    if S.elements not in cache:
        elems = S.elements
        pos = {x: i for i, x in enumerate(elems)}
        table = [[pos[S.parent.mul(a, b)] for b in elems] for a in elems]
        names = [S.parent.element_names[x] for x in elems]
        H = Group(table, "%s<%s" % (S.describe(), S.parent.name), names)
        cache[elems] = (H, elems)
    return cache[S.elements]


def subgroup_meet(S, T):
    """subgroup_as_group(S)[0] and S cap T as a Subgroup of it."""
    Sg, elems = subgroup_as_group(S)
    inside = set(T.elements)
    return Sg, Subgroup(Sg, [i for i, x in enumerate(elems) if x in inside])


def restrict(M, S):
    """Res_H(M): same basis, action restricted along subgroup_as_group(S)."""
    if S.parent is not M.group:
        raise ValueError("the subgroup lies in another group")
    H, elems = subgroup_as_group(S)
    action = tuple(M.action[x] for x in elems)
    return SignedPermModule(H, M.ring, M.basis, action)


# ---------------------------------------------------------------------------
# equivariant hom bases and invariants

class HomOrbits:
    """Hom_{RG}(M, N) as an orbit table: a lattice basis, one basis map
    per consistent orbit, held as codes rather than maps.

    G acts on basis pairs (i, j) by g.(i, j) = (gi, gj) weighted by the
    product of the two signs; each orbit whose sign weights close up
    consistently carries the equivariant map with entry (j, i) equal to
    the weight of (i, j) on its pairs.  Orbits with inconsistent signs
    carry nothing (they would need 2 to be invertible to split; over
    GF(2) signs are already erased).  Orbits are walked along generator
    steps: the weights form a cocycle, w(g h, x) = w(g, h x) w(h, x), so
    weights that agree along every generator step agree along every
    element.

    This is the package's one signed orbit walk.  For M = R trivial, pair
    (0, x) is the basis vector e_x of N; its walk closes up exactly when
    the stabilizer character of e_x is trivial, and the code's sign is
    then e_x's path sign.  For M a rank-one sign module L it closes up
    exactly when that character is L's on the stabilizer.

    ``roots[k]`` is the pair index of the pair that starts orbit k, its
    smallest, and ``code[i * rank N + j]`` is +-(k + 1) for a pair of
    orbit k with its weight as the sign, or 0 on an inconsistent orbit.
    ``map`` re-walks an orbit from its root when a map needs its pairs.
    """

    def __init__(self, M, N):
        if M.group is not N.group or M.ring is not N.ring:
            raise ValueError("hom between different groups or rings")
        self.source, self.target = M, N
        total = M.rank * N.rank
        self.code = code = array("i", bytes(4 * total))
        self.roots = roots = array("i")
        seen = bytearray(total)
        for start in range(total):
            if seen[start]:
                continue
            sign, consistent = self._walk(start)
            for x in sign:
                seen[x] = 1
            if consistent:
                roots.append(start)
                k1 = len(roots)
                for x, w in sign.items():
                    code[x] = w * k1

    def _walk(self, start):
        """({pair: weight} in walk order, whether the weights close up)
        for the orbit of the pair index ``start``."""
        gen_rows = [(self.source.action[g], self.target.action[g])
                    for g in self.source.group.generators]
        nN = self.target.rank
        sign = {start: 1}
        consistent = True
        frontier = [start]
        while frontier:
            x = frontier.pop()
            i, j = divmod(x, nN)
            for m_row, n_row in gen_rows:
                i2, s = m_row[i]
                j2, t = n_row[j]
                y = i2 * nN + j2
                w = sign[x] * s * t
                if y in sign:
                    if sign[y] != w:
                        consistent = False
                else:
                    sign[y] = w
                    frontier.append(y)
        return sign, consistent

    def __len__(self):
        return len(self.roots)

    def map(self, coeffs):
        """The map sum_k c_k (basis map k) for the coefficient vector
        ``coeffs`` {k: c_k}, checked.  Each orbit k is re-walked from its
        root, so the entries come in coefficient order and each orbit's
        in walk order; orbits are disjoint, so no entry is met twice."""
        nN = self.target.rank
        acc = {}
        for k, c in coeffs.items():
            for x, w in self._walk(self.roots[k])[0].items():
                acc[divmod(x, nN)[::-1]] = c if w == 1 else -c
        return EquivMap(self.source, self.target, acc)


def equivariant_hom_basis(M, N):
    """The basis maps of ``HomOrbits(M, N)`` as a list of EquivMaps, each
    holding its orbit support (at most |G| nonzero entries); a map's
    ``root_pair`` is the (source, target) index pair that starts its
    orbit."""
    H = HomOrbits(M, N)
    out = [H.map({k: M.ring.one}) for k in range(len(H))]
    for em, x in zip(out, H.roots):
        em.root_pair = divmod(x, N.rank)
    return out


# ---------------------------------------------------------------------------
# sign decomposition along an index-2 subgroup

class SignDecompositionError(ValueError):
    pass


def sign_decompose(M, S):
    """Split M as Mplus (+) L (x) Mminus along the index-2 subgroup S.

    L is the sign module of S.  e_x lands in Mplus when its orbit closes
    up in HomOrbits(R, M) (trivial stabilizer character), else in Mminus
    when it closes up in HomOrbits(L, M) (the character of L); anything
    else raises SignDecompositionError at the orbit's root.  Returns
    (Mplus, Mminus, iso), iso the monomial (+-1) isomorphism
    BlockModule(Mplus, L (x) Mminus) -> M.
    """
    G, ring = M.group, M.ring
    L = sign_module(G, S, ring)
    plus = HomOrbits(trivial_module(G, ring), M)
    minus = HomOrbits(L, M)
    plus_idx, minus_idx = [], []
    for x in range(M.rank):
        if plus.code[x]:
            plus_idx.append(x)
        elif minus.code[x]:
            minus_idx.append(x)
        else:
            raise SignDecompositionError(
                "orbit at basis index %d resists sign decomposition "
                "along %s" % (x, S.describe()))
    Mplus, plus_iso = _resigned(plus, plus_idx)
    Mminus, minus_iso = _resigned(minus, minus_idx, len(plus_idx))
    dom = BlockModule(G, ring, [("+", Mplus),
                                ("-", tensor_module(L, Mminus))])
    iso = EquivMap(dom.module, M, {**plus_iso, **minus_iso})
    return Mplus, Mminus, iso


def _resigned(H, members, offset=0):
    """M = H.target on the basis v_x = c_x e_x, x in ``members``
    (ascending, each with a nonzero code, c_x its sign), with the
    character of the rank-one source L = H.source divided out of the
    action: g.v_x = L(g) s c_x c_y v_y for g.e_x = s e_y.  Returns the
    module and the entries {(x, offset + k): c_x} of L (x) (it) -> M,
    the k-th basis vector going to v_x."""
    M, code = H.target, H.code
    sign = {x: 1 if code[x] > 0 else -1 for x in members}
    back = {x: k for k, x in enumerate(members)}
    action = []
    for row, ((_, t),) in zip(M.action, H.source.action):
        out = []
        for x in members:
            y, s = row[x]
            out.append((back[y], t * s * sign[x] * sign[y]))
        action.append(tuple(out))
    basis = tuple(M.basis[x] for x in members)
    return (SignedPermModule(M.group, M.ring, basis, tuple(action)),
            {(x, offset + k): sign[x] for k, x in enumerate(members)})


def map_inverse_monomial(f):
    """Invert an EquivMap with exactly one nonzero entry, a unit, in
    each row."""
    ring = f.ring
    n = f.source.rank
    rows = _index(f.entries, 0)
    if f.target.rank != n or len(rows) != n or any(
            len(hits) != 1 or not ring.is_unit(hits[0][1])
            for hits in rows.values()):
        raise ValueError("map is not monomial with unit entries")
    inv = {}
    for r, [(c, v)] in rows.items():
        inv[(c, r)] = ring.inv(v)
    return EquivMap(f.target, f.source, inv)


def rebase_to_permutation(M):
    """Rewrite M on a sign-adjusted basis with all signs +1, when possible.

    Returns (Mperm, iso: Mperm -> M) or None if some orbit's stabilizer
    character is nontrivial (then no permutation basis exists), that is
    when some code of HomOrbits(R, M) is 0.
    """
    H = HomOrbits(trivial_module(M.group, M.ring), M)
    if not all(H.code):
        return None
    Mperm, iso = _resigned(H, range(M.rank))
    return Mperm, EquivMap(Mperm, M, iso)


def base_change_module(M, ring2):
    """The same basis and action over a new coefficient ring."""
    return SignedPermModule(M.group, ring2, M.basis, M.action)


def is_induced_from(M, S):
    """Permutation-module test: every stabilizer character is trivial
    and every orbit stabilizer is subconjugate to S (then M is
    isomorphic to a module induced from S).  Stabilizers are read at
    the roots of HomOrbits(R, M)."""
    G = M.group
    H = HomOrbits(trivial_module(G, M.ring), M)
    if not all(H.code):
        return False
    for x in H.roots:
        stab = Subgroup(G, [g for g in G.elements() if M.action[g][x][0] == x])
        if not any(stab.conjugate(g) <= S for g in G.elements()):
            return False
    return True
