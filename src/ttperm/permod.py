"""Signed permutation modules and equivariant maps between them.

A signed permutation module is a free module with a distinguished basis
X such that every group element sends a basis vector to a basis vector
or its negative: ``g . e_i = s * e_j`` with ``s`` in {+1, -1}.  A
permutation module is the special case where every sign is +1.  Over
GF(2) the two notions coincide and signs are erased on construction.

Conventions used throughout the package:

* the action is stored as ``act[g][i] = (j, s)`` meaning g.e_i = s e_j;
* an ``EquivMap`` is its ``entries``, the dict {(row, col): value} of
  its nonzero entries; rows index the target basis and columns the
  source basis, and the map acts on coordinate columns,
  f(e_c) = sum_r E[(r, c)] f_r.  Every map is built from entries and
  read through them: composites are sparse products of nonzeros
  (``_left_mul``, ``_right_mul``) and ``rows`` gives the row dicts
  that elimination reads, columns ascending within each row;
* basis labels are nested tuples of strings/ints, so they stay hashable,
  deterministic, and JSON-serializable (tuples become lists in JSON).
"""

from .grp import Group, Subgroup


class SignedPermModule:
    def __init__(self, group, ring, basis, action):
        self.group = group
        self.ring = ring
        self.basis = tuple(basis)
        n = len(self.basis)
        if ring.characteristic == 2:
            action = tuple(tuple((j, 1) for (j, s) in row) for row in action)
        else:
            action = tuple(tuple((int(j), int(s)) for (j, s) in row)
                           for row in action)
        assert len(action) == group.order
        for row in action:
            assert len(row) == n
            assert sorted(j for (j, _) in row) == list(range(n)), \
                "action rows must be signed permutations"
            assert all(s in (1, -1) for (_, s) in row)
        e = group.identity
        assert all(action[e][i] == (i, 1) for i in range(n)), \
            "identity must act trivially"
        for g in group.elements():
            for h in group.elements():
                gh = group.mul(g, h)
                for i in range(n):
                    j, s = action[h][i]
                    k, t = action[g][j]
                    jj, ss = action[gh][i]
                    assert (k, s * t if ring.characteristic != 2 else 1) == \
                        (jj, ss), "action is not a homomorphism"
        self.action = action
        # {target module: equivariant_hom_basis(self, target)}, filled by
        # homotopy._hom_basis; it lives and dies with this module
        self.hom_bases = {}

    @property
    def rank(self):
        return len(self.basis)

    def act(self, g, i):
        return self.action[g][i]

    def is_permutation(self):
        return all(s == 1 for row in self.action for (_, s) in row)

    def orbits(self):
        """Orbit data of the G-action on the basis (up to sign).

        Returns a list of dicts, one per orbit, with keys:

        * ``members``: sorted tuple of basis indices;
        * ``root``: the smallest index;
        * ``path_sign``: {index: sign} with ``g_x . e_root = sign * e_x``
          for the element ``path_elt[index]``;
        * ``path_elt``: {index: group element} realizing the above;
        * ``stabilizer``: Subgroup of elements fixing the root line;
        * ``character``: {element of stabilizer: sign on e_root};
        * ``consistent``: False when two paths to the same basis vector
          disagree in sign (possible for signed modules only).
        """
        G = self.group
        seen = set()
        out = []
        for root in range(self.rank):
            if root in seen:
                continue
            path_sign = {root: 1}
            path_elt = {root: G.identity}
            consistent = True
            frontier = [root]
            while frontier:
                x = frontier.pop()
                for g in G.elements():
                    y, s = self.action[g][x]
                    sign_y = path_sign[x] * s
                    if y in path_sign:
                        if path_sign[y] != sign_y:
                            consistent = False
                    else:
                        path_sign[y] = sign_y
                        path_elt[y] = G.mul(g, path_elt[x])
                        frontier.append(y)
            members = tuple(sorted(path_sign))
            seen.update(members)
            stab_elems = []
            character = {}
            for g in G.elements():
                j, s = self.action[g][root]
                if j == root:
                    stab_elems.append(g)
                    character[g] = s
            out.append({
                "members": members,
                "root": root,
                "path_sign": path_sign,
                "path_elt": path_elt,
                "stabilizer": Subgroup(G, stab_elems),
                "character": character,
                "consistent": consistent,
            })
        return out

    def __repr__(self):
        return "SignedPermModule(%s, rank %d over %s)" % (
            self.group.name, self.rank, self.ring.name)


class EquivMap:
    """A G-equivariant linear map between signed permutation modules,
    held as ``entries`` {(row, col): value}, normalized and nonzero.

    Equivariance is checked on construction, on the nonzero entries.
    """

    def __init__(self, source, target, entries):
        assert source.group is target.group
        assert source.ring is target.ring
        self.source = source
        self.target = target
        self.ring = source.ring
        self.entries = _normalized(self.ring, entries)
        assert all(0 <= r < target.rank and 0 <= c < source.rank
                   for (r, c) in self.entries)
        self._check_equivariance()

    def _check_equivariance(self):
        """M[g.r][g.i] = s t M[r][i] for every g and every nonzero (r, i),
        where g.e_i = s e_(g.i) and g.f_r = t f_(g.r).

        Checking nonzero entries only suffices: if g moves a zero entry
        onto a nonzero one, g^-1 moves that nonzero entry onto the zero.
        """
        src, tgt = self.source, self.target
        E = self.entries
        norm = self.ring.normalize
        for g in src.group.elements():
            sact, tact = src.action[g], tgt.action[g]
            for (r, i), v in E.items():
                r2, t = tact[r]
                i2, s = sact[i]
                assert E.get((r2, i2)) == (v if s == t else norm(-v)), \
                    "map is not equivariant"

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
        """The images of the source basis vectors, as dense columns."""
        out = [[self.ring.zero] * self.target.rank
               for _ in range(self.source.rank)]
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
        """The image of a coordinate column."""
        out = [self.ring.zero] * self.target.rank
        for (r, c), v in self.entries.items():
            x = vec[c]
            if x != 0:
                out[r] += v * x
        return [self.ring.normalize(x) for x in out]

    def compose(self, other):
        """self o other (other first), the sparse product of the two
        maps' nonzeros."""
        assert other.target is self.source or \
            other.target.basis == self.source.basis
        prod = _left_mul(self.ring, _index(self.entries, 1), other.entries)
        return EquivMap(other.source, self.target, prod)

    def is_zero(self):
        return not self.entries

    def __repr__(self):
        return "EquivMap(%d x %d over %s)" % (
            self.target.rank, self.source.rank, self.ring.name)


def _index(entries, axis):
    """{k: [(other index, value)]} grouping sparse entries by their row
    (axis 0) or column (axis 1) index."""
    out = {}
    for key, v in entries.items():
        out.setdefault(key[axis], []).append((key[1 - axis], v))
    return out


def _normalized(ring, acc):
    norm = ring.normalize
    out = {}
    for key, v in acc.items():
        v = norm(v)
        if v != 0:
            out[key] = v
    return out


def _left_mul(ring, d_cols, b):
    """d . b as {(row, col): value}; ``d_cols`` is _index(d.entries, 1)
    and ``b`` a sparse entries dict."""
    acc = {}
    for (t, c), v in b.items():
        for r, a in d_cols.get(t, ()):
            acc[(r, c)] = acc.get((r, c), 0) + a * v
    return _normalized(ring, acc)


def _right_mul(ring, b, d_rows):
    """b . d as {(row, col): value}; ``d_rows`` is _index(d.entries, 0)
    and ``b`` a sparse entries dict."""
    acc = {}
    for (r, t), v in b.items():
        for c, a in d_rows.get(t, ()):
            acc[(r, c)] = acc.get((r, c), 0) + v * a
    return _normalized(ring, acc)


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
    assert subgroup.parent is group
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
    assert subgroup.index == 2, "sign module needs an index-2 subgroup"
    inside = set(subgroup.elements)
    action = tuple(((0, 1 if g in inside else -1),) for g in group.elements())
    return SignedPermModule(group, ring, ("sgn",), action)


def tensor_module(M, N):
    assert M.group is N.group and M.ring is N.ring
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


def direct_sum(M, N, tags=("a", "b")):
    assert M.group is N.group and M.ring is N.ring
    basis = tuple((tags[0], l) for l in M.basis) + \
        tuple((tags[1], l) for l in N.basis)
    off = M.rank
    action = []
    for g in M.group.elements():
        row = [ (j, s) for (j, s) in M.action[g] ]
        row += [ (j + off, s) for (j, s) in N.action[g] ]
        action.append(tuple(row))
    return SignedPermModule(M.group, M.ring, basis, tuple(action))


def dual_module(M):
    """Dual basis with the contragredient action.

    For signed permutation modules the dual action has the same
    permutation and the same signs: if g.e_i = s e_j then g.e_i* = s e_j*.
    """
    basis = tuple(("d", l) for l in M.basis)
    return SignedPermModule(M.group, M.ring, basis, M.action)


# ---------------------------------------------------------------------------
# induction / restriction

_AS_GROUP_CACHE = {}


def subgroup_as_group(S):
    """A Subgroup as a standalone Group, plus the element embedding.

    Cached per (ambient group, element set) so repeated restrictions
    share one Group object; maps between restricted modules require
    identical group objects.  The cached value pins the ambient group:
    an id-based key is only sound while the keyed object stays alive.
    """
    key = (id(S.parent), S.elements)
    if key in _AS_GROUP_CACHE:
        return _AS_GROUP_CACHE[key][:2]
    elems = S.elements
    pos = {x: i for i, x in enumerate(elems)}
    table = [[pos[S.parent.mul(a, b)] for b in elems] for a in elems]
    names = [S.parent.element_names[x] for x in elems]
    H = Group(table, "%s<%s" % (S.describe(), S.parent.name), names)
    _AS_GROUP_CACHE[key] = (H, elems, S.parent)
    return H, elems


def induce_from(M, S):
    """Ind_H^G(M) for M a module over subgroup_as_group(S)[0].

    Basis vectors are labelled ("ind", coset rep, inner label); the
    coset representatives are the smallest members of the left cosets.
    """
    G = S.parent
    H_elems = set(S.elements)
    pos_in_H = {x: i for i, x in enumerate(S.elements)}
    reps = S.coset_reps()
    rep_of = {}
    for r in reps:
        for h in S.elements:
            rep_of[G.mul(r, h)] = r
    rep_index = {r: k for k, r in enumerate(reps)}
    basis = tuple(("ind", r, l) for r in reps for l in M.basis)
    m = M.rank
    action = []
    for g in G.elements():
        row = []
        for r in reps:
            gr = G.mul(g, r)
            r2 = rep_of[gr]
            h = G.mul(G.inv(r2), gr)
            assert h in H_elems
            hrow = M.action[pos_in_H[h]]
            for i in range(m):
                j, s = hrow[i]
                row.append((rep_index[r2] * m + j, s))
        action.append(tuple(row))
    return SignedPermModule(G, M.ring, basis, tuple(action))


def restrict(M, S):
    """Res_H(M): same basis, action restricted along subgroup_as_group(S)."""
    assert S.parent is M.group
    H, elems = subgroup_as_group(S)
    action = tuple(M.action[x] for x in elems)
    return SignedPermModule(H, M.ring, M.basis, action)


# ---------------------------------------------------------------------------
# equivariant hom bases and invariants

def equivariant_hom_basis(M, N):
    """A lattice basis of Hom_{RG}(M, N), one map per consistent orbit.

    G acts on basis pairs (i, j) by g.(i, j) = (gi, gj) weighted by the
    product of the two signs; each orbit whose sign weights close up
    consistently contributes the equivariant map supported on it.
    Orbits with inconsistent signs contribute nothing (they would need
    2 to be invertible to split; over GF(2) signs are already erased).

    Each map is built from its signed orbit support, so it holds at
    most |G| nonzero entries; ``root_pair`` is the (source, target)
    index pair that starts its orbit.
    """
    assert M.group is N.group and M.ring is N.ring
    G = M.group
    ring = M.ring
    one = ring.one
    minus_one = ring.normalize(-one)
    nN = N.rank
    total = M.rank * nN
    assigned = {}
    out = []
    for start in range(total):
        if start in assigned:
            continue
        sign = {start: 1}
        consistent = True
        frontier = [start]
        while frontier:
            x = frontier.pop()
            i, j = divmod(x, nN)
            for g in G.elements():
                i2, s = M.action[g][i]
                j2, t = N.action[g][j]
                y = i2 * nN + j2
                w = sign[x] * s * t
                if y in sign:
                    if sign[y] != w:
                        consistent = False
                else:
                    sign[y] = w
                    frontier.append(y)
        assigned.update(sign)
        if not consistent:
            continue
        entries = {}
        for x, w in sign.items():
            i, j = divmod(x, nN)
            entries[(j, i)] = one if w == 1 else minus_one
        em = EquivMap(M, N, entries)
        em.root_pair = divmod(start, nN)
        out.append(em)
    return out


def invariant_basis(M):
    """Column vectors spanning M^G (one orbit-sum per consistent orbit)."""
    maps = equivariant_hom_basis(trivial_module(M.group, M.ring), M)
    return [f.columns()[0] for f in maps]


# ---------------------------------------------------------------------------
# sign decomposition along an index-2 subgroup

class SignDecompositionError(ValueError):
    pass


def sign_decompose(M, S):
    """Split M as Mplus (+) L (x) Mminus along the index-2 subgroup S.

    L is the sign module of S.  Each basis orbit is inspected through
    its stabilizer character chi: trivial chi lands in Mplus, chi equal
    to the sign character of G/S lands in Mminus, anything else raises
    SignDecompositionError.  Returns (Mplus, Mminus, iso) where iso is
    the equivariant isomorphism direct_sum(Mplus, L (x) Mminus) -> M.
    iso is monomial with entries +-1, so map_inverse_monomial inverts
    it cheaply.
    """
    assert S.index == 2
    G = M.group
    ring = M.ring
    inside = set(S.elements)
    eps = {g: (1 if g in inside else -1) for g in G.elements()}
    plus_entries = []   # (original index, sign) in M-order
    minus_entries = []
    for orb in M.orbits():
        chi = orb["character"]
        if all(s == 1 for s in chi.values()):
            ok_plus = orb["consistent"]
            if ok_plus:
                for x in orb["members"]:
                    plus_entries.append((x, orb["path_sign"][x]))
                continue
        if all(chi[g] == eps[g] for g in chi):
            # twist the path signs by eps to land in L (x) (permutation)
            sign = {orb["root"]: 1}
            elt = {orb["root"]: G.identity}
            frontier = [orb["root"]]
            ok = True
            while frontier:
                x = frontier.pop()
                for g in G.elements():
                    y, s = M.action[g][x]
                    w = sign[x] * s * eps[g]
                    if y in sign:
                        if sign[y] != w:
                            ok = False
                    else:
                        sign[y] = w
                        elt[y] = G.mul(g, elt[x])
                        frontier.append(y)
            if ok:
                for x in orb["members"]:
                    minus_entries.append((x, sign[x]))
                continue
        raise SignDecompositionError(
            "orbit at basis index %d resists sign decomposition along %s"
            % (orb["root"], S.describe()))
    plus_entries.sort()
    minus_entries.sort()

    def submodule(entries, twist):
        # on the adjusted basis v_x = sgn[x] e_x the action of g is
        # v_x |-> (s sgn[x] sgn[y]) v_y; the abstract plus/minus module
        # divides out the sign twist recorded by ``twist``
        idx = [x for (x, _) in entries]
        back = {x: k for k, (x, _) in enumerate(entries)}
        sgn = {x: s for (x, s) in entries}
        basis = tuple(M.basis[x] for x in idx)
        action = []
        for g in G.elements():
            row = []
            for x in idx:
                y, s = M.action[g][x]
                row.append((back[y], s * sgn[x] * sgn[y] * twist[g]))
            action.append(tuple(row))
        return basis, tuple(action), idx, sgn

    ones = {g: 1 for g in G.elements()}
    pb, pa, pidx, psgn = submodule(plus_entries, ones)
    Mplus = SignedPermModule(G, ring, pb, pa)
    mb, ma, midx, msgn = submodule(minus_entries, eps)
    Mminus = SignedPermModule(G, ring, mb, ma)
    L = sign_module(G, S, ring)
    dom = direct_sum(Mplus, tensor_module(L, Mminus), tags=("+", "-"))
    iso = EquivMap(dom, M, {(x, k): s for k, (x, s)
                            in enumerate(plus_entries + minus_entries)})
    return Mplus, Mminus, iso


def map_inverse_monomial(f):
    """Invert an EquivMap with exactly one nonzero entry, a unit, in
    each row."""
    ring = f.ring
    n = f.source.rank
    assert f.target.rank == n
    rows = _index(f.entries, 0)
    assert len(rows) == n and all(len(hits) == 1 for hits in rows.values()), \
        "map is not monomial"
    inv = {}
    for r, [(c, v)] in rows.items():
        assert ring.is_unit(v)
        inv[(c, r)] = ring.inv(v)
    return EquivMap(f.target, f.source, inv)


def rebase_to_permutation(M):
    """Rewrite M on a sign-adjusted basis with all signs +1, when possible.

    Returns (Mperm, iso: Mperm -> M) or None if some orbit's stabilizer
    character is nontrivial (then no permutation basis exists).
    """
    ring = M.ring
    entries = []
    for orb in M.orbits():
        if not orb["consistent"] or \
                any(s != 1 for s in orb["character"].values()):
            return None
        for x in orb["members"]:
            entries.append((x, orb["path_sign"][x]))
    entries.sort()
    basis = tuple(M.basis[x] for (x, _) in entries)
    sgn = {x: s for (x, s) in entries}
    action = []
    for g in M.group.elements():
        row = []
        for (x, _) in entries:
            y, s = M.action[g][x]
            row.append((y, s * sgn[x] * sgn[y]))
        action.append(tuple(row))
    Mperm = SignedPermModule(M.group, ring, basis, tuple(action))
    iso = EquivMap(Mperm, M, {(x, k): s for k, (x, s) in enumerate(entries)})
    return Mperm, iso


def base_change_module(M, ring2):
    """The same basis and action over a new coefficient ring."""
    return SignedPermModule(M.group, ring2, M.basis, M.action)


def is_induced_from(M, S):
    """Permutation-module test: every orbit stabilizer is subconjugate
    to S (then M is isomorphic to a module induced from S)."""
    G = M.group
    for orb in M.orbits():
        stab = orb["stabilizer"]
        if any(s != 1 for s in orb["character"].values()):
            return False
        if not any(stab.conjugate(g) <= S for g in G.elements()):
            return False
    return True
