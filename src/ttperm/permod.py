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
  (``_left_mul``, ``_right_mul``, ``_composite``) and ``rows`` gives
  the row dicts that elimination reads, columns ascending within each
  row;
* basis labels are nested tuples of strings/ints, so they stay hashable,
  deterministic, and JSON-serializable (tuples become lists in JSON).

Actions and maps are checked on the group's generating set S
(``Group.generators``), not on all of G: every element is a product
s_1 ... s_k of generators, so an action that is multiplicative on the
products g s, and a map that commutes with every rho(s), are a
homomorphism and an equivariant map for the whole group.  Orbits of
basis vectors and of basis pairs are closures under the generators for
the same reason.  A failed check raises ``CertificateError``, so the
checks also run under ``python -O``.
"""

from .grp import Group, Subgroup


class CertificateError(AssertionError):
    """An exact certificate check failed: a group action, an
    equivariant map, a chain-map square, d o d = 0, a homotopy identity,
    or a Smith factorization that does not re-multiply.  Raised
    explicitly, so the checks also run under ``python -O``; as an
    AssertionError it is reported by ``cli.run`` with exit status 2."""


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
        if len(action) != group.order:
            raise CertificateError("action needs one row per group element")
        indices = list(range(n))
        for row in action:
            if sorted(j for (j, _) in row) != indices or \
                    any(s not in (1, -1) for (_, s) in row):
                raise CertificateError(
                    "action rows must be signed permutations")
        if action[group.identity] != tuple((i, 1) for i in indices):
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
        * ``path_sign``: {index: sign} with ``g . e_root = sign * e_x``
          for some g with g.root = x (for every such g when the orbit is
          consistent);
        * ``stabilizer``: Subgroup of elements fixing the root line;
        * ``character``: {element of stabilizer: sign on e_root};
        * ``consistent``: False when two paths to the same basis vector
          disagree in sign (possible for signed modules only).

        The orbit is walked along generator steps.  The step signs
        w(g, x) form a cocycle, w(g h, x) = w(g, h x) w(h, x), since the
        action is a homomorphism; so signs that agree along every
        generator step agree along every group element.
        """
        G = self.group
        gen_rows = [self.action[s] for s in G.generators]
        seen = set()
        out = []
        for root in range(self.rank):
            if root in seen:
                continue
            path_sign = {root: 1}
            consistent = True
            frontier = [root]
            while frontier:
                x = frontier.pop()
                for row in gen_rows:
                    y, s = row[x]
                    sign_y = path_sign[x] * s
                    if y in path_sign:
                        if path_sign[y] != sign_y:
                            consistent = False
                    else:
                        path_sign[y] = sign_y
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

    Equivariance is checked on construction, on the nonzero entries and
    the generators of G: a map that commutes with rho(s) for every
    generator s commutes with every product of generators, which is
    every element.  The check costs O(|S| nnz).
    """

    def __init__(self, source, target, entries):
        assert source.group is target.group
        assert source.ring is target.ring
        self.source = source
        self.target = target
        self.ring = source.ring
        self.entries = _normalized(self.ring, entries)
        rows, cols = target.rank, source.rank
        assert all(0 <= r < rows and 0 <= c < cols
                   for (r, c) in self.entries)
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
        return EquivMap(other.source, self.target, _composite(self, other))

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


def _composite(f, g):
    """The entries of f o g (g first), the sparse product of the two
    maps' nonzeros; no map is built."""
    return _left_mul(f.ring, _index(f.entries, 1), g.entries)


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

def subgroup_as_group(S):
    """A Subgroup as a standalone Group, plus the element embedding.

    Kept on the ambient group (``Group.subgroup_groups``, keyed by the
    element tuple) so repeated restrictions share one Group object;
    maps between restricted modules require identical group objects.
    """
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
    index pair that starts its orbit.  Orbits are walked along generator
    steps: the pair weights form a cocycle, as in ``orbits``, so weights
    that agree along every generator step agree along every element.
    """
    assert M.group is N.group and M.ring is N.ring
    ring = M.ring
    one = ring.one
    minus_one = ring.normalize(-one)
    gen_rows = [(M.action[g], N.action[g]) for g in M.group.generators]
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
            # twist the path signs by eps to land in L (x) (permutation);
            # eps is a character, so the twisted signs are again a
            # cocycle and generator steps suffice, as in ``orbits``
            sign = {orb["root"]: 1}
            frontier = [orb["root"]]
            ok = True
            while frontier:
                x = frontier.pop()
                for g in G.generators:
                    y, s = M.action[g][x]
                    w = sign[x] * s * eps[g]
                    if y in sign:
                        if sign[y] != w:
                            ok = False
                    else:
                        sign[y] = w
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
