"""Exact homological linear algebra for complexes of permutation modules.

Everything here reduces to sparse linear algebra over Z, Q or GF(p).
Maps are ``permod.EquivMap`` entries dicts {(row, col): value} and
vectors the dicts {index: value} of their nonzero coordinates (see
``permod``); the elimination reads a map as row dicts {col: value}
through ``EquivMap.rows``, columns ascending within each row
(``_column_rows`` gives a list of column vectors the same order).
Pivot ties are broken in that order, so it decides which certificate a
solve returns; the pivot rule itself is stated on ``_diagonalize``.
Kernel vectors and the block coefficient vectors of ``_System`` list
their indices in ascending order, and a coefficient vector never holds
a zero, so a map combined from one (``HomOrbits.map``) has its entries
in a fixed order.

* ``smith_normal_form`` splits the cokernel of a sparse matrix, the
  relations of an ``FgModule``, into cyclic summands with coordinates
  and generators, from one ``_diagonalize`` pass that tracks its row
  transform; over Z the torsion is merged into a divisibility chain.
  The diagonalization and the duality of coordinates and generators
  are checked as sparse products before returning (a failure raises
  ``CertificateError``, also under ``python -O``).  Nothing here is
  dense; whether classes generate a group (``twisted._generates``) is
  read off ``_diagonalize`` as well;
* ``FgModule`` is the one homology with generators, ker d_out / im d_in
  on its own cycle basis (``underlying_homology``, ``HomGroup`` on the
  invariants complex, the ``hom_group_bruteforce`` oracle), and
  ``FgModule.coords`` the one reading of a class's coordinates;
* ``solve_sparse`` / ``kernel_sparse`` work on sparse row dictionaries
  and track column operations only, which keeps big homotopy systems
  tractable (solutions pull back through the accumulated column ops);
* ``homology_profile`` needs no generators: one sparse diagonalization
  of each differential gives its rank and, over Z, a diagonal whose
  nonunit entries normalise to the torsion invariant factors by the
  chain step of ``smith_normal_form`` (``_invariant_chain``); it checks
  d o d = 0 first (``Complex.check_square_zero``);
* certificate checks (``check_homotopy``, ``Equivalence.verify`` and,
  in ``chain``, d o d = 0 and the chain-map squares) go through the one
  identity check ``permod._check_orbit_columns``, on one column per
  G-orbit of the source basis, signed orbits included, and raise
  ``permod.CertificateError`` rather than asserting, so they survive
  ``python -O``: the two sides are built from checked ``EquivMap``s on
  modules with the terms' actions, so their difference is equivariant
  and vanishes once it vanishes there (``permod``);
  ``check_homotopy`` clears the denominators of h first, so a rational
  certificate whose complex has integral differentials is checked in
  int products;
* ``find_homotopy_equivalence`` and ``unit_equivalence`` promote a chain
  map inducing a unit on rank-one homology, searched or built, by
  contracting its mapping cone (equal complexes get the identity);
* homotopy-theoretic routines (``is_contractible``, ``null_homotopy``,
  ``chain_map_space``, ``hom_group``) solve inside the lattice of
  equivariant maps: unknowns are coefficients of the orbit
  basis of Hom_G, never raw matrix entries, so certificates found over
  Z are honest equivariant certificates.  The orbit bases are cached on
  their source module (``SignedPermModule.hom_bases``) as codes, not
  maps (``permod.HomOrbits``), and die with it.  Every system is read
  off the codes by ``_System.add_rows``: chain maps and null homotopies
  through ``_graded_system``, on the pair tables of Hom_G(X_n, Y_m);
  the fixed-point complex (``InvariantsComplex``) on ``HomOrbits(R,
  X_n)``; and each contraction step (``_contract_equivariant``), which
  builds no pair table, on ``HomOrbits(L, Res_K X_n)`` for each
  stabilizer K and sign L of a source orbit (``_sweep_step``).  Maps
  are built only from solutions; a contraction step assembles only the
  rows that the step below left free, which suffices when its P[F, F]
  = I.

Homotopies h have degree +1 and certify d h + h d = f.
"""

import os
from math import lcm

from .grp import subgroups
from .permod import (HomOrbits, EquivMap, CertificateError, SignedPermModule,
                     trivial_module, subgroup_as_group, restrict, _index,
                     _normalized, _combination, _scaled, _same_module,
                     _column_index, _column_image, _column_indexes,
                     _check_orbit_columns, _by_rows, _column_rows)


class SolverCapExceeded(Exception):
    """A solve was refused: the TTPERM_MAX_RANK environment variable is
    not a nonnegative integer, or the complex is larger than that cap."""


def _enforce_rank_cap(X):
    cap = os.environ.get("TTPERM_MAX_RANK")
    if cap and not (cap.isascii() and cap.isdigit()):
        raise SolverCapExceeded("TTPERM_MAX_RANK=%r is not a nonnegative "
                                "integer" % cap)
    if cap and X.total_rank() > int(cap):
        raise SolverCapExceeded(
            "total rank %d exceeds TTPERM_MAX_RANK=%s"
            % (X.total_rank(), cap))


# ---------------------------------------------------------------------------
# sparse elimination with column tracking

def _diagonalize(ring, rows, ncols, rhs=None):
    """Diagonalize a sparse row-dict matrix in place.

    Row operations are mirrored on ``rhs`` (list of {key: value} per
    row); column operations are accumulated in ``P`` so that solutions
    of the reduced system pull back as x = P y.  Returns
    (pivots, P, free_cols, rhs) with pivots a list of (row, col, value)
    in the order they were taken.

    The pivot rule (Markowitz's, exact) decides which pivots, and so
    which certificate, a solve returns; reports depend on it:

    * an entry v at (r, c) costs (len(row r), len(col c)) over a field
      and (|v|, len(row r), len(col c)) over Z, lengths counting the
      nonzeros of the active submatrix;
    * if some active row has length 1 (over Z: length 1 and a unit
      entry), the lowest such row gives the pivot;
    * otherwise the cheapest entry wins, ties going to the lowest row
      and, within a row, to the entry met first in the row dict's
      insertion order.

    Over Z a pivot that leaves a nonzero remainder in its column (or
    row) moves to that smaller remainder before the pivot is taken.

    The search is incremental and keeps one entry per row, never one
    per matrix entry: ``row_best[r]`` caches the cost, r and the column
    of the cheapest entry of row r.  Before each pick the rows that an
    operation touched are re-scored in full; in the other rows of a
    column whose length changed only that column's entry is compared
    with the cached best.  The pick then takes the lowest row that
    passed the early-exit test from one heap, or else the least
    (cost, row) from another; entries that a re-score or a finished
    pivot replaced are dropped when they reach the top.

    Finished pivot rows stay zero outside their pivot column and
    finished pivot columns zero outside their pivot row, so the loop
    only ever works inside the active submatrix.
    """
    # imported on first use: commands that never eliminate, such as
    # spectrum, then do not pay for it at start-up
    from heapq import heapify, heappop, heappush
    nrows = len(rows)
    if rhs is None:
        rhs = [dict() for _ in range(nrows)]
    col_rows = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)
    P = {c: {c: ring.one} for c in range(ncols)}
    active_cols = set(range(ncols))
    pivots = []
    exact = ring.is_field
    zero = ring.zero
    normalize = ring.normalize
    # row_best[r] = cost + (r, col), one flat tuple, for each live row;
    # False once the row is dead (a pivot row, or emptied).  The heap
    # ``bests`` holds the live entries and ``units`` the rows whose best
    # passed the early-exit test, both alongside stale entries, which a
    # rebuild drops once they outnumber the live rows.
    row_best = [None] * nrows
    bests = []
    units = []
    touched = {r for r in range(nrows) if rows[r]}   # rows to re-score
    nlive = len(touched)
    resized = set()          # columns whose length changed

    def row_op(r2, r1, q):
        # row r2 -= q * row r1 (and on rhs)
        row1, row2 = rows[r1], rows[r2]
        touched.add(r2)
        for c, v in row1.items():
            nv = normalize(row2.get(c, zero) - q * v)
            if nv == 0:
                if c in row2:
                    del row2[c]
                    col_rows[c].discard(r2)
                    resized.add(c)
            else:
                if c not in row2:
                    col_rows[c].add(r2)
                    resized.add(c)
                row2[c] = nv
        rb1, rb2 = rhs[r1], rhs[r2]
        for k, v in rb1.items():
            nv = normalize(rb2.get(k, zero) - q * v)
            if nv == 0:
                rb2.pop(k, None)
            else:
                rb2[k] = nv

    def col_op(c2, c1, q):
        # col c2 -= q * col c1 (and on P)
        for r in list(col_rows[c1]):
            row = rows[r]
            touched.add(r)
            nv = normalize(row.get(c2, zero) - q * row[c1])
            if nv == 0:
                if c2 in row:
                    del row[c2]
                    col_rows[c2].discard(r)
                    resized.add(c2)
            else:
                if c2 not in row:
                    col_rows[c2].add(r)
                    resized.add(c2)
                row[c2] = nv
        P1, P2 = P[c1], P[c2]
        for k, v in P1.items():
            nv = normalize(P2.get(k, zero) - q * v)
            if nv == 0:
                P2.pop(k, None)
            else:
                P2[k] = nv

    def is_unit(entry):
        return entry[0] == 1 and (exact or entry[1] == 1)

    def push(entry):
        row_best[entry[-2]] = entry
        heappush(bests, entry)
        if is_unit(entry):
            heappush(units, entry[-2])

    def rescore():
        nonlocal nlive
        # an untouched row of a resized column c keeps its entries, so
        # only c's cost moved: it replaces a cached best it beats, and
        # the row is re-scored in full when the best sits in c (its cost
        # is stale) or on a tie (dict order decides ties)
        for c in resized:
            k = len(col_rows[c])
            for r in col_rows[c]:
                best = row_best[r]
                if r in touched or best is False:
                    continue
                row = rows[r]
                cost = (len(row), k) if exact else (abs(row[c]), len(row), k)
                if best[-1] == c or cost == best[:-2]:
                    touched.add(r)
                elif cost < best[:-2]:
                    push(cost + (r, c))
        resized.clear()
        for r in touched:
            if row_best[r] is False:
                continue
            row = rows[r]
            if not row:
                row_best[r] = False
                nlive -= 1
                continue
            n = len(row)
            best = None
            if exact:
                for c in row:
                    k = len(col_rows[c])
                    if best is None or k < best:
                        best, bc = k, c
                entry = (n, best, r, bc)
            else:
                for c, v in row.items():
                    cost = (abs(v), n, len(col_rows[c]))
                    if best is None or cost < best:
                        best, bc = cost, c
                entry = best + (r, bc)
            push(entry)
        touched.clear()
        if len(bests) + len(units) > 2 * nlive + 64:
            bests[:] = [entry for entry in bests
                        if row_best[entry[-2]] is entry]
            heapify(bests)
            units[:] = [entry[-2] for entry in bests if is_unit(entry)]
            heapify(units)

    def pick_pivot():
        rescore()
        while units:
            entry = row_best[units[0]]
            if entry and is_unit(entry):
                return entry[-2:]
            heappop(units)
        while bests:
            entry = bests[0]
            if row_best[entry[-2]] is entry:
                return entry[-2:]
            heappop(bests)
        return None

    while True:
        pv = pick_pivot()
        if pv is None:
            break
        r, c = pv
        while True:
            v = rows[r][c]
            # clear the pivot column with row operations
            moved = False
            for r2 in sorted(col_rows[c]):
                if r2 == r:
                    continue
                w = rows[r2][c]
                if exact:
                    q = normalize(w * ring.inv(v))
                else:
                    q = w // v
                if q != 0:
                    row_op(r2, r, q)
                if not exact and c in rows[r2]:
                    # nonzero remainder strictly smaller than |v|:
                    # it becomes the new, better pivot
                    r = r2
                    moved = True
                    break
            if moved:
                continue
            # column is clear; clear the pivot row with column ops
            v = rows[r][c]
            dirty = False
            for c2 in sorted(rows[r]):
                if c2 == c:
                    continue
                w = rows[r][c2]
                if exact:
                    q = normalize(w * ring.inv(v))
                else:
                    q = w // v
                if q != 0:
                    col_op(c2, c, q)
                if not exact and c2 in rows[r]:
                    # remainder at (r, c2): smaller pivot, switch column
                    c = c2
                    dirty = True
                    break
            if dirty:
                continue
            break
        pivots.append((r, c, rows[r][c]))
        row_best[r] = False
        nlive -= 1
        active_cols.discard(c)
    free_cols = sorted(active_cols)
    return pivots, P, free_cols, rhs


def solve_sparse(ring, rows, ncols, rhs, return_free=False):
    """Solve A x = b for every right-hand side b in ``rhs``.

    ``rows`` is a list of {col: value} dictionaries; ``rhs`` holds the
    right-hand sides by row, {row: {key: value}}, one key per right
    side.  Returns the solutions as {key: {col: value}}, nonzeros only
    (a key whose solution is zero is absent), or None if any right side
    is infeasible (over Z this includes divisibility failures, which
    certify integral insolvability).

    With ``return_free``, returns (solutions, F): F the columns never
    pivoted on, ascending, if the column operations P (ker A = span
    P[:, F]) have P[F, F] = I, so that a kernel vector vanishing on F
    is 0; else None.  A field always has P[F, F] = I; over Z a pivot
    moved to a remainder's column can break it.
    """
    work = [dict(r) for r in rows]
    b = [{} for _ in rows]
    for r, vals in rhs.items():
        b[r] = _normalized(ring, vals)
    pivots, P, free_cols, b = _diagonalize(ring, work, ncols, b)
    out = _pull_back(ring, pivots, P, b)
    if not return_free:
        return out
    F = set(free_cols)
    if any({i: v for i, v in P[c].items() if i in F} != {c: ring.one}
           for c in free_cols):
        free_cols = None
    return out, free_cols


def _pull_back(ring, pivots, P, b):
    """``solve_sparse``'s solutions x = P y, or None, from a
    diagonalization with reduced right sides b."""
    pivot_rows = set()
    ys = {}
    for (r, c, v) in pivots:
        pivot_rows.add(r)
        for k, bv in b[r].items():
            if ring.is_field:
                y = ring.normalize(bv * ring.inv(v))
            else:
                if bv % v != 0:
                    return None
                y = bv // v
            ys.setdefault(k, {})[c] = y
    if any(br for r, br in enumerate(b) if r not in pivot_rows):
        return None
    out = {}
    for k, y in ys.items():
        x = {}
        for c, yv in y.items():
            for i, pv in P[c].items():
                x[i] = x.get(i, 0) + yv * pv
        x = _normalized(ring, x)
        if x:
            out[k] = x
    return out


def _solve_vector(ring, rows, ncols, b):
    """``solve_sparse`` for one right side, the vector b: the solution
    vector, or None."""
    sols = solve_sparse(ring, rows, ncols, {r: {0: v} for r, v in b.items()})
    return None if sols is None else sols.get(0, {})


def kernel_sparse(ring, rows, ncols):
    """A lattice/vector-space basis of ker A, as vectors, indices
    ascending."""
    work = [dict(r) for r in rows]
    pivots, P, free_cols, _ = _diagonalize(ring, work, ncols)
    return [dict(sorted(P[c].items())) for c in free_cols]


def rank_sparse(ring, rows, ncols):
    work = [dict(r) for r in rows]
    pivots, _, _, _ = _diagonalize(ring, work, ncols)
    return len(pivots)


# ---------------------------------------------------------------------------
# Smith normal form on the sparse elimination, with generators

def _xgcd(a, b):
    """(g, x, y) with g = x a + y b, a gcd of a and b, by the extended
    Euclidean algorithm; g > 0 when a and b are."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def _invariant_chain(ring, summands):
    """Torsion summands (d, phi, gamma) of R/d, d > 0 over Z, brought
    to a divisibility chain d_1 | d_2 | ..., units dropped.

    Each pair (a, b) that is not a chain, in the order i < j, becomes
    (g, lcm) with g = gcd(a, b) = x a + y b by the unimodular step
    phi' = (x phi_a + y phi_b, -(b/g) phi_a + (a/g) phi_b) and gamma' =
    ((a/g) gamma_a + (b/g) gamma_b, -y gamma_a + x gamma_b), which keeps
    phi'_i(gamma'_j) = delta_ij.  The chain comes out ascending.
    """
    out = list(summands)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            (a, phi_a, gam_a), (b, phi_b, gam_b) = out[i], out[j]
            if b % a == 0:
                continue
            g, x, y = _xgcd(a, b)
            phis, gams = [phi_a, phi_b], [gam_a, gam_b]
            out[i] = (g, _combination(ring, {0: x, 1: y}, phis),
                      _combination(ring, {0: a // g, 1: b // g}, gams))
            out[j] = (a // g * b,
                      _combination(ring, {0: -(b // g), 1: a // g}, phis),
                      _combination(ring, {0: -y, 1: x}, gams))
    return [s for s in out if s[0] != 1]


def _coordinate(ring, d, phi, v):
    """phi(v), reduced mod d when d > 0: the coordinate of the vector v
    on a summand (d, phi, gamma) of ``smith_normal_form``."""
    c = ring.normalize(sum(phi[k] * x for k, x in v.items() if k in phi))
    return c % d if d else c


def smith_normal_form(ring, rows, ncols):
    """The cokernel of the matrix A with row dicts ``rows`` (t rows,
    ``ncols`` columns) as a sum of cyclic modules: a list of (d, phi,
    gamma), one per summand R/d that is not zero, torsion first (d > 1
    over Z, ascending in a divisibility chain), then the free summands
    (d = 0).  phi, a row dict on the t coordinates, reads the summand's
    coordinate of a vector (mod d when d > 0), and gamma is its
    generator, so phi_i(gamma_j) = delta_ij and phi vanishes on the
    columns of A.

    One ``_diagonalize`` pass with the identity rows as right sides
    gives the row transform R with R A P the diagonal of its pivots (r,
    c, v).  Summand r has coordinate R[r] and generator column r of
    R^-1, from one ``solve_sparse``: torsion R/|v| at a nonunit pivot,
    free at a row without a pivot, zero (left out) at a unit pivot;
    over Z ``_invariant_chain`` then merges the torsion summands.  R A P
    and every phi_i(gamma_j) are checked as sparse products, always; a
    mismatch raises CertificateError.
    """
    t = len(rows)
    one = ring.one
    pivots, P, _, R = _diagonalize(ring, [dict(r) for r in rows], ncols,
                                   [{r: one} for r in range(t)])
    P_rows = _column_rows([P[c] for c in range(ncols)], ncols)
    diag_cols = {r: {c: v} for r, c, v in pivots}
    for r, R_r in enumerate(R):
        if _combination(ring, _combination(ring, R_r, rows),
                        P_rows) != diag_cols.get(r, {}):
            raise CertificateError("Smith transforms do not diagonalize")
    diag = {r: v for r, _, v in pivots}
    kept = [r for r in range(t) if not ring.is_unit(diag.get(r, 0))]
    inv = solve_sparse(ring, R, t, {r: {r: one} for r in kept})
    if inv is None:
        raise CertificateError("Smith row transform is not invertible")
    summands = _invariant_chain(ring, [(abs(diag[r]), R[r], inv.get(r, {}))
                                       for r in kept if r in diag])
    summands += [(ring.zero, R[r], inv.get(r, {}))
                 for r in kept if r not in diag]
    for i, (d, phi, _) in enumerate(summands):
        for j, (_, _, gamma) in enumerate(summands):
            c = _coordinate(ring, d, phi, gamma)
            if c != (1 if i == j else 0):
                raise CertificateError(
                    "Smith generator %d has coordinate %s on summand %d"
                    % (j, c, i))
    return summands


# ---------------------------------------------------------------------------
# homology with generators: ker / im on its own cycle basis

class FgModule:
    """H = ker(d_out) / im(d_in) with generator tracking.

    ``out_rows`` are the row dicts of d_out : X_n -> X_{n-1} ([] when
    it is absent), ``in_cols`` the columns of d_in : X_{n+1} -> X_n as
    vectors and ``dim`` the rank of X_n.  ``cycles``, a basis of ker
    d_out, come from ``kernel_sparse`` (the standard basis when d_out
    is absent).  The boundaries solved in that basis are the columns of
    the relations, t row dicts that ``smith_normal_form`` reads; no
    boundaries is t empty rows, whose summands are the standard basis.

    ``factors`` lists one invariant factor per retained summand: 0 for
    a free summand, d > 1 for torsion Z/d (over a field only 0 occurs).
    ``generators`` give each retained summand's generator as a cycle in
    the caller's coordinates.
    """

    def __init__(self, ring, out_rows, in_cols, dim):
        self.ring = ring
        self.dim = dim
        cycles = self.cycles = (kernel_sparse(ring, out_rows, dim) if out_rows
                                else [{j: ring.one} for j in range(dim)])
        t = len(cycles)
        self._cycle_rows = _column_rows(cycles, dim)
        rel = [{} for _ in range(t)]
        if t and in_cols:
            sols = solve_sparse(ring, self._cycle_rows, t, _by_rows(in_cols))
            if sols is None:
                raise CertificateError("boundaries must be cycles")
            rel = _column_rows([sols.get(k, {}) for k in range(len(in_cols))],
                               t)
        summands = self._summands = smith_normal_form(ring, rel, len(in_cols))
        self.factors = [d for d, _, _ in summands]
        self.generators = [_combination(ring, gamma, cycles)
                           for _, _, gamma in summands]

    def is_zero(self):
        return not self.factors

    def free_rank(self):
        return sum(1 for d in self.factors if d == 0)

    def torsion(self):
        return [d for d in self.factors if d != 0]

    def label(self):
        """Readable isomorphism label, e.g. 'Z/2 (+) Z' or 'F_3^2'."""
        if not self.factors:
            return "0"
        parts = []
        free = self.free_rank()
        for d in sorted(self.torsion()):
            parts.append("Z/%d" % d)
        if free:
            base = {"Z": "Z", "Q": "Q"}.get(self.ring.name,
                                            "F_%d" % self.ring.characteristic)
            parts.append(base if free == 1 else "%s^%d" % (base, free))
        return " (+) ".join(parts)

    def coords(self, v):
        """Reduced coordinates of the class of the cycle v, one per
        factor: v solved in the cycle basis, then reduced mod the
        factors.  ValueError if v is not a cycle."""
        ring = self.ring
        x = (_solve_vector(ring, self._cycle_rows, len(self.cycles), v)
             if all(i < self.dim for i in v) else None)
        if x is None:
            raise ValueError("vector is not a cycle")
        return tuple(_coordinate(ring, d, phi, x)
                     for d, phi, _ in self._summands)

    def iso_invariants(self):
        return (self.free_rank(), tuple(sorted(abs(d) for d in self.torsion())))

    def class_is_zero(self, v):
        return all(c == 0 for c in self.coords(v))

    def classes_equal(self, v, w, up_to_unit=False):
        """Whether the cycles v and w have the same class or, with
        ``up_to_unit``, whether v = u . w in H for some unit u.

        Scaling happens on the representative, so torsion coordinates
        are re-reduced modulo their invariant factor before comparing.
        Over Q the one candidate u is cv_i / cw_i, i the first nonzero
        coordinate cw_i of w's class.
        """
        ring = self.ring
        cv, cw = self.coords(v), self.coords(w)
        if cv == cw or not up_to_unit:
            return cv == cw
        if not ring.is_field:
            units = [-1]
        elif ring.characteristic:
            units = range(2, ring.characteristic)
        else:
            units = [ring.normalize(a * ring.inv(b))
                     for a, b in zip(cv, cw) if b != 0][:1]
        return any(u != 0 and self.coords(_scaled(ring, u, w)) == cv
                   for u in units)


# ---------------------------------------------------------------------------
# homology of a (non-equivariant) complex of free modules

def underlying_homology(X, n):
    """Homology of the underlying complex of free modules at degree n."""
    out_rows = X.diffs[n].rows() if n in X.diffs else []
    in_cols = X.diffs[n + 1].columns() if (n + 1) in X.diffs else []
    return FgModule(X.ring, out_rows, in_cols, X.term(n).rank)


def homology_profile(X):
    """{degree: iso invariants} over all degrees with nonzero homology.

    Invariants are (free rank, torsion invariant factors), as
    ``FgModule.iso_invariants`` gives them, but no generator is tracked:
    one ``_diagonalize`` pass per differential d_n gives rank d_n and,
    over Z, the diagonal it reaches by unimodular row and column
    operations.  The free rank of H_n is rank X_n - rank d_n -
    rank d_{n+1}; its torsion is the invariant factors of d_{n+1}, the
    nonunit diagonal entries normalised into a divisibility chain.
    d_n o d_{n+1} = 0 is checked first (as a sparse product), since
    complexes built with ``check=False`` are never checked otherwise.
    """
    ring = X.ring
    rank = {}
    torsion = {}
    X.check_square_zero()
    for n, d in sorted(X.diffs.items()):
        pivots = _diagonalize(ring, d.rows(), X.terms[n].rank)[0]
        rank[n] = len(pivots)
        if not ring.is_field:
            torsion[n - 1] = tuple(d for d, _, _ in _invariant_chain(
                ring, [(abs(v), {}, {}) for _, _, v in pivots]))
    out = {}
    for n, M in sorted(X.terms.items()):
        free = M.rank - rank.get(n, 0) - rank.get(n + 1, 0)
        tors = torsion.get(n, ())
        if free or tors:
            out[n] = (free, tors)
    return out


# ---------------------------------------------------------------------------
# invariants and hom groups

class InvariantsComplex:
    """The complex of G-fixed points X^G in orbit-sum coordinates.

    ``orbits[n]`` is ``HomOrbits(R, X_n)``, R the trivial module: map k
    sends 1 to the signed sum of orbit k, and these sums are a basis of
    X_n^G.  ``rows[n]`` are the rows of d_n in that basis, one per
    orbit of X_{n-1}, from one ``_System.add_rows`` call: d_n of an
    orbit sum is invariant, so its coordinates are its root entries.
    """

    def __init__(self, X):
        self.X = X
        self.ring = X.ring
        unit = trivial_module(X.group, X.ring)
        self.orbits = {n: HomOrbits(unit, M) for n, M in X.terms.items()}
        self.rows = {}
        for n, d in X.diffs.items():
            sys = _System(self.ring)
            sys.add_block(n, self.orbits[n])
            sys.add_rows(self.orbits[n - 1], [(n, d.entries, True)])
            self.rows[n] = sys.rows

    def dim(self, n):
        return len(self.orbits.get(n, ()))

    def to_ambient(self, n, coeff):
        """The invariant vector with coordinates ``coeff``, its entries
        in the order of ``HomOrbits.map``."""
        return self.orbits[n].map(coeff).columns()[0] if coeff else {}

    def from_ambient(self, n, v):
        """The coordinates of an invariant vector, its root entries;
        ValueError (a caller's bug, not a failed certificate) if v is
        not invariant."""
        roots = self.orbits[n].roots if n in self.orbits else ()
        coeff = {k: v[r] for k, r in enumerate(roots) if r in v}
        if self.to_ambient(n, coeff) != v:
            raise ValueError("vector is not invariant")
        return coeff


class HomGroup:
    """Hom_K(unit, Y[s]) = H_{-s} of the invariants complex I of Y: the
    ``FgModule`` ``fg`` in invariant coordinates, which every method
    reads through ``I.to_ambient`` and ``I.from_ambient``.

    ``generators`` lists (invariant factor, ambient cycle vector) for
    the retained summands; ambient vectors live in Y_{-s}.
    """

    def __init__(self, I, s):
        n0 = self.degree = -s
        self.ring = I.ring
        self.inv = I
        # the columns of d_{n0+1}, by transposing its rows
        in_cols = _column_rows(I.rows[n0 + 1], I.dim(n0 + 1)) \
            if (n0 + 1) in I.rows else []
        self.fg = FgModule(I.ring, I.rows.get(n0, []), in_cols, I.dim(n0))
        self.generators = [(d, I.to_ambient(n0, g)) for d, g in
                           zip(self.fg.factors, self.fg.generators)]

    def label(self):
        return self.fg.label()

    def iso_invariants(self):
        return self.fg.iso_invariants()

    def is_zero(self):
        return self.fg.is_zero()

    def coords(self, v_ambient):
        return self.fg.coords(self.inv.from_ambient(self.degree, v_ambient))

    def class_is_zero(self, v_ambient):
        return all(c == 0 for c in self.coords(v_ambient))

    def classes_equal(self, v, w, up_to_unit=False):
        coeff = self.inv.from_ambient
        return self.fg.classes_equal(coeff(self.degree, v),
                                     coeff(self.degree, w), up_to_unit)


def hom_group(Y, s):
    """Hom_K(unit, Y[s]), kept on Y (``Complex.hom_groups``) and built
    once per shift; every shift shares one InvariantsComplex of Y.  The
    rank cap is checked on every call, cached or not."""
    _enforce_rank_cap(Y)
    cache = Y.hom_groups
    if s not in cache:
        I = next(iter(cache.values())).inv if cache else InvariantsComplex(Y)
        cache[s] = HomGroup(I, s)
    return cache[s]


def hom_group_bruteforce(Y, s):
    """Independent recomputation of hom_group from raw coordinates.

    Equivariance is imposed as explicit linear equations g.v = v, not
    through orbit sums; homotopies are quotiented out the same way.
    Intended as an oracle for complexes of total rank <= 40.
    """
    if Y.total_rank() > 40:
        raise ValueError("oracle is limited to total rank 40")
    ring = Y.ring
    G = Y.group
    n0 = -s
    M0 = Y.term(n0)

    def equivariance_rows(M):
        # for each g and basis row i of M, (g.v - v)_i = 0
        rows = []
        for g in G.elements():
            for i in range(M.rank):
                row = {}
                j, sg = M.act(g, i)
                row[i] = ring.normalize(row.get(i, ring.zero) + sg)
                row[j] = ring.normalize(row.get(j, ring.zero) - ring.one)
                if any(v != 0 for v in row.values()):
                    rows.append({c: v for c, v in row.items() if v != 0})
        return rows

    rows = equivariance_rows(M0)
    # cycle condition d v = 0
    if n0 in Y.diffs:
        rows.extend(row for row in Y.diffs[n0].rows() if row)
    # boundaries of equivariant vectors one degree up
    M1 = Y.term(n0 + 1)
    brows = equivariance_rows(M1)
    inv1 = kernel_sparse(ring, brows, M1.rank) if M1.rank else []
    bcols = []
    if (n0 + 1) in Y.diffs:
        d1 = Y.diffs[n0 + 1]
        for w in inv1:
            bcols.append(d1.apply(w))
    fg = FgModule(ring, rows, bcols, M0.rank)
    return fg, list(zip(fg.factors, fg.generators))


# ---------------------------------------------------------------------------
# equivariant linear systems for maps and homotopies

class _System:
    """A sparse linear system whose unknowns are coefficients of
    equivariant orbit-basis maps, grouped in named blocks; ``rhs`` is
    the right side, a vector over the rows."""

    def __init__(self, ring):
        self.ring = ring
        self.blocks = {}
        self.ncols = 0
        self.rows = []
        self.rhs = {}

    def add_block(self, tag, basis):
        if tag in self.blocks:
            raise ValueError("duplicate block tag %r" % (tag,))
        self.blocks[tag] = (self.ncols, basis)
        self.ncols += len(basis)

    def add_rows(self, proj, contributions, rhs=None, kept=None):
        """One equation row per orbit of ``proj``, the ``HomOrbits`` of
        the projection Hom_G(M, N), in root order, empty or not: the root
        entry of the sum of the contributions equals that of ``rhs``.
        ``kept`` (ascending orbit numbers) restricts the rows to those
        orbits; the others are not assembled.

        ``contributions``: list of (tag, d, left), the composites d o b
        (``left``) or b o d of the block's basis maps b with a map d
        given by its entries.  At the root pair (i, j) the coefficient
        of unknown k is sum_t d[j, t] b_k[t, i] (or b_k[j, t] d[t, i]),
        read off row j (or column i) of d and the codes of the block's
        orbit table; no product is formed.  ``rhs``: entries dict whose
        root entries give the right side.

        Columns come in contribution order and k ascending within a
        block, the order pivot ties follow; a coefficient that
        normalises to 0 is dropped.  An empty row never holds a pivot,
        and rows keep their relative order, so empty rows do not move
        the pivots of the others.
        """
        ring = self.ring
        zero = ring.zero
        norm = ring.normalize
        parts = []
        for tag, d, left in contributions:
            off, basis = self.blocks[tag]
            parts.append((off, basis.code, left, _index(d, 0 if left else 1),
                          basis.target.rank))
        nN = proj.target.rank
        roots = proj.roots
        for x in roots if kept is None else (roots[e] for e in kept):
            i, j = divmod(x, nN)
            row = {}
            for off, code, left, lines, nB in parts:
                # b_k[t, i] has pair index i nB + t, b_k[j, t] t nB + j
                line = lines.get(j if left else i, ())
                base, step = (i * nB, 1) if left else (j, nB)
                acc = {}
                for t, a in line:
                    c = code[base + t * step]
                    if c > 0:
                        acc[c] = acc.get(c, zero) + a
                    elif c < 0:
                        acc[-c] = acc.get(-c, zero) - a
                for c in sorted(acc):
                    v = norm(acc[c])
                    if v != 0:
                        row[off + c - 1] = v
            b = zero if rhs is None else rhs.get((j, i), zero)
            if b != 0:
                self.rhs[len(self.rows)] = b
            self.rows.append(row)

    def bases(self):
        """{tag: basis} of the blocks, in block order."""
        return {tag: basis for tag, (_, basis) in self.blocks.items()}

    def _split(self, x):
        """{tag: {k: coefficient on basis k of the block}} for a vector
        x of unknowns, k ascending."""
        return {tag: {k: x[off + k] for k in range(len(basis))
                      if off + k in x}
                for tag, (off, basis) in self.blocks.items()}

    def solve(self):
        x = _solve_vector(self.ring, self.rows, self.ncols, self.rhs)
        return None if x is None else self._split(x)

    def kernel(self):
        return [self._split(x)
                for x in kernel_sparse(self.ring, self.rows, self.ncols)]


class _BasisCount:
    """The number of hom bases computed and cached on their source
    modules in this process; ``len`` reads it, as it would the size of
    a cache dict (``perfbench/tracer.py`` reads it that way)."""

    count = 0

    def __len__(self):
        return self.count


_HOM_BASIS_CACHE = _BasisCount()


def _hom_basis(M, N):
    """HomOrbits(M, N), cached on M for as long as M lives."""
    basis = M.hom_bases.get(N)
    if basis is None:
        basis = M.hom_bases[N] = HomOrbits(M, N)
        _HOM_BASIS_CACHE.count += 1
    return basis


def _graded_system(X, Y, k, degrees, rhs=None):
    """The system d u - (-1)^k u d = rhs for an equivariant map u of
    degree k from X to Y, with u_n in Hom_G(X_n, Y_{n+k}) for n in
    ``degrees`` (degrees of X, sorted) and zero elsewhere.

    Degree n adds a block of unknowns, tagged n, on the orbit basis of
    Hom_G(X_n, Y_{n+k}) when that basis is not empty, and then the
    equation d_{n+k} u_n - (-1)^k u_{n-1} d_n = rhs_n, projected on the
    roots of Hom_G(X_n, Y_{n+k-1}) by ``_System.add_rows``.  The left
    contribution (block n, d^Y) comes before the right one (block n-1,
    d^X).  ``rhs``: {n: entries}, an omitted degree counting as zero.
    k = 0 gives chain maps, k = 1 null homotopies.
    """
    sys = _System(X.ring)
    for n in degrees:
        if (n + k) in Y.terms:
            basis = _hom_basis(X.terms[n], Y.terms[n + k])
            if basis:
                sys.add_block(n, basis)
    for n in degrees:
        if (n + k - 1) not in Y.terms:
            continue
        contributions = []
        if n in sys.blocks and (n + k) in Y.diffs:
            contributions.append((n, Y.diffs[n + k].entries, True))
        if (n - 1) in sys.blocks and n in X.diffs:
            d = X.diffs[n].entries
            if k % 2 == 0:
                d = {key: -v for key, v in d.items()}
            contributions.append((n - 1, d, False))
        sys.add_rows(_hom_basis(X.terms[n], Y.terms[n + k - 1]),
                     contributions, rhs.get(n) if rhs else None)
    return sys


def _maps(bases, vector):
    """{n: the map with coefficients vector[n] on bases[n]}: a solution
    or kernel vector of a ``_graded_system``, or a combination of them,
    turned into maps in the order of ``vector``; zero maps are left
    out."""
    maps = {n: bases[n].map(c) for n, c in vector.items() if c}
    return {n: f for n, f in maps.items() if not f.is_zero()}


def null_homotopy(F):
    """Solve d h + h d = F for an equivariant degree +1 homotopy.

    F is a ChainMap.  Returns {n: EquivMap X_n -> Y_{n+1}} or None.
    """
    sys = _graded_system(F.source, F.target, 1, sorted(F.source.terms),
                         {n: f.entries for n, f in F.components.items()})
    sol = sys.solve()
    return None if sol is None else _maps(sys.bases(), sol)


def check_homotopy(X, Y, f, h):
    """Check d h + h d = f exactly for maps X -> Y, column by column at
    ``orbit_starts`` of X_n (``permod._check_orbit_columns``); raises
    CertificateError otherwise.  Only the compact column indexes of the
    maps that degree n reads are alive at degree n.

    ``h`` is {n: EquivMap X_n -> Y_{n+1}} on X.terms[n] and Y.terms[n+1]
    or modules with their basis and action, else ValueError, also under
    ``python -O``.  ``f`` must be the entries {n: entries} of an
    equivariant map (an omitted degree is zero), or a ring value c for
    c id; its callers pass id, |G| id (``koszul``), id - g f on the
    representatives (``Equivalence.verify``) or chain-map components
    (``twisted.certified_null_homotopy``).

    Denominators are cleared first: with D the lcm of the denominators
    of the entries of h and f, the check is d(Dh) + (Dh)d = D f.  That
    holds exactly when d h + h d = f does (Q is a domain and D != 0),
    and Dh and D f are integral, so over Q the products multiply ints
    wherever d is integral.  D = 1 over Z and GF(p)."""
    ring = X.ring
    for n, g in h.items():
        if not (n in X.terms and (n + 1) in Y.terms and
                _same_module(g.source, X.terms[n]) and
                _same_module(g.target, Y.terms[n + 1])):
            raise ValueError("h_%d is not X_%d -> Y_%d" % (n, n, n + 1))
    if not isinstance(f, dict):     # c id, on the columns read
        c = ring.normalize(f)
        f = {n: {(i, i): c for i in M.orbit_starts()} if c else {}
             for n, M in X.terms.items()}
    D = lcm(*{v.denominator for E in [g.entries for g in h.values()]
              + list(f.values()) for v in E.values()})
    index = {}
    for n, M in X.terms.items():
        hn, hb = h.get(n), h.get(n - 1)
        dY, dX = Y.diffs.get(n + 1), X.diffs.get(n)
        index = _column_indexes(index, (hn, hb, dY, dX), D, 2)
        # (the index read at column c, the index applied to it)
        pairs = [(index[a], index[b]) for a, b in ((hn, dY), (dX, hb))
                 if a in index and b in index]
        start, rows, vals = _column_index(f.get(n, {}), M.rank, D)
        _check_orbit_columns(
            M, pairs, "homotopy identity fails at degree %d" % n,
            lambda c: {rows[k]: vals[k]
                       for k in range(start[c], start[c + 1])})
    return True


class ContractionCertificate:
    def __init__(self, X, h):
        self.X = X
        self.h = h

    def verify(self):
        return check_homotopy(self.X, self.X, self.X.ring.one, self.h)

    @classmethod
    def carried(cls, h, Y):
        """The contraction h {n: entries} on Y, its complex itself or a
        base change of it (same groups and bases): every entry, a value
        of Y.ring or an integer, is normalized over Y.ring by the map,
        which keeps h's own dict when nothing changes.  Not verified
        here; a ring map carries d h + h d = id to the same identity
        over Y.ring."""
        return cls(Y, {n: EquivMap(Y.terms[n], Y.terms[n + 1], entries)
                       for n, entries in h.items()})

    def to_json(self):
        from .chain import _map_to_json
        return {"kind": "contraction",
                "h": {str(n): _map_to_json(f) for n, f in self.h.items()}}


class NonContractibleWitness:
    def __init__(self, reason, degree=None, invariants=None):
        self.reason = reason
        self.degree = degree
        self.invariants = invariants

    def to_json(self):
        return {"kind": "witness", "reason": self.reason,
                "degree": self.degree,
                "invariants": list(self.invariants or ())}

    def __repr__(self):
        return "NonContractibleWitness(%s at degree %s)" % (
            self.reason, self.degree)


def _average_homotopy(X, raw):
    """The sum of the conjugates rho(g) h rho(g)^-1 of a raw contraction
    h, in h's values (ints for an integral h): it commutes with the
    action and d sum + sum d = |G| id, so sum / |G| is an equivariant
    contraction when |G| is invertible.  Returns {n: EquivMap}.
    """
    G = X.group
    out = {}
    for n, E in raw.items():
        src, tgt = X.terms[n], X.terms[n + 1]
        acc = {}
        for g in G.elements():
            # entry (a, b) of h moves to (g.a, g.b), times both signs
            sact, tact = src.action[g], tgt.action[g]
            for (a, b), v in E.items():
                ap, sa = tact[a]
                bp, sb = sact[b]
                acc[(ap, bp)] = acc.get((ap, bp), 0) + (v if sa == sb else -v)
        total = EquivMap(src, tgt, acc)
        if not total.is_zero():
            out[n] = total
    return out


def _source_classes(M):
    """The G-orbits of M's basis grouped by stabilizer class:
    {(K, chi): [(j, spread)]}, j the smallest index of an orbit, K the
    stabilizer of e_j (elements ascending), chi the signs by which K
    fixes e_j, in K's order, and ``spread`` {j2: (g, s)} with
    g.e_j = s e_j2, one g for each member j2 of the orbit."""
    classes = {}
    seen = bytearray(M.rank)
    for j in range(M.rank):
        if seen[j]:
            continue
        K, chi, spread = [], [], {}
        for g in M.group.elements():
            j2, s = M.action[g][j]
            if j2 == j:
                K.append(g)
                chi.append(s)
            if j2 not in spread:
                spread[j2] = (g, s)
                seen[j2] = 1
        classes.setdefault((tuple(K), tuple(chi)), []).append((j, spread))
    return classes


def _fixed_orbits(M, K, chi):
    """``HomOrbits(L, Res_K M)``, L the rank-one module on which the
    subgroup K acts by the signs chi: orbit k sends 1 to the signed sum
    of a (K, chi)-orbit of M's basis, and these sums are a basis of the
    (K, chi)-invariants of M.  Returns the table and, for each orbit,
    the (index, sign) pairs of its sum.  K's lattice Subgroup and L are
    kept on the group (``Group.rank_one_modules``)."""
    cache = M.group.rank_one_modules
    if (K, chi, M.ring) not in cache:
        S = next(T for T in subgroups(M.group) if T.elements == K)
        cache[K, chi, M.ring] = S, SignedPermModule(
            subgroup_as_group(S)[0], M.ring, ("chi",),
            tuple(((0, s),) for s in chi))
    S, L = cache[K, chi, M.ring]
    T = HomOrbits(L, restrict(M, S))
    members = [[] for _ in T.roots]
    for x, c in enumerate(T.code):
        if c:
            members[abs(c) - 1].append((x, 1 if c > 0 else -1))
    return T, members


def _sweep_step(source, d, b, C, n, tables, kept_rows):
    """The equivariant x : source -> C_{n+1} with d x(e_j) = b(j) in C_n
    on each orbit e_j, and the free columns F by class if P[F, F] = I,
    or None.  By Frobenius reciprocity x(e_j) is any invariant of e_j's
    stabilizer and sign (K, chi), spread as x(g.e_j): one solve per
    class, on the rows ``kept_rows[cls]`` (all when absent) of the
    ``_fixed_orbits`` of C_n and C_{n+1}, kept in ``tables``."""
    ring, target = source.ring, d.source
    entries, free_rows = {}, {}
    for cls, reps in _source_classes(source).items():
        for m in (n, n + 1):
            if (m, cls) not in tables:
                tables[m, cls] = _fixed_orbits(C.term(m), *cls)
        (eqs, _), (unknowns, members) = tables[n, cls], tables[n + 1, cls]
        kept = kept_rows.get(cls, range(len(eqs)))
        sys = _System(ring)
        sys.add_block(0, unknowns)
        sys.add_rows(eqs, [(0, d.entries, True)], kept=kept)
        row_of = {eqs.roots[e]: i for i, e in enumerate(kept)}
        rhs = {}
        for j, _ in reps:
            for r, v in b(j).items():
                if r in row_of:
                    rhs.setdefault(row_of[r], {})[j] = v
        sols, free = solve_sparse(ring, sys.rows, sys.ncols, rhs,
                                  return_free=True)
        if sols is None:
            return None
        if free is not None:
            free_rows[cls] = free
        for j, spread in reps:
            x = [(y, c if w == 1 else -c)
                 for k, c in sols.get(j, {}).items()
                 for y, w in members[k]]
            for j2, (g, s) in spread.items():
                act = target.action[g]
                for y, v in x:
                    y2, t = act[y]
                    entries[y2, j2] = v if s == t else -v
    return EquivMap(source, target, entries), free_rows


def _contract_equivariant(X):
    """Equivariant greedy contraction, degree by degree from the bottom:
    solve d_{n+1} h_n = b = id - h_{n-1} d_n by ``_sweep_step``.  Returns
    {n: EquivMap} or None.

    Step n keeps only the rows F that step n-1 of its class left free
    (row e and step n-1's column e are both orbit e of X_n's table).
    The residual d_{n+1} x - b_j is a (K, chi)-invariant cycle, as b_j
    is, so it lies in step n-1's kernel, span P[:, F]; with P[F, F] = I
    one that vanishes on F is 0, and the rows F, rank d_{n+1} of them
    when X is contractible, solve the step.  A field always has P[F, F]
    = I; over Z, when a remainder's column breaks it, the next step
    keeps every row, as a class with no step n-1 does.

    The sweep is complete: if a contraction h* exists, h*_n b solves
    step n (b lands in cycles, and d splits off cycles when the complex
    is contractible), the kept rows being a subset of the full system;
    and a successful sweep is itself a contraction, the top identity
    holding by injectivity of the top differential.
    """
    ring = X.ring
    h, tables, kept_rows = {}, {}, {}
    for n in sorted(X.terms):
        dcols = _index(X.diffs[n].entries, 1) if n in X.diffs else {}
        hcols = _index(h[n - 1].entries, 1) if (n - 1) in h else {}

        def b(j):
            acc = {j: ring.one}          # e_j - h_{n-1} d_n e_j
            for t, a in dcols.get(j, ()):
                for r, v in hcols.get(t, ()):
                    acc[r] = acc.get(r, 0) - a * v
            return _normalized(ring, acc)
        # at the top degree X_{n+1} is the zero module: no unknowns, so
        # the step holds only where b = 0
        step = _sweep_step(X.terms[n], X.diff(n + 1), b, X, n, tables,
                           kept_rows)
        if step is None:
            return None
        f, kept_rows = step
        if not f.is_zero():
            h[n] = f
    return h


def _lift_chain_map(X, Y, f0):
    """The chain map X -> Y with degree-0 component f0, lifted upward by
    ``_sweep_step``s (rows kept as in a contraction), or None."""
    from .chain import ChainMap
    comps, tables, kept_rows = {0: f0}, {}, {}
    for n in range(1, X.max_degree + 1):
        dX = X.diff(n).columns()
        step = _sweep_step(X.term(n), Y.diff(n),
                           lambda j: comps[n - 1].apply(dX[j]), Y, n - 1,
                           tables, kept_rows)
        if step is None:
            return None
        comps[n], kept_rows = step
    return ChainMap(X, Y, comps)


def is_contractible(X):
    """(True, ContractionCertificate) or (False, witness).

    Contractibility means an equivariant contraction d h + h d = id
    exists over the coefficient ring; the certificate stores h and can
    be re-verified.  Every ring takes one path, the greedy sweep of
    ``_contract_equivariant``, one solve per stabilizer class and
    degree, on the rows that the step below leaves free when its P[F, F]
    = I, feasible exactly when all rows are.  Failure first looks for
    nonzero homology of the underlying complex, then reports the
    equivariant system as infeasible.  Its callers are the cones of
    ``_try_equivalence`` and ``koszul.verify_koszul`` when it is given
    no certificate (the from-scratch recheck); ``kos`` builds its
    contraction along the tower instead.
    """
    if X.is_zero():
        return True, ContractionCertificate(X, {})
    _enforce_rank_cap(X)
    h = _contract_equivariant(X)
    if h is not None:
        cert = ContractionCertificate(X, h)
        cert.verify()
        return True, cert
    prof = homology_profile(X)
    if prof:
        n = min(prof)
        return False, NonContractibleWitness(
            "nonzero homology of the underlying complex",
            degree=n, invariants=prof[n])
    return False, NonContractibleWitness(
        "underlying complex is exact but no equivariant contraction "
        "exists over %s" % X.ring.name)


def chain_map_space(X, Y):
    """A lattice basis of the space of chain maps X -> Y, as
    (bases, vectors): ``bases`` {n: HomOrbits of Hom_G(X_n, Y_n)} and
    each vector {n: {k: nonzero coefficient on bases[n][k]}}, k
    ascending.  No map is built here; ``_chain_map`` builds (and so
    checks) one when it is needed."""
    sys = _graded_system(X, Y, 0, sorted(X.terms))
    # the orbit-basis maps of one degree have disjoint supports, so a
    # vector gives the zero map exactly when all its coefficients vanish
    return sys.bases(), [v for v in sys.kernel() if any(v.values())]


def _chain_map(X, Y, bases, vector):
    """The chain map X -> Y with coefficients ``vector`` on ``bases``;
    ChainMap checks its squares."""
    from .chain import ChainMap
    return ChainMap(X, Y, _maps(bases, vector))


def _combine_vectors(vectors, coeffs):
    """sum_i coeffs_i vectors_i, with the basis indices of each degree
    in order of first use: a map built in that order has the entry
    order of the sum of the maps of the vectors, which elimination
    reads for its pivot ties."""
    out = {}
    for c, vec in zip(coeffs, vectors):
        if c == 0:
            continue
        for n, xs in vec.items():
            acc = out.setdefault(n, {})
            for k, x in xs.items():
                acc[k] = acc.get(k, 0) + c * x
    return out


class Equivalence:
    """A verified homotopy equivalence f : X -> Y with quasi-inverse g."""

    def __init__(self, f, g, h, hp):
        self.f = f
        self.g = g
        self.h = h       # d h + h d = id_X - g f
        self.hp = hp     # d hp + hp d = id_Y - f g

    def verify(self):
        """Check both homotopy identities; f and g are chain maps, so
        their squares were checked when they were built.  id - g f is
        formed on the orbit columns, which ``check_homotopy`` reads."""
        for first, then, h in ((self.f, self.g, self.h),
                               (self.g, self.f, self.hp)):
            X, rhs = first.source, {}
            for n, M in X.terms.items():
                pair = [tuple(_column_index(g.entries, g.source.rank)
                              for g in (first.component(n),
                                        then.component(n)))]
                acc = {}
                for c in M.orbit_starts():
                    for r, v in _column_image(c, pair).items():
                        acc[(r, c)] = -v
                    acc[(c, c)] = acc.get((c, c), 0) + 1
                rhs[n] = _normalized(X.ring, acc)
            check_homotopy(X, X, rhs, h)
        return True


class NotEquivalent:
    def __init__(self, reason, degree=None, left=None, right=None):
        self.reason = reason
        self.degree = degree
        self.left = left
        self.right = right

    def __repr__(self):
        return "NotEquivalent(%s at degree %s: %s vs %s)" % (
            self.reason, self.degree, self.left, self.right)


class Inconclusive:
    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return "Inconclusive(%s)" % self.reason


def find_homotopy_equivalence(X, Y):
    """A homotopy equivalence X -> Y (an Equivalence), a NotEquivalent
    witness (homology profiles differ), or Inconclusive.

    Structurally equal X and Y get the identity, its own quasi-inverse
    with zero homotopies; no cone is built.  Otherwise the homology must
    be free of rank one in one degree: an endomorphism of an invertible
    object is a scalar, so f is fixed up to homotopy by the unit it
    induces there.  f is the combination of the chain-map lattice basis
    inducing a unit, promoted by contracting its mapping cone
    (``_try_equivalence``); anything else is Inconclusive.  Its callers
    are ``twisted.restriction_check`` and transports that are not built;
    the benchmark's per-layer metrics name it.
    """
    from .chain import ChainMap, structurally_equal
    if structurally_equal(X, Y):
        f, g = (ChainMap(A, B, {n: EquivMap(M, B.terms[n],
                                            {(i, i): 1 for i in range(M.rank)})
                                for n, M in A.terms.items()})
                for A, B in ((X, Y), (Y, X)))
        eq = Equivalence(f, g, {}, {})
        eq.verify()
        return eq
    profX, profY = homology_profile(X), homology_profile(Y)
    for n in sorted(set(profX) | set(profY)):
        if profX.get(n) != profY.get(n):
            return NotEquivalent("homology profiles differ", degree=n,
                                 left=profX.get(n), right=profY.get(n))
    conc = [n for n, inv in profX.items() if inv != (0, ())]
    if len(conc) != 1 or profX[conc[0]] != (1, ()):
        return Inconclusive("homology is not free of rank one in one degree")
    n0 = conc[0]
    bases, space = chain_map_space(X, Y)
    # the generator cycle of H_{n0}(X) and the class of its image in
    # H_{n0}(Y) = Z, of the same profile, under each basis map
    vX = underlying_homology(X, n0).generators[0]
    fgY = underlying_homology(Y, n0)
    scalars = []
    for v in space:
        f = _maps(bases, {n0: v.get(n0)}).get(n0)
        scalars.append(fgY.coords(f.apply(vX) if f else {})[0])
    combo = _unit_combination(X.ring, scalars)
    eq = combo is not None and _try_equivalence(
        _chain_map(X, Y, bases, _combine_vectors(space, combo)))
    return eq or Inconclusive("no chain map inducing a unit on homology "
                              "has a contractible cone over %s" % X.ring.name)


def unit_equivalence(f, n0):
    """The chain map f : X -> Y, both with homology R in degree n0, scaled
    to send the generator class of H_n0(X) to coordinate 1 on that of Y
    (``find_homotopy_equivalence``'s rule) and promoted by
    ``_try_equivalence``: an Equivalence, or Inconclusive."""
    from .chain import ChainMap
    X, Y, ring = f.source, f.target, f.source.ring
    vX = underlying_homology(X, n0).generators[0]
    c = underlying_homology(Y, n0).coords(f.component(n0).apply(vX))[0]
    if ring.is_unit(c) and c != 1:
        f = ChainMap(X, Y, {n: EquivMap(g.source, g.target, _scaled(
            ring, ring.inv(c), g.entries)) for n, g in f.components.items()})
    return ring.is_unit(c) and _try_equivalence(f) or Inconclusive(
        "the candidate induces %s on H_%d, or its cone is not "
        "contractible" % (c, n0))


def _unit_combination(ring, scalars):
    """Integer coefficients c with sum c_i . s_i a unit, if possible."""
    vals = [(i, s) for i, s in enumerate(scalars) if s != 0]
    if not vals:
        return None
    if ring.is_field:
        i, s = vals[0]
        out = [ring.zero] * len(scalars)
        out[i] = ring.inv(s)
        return out
    g, coeff = vals[0][1], {vals[0][0]: 1}
    for i, s in vals[1:]:
        if abs(g) == 1:
            break
        g, x, y = _xgcd(g, s)
        coeff = {k: v * x for k, v in coeff.items()}
        coeff[i] = coeff.get(i, 0) + y
    if abs(g) != 1:
        return None
    out = [0] * len(scalars)
    for k, v in coeff.items():
        out[k] = v
    return out


def _try_equivalence(f):
    """Promote a candidate chain map to an equivalence, if possible.

    f is an equivalence exactly when cone(f) is contractible.  From a
    contraction s of the cone, written in blocks on
    cone_j = Y_j (+) X_{j-1} as s_j = [[a, b], [c, e]], the block
    g = c is a chain-map quasi-inverse, h = -e contracts id_X - g f
    and hp = a contracts id_Y - f g.
    """
    from .chain import ChainMap, cone
    X, Y = f.source, f.target
    ok, cert = is_contractible(cone(f))
    if not ok:
        return None
    g_comps, h, hp = {}, {}, {}
    for j, sj in cert.h.items():
        ry, rx = Y.term(j).rank, X.term(j - 1).rank
        ry1, rx1 = Y.term(j + 1).rank, X.term(j).rank
        # cone_j = Y_j (+) X_{j-1} -> cone_{j+1} = Y_{j+1} (+) X_j
        ys, xs = range(ry), range(ry, ry + rx)
        yt, xt = range(ry1), range(ry1, ry1 + rx1)
        c = sj.block(xt, ys)
        if c:
            g_comps[j] = EquivMap(Y.terms[j], X.terms[j], c)
        e = sj.block(xt, xs)
        if e:
            h[j - 1] = EquivMap(X.terms[j - 1], X.terms[j],
                                {k: -v for k, v in e.items()})
        a = sj.block(yt, ys)
        if a:
            hp[j] = EquivMap(Y.terms[j], Y.terms[j + 1], a)
    eq = Equivalence(f, ChainMap(Y, X, g_comps), h, hp)
    eq.verify()
    return eq
