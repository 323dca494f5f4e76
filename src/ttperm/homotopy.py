"""Exact homological linear algebra for complexes of permutation modules.

Everything here reduces to sparse linear algebra over Z, Q or GF(p).
Maps are ``permod.EquivMap`` entries dicts {(row, col): value}; the
elimination reads a map as row dicts {col: value} through
``EquivMap.rows``, columns ascending within each row (``sparse_rows``
gives small dense matrices the same order).  Pivot ties are broken in
that order, so it decides which certificate a solve returns; the
pivot rule itself is stated on ``_diagonalize``.

* ``smith_normal_form`` returns (U, D, V) with A = U . D . V, U and V
  invertible over the ring, D diagonal with a divisibility chain; the
  factorization is re-multiplied and checked before returning (a
  failure raises ``CertificateError``, also under ``python -O``).  It
  serves generator tracking only (``FgModule`` on small relation
  matrices, for ``underlying_homology`` and hom groups) and is the one
  dense computation left;
* ``solve_sparse`` / ``kernel_sparse`` work on sparse row dictionaries
  and track column operations only, which keeps big homotopy systems
  tractable (solutions pull back through the accumulated column ops);
* ``homology_profile`` needs no generators: one sparse diagonalization
  of each differential gives its rank and, over Z, a diagonal whose
  nonunit entries normalise to the torsion invariant factors; it checks
  d o d = 0 as a sparse product first;
* certificate checks (``check_homotopy``, and in ``chain`` the
  chain-map squares and d o d = 0) compare the nonzeros of sparse
  products and raise ``permod.CertificateError`` rather than asserting,
  so they survive ``python -O``;
* homotopy-theoretic routines (``is_contractible``, ``null_homotopy``,
  ``find_homotopy_equivalence``, ``hom_group``) search inside the
  lattice of equivariant maps: unknowns are coefficients of the orbit
  basis of Hom_G, never raw matrix entries, so certificates found over
  Z are honest equivariant certificates.  The orbit bases are cached on
  their source module (``SignedPermModule.hom_bases``) and die with it.

Homotopies h have degree +1 and certify d h + h d = f.
"""

import os
from math import gcd

from .permod import (equivariant_hom_basis, EquivMap, CertificateError,
                     _index, _normalized, _left_mul, _right_mul, _composite)
from .rings import mat_identity, mat_mul


class SolverCapExceeded(Exception):
    """A solve was refused because the complex is larger than the cap
    set in the TTPERM_MAX_RANK environment variable."""


def _enforce_rank_cap(X):
    cap = os.environ.get("TTPERM_MAX_RANK")
    if cap and X.total_rank() > int(cap):
        raise SolverCapExceeded(
            "total rank %d exceeds TTPERM_MAX_RANK=%s"
            % (X.total_rank(), cap))


# ---------------------------------------------------------------------------
# sparse elimination with column tracking

def sparse_rows(matrix):
    """Row dictionaries {col: value} for the nonzero entries of a small
    dense matrix, columns ascending (as ``EquivMap.rows`` gives them)."""
    return [ {c: v for c, v in enumerate(row) if v != 0} for row in matrix ]


def _by_rows(cols):
    """{row: {k: value}} for the nonzeros of the dense columns cols[k]:
    the matrix they form, or right-hand sides for ``solve_sparse``."""
    out = {}
    for k, col in enumerate(cols):
        for r, v in enumerate(col):
            if v != 0:
                out.setdefault(r, {})[k] = v
    return out


def _column_rows(cols, nrows):
    """``sparse_rows`` of the matrix whose columns are ``cols``."""
    by_rows = _by_rows(cols)
    return [by_rows.get(r, {}) for r in range(nrows)]


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
    of the cheapest entry of row r.  Before each pick only the rows that an
    operation touched, and every row of a column whose length changed,
    are re-scored.  The pick then takes the lowest row that passed the
    early-exit test from one heap, or else the least (cost, row) from
    another; entries that a re-score or a finished pivot replaced are
    dropped when they reach the top.

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

    def rescore():
        nonlocal nlive
        for c in resized:
            touched.update(col_rows[c])
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
            row_best[r] = entry
            heappush(bests, entry)
            if is_unit(entry):
                heappush(units, r)
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


def solve_sparse(ring, rows, ncols, rhs):
    """Solve A x = b for every right-hand side b in ``rhs``.

    ``rows`` is a list of {col: value} dictionaries; ``rhs`` holds the
    right-hand sides by row, {row: {key: value}}, one key per right
    side.  Returns the solutions as {key: {col: value}}, nonzeros only
    (a key whose solution is zero is absent), or None if any right side
    is infeasible (over Z this includes divisibility failures, which
    certify integral insolvability).
    """
    work = [dict(r) for r in rows]
    b = [{} for _ in rows]
    for r, vals in rhs.items():
        b[r] = _normalized(ring, vals)
    pivots, P, _, b = _diagonalize(ring, work, ncols, b)
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
    """``solve_sparse`` for one dense right side b: the solution as a
    dense list of length ``ncols``, or None."""
    sols = solve_sparse(ring, rows, ncols,
                        {r: {0: v} for r, v in enumerate(b) if v != 0})
    if sols is None:
        return None
    x = sols.get(0, {})
    return [x.get(c, ring.zero) for c in range(ncols)]


def _boundary_relations(ring, cycles, dim, bcols):
    """The boundary columns ``bcols`` in the coordinates of the cycle
    basis ``cycles`` (columns of length ``dim``): the dense relations
    matrix, one column per boundary."""
    t = len(cycles)
    sols = solve_sparse(ring, _column_rows(cycles, dim), t, _by_rows(bcols))
    assert sols is not None, "boundaries must be cycles"
    rel = [[ring.zero] * len(bcols) for _ in range(t)]
    for k, x in sols.items():
        for i, v in x.items():
            rel[i][k] = v
    return rel


def kernel_sparse(ring, rows, ncols):
    """A lattice/vector-space basis of ker A, as dense column vectors."""
    work = [dict(r) for r in rows]
    pivots, P, free_cols, _ = _diagonalize(ring, work, ncols)
    out = []
    for c in free_cols:
        x = [ring.zero] * ncols
        for i, pv in P[c].items():
            x[i] = pv
        out.append(x)
    return out


def rank_sparse(ring, rows, ncols):
    work = [dict(r) for r in rows]
    pivots, _, _, _ = _diagonalize(ring, work, ncols)
    return len(pivots)


# ---------------------------------------------------------------------------
# Smith normal form (dense, fully tracked, for small matrices)

def smith_normal_form(ring, A):
    """(U, D, V) with A = U . D . V over the ring.

    D is diagonal; over Z the diagonal entries are nonnegative and form
    a divisibility chain d1 | d2 | ...; U and V are invertible (over Z:
    determinant +-1).  The factorization is re-multiplied and checked
    before returning, always; a mismatch raises CertificateError.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [ [ring.normalize(v) for v in row] for row in A ]
    U = mat_identity(ring, m)
    V = mat_identity(ring, n)
    zero = ring.zero

    def row_op(r2, r1, q):
        # D: row r2 -= q row r1;  U: col r1 += q col r2
        for c in range(n):
            D[r2][c] = ring.normalize(D[r2][c] - q * D[r1][c])
        for i in range(m):
            U[i][r1] = ring.normalize(U[i][r1] + q * U[i][r2])

    def col_op(c2, c1, q):
        # D: col c2 -= q col c1;  V: row c1 += q row c2
        for r in range(m):
            D[r][c2] = ring.normalize(D[r][c2] - q * D[r][c1])
        for j in range(n):
            V[c1][j] = ring.normalize(V[c1][j] + q * V[c2][j])

    def row_swap(r1, r2):
        D[r1], D[r2] = D[r2], D[r1]
        for i in range(m):
            U[i][r1], U[i][r2] = U[i][r2], U[i][r1]

    def col_swap(c1, c2):
        for r in range(m):
            D[r][c1], D[r][c2] = D[r][c2], D[r][c1]
        V[c1], V[c2] = V[c2], V[c1]

    def row_negate(r):
        for c in range(n):
            D[r][c] = ring.normalize(-D[r][c])
        for i in range(m):
            U[i][r] = ring.normalize(-U[i][r])

    exact = ring.is_field

    def reduce_at(t):
        """Clear row and column t, pivot at (t, t)."""
        while True:
            # find a pivot in the trailing submatrix
            pr = pc = None
            best = None
            for r in range(t, m):
                for c in range(t, n):
                    v = D[r][c]
                    if v != 0:
                        key = 0 if exact else abs(v)
                        if best is None or key < best:
                            best, pr, pc = key, r, c
            if pr is None:
                return False
            if pr != t:
                row_swap(t, pr)
            if pc != t:
                col_swap(t, pc)
            while True:
                v = D[t][t]
                done = True
                for r in range(t + 1, m):
                    w = D[r][t]
                    if w == 0:
                        continue
                    q = ring.normalize(w * ring.inv(v)) if exact else w // v
                    if q != 0:
                        row_op(r, t, q)
                    if D[r][t] != 0:
                        row_swap(t, r)
                        done = False
                        break
                if not done:
                    continue
                v = D[t][t]
                for c in range(t + 1, n):
                    w = D[t][c]
                    if w == 0:
                        continue
                    q = ring.normalize(w * ring.inv(v)) if exact else w // v
                    if q != 0:
                        col_op(c, t, q)
                    if D[t][c] != 0:
                        col_swap(t, c)
                        done = False
                        break
                if done:
                    return True

    t = 0
    while t < min(m, n):
        if not reduce_at(t):
            break
        t += 1
    rank = t

    if not exact:
        # divisibility chain and sign normalization
        changed = True
        while changed:
            changed = False
            for i in range(rank - 1):
                a, b = D[i][i], D[i + 1][i + 1]
                if b % a != 0:
                    # fold the pair: col i += col i+1, then re-reduce
                    col_op(i, i + 1, ring.normalize(-ring.one))
                    tt = i
                    while tt < rank:
                        if not reduce_at(tt):
                            break
                        tt += 1
                    changed = True
                    break
        for i in range(rank):
            if D[i][i] < 0:
                row_negate(i)
    else:
        # over a field normalize pivots to 1, compensating in U
        for i in range(rank):
            v = D[i][i]
            if v != ring.one:
                D[i][i] = ring.one
                for r in range(m):
                    U[r][i] = ring.normalize(U[r][i] * v)

    prod = mat_mul(ring, mat_mul(ring, U, D), V)
    if any(prod[r][c] != ring.normalize(A[r][c])
           for r in range(m) for c in range(n)):
        raise CertificateError("Smith factorization failed to re-multiply")
    return U, D, V


def matrix_inverse(ring, A):
    n = len(A)
    sols = solve_sparse(ring, sparse_rows(A), n,
                        {r: {r: ring.one} for r in range(n)})
    assert sols is not None, "matrix is not invertible over %s" % ring.name
    inv = [[ring.zero] * n for _ in range(n)]
    for c, x in sols.items():
        for r, v in x.items():
            inv[r][c] = v
    return inv


# ---------------------------------------------------------------------------
# finitely generated modules presented by relations

class FgModule:
    """Z^t (or k^t) modulo the column span of a relations matrix.

    ``factors`` lists one invariant factor per retained summand: 0 for
    a free summand, d > 1 for torsion Z/d (over a field only 0 occurs).
    ``generators`` give each retained summand's generator in the
    ambient t-dimensional coordinates.
    """

    def __init__(self, ring, t, relations):
        self.ring = ring
        self.t = t
        if t == 0:
            self.factors = []
            self.generators = []
            self._Uinv = []
            self._all_factors = []
            return
        if not relations or len(relations[0]) == 0:
            # no relations: free of rank t on the standard basis
            self._Uinv = mat_identity(ring, t)
            self._all_factors = [ring.zero] * t
            self.factors = list(self._all_factors)
            self.generators = [
                [ring.one if r == i else ring.zero for r in range(t)]
                for i in range(t)]
            return
        U, D, V = smith_normal_form(ring, relations)
        self._Uinv = matrix_inverse(ring, U)
        s = len(relations[0])
        diag = [D[i][i] if i < s else ring.zero for i in range(t)]
        self._all_factors = diag
        self.factors = []
        self.generators = []
        for i, d in enumerate(diag):
            if d != 0 and ring.is_unit(d):
                continue
            self.factors.append(d)
            self.generators.append([U[r][i] for r in range(t)])

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
        """Reduced coordinates of an ambient vector, one per factor."""
        assert len(v) == self.t
        if self.t == 0:
            return ()
        y = [sum(self._Uinv[i][j] * v[j] for j in range(self.t))
             for i in range(self.t)]
        out = []
        for i, d in enumerate(self._all_factors):
            c = self.ring.normalize(y[i])
            if d == 0:
                out.append((i, c))
            elif self.ring.is_unit(d):
                continue
            else:
                out.append((i, self.ring.normalize(c % d)))
        # unit factors must absorb their coordinate exactly (they are
        # relations of the form e_i = 0 up to change of basis)
        return tuple(c for (_, c) in out)

    def iso_invariants(self):
        return (self.free_rank(), tuple(sorted(abs(d) for d in self.torsion())))

    def same_class(self, v, w):
        return self.coords(v) == self.coords(w)

    def class_is_zero(self, v):
        return all(c == 0 for c in self.coords(v))


def _units_of(ring):
    if ring.name == "Z":
        return [1, -1]
    if ring.is_field and ring.characteristic:
        return [ring.normalize(u) for u in range(1, ring.characteristic)]
    return None   # Q: infinitely many; handled by ratio


def classes_equal_up_to_unit(fg, v, w):
    """Whether v = u . w in the presented module for some unit u.

    Scaling happens on the representative, so torsion coordinates are
    re-reduced modulo their invariant factor before comparing.
    """
    ring = fg.ring
    if fg.same_class(v, w):
        return True
    units = _units_of(ring)
    if units is not None:
        return any(fg.same_class(v, [ring.normalize(u * c) for c in w])
                   for u in units)
    # over Q scale by the ratio of the first nonzero coordinates
    cv, cw = fg.coords(v), fg.coords(w)
    for a, b in zip(cv, cw):
        if b != 0:
            u = a / b
            return u != 0 and fg.same_class(
                v, [ring.normalize(u * c) for c in w])
    return all(c == 0 for c in cv)


# ---------------------------------------------------------------------------
# homology of a (non-equivariant) complex of free modules

def homology_from_matrices(ring, out_rows, in_cols, dim):
    """H = ker(d_out) / im(d_in) with generator tracking.

    ``out_rows``: row dicts of d_out : X_n -> X_{n-1} (may be [] when
    absent); ``in_cols``: the columns of d_in : X_{n+1} -> X_n as dense
    vectors; ``dim`` = rank of X_n.  Returns (FgModule over cycle
    coordinates, cycle basis as ambient columns).  Generators in
    ambient coordinates are K . g.
    """
    if dim == 0:
        return FgModule(ring, 0, []), []
    if out_rows:
        cycles = kernel_sparse(ring, out_rows, dim)
    else:
        cycles = [[ring.one if i == j else ring.zero for i in range(dim)]
                  for j in range(dim)]
    t = len(cycles)
    if t == 0:
        return FgModule(ring, 0, []), []
    rel = _boundary_relations(ring, cycles, dim, in_cols) if in_cols else []
    return FgModule(ring, t, rel), cycles


def underlying_homology(X, n):
    """Homology of the underlying complex of free modules at degree n."""
    out_rows = X.diffs[n].rows() if n in X.diffs else []
    in_cols = X.diffs[n + 1].columns() if (n + 1) in X.diffs else []
    return homology_from_matrices(X.ring, out_rows, in_cols, X.term(n).rank)


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
    for n, d in sorted(X.diffs.items()):
        if (n + 1) in X.diffs and _composite(d, X.diffs[n + 1]):
            raise CertificateError("d o d != 0 at degree %d" % n)
        pivots = _diagonalize(ring, d.rows(), X.terms[n].rank)[0]
        rank[n] = len(pivots)
        if not ring.is_field:
            torsion[n - 1] = _invariant_factors([v for (_, _, v) in pivots])
    out = {}
    for n, M in sorted(X.terms.items()):
        free = M.rank - rank.get(n, 0) - rank.get(n + 1, 0)
        tors = torsion.get(n, ())
        if free or tors:
            out[n] = (free, tors)
    return out


def _invariant_factors(diagonal):
    """Invariant factors of diag(diagonal) over Z, units dropped: the
    chain d_1 | d_2 | ... with the same prime-power exponents, reached
    by replacing pairs with their gcd and lcm."""
    ds = [abs(v) for v in diagonal if abs(v) != 1]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return tuple(v for v in ds if v != 1)


# ---------------------------------------------------------------------------
# invariants and hom groups

def invariant_data(M):
    """(columns, roots): orbit-sum basis of M^G and one root index each."""
    from .permod import trivial_module
    maps = equivariant_hom_basis(trivial_module(M.group, M.ring), M)
    cols = []
    roots = []
    for f in maps:
        cols.append(f.columns()[0])
        roots.append(f.root_pair[1])
    return cols, roots


def _in_invariant_coords(ring, cols, roots, v):
    """Coordinates of an invariant vector in the orbit-sum basis."""
    coeff = [v[r] for r in roots]
    check = [ring.zero] * len(v)
    for k, col in enumerate(cols):
        if coeff[k] == 0:
            continue
        for i, x in enumerate(col):
            if x != 0:
                check[i] = ring.normalize(check[i] + coeff[k] * x)
    assert [ring.normalize(x) for x in v] == check, \
        "vector is not invariant"
    return coeff


class InvariantsComplex:
    """The complex of G-fixed points, in orbit-sum coordinates."""

    def __init__(self, X):
        self.X = X
        self.ring = X.ring
        self.cols = {}
        self.roots = {}
        self.dcols = {}
        for n, M in X.terms.items():
            cols, roots = invariant_data(M)
            self.cols[n] = cols
            self.roots[n] = roots
        for n in X.terms:
            if (n - 1) not in X.terms or n not in X.diffs:
                continue
            dn = X.diffs[n]
            # d_n in invariant coordinates, one column per orbit sum
            self.dcols[n] = [_in_invariant_coords(
                self.ring, self.cols[n - 1], self.roots[n - 1], dn.apply(col))
                for col in self.cols[n]]

    def dim(self, n):
        return len(self.cols.get(n, []))

    def to_ambient(self, n, coeff):
        v = [self.ring.zero] * self.X.term(n).rank
        for k, c in enumerate(coeff):
            if c == 0:
                continue
            for i, x in enumerate(self.cols[n][k]):
                if x != 0:
                    v[i] = self.ring.normalize(v[i] + c * x)
        return v

    def from_ambient(self, n, v):
        return _in_invariant_coords(self.ring, self.cols.get(n, []),
                                    self.roots.get(n, []), v)


class HomGroup:
    """Hom_K(unit, Y[s]) = H_{-s} of the invariants complex I of Y.

    ``generators`` lists (invariant factor, ambient cycle vector) for
    the retained summands; ambient vectors live in Y_{-s}.
    """

    def __init__(self, I, s):
        self.Y = I.X
        self.s = s
        self.ring = I.ring
        n0 = -s
        self.degree = n0
        self.inv = I
        out_rows = _column_rows(I.dcols[n0], I.dim(n0 - 1)) \
            if n0 in I.dcols else []
        fg, cycles = homology_from_matrices(
            self.ring, out_rows, I.dcols.get(n0 + 1, []), I.dim(n0))
        self.fg = fg
        self.cycles = cycles      # in invariant coordinates
        self.generators = []
        for d, g in zip(fg.factors, fg.generators):
            coeff = [self.ring.zero] * I.dim(n0)
            for k, gk in enumerate(g):
                if gk != 0:
                    for i, ck in enumerate(cycles[k]):
                        coeff[i] = self.ring.normalize(coeff[i] + gk * ck)
            self.generators.append((d, I.to_ambient(n0, coeff)))

    def label(self):
        return self.fg.label()

    def iso_invariants(self):
        return self.fg.iso_invariants()

    def is_zero(self):
        return self.fg.is_zero()

    def _cycle_coords(self, v_ambient):
        coeff = self.inv.from_ambient(self.degree, v_ambient)
        t = len(self.cycles)
        if t == 0:
            assert all(c == 0 for c in coeff)
            return []
        rows = _column_rows(self.cycles, self.inv.dim(self.degree))
        x = _solve_vector(self.ring, rows, t, coeff)
        assert x is not None, "vector is not a cycle"
        return x

    def coords(self, v_ambient):
        return self.fg.coords(self._cycle_coords(v_ambient))

    def class_is_zero(self, v_ambient):
        return all(c == 0 for c in self.coords(v_ambient))

    def classes_equal(self, v, w, up_to_unit=False):
        if up_to_unit:
            return classes_equal_up_to_unit(
                self.fg, self._cycle_coords(v), self._cycle_coords(w))
        return self.coords(v) == self.coords(w)


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
    assert Y.total_rank() <= 40, "oracle is limited to total rank 40"
    ring = Y.ring
    G = Y.group
    n0 = -s
    M0 = Y.term(n0)
    dim = M0.rank
    if dim == 0:
        return FgModule(ring, 0, []), []

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
    cycles = kernel_sparse(ring, rows, dim)
    t = len(cycles)
    if t == 0:
        return FgModule(ring, 0, []), []
    # boundaries of equivariant vectors one degree up
    M1 = Y.term(n0 + 1)
    brows = equivariance_rows(M1)
    inv1 = kernel_sparse(ring, brows, M1.rank) if M1.rank else []
    bcols = []
    if (n0 + 1) in Y.diffs:
        d1 = Y.diffs[n0 + 1]
        for w in inv1:
            bcols.append(d1.apply(w))
    if bcols:
        fg = FgModule(ring, t, _boundary_relations(ring, cycles, dim, bcols))
    else:
        fg = FgModule(ring, t, [])
    gens = []
    for d, g in zip(fg.factors, fg.generators):
        v = [ring.zero] * dim
        for k, gk in enumerate(g):
            if gk != 0:
                for i, ck in enumerate(cycles[k]):
                    v[i] = ring.normalize(v[i] + gk * ck)
        gens.append((d, v))
    return fg, gens


# ---------------------------------------------------------------------------
# equivariant linear systems for maps and homotopies

class _System:
    """A sparse linear system whose unknowns are coefficients of
    equivariant orbit-basis maps, grouped in named blocks."""

    def __init__(self, ring):
        self.ring = ring
        self.blocks = {}
        self.order = []
        self.ncols = 0
        self.rows = []
        self.rhs = []

    def add_block(self, tag, basis):
        assert tag not in self.blocks
        self.blocks[tag] = (self.ncols, basis)
        self.order.append(tag)
        self.ncols += len(basis)

    def col(self, tag, k):
        return self.blocks[tag][0] + k

    def add_rows(self, proj_basis, contributions, rhs=None):
        """One equation row per element of ``proj_basis``.

        ``contributions``: list of (tag, products) where products[k] is
        the composite produced by unknown basis element k of the block,
        as a sparse {(row, col): value} dict; the row coefficient is its
        entry at the projection root.
        ``rhs``: entries dict whose root entries give the right side.

        Each product's nonzeros are looked up in an index of the roots,
        so only the entries that land on a root are touched.  Unknowns
        are visited in (block, k) order, which is the order of the
        columns in every row dict (pivot ties follow it).
        """
        ring = self.ring
        zero = ring.zero
        roots = {}
        for idx, e in enumerate(proj_basis):
            i, j = e.root_pair
            roots[(j, i)] = idx
        eqs = [{} for _ in proj_basis]
        for tag, products in contributions:
            off = self.blocks[tag][0]
            for k, prod in enumerate(products):
                col = off + k
                for key, v in prod.items():
                    idx = roots.get(key)
                    if idx is not None:
                        row = eqs[idx]
                        row[col] = ring.normalize(row.get(col, zero) + v)
        for key, idx in roots.items():
            row = {c: v for c, v in eqs[idx].items() if v != 0}
            b = zero if rhs is None else rhs.get(key, zero)
            if row or b != 0:
                self.rows.append(row)
                self.rhs.append(b)

    def solve(self):
        x = _solve_vector(self.ring, self.rows, self.ncols, self.rhs)
        if x is None:
            return None
        out = {}
        for tag in self.order:
            off, basis = self.blocks[tag]
            out[tag] = x[off:off + len(basis)]
        return out

    def kernel(self):
        vecs = kernel_sparse(self.ring, self.rows, self.ncols)
        out = []
        for x in vecs:
            d = {}
            for tag in self.order:
                off, basis = self.blocks[tag]
                d[tag] = x[off:off + len(basis)]
            out.append(d)
        return out


def _combine(ring, basis, coeffs, source, target):
    acc = {}
    for c, b in zip(coeffs, basis):
        if c == 0:
            continue
        for key, v in b.entries.items():
            acc[key] = acc.get(key, ring.zero) + c * v
    return EquivMap(source, target, acc)


def _identity_minus(ring, rank, entries):
    """Entries of id - f for an endomorphism f given by its entries."""
    acc = {(i, i): ring.one for i in range(rank)}
    for key, v in entries.items():
        acc[key] = acc.get(key, ring.zero) - v
    return acc


class _BasisCount:
    """The number of hom bases computed and cached on their source
    modules in this process; ``len`` reads it, as it would the size of
    a cache dict (``perfbench/tracer.py`` reads it that way)."""

    count = 0

    def __len__(self):
        return self.count


_HOM_BASIS_CACHE = _BasisCount()


def _hom_basis(M, N):
    """equivariant_hom_basis(M, N), cached on M for as long as M lives."""
    basis = M.hom_bases.get(N)
    if basis is None:
        basis = M.hom_bases[N] = equivariant_hom_basis(M, N)
        _HOM_BASIS_CACHE.count += 1
    return basis


def _homotopy_system(X, Y, sys, h_tag="h"):
    """Add homotopy unknown blocks h_n : X_n -> Y_{n+1} to ``sys``.

    Returns {n: basis} for later reconstruction.
    """
    bases = {}
    for n in sorted(X.terms):
        if (n + 1) in Y.terms:
            basis = _hom_basis(X.terms[n], Y.terms[n + 1])
            if basis:
                sys.add_block((h_tag, n), basis)
                bases[n] = basis
    return bases


def _add_homotopy_equations(X, Y, sys, h_bases, rhs_maps, h_tag="h"):
    """Equations proj(d h + h d) = rhs, degree by degree.

    ``rhs_maps``: {n: entries of the degree-n right-hand map X_n -> Y_n}.
    """
    ring = X.ring
    degrees = sorted(set(X.terms) | set(Y.terms))
    for n in degrees:
        if n not in X.terms or n not in Y.terms:
            # no room to project: rhs must vanish identically there
            if rhs_maps and n in rhs_maps:
                assert not rhs_maps[n]
            continue
        proj = _hom_basis(X.terms[n], Y.terms[n])
        contributions = []
        if n in h_bases:
            dY = Y.diffs.get(n + 1)
            if dY is not None:
                d_cols = _index(dY.entries, 1)
                prods = [_left_mul(ring, d_cols, b.entries)
                         for b in sys.blocks[(h_tag, n)][1]]
                contributions.append(((h_tag, n), prods))
        if (n - 1) in h_bases:
            dX = X.diffs.get(n)
            if dX is not None:
                d_rows = _index(dX.entries, 0)
                prods = [_right_mul(ring, b.entries, d_rows)
                         for b in sys.blocks[(h_tag, n - 1)][1]]
                contributions.append(((h_tag, n - 1), prods))
        rhs = rhs_maps.get(n) if rhs_maps else None
        sys.add_rows(proj, contributions, rhs)


def null_homotopy(F):
    """Solve d h + h d = F for an equivariant degree +1 homotopy.

    F is a ChainMap.  Returns {n: EquivMap X_n -> Y_{n+1}} or None.
    """
    X, Y = F.source, F.target
    ring = X.ring
    sys = _System(ring)
    h_bases = _homotopy_system(X, Y, sys)
    rhs = {n: F.component(n).entries for n in X.terms if n in Y.terms}
    for n in X.terms:
        if n not in Y.terms and not F.component(n).is_zero():
            return None
    _add_homotopy_equations(X, Y, sys, h_bases, rhs)
    sol = sys.solve()
    if sol is None:
        return None
    out = {}
    for n, basis in h_bases.items():
        f = _combine(ring, basis, sol[("h", n)], X.terms[n], Y.terms[n + 1])
        if not f.is_zero():
            out[n] = f
    return out


def check_homotopy(F, h):
    """Check d h + h d = F exactly, degree by degree, comparing the
    nonzeros of sparse products; raises CertificateError otherwise."""
    X, Y = F.source, F.target
    ring = X.ring
    for n in X.terms:
        lhs = {}
        if n in h and (n + 1) in Y.diffs:
            lhs = _composite(Y.diffs[n + 1], h[n])
        if (n - 1) in h and n in X.diffs:
            for key, v in _right_mul(ring, h[n - 1].entries,
                                     _index(X.diffs[n].entries, 0)).items():
                lhs[key] = lhs.get(key, 0) + v
            lhs = _normalized(ring, lhs)
        if lhs != F.component(n).entries:
            raise CertificateError(
                "homotopy identity fails at degree %d" % n)
    return True


class ContractionCertificate:
    def __init__(self, X, h):
        self.X = X
        self.h = h

    def verify(self):
        from .chain import identity_chain_map
        return check_homotopy(identity_chain_map(self.X), self.h)

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


def _contract_raw(X):
    """A (not necessarily equivariant) contraction of the underlying
    complex, degree by degree from the bottom: solve
    d_{n+1} h_n = id - h_{n-1} d_n with one elimination of d_{n+1}
    carrying the nonzeros of every right-hand column.  Returns
    {n: entries} or None.

    The greedy sweep is complete: if a contraction exists then
    h*_n composed with the current right-hand side solves step n
    (the right-hand side lands in cycles, and d splits off cycles when
    the complex is contractible), and a successful sweep is itself a
    contraction, the top identity holding by injectivity of the top
    differential.
    """
    ring = X.ring
    h = {}
    for n in sorted(X.terms):
        rhs = _contraction_rhs(X, n, h.get(n - 1))
        if (n + 1) not in X.terms:
            if rhs:
                return None
            continue
        by_rows = {}
        for (r, c), v in rhs.items():
            by_rows.setdefault(r, {})[c] = v
        d = X.diff(n + 1)
        sols = solve_sparse(ring, d.rows(), d.source.rank, by_rows)
        if sols is None:
            return None
        h[n] = {(r, c): v for c, x in sols.items() for r, v in x.items()}
    return h


def _contraction_rhs(X, n, h_below):
    """Entries of id - h_{n-1} d_n, the right side of the contraction
    step at degree n (``h_below`` the entries of h_{n-1} or None)."""
    ring = X.ring
    hd = {}
    if h_below and n in X.diffs:
        hd = _right_mul(ring, h_below, _index(X.diffs[n].entries, 0))
    return _normalized(ring, _identity_minus(ring, X.terms[n].rank, hd))


def _average_homotopy(X, raw):
    """G-average a raw contraction into an equivariant one.

    Needs |G| invertible in the ring: the average of the conjugates
    rho(g) h rho(g)^-1 still contracts the identity and commutes with
    the action.  Returns {n: EquivMap}.
    """
    ring, G = X.ring, X.group
    inv_ord = ring.inv(ring.from_int(G.order))
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
        avg = EquivMap(src, tgt, {k: v * inv_ord for k, v in acc.items()})
        if not avg.is_zero():
            out[n] = avg
    return out


def _contract_equivariant(X):
    """Equivariant greedy contraction, one orbit-basis solve per degree.

    Same sweep as _contract_raw but with unknowns the coefficients of
    the equivariant hom basis Hom_G(X_n, X_{n+1}) and equations the
    projections onto the root pairs of Hom_G(X_n, X_n).  Returns
    {n: EquivMap} or None.
    """
    ring = X.ring
    h = {}
    for n in sorted(X.terms):
        Xn = X.terms[n]
        below = h[n - 1].entries if (n - 1) in h else None
        rhs = _contraction_rhs(X, n, below)
        basis = _hom_basis(Xn, X.terms[n + 1]) if (n + 1) in X.terms else []
        if not basis:
            if rhs:
                return None
            continue
        sys = _System(ring)
        sys.add_block("h", basis)
        d_cols = _index(X.diff(n + 1).entries, 1)
        prods = [_left_mul(ring, d_cols, b.entries) for b in basis]
        sys.add_rows(_hom_basis(Xn, Xn), [("h", prods)], rhs)
        sol = sys.solve()
        if sol is None:
            return None
        hm = _combine(ring, basis, sol["h"], Xn, X.terms[n + 1])
        if not hm.is_zero():
            h[n] = hm
    return h


def is_contractible(X):
    """(True, ContractionCertificate) or (False, witness).

    Contractibility means an equivariant contraction d h + h d = id
    exists over the coefficient ring; the certificate stores h and can
    be re-verified.  When the group order is a unit of the ring (always
    over the trivial group) a raw contraction is averaged into an
    equivariant one; otherwise the greedy sweep runs in the equivariant
    hom lattices.  Failure first looks for nonzero homology of the
    underlying complex, then reports the equivariant system as
    infeasible.
    """
    if X.is_zero():
        return True, ContractionCertificate(X, {})
    _enforce_rank_cap(X)
    ring, G = X.ring, X.group
    h = None
    if ring.is_unit(ring.from_int(G.order)):
        raw = _contract_raw(X)
        if raw is not None:
            h = _average_homotopy(X, raw)
    else:
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
    """A lattice basis of the space of chain maps X -> Y."""
    ring = X.ring
    sys = _System(ring)
    f_bases = {}
    for n in sorted(X.terms):
        if n in Y.terms:
            basis = _hom_basis(X.terms[n], Y.terms[n])
            if basis:
                sys.add_block(("f", n), basis)
                f_bases[n] = basis
    # commuting squares, projected onto Hom(X_n, Y_{n-1})
    for n in sorted(set(X.terms) | set(Y.terms)):
        if n not in X.terms or (n - 1) not in Y.terms:
            continue
        proj = _hom_basis(X.terms[n], Y.terms[n - 1])
        contributions = []
        if n in f_bases and n in Y.diffs:
            d_cols = _index(Y.diffs[n].entries, 1)
            prods = [_left_mul(ring, d_cols, b.entries) for b in f_bases[n]]
            contributions.append((("f", n), prods))
        if (n - 1) in f_bases and n in X.diffs:
            d_rows = _index(X.diffs[n].entries, 0)
            prods = [{k: ring.normalize(-v) for k, v in
                      _right_mul(ring, b.entries, d_rows).items()}
                     for b in f_bases[n - 1]]
            contributions.append((("f", n - 1), prods))
        if contributions:
            sys.add_rows(proj, contributions)
    out = []
    from .chain import ChainMap
    for sol in sys.kernel():
        comps = {}
        for n, basis in f_bases.items():
            f = _combine(ring, basis, sol[("f", n)], X.terms[n], Y.terms[n])
            if not f.is_zero():
                comps[n] = f
        if comps:
            out.append(ChainMap(X, Y, comps))
    return out


class Equivalence:
    """A verified homotopy equivalence f : X -> Y with quasi-inverse g."""

    def __init__(self, f, g, h, hp):
        self.f = f
        self.g = g
        self.h = h       # d h + h d = id_X - g f
        self.hp = hp     # d hp + hp d = id_Y - f g

    def verify(self):
        from .chain import ChainMap
        ring = self.f.source.ring

        def identity_minus(comp):
            Z = comp.source
            return ChainMap(Z, Z, {n: EquivMap(M, M, _identity_minus(
                ring, M.rank, comp.component(n).entries))
                for n, M in Z.terms.items()})

        check_homotopy(identity_minus(self.g.compose(self.f)), self.h)
        check_homotopy(identity_minus(self.f.compose(self.g)), self.hp)
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
    """Search for an equivariant homotopy equivalence X -> Y.

    Returns an Equivalence, a NotEquivalent witness (homology profiles
    differ), or Inconclusive.  Candidates for f are: the identity when
    the complexes are structurally equal, an integral combination of
    the chain-map lattice basis that induces a unit on homology when
    the homology is concentrated in one degree and free of rank one,
    then the individual basis maps.  Each candidate is promoted by
    contracting its mapping cone and reading off the quasi-inverse and
    both homotopies from the contraction blocks.
    """
    from .chain import ChainMap, structurally_equal
    ring = X.ring
    profX = homology_profile(X)
    profY = homology_profile(Y)
    if profX != profY:
        degs = sorted(set(profX) | set(profY))
        for n in degs:
            if profX.get(n) != profY.get(n):
                return NotEquivalent("homology profiles differ", degree=n,
                                     left=profX.get(n), right=profY.get(n))
    def candidates():
        if structurally_equal(X, Y):
            yield ChainMap(X, Y, {n: EquivMap(M, Y.terms[n],
                                              {(i, i): 1 for i in range(M.rank)})
                                  for n, M in X.terms.items()})
        space = chain_map_space(X, Y)
        # Bezout combination on concentrated rank-one free homology
        conc = [n for n, inv in profX.items() if inv != (0, ())]
        if len(conc) == 1 and profX[conc[0]] == (1, ()):
            n0 = conc[0]
            fgX, cycX = underlying_homology(X, n0)
            fgY, cycY = underlying_homology(Y, n0)
            zX = fgX.generators[0]
            # ambient generator cycle of H_{n0}(X)
            vX = [ring.zero] * X.term(n0).rank
            for k, gk in enumerate(zX):
                if gk != 0:
                    for i, ck in enumerate(cycX[k]):
                        vX[i] = ring.normalize(vX[i] + gk * ck)
            scalars = []
            t = len(cycY)
            K_rows = _column_rows(cycY, Y.term(n0).rank)
            for f in space:
                w = f.component(n0).apply(vX)
                sol = _solve_vector(ring, K_rows, t, w)
                if sol is None:
                    scalars.append(None)
                    continue
                scalars.append(fgY.coords(sol)[0]
                               if fgY.factors else ring.zero)
            combo = _unit_combination(ring, scalars)
            if combo is not None:
                yield ChainMap(X, Y, {n: _combine(
                    ring, [f.component(n) for f in space], combo,
                    X.terms[n], Y.terms[n]) for n in X.terms if n in Y.terms})
        for f in space:
            yield f

    tried = 0
    for f in candidates():
        tried += 1
        eq = _try_equivalence(f)
        if eq is not None:
            return eq
    return Inconclusive("no candidate among %d chain maps admits a "
                        "quasi-inverse over %s" % (tried, ring.name))


def _unit_combination(ring, scalars):
    """Integer coefficients c with sum c_i . s_i a unit, if possible."""
    vals = [(i, s) for i, s in enumerate(scalars) if s is not None and s != 0]
    if not vals:
        return None
    if ring.is_field:
        i, s = vals[0]
        out = [ring.zero] * len(scalars)
        out[i] = ring.inv(s)
        return out
    # extended gcd over Z
    g, coeff = vals[0][1], {vals[0][0]: 1}
    for i, s in vals[1:]:
        if abs(g) == 1:
            break
        a, b = g, s
        # extended Euclid for a, b
        old_r, r = a, b
        old_s, t_s = 1, 0
        old_t, t_t = 0, 1
        while r != 0:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, t_s = t_s, old_s - q * t_s
            old_t, t_t = t_t, old_t - q * t_t
        coeff = {k: v * old_s for k, v in coeff.items()}
        coeff[i] = coeff.get(i, 0) + old_t
        g = old_r
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
