"""Identities between equivariant maps are checked on one column per orbit.

d o d = 0, the chain-map squares and d h + h d = f are checked at
``SignedPermModule.orbit_starts`` only (the rule in ``permod``).  These
tests hold the rule to an all-columns check on the benchmark commands,
feed it mutations that stay equivariant, one of them on a signed orbit
that has no root in ``HomOrbits(R, M)``, and bound the memory the
Koszul tower holds beyond what it returns.
"""

import os
import subprocess
import sys

import pytest

import ttperm
from ttperm import chain, homotopy, koszul, twisted
from ttperm.cli import run
from ttperm.grp import cyclic
from ttperm.permod import (BlockModule, CertificateError, EquivMap,
                           HomOrbits, sign_module, tensor_module,
                           trivial_module, _composite)
from ttperm.rings import ZZ

# the twist-search and koszul-certify workloads of the benchmark
COMMANDS = [
    "invert --group C3 --ring Z",
    "invert --group C5 --ring Z",
    "invert --group C7 --ring Z",
    "twisted --group C3 --ring Z --max-twist 5 --shift-min -10 --shift-max 0",
    "twisted --group C2 --ring F2 --max-twist 4",
    "twisted --group C2xC2 --ring F2 --max-twist 2",
    "kos --group C4 --subgroup 1 --verify",
    "kos --group C2xC2 --subgroup 1 --ring Z",
    "kos --group C2xC2 --subgroup 1 --ring F3",
    "kos --group C9 --subgroup C3 --verify",
]


def _product(ring, A, B):
    """The entries of A . B on every column, normalized and nonzero."""
    by_row = {}
    for (t, c), b in B.items():
        by_row.setdefault(t, []).append((c, b))
    acc = {}
    for (r, t), a in A.items():
        for c, b in by_row.get(t, ()):
            acc[(r, c)] = acc.get((r, c), 0) + a * b
    return _nonzero(ring, acc)


def _nonzero(ring, acc):
    out = {}
    for key, v in acc.items():
        v = ring.normalize(v)
        if v != 0:
            out[key] = v
    return out


def _entries(f):
    return {} if f is None else f.entries


def _squares_to_zero(X):
    return not any(_product(X.ring, d.entries, X.diffs[n + 1].entries)
                   for n, d in X.diffs.items() if (n + 1) in X.diffs)


def _squares_commute(F, components):
    ring, X, Y = F.source.ring, F.source, F.target
    return all(
        _product(ring, _entries(components.get(n - 1)),
                 _entries(X.diffs.get(n))) ==
        _product(ring, _entries(Y.diffs.get(n)), _entries(components.get(n)))
        for n in set(X.terms) | set(Y.terms))


def _homotopy_holds(X, Y, f, h):
    """d h + h d = f on every column; f {n: entries} in full."""
    ring = X.ring
    for n in X.terms:
        lhs = _product(ring, _entries(Y.diffs.get(n + 1)), _entries(h.get(n)))
        for k, v in _product(ring, _entries(h.get(n - 1)),
                             _entries(X.diffs.get(n))).items():
            lhs[k] = lhs.get(k, 0) + v
        if _nonzero(ring, lhs) != _nonzero(ring, f.get(n, {})):
            return False
    return True


def _failure(call):
    """The CertificateError that call() raises, or None."""
    try:
        call()
    except CertificateError as exc:
        return exc
    return None


def test_orbit_columns_give_the_all_columns_verdict_on_the_benchmark(
        monkeypatch, capsys):
    # every d o d, chain-map square and homotopy check of the ten
    # commands, against the same identity formed on every column
    seen = []
    real_square = chain.Complex.check_square_zero
    real_chain_map = chain.ChainMap.__init__
    real_check = homotopy.check_homotopy
    real_verify = homotopy.Equivalence.verify
    in_verify = []

    def spy(kind, call, holds):
        """Run the check once, record its verdict and the all-columns
        one, and raise what it raised."""
        exc = _failure(call)
        seen.append((kind, exc is None, holds()))
        if exc is not None:
            raise exc

    def square_zero(self):
        if not self.squares_to_zero:
            spy("d o d", lambda: real_square(self),
                lambda: _squares_to_zero(self))

    def chain_map(self, source, target, components):
        spy("square", lambda: real_chain_map(self, source, target,
                                             components),
            lambda: _squares_commute(self, components))

    def check(X, Y, f, h):
        # Equivalence.verify passes id - g f on the representatives
        # only; its spy holds the identities to all columns instead
        if in_verify:
            return real_check(X, Y, f, h)
        full = f if isinstance(f, dict) else {
            n: {(i, i): f for i in range(M.rank)} for n, M in X.terms.items()}
        spy("homotopy", lambda: real_check(X, Y, f, h),
            lambda: _homotopy_holds(X, Y, full, h))
        return True

    def verify(self):
        in_verify.append(self)
        try:
            spy("equivalence", lambda: real_verify(self),
                lambda: _equivalence_holds(self))
        finally:
            in_verify.pop()
        return True

    monkeypatch.setattr(chain.Complex, "check_square_zero", square_zero)
    monkeypatch.setattr(chain.ChainMap, "__init__", chain_map)
    monkeypatch.setattr(homotopy.Equivalence, "verify", verify)
    for mod in (homotopy, koszul, twisted):
        monkeypatch.setattr(mod, "check_homotopy", check)
    for command in COMMANDS:
        assert run(command.split()) == 0, command
        capsys.readouterr()
    monkeypatch.undo()
    kinds = {kind: sum(1 for k, _, _ in seen if k == kind)
             for kind in ("d o d", "square", "homotopy", "equivalence")}
    assert min(kinds.values()) >= 10, kinds
    assert all(got == want for _, got, want in seen)


def _equivalence_holds(eq):
    """Both homotopy identities of an Equivalence, with id - g f and
    id - f g on every column."""
    for first, then, h in ((eq.f, eq.g, eq.h), (eq.g, eq.f, eq.hp)):
        X, ring = first.source, first.source.ring
        full = {}
        for n, M in X.terms.items():
            acc = {(i, i): ring.one for i in range(M.rank)}
            for k, v in _product(ring, then.component(n).entries,
                                 first.component(n).entries).items():
                acc[k] = acc.get(k, 0) - v
            full[n] = acc
        if not _homotopy_holds(X, X, full, h):
            return False
    return True


def test_orbit_starts_cover_signed_orbits():
    # e_1 of R (+) L (x) R, L the sign module: C2 sends it to -e_1, so
    # its orbit has no root in HomOrbits(R, M), but it has a start, and
    # a d o d that fails there alone is seen only at that start
    G = cyclic(2)
    R, L = trivial_module(G, ZZ), sign_module(G, G.trivial_subgroup(), ZZ)
    M = BlockModule(G, ZZ, [("+", R), ("-", tensor_module(L, R))]).module
    roots = HomOrbits(trivial_module(G, ZZ), M).roots
    assert list(roots) == [0]
    assert list(M.orbit_starts()) == [0, 1]
    d2 = EquivMap(M, M, {(0, 0): 1, (1, 1): 1})
    d1 = EquivMap(M, M, {(1, 1): 1})
    assert _composite(d1, d2, set(roots)) == {}
    assert _composite(d1, d2, set(M.orbit_starts())) == {(1, 1): 1}
    with pytest.raises(CertificateError, match="d o d != 0 at degree 1"):
        chain.Complex(G, ZZ, {0: M, 1: M, 2: M}, {2: d2, 1: d1})


_EQUIVARIANT_MUTATIONS = """
import sys
from ttperm.chain import Complex, ChainMap, cone, identity_chain_map
from ttperm.grp import cyclic
from ttperm.homotopy import check_homotopy, is_contractible
from ttperm.permod import (BlockModule, CertificateError, EquivMap,
                           sign_module, tensor_module, trivial_module)
from ttperm.rings import ZZ
from ttperm.twisted import u_complex, index_p_normal_subgroups

assert sys.flags.optimize


def scaled(f, c):
    # the columns of the last free orbit of f's source times c: the map
    # stays equivariant, and differs from f on columns other than the
    # orbit's smallest
    M = f.source
    orbits = [{M.action[g][x][0] for g in M.group.elements()}
              for x in range(M.rank)]
    orbit = [o for o in orbits if len(o) == M.group.order][-1]
    return EquivMap(M, f.target, {(r, j): c * v if j in orbit else v
                                  for (r, j), v in f.entries.items()})


G = cyclic(3)
C = cone(identity_chain_map(u_complex(G, index_p_normal_subgroups(G)[0], ZZ)))
ok, cert = is_contractible(C)
ones = identity_chain_map(C).components
n = min(k for k in C.diffs if (k + 1) in C.diffs)
K = cyclic(2)
R, L = trivial_module(K, ZZ), sign_module(K, K.trivial_subgroup(), ZZ)
M = BlockModule(K, ZZ, [("+", R), ("-", tensor_module(L, R))]).module
ident = EquivMap(M, M, {(0, 0): 1, (1, 1): 1})
bad = {
    "d": lambda: Complex(G, ZZ, C.terms, {**C.diffs,
                                          n: scaled(C.diffs[n], -1)}),
    "square": lambda: ChainMap(C, C, {k: scaled(f, 2) if k == n else f
                                      for k, f in ones.items()}),
    "h": lambda: check_homotopy(C, C, {k: f.entries for k, f in ones.items()},
                                {**cert.h, n: scaled(cert.h[n], 2)}),
    # d_1 d_2 is the projection on e_1, whose orbit is signed
    "signed": lambda: Complex(K, ZZ, {0: M, 1: M, 2: M},
                              {2: ident, 1: EquivMap(M, M, {(1, 1): 1})}),
}
for name, build in bad.items():
    try:
        build()
        sys.exit("an equivariant %s mutation passed its check" % name)
    except CertificateError as exc:
        print(name, exc)
"""


def test_equivariant_mutations_fail_their_checks_under_python_O(python_O):
    # an orbit of columns of d scaled by -1, of a chain-map component
    # and of h by 2 over Z, and d o d broken on a signed orbit alone: the
    # messages are those the all-columns checks gave
    proc = python_O(_EQUIVARIANT_MUTATIONS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "d d o d != 0 at degree 1",
        "square square at degree 1 does not commute",
        "h homotopy identity fails at degree 1",
        "signed d o d != 0 at degree 1",
    ]


_TOWER_MEMORY = """
import tracemalloc
from ttperm.grp import parse_group_name
from ttperm.koszul import koszul_object
from ttperm.rings import ZZ

G = parse_group_name("C2xC2")
H = G.trivial_subgroup()
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
kos = koszul_object(G, H, ZZ)
kept, peak = tracemalloc.get_traced_memory()
print(kept - base, peak - base)
"""


def test_koszul_tower_peak_stays_near_what_it_keeps():
    # the tower and its checks hold the complexes they keep plus at most
    # one degree of scaffolding: a ratio, which does not depend on the
    # machine as bytes do (about 1.6 when every degree was held)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttperm.__file__)))
    proc = subprocess.run([sys.executable, "-c", _TOWER_MEMORY],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    kept, peak = map(int, proc.stdout.split())
    assert peak <= 1.3 * kept, (kept, peak)
