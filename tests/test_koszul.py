"""Koszul objects: permutation-module complexes with certified shape.

Postconditions under test for kos(G, H): every term is a permutation
module, the degree-0 term is the trivial module, the degree-1 term is
induced from H, the complex is acyclic, and its restriction to H is
contractible with an explicit certificate.  Rank vectors are frozen
regression values.
"""

from fractions import Fraction

import pytest

from ttperm.grp import cyclic, parse_group_name, subgroups
from ttperm.rings import ZZ, QQ, GF, prime_power
from ttperm.chain import base_change_complex
from ttperm.homotopy import is_contractible
from ttperm.permod import CertificateError, EquivMap, HomOrbits
from ttperm.koszul import (koszul_object, verify_koszul,
                           KoszulVerificationError,
                           base_change_koszul_check, sign_twist_complex)


# frozen rank vectors of kos(G, H) over Z, keyed by (group, |H|)
KOS_RANKS = {
    ("C2", 1): {0: 1, 1: 4, 2: 4, 3: 1},
    ("C4", 1): {0: 1, 1: 16, 2: 56, 3: 92, 4: 82, 5: 40, 6: 10, 7: 1},
    ("C4", 2): {0: 1, 1: 4, 2: 4, 3: 1},
    ("C8", 4): {0: 1, 1: 4, 2: 4, 3: 1},
    ("C3", 1): {0: 1, 1: 3, 2: 3, 3: 1},
    ("C9", 3): {0: 1, 1: 3, 2: 3, 3: 1},
    ("C2xC2", 1): {0: 1, 1: 16, 2: 88, 3: 208, 4: 312, 5: 322,
                   6: 208, 7: 76, 8: 14, 9: 1},
    ("C2xC2", 2): {0: 1, 1: 4, 2: 4, 3: 1},
    ("C2xC2", 4): {0: 1, 1: 1},
}


def subgroup_of_order(G, k):
    return [S for S in subgroups(G) if S.order == k]


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_koszul_small_pairs_certified():
    for (gname, horder), ranks in KOS_RANKS.items():
        if gname in ("C4", "C2xC2") and horder == 1:
            continue  # large towers exercised in the acceptance suite
        G = parse_group_name(gname)
        for H in subgroup_of_order(G, horder):
            kos = koszul_object(G, H, ZZ)
            assert kos.complex.rank_vector() == ranks, (gname, horder)
            checks = kos.audit["checks"]
            assert checks and all(checks.values()), (gname, horder, checks)


def test_koszul_audit_shape():
    G = cyclic(2)
    kos = koszul_object(G, G.trivial_subgroup(), ZZ)
    assert kos.audit["group"] == "C2"
    assert kos.audit["ring"] == "Z"
    assert "checks" in kos.audit
    assert kos.certificate is not None


def test_verify_koszul_rechecks_from_scratch():
    G = cyclic(3)
    kos = koszul_object(G, G.trivial_subgroup(), ZZ)
    report, cert = verify_koszul(kos.complex, G, G.trivial_subgroup(), ZZ)
    assert report["acyclic"] and report["restriction_contractible"]


def test_verify_koszul_rejects_wrong_subgroup():
    # the degree-1 term of kos(C4, C2) is induced from C2, hence not
    # free, so verification against H = 1 must fail
    G = cyclic(4)
    C2 = subgroup_of_order(G, 2)[0]
    kos = koszul_object(G, C2, ZZ)
    with pytest.raises(KoszulVerificationError):
        verify_koszul(kos.complex, G, G.trivial_subgroup(), ZZ)


def test_verify_koszul_rejects_wrong_order_two_subgroup():
    # kos(C2xC2, H) restricted to a different order-2 subgroup is not
    # contractible: the restriction check must catch the swap
    G = parse_group_name("C2xC2")
    Ha, Hb = subgroup_of_order(G, 2)[:2]
    kos = koszul_object(G, Ha, ZZ)
    with pytest.raises(KoszulVerificationError):
        verify_koszul(kos.complex, G, Hb, ZZ)


def test_verify_koszul_rejects_non_acyclic():
    # without a contraction, the homology profile names the failure
    from ttperm.chain import unit_complex
    G = cyclic(2)
    with pytest.raises(KoszulVerificationError, match="not acyclic"):
        verify_koszul(unit_complex(G, ZZ), G, G.trivial_subgroup(), ZZ)


def test_koszul_over_fields():
    G = cyclic(2)
    H = G.trivial_subgroup()
    for ring in (GF(2), QQ):
        kos = koszul_object(G, H, ring)
        assert all(kos.audit["checks"].values())


def test_base_change_koszul_check():
    G = cyclic(2)
    report = base_change_koszul_check(G, G.trivial_subgroup(), 2)
    assert all(report["integral"].values())
    assert all(report["mod_p"].values())
    assert all(report["rational"].values())
    assert report["rational"]["rational_contractible"]


def test_base_change_koszul_check_odd():
    G = cyclic(9)
    C3 = subgroup_of_order(G, 3)[0]
    report = base_change_koszul_check(G, C3, 3)
    assert all(report["mod_p"].values())
    assert report["rational"]["rational_contractible"]


def test_sign_twist_complex_shape():
    G = cyclic(4)
    C2 = subgroup_of_order(G, 2)[0]
    Lt, Lc, smap = sign_twist_complex(C2, ZZ)
    # R --eta--> R(G/C2) with R in degree 1, mapping onto the sign line
    assert Lt.rank_vector() == {0: 2, 1: 1}
    assert Lc.rank_vector() == {0: 1}
    assert smap.source is Lt and smap.target is Lc


def test_restriction_of_koszul_is_contractible():
    G = parse_group_name("C2xC2")
    for H in subgroup_of_order(G, 2):
        kos = koszul_object(G, H, ZZ)
        from ttperm.chain import restrict_complex
        ok, cert = is_contractible(restrict_complex(kos.complex, H))
        assert ok


def test_kos_verify_builds_the_integral_object_once(monkeypatch, capsys):
    # base_change_koszul_check reuses the object cmd_kos built: --verify
    # runs as many tensor inductions as the plain command
    from ttperm import koszul
    from ttperm.cli import run
    steps = []
    real = koszul.tensor_induce

    def counting(X, S):
        steps.append(S.describe())
        return real(X, S)

    monkeypatch.setattr(koszul, "tensor_induce", counting)
    assert run(["kos", "--group", "C4", "--subgroup", "1"]) == 0
    plain = len(steps)
    del steps[:]
    assert run(["kos", "--group", "C4", "--subgroup", "1", "--verify"]) == 0
    capsys.readouterr()
    assert plain == len(steps) == 2
    G = cyclic(4)
    H = G.trivial_subgroup()
    kos = koszul_object(G, H, ZZ)
    assert koszul_object(G, H, ZZ) is kos
    assert list(G.koszul_objects.values()) == [kos]


def test_kos_verify_solves_nothing_over_fields(monkeypatch, capsys):
    # the Z contraction is built along the tower and carried to F_p and
    # Q, so nothing is solved over any ring; acyclicity comes from it,
    # so no homology profile runs either
    from ttperm import homotopy, koszul
    from ttperm.cli import run
    rings, profiles = [], []
    real_solve = homotopy.solve_sparse
    real_profile = homotopy.homology_profile

    def solving(ring, rows, ncols, rhs, **kwargs):
        rings.append(ring.name)
        return real_solve(ring, rows, ncols, rhs, **kwargs)

    def profiling(X):
        profiles.append(X.ring.name)
        return real_profile(X)

    monkeypatch.setattr(homotopy, "solve_sparse", solving)
    monkeypatch.setattr(homotopy, "homology_profile", profiling)
    monkeypatch.setattr(koszul, "homology_profile", profiling)
    assert run(["kos", "--group", "C4", "--subgroup", "1", "--verify"]) == 0
    capsys.readouterr()
    assert rings == []
    assert profiles == []


@pytest.mark.parametrize("delta", [1, 2], ids=["mod_p", "rational"])
def test_corrupted_carried_contraction_fails_after_base_change(delta):
    # one entry of the verified Z contraction kept on G, plus delta: 1
    # breaks the identity mod 2 already, 2 survives reduction mod 2 and
    # must be caught over Q
    G = cyclic(2)
    H = G.trivial_subgroup()
    kos = koszul_object(G, H, ZZ)
    entries = kos.certificate.h[min(kos.certificate.h)].entries
    entries[next(iter(entries))] += delta
    h = {n: f.entries for n, f in kos.certificate.h.items()}
    for ring in ((GF(2), QQ) if delta == 1 else (QQ,)):
        X = base_change_complex(kos.complex, ring)
        with pytest.raises(CertificateError, match="identity fails"):
            verify_koszul(X, G, H, ring, contraction=h)
    with pytest.raises(CertificateError, match="identity fails"):
        base_change_koszul_check(G, H, 2)


def test_rational_whole_contraction_is_verified(monkeypatch):
    from ttperm import koszul
    real = koszul._average_homotopy

    def dropping_top(X, raw):
        h = real(X, raw)
        del h[max(h)]
        return h

    monkeypatch.setattr(koszul, "_average_homotopy", dropping_top)
    G = cyclic(2)
    with pytest.raises(CertificateError, match="identity fails"):
        base_change_koszul_check(G, G.trivial_subgroup(), 2)


def test_verify_koszul_rejects_unchecked_complex_with_nonzero_d_squared():
    # R = R = R = R with identity differentials passes the structural
    # checks, and h = (1, 0, 1) satisfies d h + h d = id although
    # d o d != 0; built with check=False, only the d o d check sees it
    from ttperm.chain import Complex, restrict_complex
    from ttperm.permod import identity_map, trivial_module
    G = cyclic(2)
    H = subgroup_of_order(G, 2)[0]
    R = trivial_module(G, ZZ)
    X = Complex(G, ZZ, {n: R for n in range(4)},
                {n: identity_map(R) for n in range(1, 4)}, check=False)
    assert is_contractible(restrict_complex(X, H))[0]
    with pytest.raises(CertificateError, match="d o d != 0 at degree 1"):
        verify_koszul(X, G, H, ZZ)


def test_verify_koszul_squares_a_checked_tower_once(monkeypatch):
    # the last cone of the tower checked d o d when it was built, and
    # the complex keeps that check: verify_koszul forms no product again
    from ttperm import chain
    from ttperm.koszul import _build_koszul
    G = cyclic(4)
    H = G.trivial_subgroup()
    X, _, _ = _build_koszul(G, H, ZZ)
    assert X.squares_to_zero
    products = []
    real = chain._composite

    def counting(f, g):
        products.append((f, g))
        return real(f, g)

    monkeypatch.setattr(chain, "_composite", counting)
    verify_koszul(X, G, H, ZZ)
    assert products == []


_BROKEN_BASE_CHANGE = """
import sys
from ttperm import koszul
from ttperm.grp import cyclic
from ttperm.permod import CertificateError
from ttperm.rings import ZZ

assert sys.flags.optimize
for delta in (1, 2):
    G = cyclic(2)
    H = G.trivial_subgroup()
    h = koszul.koszul_object(G, H, ZZ).certificate.h
    entries = h[min(h)].entries
    entries[next(iter(entries))] += delta
    try:
        koszul.base_change_koszul_check(G, H, 2)
        sys.exit("a corrupted contraction passed after base change")
    except CertificateError as exc:
        print("carried", delta, exc)
koszul._average_homotopy = lambda X, raw: {}
G = cyclic(2)
try:
    koszul.base_change_koszul_check(G, G.trivial_subgroup(), 2)
    sys.exit("an empty rational contraction passed")
except CertificateError as exc:
    print("rational", exc)
"""


def test_base_change_checks_survive_python_O(python_O):
    proc = python_O(_BROKEN_BASE_CHANGE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "carried 1 homotopy identity fails at degree 0",
        "carried 2 homotopy identity fails at degree 0",
        "rational homotopy identity fails at degree 0",
    ]


def _acceptance_pairs():
    """The 11 (G, H) of criterion 2 of the acceptance suite."""
    pairs = []
    for gname, horders in (("C2", (1,)), ("C4", (1, 2)), ("C8", (4,)),
                           ("C3", (1,)), ("C9", (3,)),
                           ("C2xC2", (1, 2, 2, 2, 4))):
        G = parse_group_name(gname)
        wanted = list(horders)
        for S in sorted(subgroups(G), key=lambda S: (S.order, S.elements)):
            if S.order in wanted:
                wanted.remove(S.order)
                pairs.append((G, S))
    return pairs


def _fraction_product(A, B):
    """The sparse product A . B of two entries dicts over Fraction."""
    by_row = {}
    for (t, c), b in B.items():
        by_row.setdefault(t, []).append((c, Fraction(b)))
    acc = {}
    for (r, t), a in A.items():
        for c, b in by_row.get(t, ()):
            acc[(r, c)] = acc.get((r, c), 0) + Fraction(a) * b
    return acc


def _fraction_check_homotopy(X, Y, f, h):
    """Reference: d h + h d = f with every value a Fraction and no
    denominator cleared, as check_homotopy compared it before; True or
    False.  A scalar f stands for f id, as it does there."""
    if not isinstance(f, dict):
        f = {n: {(i, i): f for i in range(M.rank)}
             for n, M in X.terms.items()}
    for n in X.terms:
        lhs = {}
        if n in h and (n + 1) in Y.diffs:
            lhs = _fraction_product(Y.diffs[n + 1].entries, h[n].entries)
        if (n - 1) in h and n in X.diffs:
            for k, v in _fraction_product(h[n - 1].entries,
                                          X.diffs[n].entries).items():
                lhs[k] = lhs.get(k, 0) + v
        if {k: v for k, v in lhs.items() if v} != \
                {k: Fraction(v) for k, v in f.get(n, {}).items() if v}:
            return False
    return True


def _orbit_shifted(g, key, delta):
    """The map g plus delta on the whole orbit of its entry ``key``,
    with the orbit's weights: a mutation that stays equivariant."""
    H = HomOrbits(g.source, g.target)
    code = H.code[key[1] * g.target.rank + key[0]]
    orbit = H.map({abs(code) - 1: delta if code > 0 else -delta}).entries
    return EquivMap(g.source, g.target,
                    {k: g.entries.get(k, 0) + orbit.get(k, 0)
                     for k in {**g.entries, **orbit}})


def _divided(X, total):
    """The G-average total / |G| of a sum of conjugates, over Q."""
    return {n: EquivMap(f.source, f.target,
                        {k: QQ.normalize(Fraction(v, X.group.order))
                         for k, v in f.entries.items()})
            for n, f in total.items()}


def test_scaled_check_agrees_with_fraction_check(monkeypatch):
    # every rational certificate of the acceptance inputs (carried, the
    # sum of its G-conjugates against |G| id, and that sum divided by
    # |G| against id), and the same certificate with one orbit of entries
    # of its lowest component off by 1/|G|: both checks give the same
    # verdict
    from ttperm import homotopy, koszul
    real = homotopy.check_homotopy
    carried, sums = [], []

    def recording(seen):
        def check(X, Y, f, h):
            if X.ring is QQ:
                seen.append((X, Y, f, h))
            return real(X, Y, f, h)
        return check

    monkeypatch.setattr(homotopy, "check_homotopy", recording(carried))
    monkeypatch.setattr(koszul, "check_homotopy", recording(sums))
    for G, H in _acceptance_pairs():
        base_change_koszul_check(G, H, prime_power(G.order)[0])
    monkeypatch.undo()
    assert len(carried) == len(sums) == 11      # one of each per pair
    seen = carried + sums
    for X, Y, f, h in sums:
        ident = {n: {(i, i): 1 for i in range(M.rank)}
                 for n, M in X.terms.items()}
        seen.append((X, Y, ident, _divided(X, h)))
    for X, Y, f, h in seen:
        assert _fraction_check_homotopy(X, Y, f, h)
        real(X, Y, f, h)
        n = min(h)
        bad = dict(h)
        bad[n] = _orbit_shifted(h[n], min(h[n].entries),
                                Fraction(1, X.group.order))
        assert not _fraction_check_homotopy(X, Y, f, bad)
        with pytest.raises(CertificateError, match="identity fails"):
            real(X, Y, f, bad)


_SCALED_CHECK_MUTATIONS = """
import sys
from fractions import Fraction
from math import lcm
from ttperm import homotopy
from ttperm.chain import base_change_complex
from ttperm.grp import cyclic
from ttperm.koszul import koszul_object
from ttperm.permod import CertificateError, EquivMap, HomOrbits
from ttperm.rings import ZZ, QQ

assert sys.flags.optimize
G = cyclic(3)
kos = koszul_object(G, G.trivial_subgroup(), ZZ)
X = base_change_complex(kos.complex, QQ)
total = homotopy._average_homotopy(X, {n: f.entries for n, f
                                       in kos.certificate.h.items()})
ident = {n: {(i, i): 1 for i in range(M.rank)} for n, M in X.terms.items()}
homotopy.check_homotopy(X, X, {n: {(i, i): G.order for i in range(M.rank)}
                               for n, M in X.terms.items()}, total)
h = {n: EquivMap(f.source, f.target, {k: QQ.normalize(Fraction(v, G.order))
                                      for k, v in f.entries.items()})
     for n, f in total.items()}
homotopy.check_homotopy(X, X, ident, h)
D = lcm(*(v.denominator for f in h.values() for v in f.entries.values()))
print("D", D)
n = min(h)
# the orbit of the entry k of h_n, its entries off by 1/|G|: equivariant
g, k = h[n], min(h[n].entries)
H = HomOrbits(g.source, g.target)
code = H.code[k[1] * g.target.rank + k[0]]
orbit = H.map({abs(code) - 1: Fraction(1 if code > 0 else -1, G.order)})
entries = {key: g.entries.get(key, 0) + orbit.entries.get(key, 0)
           for key in {**g.entries, **orbit.entries}}
# f = id except one diagonal entry D/(D-1): D f is not integral there,
# though truncating D // (D-1) to 1 would give back D . id
f = {m: dict(e) for m, e in ident.items()}
f[0][(0, 0)] = Fraction(D, D - 1)
bad_h = dict(h)
bad_h[n] = EquivMap(g.source, g.target, entries)
bad = {"h": (ident, bad_h), "f": (f, h)}
for name, (f, h) in bad.items():
    try:
        homotopy.check_homotopy(X, X, f, h)
        sys.exit("a mutated %s passed check_homotopy" % name)
    except CertificateError as exc:
        print(name, exc)
"""


def test_scaled_check_rejects_mutations_under_python_O(python_O):
    proc = python_O(_SCALED_CHECK_MUTATIONS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "D 3",
        "h homotopy identity fails at degree 0",
        "f homotopy identity fails at degree 0",
    ]


_CONSTRUCTION_CHECKS = """
import sys
from ttperm import koszul
from ttperm.chain import Complex, tensor_complex, unit_complex, transport_complex
from ttperm.grp import cyclic, parse_group_name, subgroups
from ttperm.permod import subgroup_as_group, tensor_module, trivial_module
from ttperm.rings import ZZ, QQ

assert sys.flags.optimize
C2, C3, C8 = cyclic(2), cyclic(3), cyclic(8)
S = [S for S in subgroups(parse_group_name("D8"))
     if S.order == 2 and not S.is_normal()][0]


def base(S):
    return koszul.koszul_base(subgroup_as_group(S)[0], ZZ)


callers_bugs = {
    "tensor_complex": lambda: tensor_complex(unit_complex(C2, ZZ),
                                             unit_complex(C3, ZZ)),
    "tensor_module": lambda: tensor_module(trivial_module(C2, ZZ),
                                           trivial_module(C2, QQ)),
    "transport": lambda: transport_complex(unit_complex(C2, ZZ), C3),
    "index": lambda: koszul.tensor_induce(base(C8.trivial_subgroup()),
                                          C8.trivial_subgroup()),
    "normal": lambda: koszul.tensor_induce(base(S), S),
    "filtration": lambda: koszul.index2_filtration(C3, C3.trivial_subgroup()),
    "p-group": lambda: koszul._build_koszul(cyclic(6),
                                            cyclic(6).trivial_subgroup(), ZZ),
}
for name, build in callers_bugs.items():
    try:
        build()
        sys.exit("%s accepted a caller's bug" % name)
    except ValueError as exc:
        print(name, exc)

X = koszul.tensor_induce(base(C2.trivial_subgroup()), C2.trivial_subgroup())
Complex.all_terms_permutation = lambda self: False
try:
    koszul.sign_modify(X, C2.trivial_subgroup(), {0: {(0, 0): 1}})
    sys.exit("sign modification passed with a signed term")
except koszul.KoszulVerificationError as exc:
    print("sign_modify", exc)
koszul.rebase_to_permutation = lambda M: None
try:
    koszul._build_koszul(C3, C3.trivial_subgroup(), ZZ)
    sys.exit("odd-p tensor induction passed without a rebase")
except koszul.KoszulVerificationError as exc:
    print("rebase", exc)
"""


def test_tensor_and_koszul_construction_checks_survive_python_O(python_O):
    # a caller's bug is a ValueError and a failed construction a
    # KoszulVerificationError (exit 2), neither an assert that -O strips
    proc = python_O(_CONSTRUCTION_CHECKS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "tensor_complex tensor factors over different groups or rings",
        "tensor_module tensor factors over different groups or rings",
        "transport groups differ as tables, not just as objects",
        "index index bound exceeded (index 8 > 4)",
        "normal tensor induction requires a normal subgroup",
        "filtration no index-2 step above 1",
        "p-group Koszul objects need a p-group, not C6",
        "sign_modify sign modification left a signed term",
        "rebase odd-p tensor induction failed to rebase at degree 0",
    ]


def test_the_finished_tower_is_not_transported(monkeypatch):
    # the top level of a p = 2 tower lives over G itself, so the last
    # sign modification is the complex, its modules built nowhere else
    from ttperm import koszul
    real, last = koszul.sign_modify, []

    def recording(X, S, h):
        out = real(X, S, h)
        last[:] = [out[0]]
        return out

    monkeypatch.setattr(koszul, "sign_modify", recording)
    for gname in ("C4", "C2xC2"):
        G = parse_group_name(gname)
        X, _, _ = koszul._build_koszul(G, G.trivial_subgroup(), ZZ)
        assert X.group is G and X is last[0]


# ---------------------------------------------------------------------------
# the contraction built along the tower

BUILT = [("C4", "1"), ("C8", "C2"), ("C2xC2", "1"), ("C2xC2", "C2#0"),
         ("C2xC2", "C2#1"), ("C2xC2", "C2#2"), ("C2xC2", "C2xC2"),
         ("D8", "C2#1"), ("Q8", "C2"), ("C9", "C3"), ("C27", "C9")]


@pytest.mark.parametrize("gname, sub", BUILT, ids=["/".join(b) for b in BUILT])
def test_built_contraction_matches_the_sweep_oracle(gname, sub):
    # the certificate built along the tower verifies on Res_H X, the
    # sweep contracts the same Res_H X from scratch, and the from-scratch
    # recheck reports the audit the built path reported
    from ttperm.chain import restrict_complex
    from ttperm.cli import resolve_subgroup
    G = parse_group_name(gname)
    H = resolve_subgroup(G, sub)[0]
    p = prime_power(G.order)[0]
    for ring in (ZZ, QQ, GF(p)):
        kos = koszul_object(G, H, ring)
        assert kos.certificate.verify()
        ok, solved = is_contractible(restrict_complex(kos.complex, H))
        assert ok and solved.verify()
        report, _ = verify_koszul(kos.complex, G, H, ring)
        assert report == kos.audit["checks"]
        assert all(report.values())


def test_koszul_certify_solves_nothing(monkeypatch, capsys):
    # the four koszul-certify benchmark commands, in process: no
    # contraction sweep and no solve, over any ring
    from ttperm import homotopy
    from ttperm.cli import run
    calls = []
    for name in ("_contract_equivariant", "solve_sparse"):
        real = getattr(homotopy, name)
        monkeypatch.setattr(homotopy, name, lambda *args, real=real,
                            name=name, **kwargs:
                            calls.append(name) or real(*args, **kwargs))
    for command in ("kos --group C4 --subgroup 1 --verify",
                    "kos --group C2xC2 --subgroup 1 --ring Z",
                    "kos --group C2xC2 --subgroup 1 --ring F3",
                    "kos --group C9 --subgroup C3 --verify"):
        assert run(command.split()) == 0, command
        capsys.readouterr()
    assert calls == []


_MUTATED_RULE = """
import inspect
import sys
from ttperm import koszul
from ttperm.cli import run

assert sys.flags.optimize
source = inspect.getsource(koszul._cone_contraction)
if source.count(old) != 1:
    sys.exit("the rule to mutate is not in _cone_contraction")
exec(source.replace(old, new), vars(koszul))
sys.exit(run(["kos", "--group", "C2xC2", "--subgroup", "1"]))
"""


@pytest.mark.parametrize("old, new", [
    # K sends e_other (x) x to +(1 (x) x)
    ("acc[(up + x, b + t + x)] = minus", "acc[(up + x, b + t + x)] = 1"),
    # Phi folds e_other (x) x onto +x: no -1 on the second coset
    ("acc[(r, c + t)] = ring.normalize(-v)", "acc[(r, c + t)] = v"),
], ids=["K-sign", "Phi-minus"])
def test_mutated_cone_rule_fails_the_homotopy_check_under_python_O(
        python_O, old, new):
    import json
    proc = python_O("old, new = %r, %r\n" % (old, new) + _MUTATED_RULE)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    assert out["error"] == "CertificateError"
    assert out["message"].startswith("homotopy identity fails at degree ")


# stdout digests recorded from the parent, whose kos solved for the
# contraction of Res_H X
_KOSZUL_DIGESTS = {
    "kos --group C2xC2 --subgroup 1 --verify":
        "bfd7dfcb25596e9a25a2e74126af5e311e744f6766d58feed1e0489249249181",
    "kos --group D8 --subgroup C2#1 --verify":
        "167767bfb91b70d93fbbc16fc4b1e3895e482521ea9525f506d9441a8dcb735e",
    "kos --group Q8 --subgroup C2 --ring Z":
        "c7a00251133013d91acaf0691658963669a0e31676c48e4bb763d7ee5489a2e7",
    "kos --group C4xC4 --subgroup C4#0 --ring Z":
        "35f45a467afb4a40b1fe5d903f7cc3310e01f11ab92c16287b6a4383734f7598",
    "kos --group C27 --subgroup C9 --verify":
        "2b2b84c8063bda1200dbaec2c6e572c89b37fe6cb4197328950c945505dc9d30",
    "kos --group C3xC3 --subgroup C3#0 --ring F3":
        "a8e5df326f6726e6abd5fd5ececa25264685c20f78e6ce926cc2431d4b0c8586",
    "kos --group C8 --subgroup C2 --ring Q":
        "480453a195914131a65d6ea703954ca66a208819579a3508c73b8ab243d8ed5e",
}


@pytest.mark.parametrize("command", sorted(_KOSZUL_DIGESTS))
def test_built_contractions_keep_recorded_digests(capsys, command):
    import hashlib
    from ttperm.cli import run
    assert run(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _KOSZUL_DIGESTS[command]
