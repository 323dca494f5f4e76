"""Koszul objects: permutation-module complexes with certified shape.

Postconditions under test for kos(G, H): every term is a permutation
module, the degree-0 term is the trivial module, the degree-1 term is
induced from H, the complex is acyclic, and its restriction to H is
contractible with an explicit certificate.  Rank vectors are frozen
regression values.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from ttperm.grp import cyclic, parse_group_name, subgroups
from ttperm.rings import ZZ, QQ, GF, prime_power
from ttperm.chain import base_change_complex
from ttperm.homotopy import is_contractible
from ttperm.permod import CertificateError, EquivMap
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
    # the Z contraction is carried to F_p and Q; acyclicity comes from
    # it, so no homology profile runs either
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
    assert rings and set(rings) == {"Z"}
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
    for ring in ((GF(2), QQ) if delta == 1 else (QQ,)):
        X = base_change_complex(kos.complex, ring)
        with pytest.raises(CertificateError, match="identity fails"):
            verify_koszul(X, G, H, ring, contraction=kos.certificate)
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
    X, _ = _build_koszul(G, H, ZZ)
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
    False."""
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


def _divided(X, total):
    """The G-average total / |G| of a sum of conjugates, over Q."""
    return {n: EquivMap(f.source, f.target,
                        {k: QQ.normalize(Fraction(v, X.group.order))
                         for k, v in f.entries.items()})
            for n, f in total.items()}


def test_scaled_check_agrees_with_fraction_check(monkeypatch):
    # every rational certificate of the acceptance inputs (carried, the
    # sum of its G-conjugates against |G| id, and that sum divided by
    # |G| against id), and the same certificate with one entry of its
    # lowest component off by 1/|G|: both checks give the same verdict
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
        entries = dict(h[n].entries)
        k = min(entries)
        entries[k] = QQ.normalize(entries[k] + Fraction(1, X.group.order))
        bad = dict(h)
        bad[n] = SimpleNamespace(entries=entries)
        assert not _fraction_check_homotopy(X, Y, f, bad)
        with pytest.raises(CertificateError, match="identity fails"):
            real(X, Y, f, bad)


_SCALED_CHECK_MUTATIONS = """
import sys
from fractions import Fraction
from math import lcm
from types import SimpleNamespace
from ttperm import homotopy
from ttperm.chain import base_change_complex
from ttperm.grp import cyclic
from ttperm.koszul import koszul_object
from ttperm.permod import CertificateError, EquivMap
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
entries = dict(h[n].entries)
k = min(entries)
entries[k] = QQ.normalize(entries[k] + Fraction(1, G.order))
# f = id except one diagonal entry D/(D-1): D f is not integral there,
# though truncating D // (D-1) to 1 would give back D . id
f = {m: dict(e) for m, e in ident.items()}
f[0][(0, 0)] = Fraction(D, D - 1)
bad_h = dict(h)
bad_h[n] = SimpleNamespace(entries=entries)
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
    koszul.sign_modify(X, C2.trivial_subgroup())
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

    def recording(X, S):
        out = real(X, S)
        last[:] = [out[0]]
        return out

    monkeypatch.setattr(koszul, "sign_modify", recording)
    for gname in ("C4", "C2xC2"):
        G = parse_group_name(gname)
        X, _ = koszul._build_koszul(G, G.trivial_subgroup(), ZZ)
        assert X.group is G and X is last[0]
