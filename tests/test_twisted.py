"""Twisted cohomology of cyclic/elementary abelian groups.

Closed-form oracles (written first, independent of the table code):

* C2 over F_2: the bigraded ring is k[a, b] with deg a = (0, 1) and
  deg b = (-1, 1); the (shift s, twist q) entry is one-dimensional
  exactly when -q <= s <= 0, spanned by a^(q+s) * b^(-s).
* C3 over F_3: k[a, b, c]/(c^2) with deg a = (0, 1), b = (-2, 1),
  c = (-1, 1); the entry is one-dimensional exactly when 0 <= -s <= 2q.
* C2 over Z: entry at (s, q) is 0 unless s is even and -q <= s <= 0;
  it is Z when s = -q (so q even) and Z/2 otherwise.
* C3 over Z: entry is 0 unless s is even and -2q <= s <= 0; it is Z
  when s = -2q and Z/3 otherwise.

The integral relation lists contain p * a-multiples only: the top
class b is torsion-free in every computed bidegree, so no relation
p * b = 0 is emitted; tests pin this down rather than hiding it.
"""

import gc
import weakref

import pytest

from ttperm.grp import Group, cyclic, parse_group_name, subgroups
from ttperm.rings import ZZ, QQ, GF
from ttperm.homotopy import check_homotopy, hom_group
from ttperm.twisted import (u_degree, u_complex, index_p_normal_subgroups,
                            Twist, canonical_u_power, twisted_table,
                            ring_presentation, relation_strings,
                            generator_maps, class_product, class_power,
                            unit_class, restriction_check,
                            base_change_class_check, nilpotence_check,
                            certified_null_homotopy, scaled_class,
                            localize_twist0, is_elementary_abelian)


def dims_c2_f2(s, q):
    return 1 if -q <= s <= 0 else 0


def mono_c2_f2(s, q):
    i, j = q + s, -s
    out = []
    if i:
        out.append("a" if i == 1 else "a^%d" % i)
    if j:
        out.append("b" if j == 1 else "b^%d" % j)
    return "*".join(out) or "1"


def dims_c3_f3(s, q):
    return 1 if 0 <= -s <= 2 * q else 0


def label_c2_z(s, q):
    if s % 2 or not -q <= s <= 0:
        return "0"
    return "Z" if s == -q else "Z/2"


def label_c3_z(s, q):
    if s % 2 or not -2 * q <= s <= 0:
        return "0"
    return "Z" if s == -2 * q else "Z/3"


C2Z_RELATIONS = [
    "(-2): -2*a*b = 0", "(-2): -2*a^2*b = 0",
    "(0): -2*a = 0", "(0): -2*a^2 = 0",
    "(0): -2*a^3 = 0", "(0): -2*a^4 = 0",
]

C3Z_RELATIONS = [
    "(-2): -3*a*b = 0", "(-2): -3*a^2*b = 0", "(-2): -3*a^3*b = 0",
    "(-4): -3*a*b^2 = 0", "(-4): -3*a^2*b^2 = 0", "(-6): -3*a*b^3 = 0",
    "(0): -3*a = 0", "(0): -3*a^2 = 0", "(0): -3*a^3 = 0",
    "(0): -3*a^4 = 0",
]

C3F3_RELATIONS = [
    "(-2): a*c^2 = 0", "(-2): a^2*c^2 = 0", "(-2): c^2 = 0",
    "(-3): a*c^3 = 0", "(-3): c^3 = 0",
    "(-4): a*b*c^2 = 0", "(-4): b*c^2 = 0", "(-4): c^4 = 0",
    "(-5): b*c^3 = 0", "(-6): b^2*c^2 = 0",
]


def table_cells(table):
    for (s, qk), ent in sorted(table.entries.items()):
        yield s, sum(e for _, e in qk), ent


def test_u_degree():
    assert u_degree(2) == 1
    assert u_degree(3) == 2
    assert u_degree(5) == 2


def test_u_complex_shape():
    for p in (2, 3, 5):
        G = cyclic(p)
        N = index_p_normal_subgroups(G)[0]
        X = u_complex(G, N, ZZ)
        assert X.min_degree == 0
        assert X.max_degree == u_degree(p)
        assert X.term(0).rank == 1  # twisted objects are unit-like at 0


def test_twist_monoid():
    G = cyclic(4)
    N = index_p_normal_subgroups(G)[0]
    e = Twist.single(N)
    assert e.total() == 1
    assert Twist.single(N, 3).total() == 3
    assert (e + Twist.single(N, 2)).total() == 3
    assert Twist.zero().total() == 0
    assert e + Twist.zero() == e
    assert e + e == Twist.single(N, 2)  # commutative monoid on exponents
    assert e.exponent(N) == 1 and Twist.zero().exponent(N) == 0
    assert e.support()[0].elements == N.elements


def test_twisted_table_data_is_freed_with_its_group():
    # canonical powers, transports and hom groups live on the group and
    # the complexes, not in module-level dictionaries
    G = cyclic(3)
    table = twisted_table(G, ZZ, 2)
    Y = canonical_u_power(G, Twist.single(index_p_normal_subgroups(G)[0]),
                          ZZ)
    assert Y.hom_groups
    refs = [weakref.ref(G), weakref.ref(Y)]
    del G, table, Y
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_canonical_u_power_ranks_grow_with_twist():
    G = cyclic(2)
    r = []
    for q in range(0, 4):
        Y = canonical_u_power(G, Twist.single(
            index_p_normal_subgroups(G)[0], q), ZZ)
        r.append(Y.total_rank())
    assert r[0] == 1
    assert all(a <= b for a, b in zip(r, r[1:]))


def test_table_c2_f2_matches_polynomial_ring():
    tab = twisted_table(cyclic(2), GF(2), 4)
    assert tab.shift_window == (-4, 0)
    seen = 0
    for s, q, ent in table_cells(tab):
        dim = ent["free_rank"] + len(ent["torsion"])
        assert dim == dims_c2_f2(s, q), (s, q)
        monos = [m for m, _ in ent["monomials"]]
        if dim:
            assert len(monos) == 1
        seen += 1
    assert seen == 25
    rep = ring_presentation(tab)
    assert relation_strings(rep) == []  # polynomial ring: no relations
    assert sorted(g for g, _ in rep["generators"]) == ["a", "b"]


def test_table_c2_f2_monomials():
    from ttperm.twisted import mono_str
    tab = twisted_table(cyclic(2), GF(2), 4)
    for s, q, ent in table_cells(tab):
        if dims_c2_f2(s, q):
            assert [mono_str(m) for m, _ in ent["monomials"]] == \
                [mono_c2_f2(s, q)], (s, q)


def test_table_c3_f3_matches_truncated_ring():
    tab = twisted_table(cyclic(3), GF(3), 4, shift_window=(-8, 0))
    for s, q, ent in table_cells(tab):
        dim = ent["free_rank"] + len(ent["torsion"])
        assert dim == dims_c3_f3(s, q), (s, q)
    rels = sorted(relation_strings(ring_presentation(tab)))
    assert rels == C3F3_RELATIONS
    # every relation is a multiple of c^2 = 0
    assert all("c^" in r for r in rels)


def test_table_c2_z_labels_and_relations():
    tab = twisted_table(cyclic(2), ZZ, 4)
    for s, q, ent in table_cells(tab):
        assert ent["label"] == label_c2_z(s, q), (s, q)
    rels = sorted(relation_strings(ring_presentation(tab)))
    assert rels == sorted(C2Z_RELATIONS)


def test_table_c3_z_labels_and_relations():
    tab = twisted_table(cyclic(3), ZZ, 4, shift_window=(-8, 0))
    for s, q, ent in table_cells(tab):
        assert ent["label"] == label_c3_z(s, q), (s, q)
    rels = sorted(relation_strings(ring_presentation(tab)))
    assert rels == sorted(C3Z_RELATIONS)


def test_integral_tables_report_torsion_free_top_class():
    # no relation of the form p*b^k = 0 is emitted: the class b is
    # torsion-free wherever it generates, and the tests record that
    # instead of hiding it
    for p in (2, 3):
        ring_rels = C2Z_RELATIONS if p == 2 else C3Z_RELATIONS
        for r in ring_rels:
            assert "a" in r  # every torsion relation involves a
        tab = twisted_table(cyclic(p), ZZ, 4,
                            shift_window=(-2 * u_degree(p) * 4, 0))
        for s, q, ent in table_cells(tab):
            if ent["label"] == "Z":
                assert ent["torsion"] == ()


def test_table_json_round_trip_format():
    tab = twisted_table(cyclic(2), GF(2), 2)
    data = tab.to_json()
    assert data["s=0,q=()"] == {"group": "F_2", "free_rank": 1,
                                "torsion": [], "monomials": ["1"]}
    assert data["s=-1,q=(0:1)"]["monomials"] == ["b"]


def test_generator_maps_cases():
    C2, C3 = cyclic(2), cyclic(3)
    N2 = index_p_normal_subgroups(C2)[0]
    N3 = index_p_normal_subgroups(C3)[0]
    gm = generator_maps(C2, N2, GF(2))
    assert gm["case"] == "C1" and set(gm) >= {"a", "b"}
    assert "c" not in gm
    gm = generator_maps(C2, N2, ZZ)
    assert gm["case"] == "C2"
    assert gm["b"].twist.total() == 2  # b lives in twist 2 integrally
    gm = generator_maps(C3, N3, GF(3))
    assert gm["case"] == "C3" and "c" in gm
    assert gm["c"].shift == -1
    gm = generator_maps(C3, N3, ZZ)
    assert gm["case"] == "C4" and "c" not in gm


def test_class_product_adds_bidegrees():
    G = cyclic(3)
    N = index_p_normal_subgroups(G)[0]
    gm = generator_maps(G, N, GF(3))
    ab = class_product(gm["a"], gm["b"])
    assert ab.shift == gm["a"].shift + gm["b"].shift
    assert ab.twist.total() == 2
    b2 = class_power(gm["b"], 2)
    assert b2.shift == -4 and b2.twist.total() == 2
    one = unit_class(G, GF(3))
    assert class_product(one, gm["a"]).shift == gm["a"].shift


def test_nilpotence_of_c():
    G = cyclic(3)
    N = index_p_normal_subgroups(G)[0]
    report = nilpotence_check(G, N, GF(3))
    assert report["case"] == "C3"
    assert report["c_squared_null"] is True
    # no c over F_2
    G2 = cyclic(2)
    N2 = index_p_normal_subgroups(G2)[0]
    assert nilpotence_check(G2, N2, GF(2))["c"] == "absent"


def test_p_times_a_is_certified_null():
    for p in (2, 3):
        G = cyclic(p)
        N = index_p_normal_subgroups(G)[0]
        gm = generator_maps(G, N, ZZ)
        h = certified_null_homotopy(scaled_class(gm["a"], p))
        assert h is not None, p


def test_p_times_b_is_not_null():
    for p in (2, 3):
        G = cyclic(p)
        N = index_p_normal_subgroups(G)[0]
        gm = generator_maps(G, N, ZZ)
        assert certified_null_homotopy(scaled_class(gm["b"], p)) is None, p
        assert certified_null_homotopy(gm["a"]) is None  # a itself nonzero


def test_restriction_check_all_combinations():
    for gname in ("C4", "C2xC2"):
        G = parse_group_name(gname)
        for N in index_p_normal_subgroups(G):
            for H in subgroups(G):
                report = restriction_check(G, N, H)
                assert report["ok"], (gname, N.describe(), H.describe())


def test_restriction_check_shapes():
    G = cyclic(4)
    N = index_p_normal_subgroups(G)[0]
    inside = restriction_check(G, N, [S for S in subgroups(G)
                                      if S.order == 2][0])
    assert inside["u_shape"] == "unit shift"
    assert inside["a_to_zero"] and inside["b_to_id"]
    outside = restriction_check(G, N, G.full_subgroup())
    assert outside["u_shape"] == "u of the intersection"
    assert outside["a_to_a"] and outside["b_to_b"]


def test_base_change_class_check():
    C2 = cyclic(2)
    rep2 = base_change_class_check(C2, index_p_normal_subgroups(C2)[0])
    assert rep2["a_reduces_to_a"]
    assert rep2["b_reduces_to"] == "b^2"
    assert rep2["b_ok"] and rep2["ok"]
    C3 = cyclic(3)
    rep3 = base_change_class_check(C3, index_p_normal_subgroups(C3)[0])
    assert rep3["a_reduces_to_a"]
    assert rep3["b_reduces_to"] == "b"
    assert rep3["ok"]


def test_rational_tables_collapse():
    # over Q only the fundamental classes survive
    tab = twisted_table(cyclic(3), QQ, 3, shift_window=(-6, 0))
    for s, q, ent in table_cells(tab):
        expect = "Q" if s == -2 * q else "0"
        assert ent["label"] == expect, (s, q)


def test_localize_frozen_hilbert_functions():
    C2 = cyclic(2)
    tab = twisted_table(C2, ZZ, 8)
    rep = localize_twist0(tab, C2.trivial_subgroup())
    assert rep["inverted"] == "b"
    assert rep["hilbert"] == {-4: "0", -3: "0", -2: "0", -1: "0",
                              0: "Z", 1: "0", 2: "Z/2", 3: "0", 4: "Z/2"}
    rep = localize_twist0(tab, C2.full_subgroup())
    assert rep["inverted"] == "a"
    assert rep["hilbert"] == {-4: "Z/2", -3: "0", -2: "Z/2", -1: "0",
                              0: "Z/2", 1: "0", 2: "0", 3: "0", 4: "0"}


def test_localize_frozen_hilbert_functions_c3():
    C3 = cyclic(3)
    tab = twisted_table(C3, ZZ, 5, shift_window=(-10, 0))
    rep = localize_twist0(tab, C3.trivial_subgroup())
    assert rep["hilbert"] == {-4: "0", -3: "0", -2: "0", -1: "0",
                              0: "Z", 1: "0", 2: "Z/3", 3: "0", 4: "Z/3"}
    rep = localize_twist0(tab, C3.full_subgroup())
    assert rep["hilbert"] == {-4: "Z/3", -3: "0", -2: "Z/3", -1: "0",
                              0: "Z/3", 1: "0", 2: "0", 3: "0", 4: "0"}


def test_is_elementary_abelian():
    assert is_elementary_abelian(cyclic(2))
    assert is_elementary_abelian(parse_group_name("C2xC2"))
    assert is_elementary_abelian(cyclic(1))
    assert not is_elementary_abelian(cyclic(4))
    assert not is_elementary_abelian(parse_group_name("C6"))


def test_is_elementary_abelian_with_the_identity_at_any_index():
    # C2xC2 with the labels 0 and 3 swapped: the identity is element 3
    G = parse_group_name("C2xC2")
    swap = [3, 1, 2, 0]
    table = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            table[swap[a]][swap[b]] = swap[G.table[a][b]]
    H = Group(table, "C2xC2 relabelled")
    assert H.identity == 3
    assert is_elementary_abelian(H)


def _generates_by_smith_form(ring, facs, cols):
    """The Smith-form criterion that ``_generates`` replaced, kept as its
    reference: the cokernel of [cols | diag(facs)] has no summand left,
    by the determinantal-divisor oracle of the Smith form tests."""
    from test_homotopy import determinantal_factors
    t = len(facs)
    cols = [list(c) for c in cols]
    for i, d in enumerate(facs):
        if d != 0:
            col = [ring.zero] * t
            col[i] = ring.from_int(d)
            cols.append(col)
    A = [[col[i] for col in cols] for i in range(t)]
    return not determinantal_factors(ring, A)


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3), QQ], ids=str)
def test_generates_matches_the_smith_form_criterion(ring):
    import random
    from ttperm.twisted import _generates
    rnd = random.Random(11)
    # non-unit invariant factors: torsion over Z, only 0 over a field
    factors = [0, 2, 3, 4, 6] if ring is ZZ else [0]
    seen = set()
    for trial in range(300):
        t = rnd.randint(0, 4)
        facs = [ring.from_int(rnd.choice(factors)) for _ in range(t)]
        cols = [tuple(ring.normalize(rnd.choice([0, 0, 1, -1, 2, 3]))
                      for _ in range(t))
                for _ in range(rnd.randint(0, 4))]
        want = _generates_by_smith_form(ring, facs, cols)
        assert _generates(ring, facs, cols) == want, (trial, facs, cols)
        seen.add(want)
    assert seen == {True, False}


def _layer_dedupe_monomials(G, ring, max_twist):
    """The frontier twisted_table used before each monomial was formed
    from its prefix: every frontier class times every generator, a
    product kept only the first time its layer forms its monomial."""
    from ttperm.twisted import _mono_mul
    Ns = index_p_normal_subgroups(G)
    smin = -u_degree(Ns[0].index) * max_twist
    gens = []
    for N in Ns:
        gm = generator_maps(G, N, ring)
        gens += [gm[sym] for sym in ("a", "b", "c") if sym in gm]
    monos = {(): unit_class(G, ring)}
    frontier = dict(monos)
    while frontier:
        new = {}
        for z in frontier.values():
            for g in gens:
                m = _mono_mul(z.mono, g.mono)
                if (z.twist.total() + g.twist.total() > max_twist
                        or z.shift + g.shift < smin or m in new):
                    continue
                new[m] = class_product(z, g)
        monos.update(new)
        frontier = new
    return monos


@pytest.mark.parametrize("group, ring, max_twist", [
    ("C2xC2", GF(2), 2),
    ("C3xC3", GF(3), 2),
    ("C2xC2xC2", GF(2), 2),
])
def test_the_frontier_forms_the_layer_dedupe_products(monkeypatch, group,
                                                      ring, max_twist):
    from ttperm import twisted
    old_G = parse_group_name(group)
    old = _layer_dedupe_monomials(old_G, ring, max_twist)
    formed = []

    def spy(z1, z2):
        formed.append(class_product(z1, z2))
        return formed[-1]

    monkeypatch.setattr(twisted, "class_product", spy)
    G = parse_group_name(group)
    twisted_table(G, ring, max_twist)
    new = {z.mono: z.cycle for z in formed}
    # one product per monomial, the same monomials with the same cycles
    assert len(new) == len(formed)
    assert new == {m: z.cycle for m, z in old.items() if m}
    # and the same transports
    assert {key for key in G.twist_complexes if len(key) == 3} == \
        {key for key in old_G.twist_complexes if len(key) == 3}


def test_transport_without_equivalence_is_a_theory_failure(monkeypatch):
    from ttperm import twisted
    from ttperm.homotopy import Inconclusive
    monkeypatch.setattr(twisted, "unit_equivalence",
                        lambda f, n0: Inconclusive("no candidate"))
    G = cyclic(2)
    q = Twist.single(index_p_normal_subgroups(G)[0])
    with pytest.raises(twisted.TheoryCheckFailure,
                       match="no canonical identification"):
        twisted._transport(G, ZZ, q, q)
    assert not G.twist_complexes.get((ZZ, q.key(), q.key()))


_TRANSPORT_WITHOUT_EQUIVALENCE = """
import sys
from ttperm import twisted
from ttperm.grp import cyclic
from ttperm.homotopy import Inconclusive
from ttperm.rings import ZZ

assert sys.flags.optimize
twisted.unit_equivalence = lambda f, n0: Inconclusive("no candidate")
G = cyclic(2)
q = twisted.Twist.single(twisted.index_p_normal_subgroups(G)[0])
try:
    twisted._transport(G, ZZ, q, q)
    sys.exit("a transport without an equivalence passed")
except twisted.TheoryCheckFailure as exc:
    print(exc)
"""


def test_transport_check_survives_python_O(python_O):
    proc = python_O(_TRANSPORT_WITHOUT_EQUIVALENCE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("no canonical identification")


@pytest.mark.parametrize("group", ["C2", "C3", "C5", "C3xC3"])
@pytest.mark.parametrize("ring_name", ["Z", "Q", "F_p"])
def test_the_unit_lifts_through_every_single_tower(monkeypatch, group,
                                                   ring_name):
    # in degrees >= 1 every orbit of can(N^a) (x) can(N^b) has stabilizer
    # N, which acts trivially on can(N^(a+b)): each step of the lift meets
    # one class and solves, and the lift is an equivalence
    from ttperm import homotopy
    from ttperm.homotopy import (Equivalence, _lift_chain_map,
                                 _source_classes, _try_equivalence)
    from ttperm.permod import EquivMap
    from ttperm.chain import tensor_complex
    G = parse_group_name(group)
    N = index_p_normal_subgroups(G)[0]
    ring = {"Z": ZZ, "Q": QQ, "F_p": GF(N.index)}[ring_name]
    steps = []
    real = homotopy._sweep_step

    def spy(source, d, b, C, n, tables, kept_rows):
        out = real(source, d, b, C, n, tables, kept_rows)
        steps.append((n + 1, list(_source_classes(source)), out is not None))
        return out

    monkeypatch.setattr(homotopy, "_sweep_step", spy)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            X = tensor_complex(canonical_u_power(G, Twist.single(N, a), ring),
                               canonical_u_power(G, Twist.single(N, b), ring))
            Y = canonical_u_power(G, Twist.single(N, a + b), ring)
            del steps[:]
            f = _lift_chain_map(X, Y, EquivMap(X.terms[0], Y.terms[0],
                                               {(0, 0): ring.one}))
            assert f.component(0).entries == {(0, 0): ring.one}
            assert [n for n, _, _ in steps] == list(range(1, max(X.terms) + 1))
            for n, classes, solved in steps:
                assert classes == [(N.elements, (1,) * N.order)] and solved
            eq = _try_equivalence(f)
            assert isinstance(eq, Equivalence) and eq.verify()


_BROKEN_CANDIDATES = """
import json
import sys
from ttperm import chain, twisted
from ttperm.chain import ChainMap
from ttperm.cli import run
from ttperm.grp import cyclic
from ttperm.permod import EquivMap
from ttperm.rings import ZZ, GF

assert sys.flags.optimize
real = twisted._lift_chain_map


def times_p(X, Y, f0):
    # mu scaled by p = 3: p times the unit on homology
    f = real(X, Y, f0)
    return ChainMap(X, Y, {n: EquivMap(g.source, g.target, {
        k: 3 * v for k, v in g.entries.items()})
        for n, g in f.components.items()})


twisted._lift_chain_map = times_p
for ring in (ZZ, GF(3)):
    G = cyclic(3)
    q = twisted.Twist.single(twisted.index_p_normal_subgroups(G)[0])
    try:
        twisted._transport(G, ring, q, q)
        sys.exit("a transport scaled by p passed")
    except twisted.TheoryCheckFailure as exc:
        print(exc)
    if any(len(key) == 3 for key in G.twist_complexes):
        sys.exit("a failed transport was kept")


class FlippedPairing(ChainMap):
    # the evaluation pairing with the sign of its block u_1 (x) u_1^*
    # flipped
    def __init__(self, source, target, components):
        if target.total_rank() == 1 and 0 in components:
            f = components[0]
            labels = f.source.basis
            components = {0: EquivMap(f.source, f.target, {
                (r, c): -v if labels[c][0] == (1, -1) else v
                for (r, c), v in f.entries.items()})}
        super().__init__(source, target, components)


chain.ChainMap = FlippedPairing
print(run(["invert", "--group", "C3", "--ring", "Z"]))
"""


def test_broken_candidates_are_rejected_under_python_O(python_O):
    # a transport inducing p on homology is no identification, and an
    # evaluation pairing with a flipped block is no chain map; both
    # checks raise, also under python -O
    import json
    proc = python_O(_BROKEN_CANDIDATES)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for line, c in zip(lines[:2], ("3", "0")):
        assert line.startswith("no canonical identification"), line
        assert "induces %s on H_4" % c in line, line
    assert json.loads("\n".join(lines[2:-1])) == {
        "error": "CertificateError",
        "message": "square at degree 1 does not commute"}
    assert lines[-1] == "2"


_UNCONCENTRATED_POWER = """
import sys
from ttperm import twisted
from ttperm.grp import cyclic
from ttperm.rings import ZZ

assert sys.flags.optimize
twisted.homology_profile = lambda X: {0: (1, ()), 1: (0, (2,))}
G = cyclic(2)
q = twisted.Twist.single(twisted.index_p_normal_subgroups(G)[0])
try:
    twisted.canonical_u_power(G, q, ZZ)
    sys.exit("a power whose homology is not concentrated passed")
except twisted.TheoryCheckFailure as exc:
    print(exc)
"""


def test_homology_concentration_check_survives_python_O(python_O):
    proc = python_O(_UNCONCENTRATED_POWER)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "tensor power homology not concentrated: "
        "{0: (1, ()), 1: (0, (2,))}"]


_BAD_TWISTED_INPUTS = """
import sys
from types import SimpleNamespace
from ttperm import twisted
from ttperm.grp import cyclic, parse_group_name, subgroups
from ttperm.rings import ZZ, GF

assert sys.flags.optimize
C2, C4, D8 = cyclic(2), cyclic(4), parse_group_name("D8")
N = twisted.index_p_normal_subgroups(C2)[0]
reflection = [S for S in subgroups(D8) if not S.is_normal()][0]
bad = {
    "Twist subgroup": lambda: twisted.Twist([("N", 1)]),
    "Twist exponent": lambda: twisted.Twist([(N, -1)]),
    "normal": lambda: twisted.u_complex(D8, reflection, ZZ),
    "prime index": lambda: twisted.u_complex(C4, C4.trivial_subgroup(), ZZ),
    "class groups": lambda: twisted.class_product(
        twisted.unit_class(C2, ZZ), twisted.unit_class(C4, ZZ)),
    "class rings": lambda: twisted.class_product(
        twisted.unit_class(C2, ZZ), twisted.unit_class(C2, GF(2))),
    "elementary abelian": lambda: twisted.twisted_table(C4, ZZ, 1),
    "max_twist": lambda: twisted.twisted_table(C2, ZZ, 9),
    "cyclic": lambda: twisted.localize_twist0(
        SimpleNamespace(group=C2, ring=ZZ, subgroups=[N, N]), N),
}
for name, call in bad.items():
    try:
        call()
        sys.exit("a bad %s passed its check" % name)
    except ValueError as exc:
        print(name, "|", exc)
"""


def test_twisted_preconditions_raise_under_python_O(python_O):
    # a caller's bad input is a ValueError, not an assert that python -O
    # strips
    proc = python_O(_BAD_TWISTED_INPUTS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "Twist subgroup | a twist needs subgroups with nonnegative exponents",
        "Twist exponent | a twist needs subgroups with nonnegative exponents",
        "normal | twist subgroups must be normal",
        "prime index | twist subgroups must have prime index",
        "class groups | classes over different groups or rings",
        "class rings | classes over different groups or rings",
        "elementary abelian | tables need an elementary abelian group",
        "max_twist | bound exceeded: max_twist is limited to 8",
        "cyclic | localization needs a cyclic group",
    ]


# ---------------------------------------------------------------------------
# the frontier forms only the products the table keeps

def _old_frontier_monos(G, ring, max_twist, shift_window=None):
    """The monomial classes as the frontier loop found them when it
    formed every product first and dropped the ones outside the window
    or with a known monomial afterwards."""
    from ttperm.twisted import _mono_mul
    Ns = index_p_normal_subgroups(G)
    if shift_window is None:
        shift_window = (-u_degree(Ns[0].index) * max_twist, 0)
    smin = shift_window[0]
    gens = {}
    for N in Ns:
        gm = generator_maps(G, N, ring)
        for sym in ("a", "b", "c"):
            if sym in gm:
                gens[(sym, N.elements)] = gm[sym]
    monos = {(): unit_class(G, ring)}
    frontier = dict(monos)
    while frontier:
        new = {}
        for z in frontier.values():
            for g in gens.values():
                z2 = class_product(z, g)
                assert z2.mono == _mono_mul(z.mono, g.mono)
                if z2.twist.total() > max_twist or z2.shift < smin:
                    continue
                if z2.mono not in monos and z2.mono not in new:
                    new[z2.mono] = z2
        monos.update(new)
        frontier = new
    return monos


def _table_monos(monkeypatch, G, ring, max_twist, shift_window=None):
    """The monomial classes ``twisted_table`` tags its entries with,
    gathered from the classes each entry is handed; each entry gets
    exactly the classes of its own bidegree, in monomial order."""
    from ttperm import twisted
    seen = []
    real = twisted._table_entry

    def recording(G, ring, q, s, classes):
        assert all(z.twist == q and z.shift == s for _, z in classes)
        assert [m for m, _ in classes] == sorted(m for m, _ in classes)
        seen.extend(classes)
        return real(G, ring, q, s, classes)

    monkeypatch.setattr(twisted, "_table_entry", recording)
    twisted_table(G, ring, max_twist, shift_window)
    monkeypatch.undo()
    monos = dict(seen)
    assert len(monos) == len(seen)
    return monos


FRONTIER_CASES = [
    ("C2xC2", GF(2), 2, None),
    ("C3", ZZ, 5, (-10, 0)),
    ("C2", GF(2), 4, None),
    ("C3", GF(3), 3, None),
    ("C2xC2", ZZ, 2, None),
]


@pytest.mark.parametrize("case", FRONTIER_CASES[:2],
                         ids=lambda c: "%s-%s-%d" % c[:3])
def test_frontier_transports_only_twists_inside_the_table(case, monkeypatch):
    from ttperm import twisted
    group, ring, max_twist, window = case
    seen = []
    real = twisted._transport

    def recording(G, ring, q1, q2):
        seen.append((q1 + q2).total())
        return real(G, ring, q1, q2)

    monkeypatch.setattr(twisted, "_transport", recording)
    twisted_table(parse_group_name(group), ring, max_twist, window)
    assert seen
    assert max(seen) <= max_twist


@pytest.mark.parametrize("case", FRONTIER_CASES,
                         ids=lambda c: "%s-%s-%d" % c[:3])
def test_frontier_keeps_the_classes_the_old_loop_kept(case, monkeypatch):
    group, ring, max_twist, window = case
    new = _table_monos(monkeypatch, parse_group_name(group), ring,
                       max_twist, window)
    old = _old_frontier_monos(parse_group_name(group), ring, max_twist,
                              window)
    assert len(new) > len(index_p_normal_subgroups(parse_group_name(group)))
    assert new.keys() == old.keys()
    for mono, z in new.items():
        assert (z.twist, z.shift, z.cycle) == \
            (old[mono].twist, old[mono].shift, old[mono].cycle), mono
