"""Finite groups, subgroup enumeration, conjugation and sections.

Subgroup counts are checked against the classical lattices (C4 has 3
subgroups, C2xC2 has 5, Q8 has 6, D8 has 10, ...), and every reported
subgroup is re-verified to be closed under the group operations.
"""

import gc
import weakref

import pytest

from ttperm.grp import (cyclic, direct_product, dihedral, quaternion8,
                        parse_group_name, make_group, subgroups,
                        conjugation_table, sections_category, Subgroup,
                        Group, _is_elementary_abelian_section)
from ttperm.rings import factorize


def is_genuine_subgroup(G, S):
    elems = set(S.elements)
    if 0 not in elems:  # identity is element 0 by construction
        return False
    return all(G.mul(a, G.inv(b)) in elems for a in elems for b in elems)


def test_cyclic_groups():
    for n in (1, 2, 3, 4, 6, 8):
        G = cyclic(n)
        assert G.order == n
        assert G.name == "C%d" % n
        if n > 1:
            assert G.element_order(1) == n


def test_parse_group_name():
    assert parse_group_name("C4").order == 4
    assert parse_group_name("C2xC2").order == 4
    assert parse_group_name("C2xC3").order == 6
    assert parse_group_name("D8").order == 8
    assert parse_group_name("Q8").order == 8
    with pytest.raises(ValueError):
        parse_group_name("S3!")


SUBGROUP_COUNTS = {
    "C2": 2, "C3": 2, "C4": 3, "C6": 4, "C8": 4, "C9": 3, "C12": 6,
    "C2xC2": 5, "Q8": 6, "D8": 10, "C2xC4": 8, "C2xC2xC2": 16, "D16": 19,
}


def test_subgroup_counts_match_classical_lattices():
    for name, count in SUBGROUP_COUNTS.items():
        G = parse_group_name(name)
        subs = subgroups(G)
        assert len(subs) == count, name
        keys = {S.elements for S in subs}
        assert len(keys) == count  # no duplicates
        for S in subs:
            assert is_genuine_subgroup(G, S), (name, S.elements)
            assert G.order % S.order == 0  # Lagrange


def test_subgroup_conjugation_and_normality():
    D8 = parse_group_name("D8")
    for S in subgroups(D8):
        if S.is_normal():
            for g in D8.elements():
                assert S.conjugate(g).elements == S.elements


def test_sections_category_c4():
    G = cyclic(4)
    cat = sections_category(G, 2)
    # sections (H, K) with H/K elementary abelian: C4/1 is excluded
    labels = sorted((o.H.order, o.K.order) for o in cat.objects)
    assert labels == [(1, 1), (2, 1), (2, 2), (4, 2), (4, 4)]
    # G abelian: every g in G carries each admissible pair of sections,
    # and (H,K) -> (H',K') needs K' <= K <= H <= H'
    expected_pairs = 0
    for src in cat.objects:
        for tgt in cat.objects:
            if tgt.K <= src.K and src.H <= tgt.H:
                expected_pairs += 1
    assert len(cat.morphisms) == 4 * expected_pairs


def test_sections_trivial_flag():
    G = cyclic(2)
    cat = sections_category(G, 2)
    trivial = [o for o in cat.objects if o.is_trivial_section()]
    assert len(trivial) == 2  # (1,1) and (C2,C2)


# 2-groups for the checks against brute-force references; the
# non-abelian ones conjugate subgroups non-trivially.
REFERENCE_GROUPS = ("C8", "C2xC2", "C2xC4", "C2xC2xC2", "D8", "Q8", "D16")


def fixed_point_closure(G, gens):
    """Multiply everything found so far until nothing new appears."""
    seen = {G.identity} | set(gens)
    while True:
        new = {G.mul(a, b) for a in seen for b in seen} - seen
        if not new:
            return tuple(sorted(seen))
        seen |= new


def test_closure_matches_fixed_point_closure():
    for name in REFERENCE_GROUPS:
        G = parse_group_name(name)
        for a in G.elements():
            for b in G.elements():
                assert G.closure({a, b}) == fixed_point_closure(G, {a, b}), \
                    (name, a, b)


def reference_sections(G, p):
    """Objects and (source key, target key, g) triples of the sections
    category, from element sets and Subgroup.conjugate only."""
    subs = subgroups(G)

    def is_section(H, K):
        Hs, Ks = set(H.elements), set(K.elements)
        if not Ks <= Hs:
            return False
        if any(G.conj(k, h) not in Ks for h in Hs for k in Ks):
            return False
        return all(G.power(a, p) in Ks and
                   G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b)) in Ks
                   for a in Hs for b in Hs)

    objects = sorted((H.elements, K.elements) for H in subs for K in subs
                     if is_section(H, K))
    conj = {(S.elements, g): set(S.conjugate(g).elements)
            for S in subs for g in G.elements()}
    triples = []
    for (H, K) in objects:
        for (H2, K2) in objects:
            for g in G.elements():
                if set(K2) <= conj[(K, g)] and conj[(H, g)] <= set(H2):
                    triples.append(((H, K), (H2, K2), g))
    return objects, triples


def test_sections_category_matches_brute_force():
    for name in REFERENCE_GROUPS + ("C2xC2xC2xC2", "D8xC2", "Q8xC2",
                                    "D8xC4"):
        G = parse_group_name(name)
        cat = sections_category(G, 2)
        objects, triples = reference_sections(G, 2)
        assert [o.key() for o in cat.objects] == objects, name
        assert [(m.source.key(), m.target.key(), m.g)
                for m in cat.morphisms] == triples, name
        for m in cat.morphisms:
            assert m.Hg.elements == m.source.H.conjugate(m.g).elements
            assert m.Kg.elements == m.source.K.conjugate(m.g).elements


def test_conjugation_table_matches_conjugate():
    for name in ("D8", "Q8", "D16"):
        G = parse_group_name(name)
        subs = subgroups(G)
        conj = conjugation_table(G)
        for g in G.elements():
            for i, S in enumerate(subs):
                assert subs[conj[g][i]].elements == S.conjugate(g).elements
    # D8 has two conjugacy classes of two non-central reflections each
    D8 = parse_group_name("D8")
    moved = {i for row in conjugation_table(D8) for i, j in enumerate(row)
             if i != j}
    assert len(moved) == 4


# groups for the checks against the element-by-element definitions:
# cyclic, dihedral, quaternion and abelian 2-groups of orders 8 to 64,
# and five groups of odd or mixed order
GENERATOR_GROUPS = (
    "C64", "D8", "Q8", "D16", "D32", "C2xC2xC2xC2", "D8xC2", "Q8xC2",
    "C4xC4xC2", "D8xC4", "Q8xC4", "C2xC2xC2xC2xC2", "C3xC3", "C2xC6", "D12",
    "C3xC3xC3", "D8xC2xC2", "C5xC5", "D16xC2", "C4xC8")


def elementwise_subgroups(G):
    """Closure of S with each element outside it, for every S found."""
    seen = {(G.identity,)}
    frontier = [(G.identity,)]
    while frontier:
        S = frontier.pop()
        for g in G.elements():
            if g not in S:
                T = G.closure(set(S) | {g})
                if T not in seen:
                    seen.add(T)
                    frontier.append(T)
    return sorted(seen, key=lambda t: (len(t), t))


def normalizes(G, elements, K):
    """Every element of ``elements`` conjugates every element of K into K."""
    return all(G.conj(k, g) in K for g in elements for k in K)


def elementwise_section(G, H, K, p):
    """K <= H normal, with every p-th power and commutator of H in K."""
    return set(K) <= set(H) and normalizes(G, H, K) and all(
        G.power(a, p) in K and
        G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b)) in K
        for a in H for b in H)


def test_generator_reads_match_the_elementwise_definitions():
    for name in GENERATOR_GROUPS:
        G = parse_group_name(name)
        subs = subgroups(G)
        assert [S.elements for S in subs] == elementwise_subgroups(G), name
        assert all(G.closure(S.generators) == S.elements for S in subs)
        number = {S.elements: i for i, S in enumerate(subs)}
        assert conjugation_table(G) == tuple(
            tuple(number[S.conjugate(g).elements] for S in subs)
            for g in G.elements()), name
        for S in subs:
            assert S.is_normal() == normalizes(G, G.elements(), S.elements)
        for p in factorize(G.order):
            for H in subs:
                for K in subs:
                    if K <= H:
                        assert _is_elementary_abelian_section(G, H, K, p) \
                            == elementwise_section(G, H.elements,
                                                   K.elements, p), \
                            (name, H.elements, K.elements, p)


def test_section_test_rejects_a_non_normal_kernel():
    # the four reflection subgroups of D8 are not normal in D8, so no
    # section has one as kernel; the normal Klein four-groups are kernels
    D8 = parse_group_name("D8")
    subs = subgroups(D8)
    whole = subs[-1]
    reflections = [K for K in subs if K.order == 2 and not K.is_normal()]
    assert len(reflections) == 4
    for K in reflections:
        assert not normalizes(D8, whole.elements, K.elements)
        assert not _is_elementary_abelian_section(D8, whole, K, 2)
    klein = [K for K in subs if K.order == 4 and K.is_normal()
             and K.label() != "C4"]
    assert klein and all(_is_elementary_abelian_section(D8, whole, K, 2)
                         for K in klein)


def test_section_test_checks_normality_on_generators():
    # A4 ordered so that its greedy generators are the 3-cycles a = (012)
    # and b = (013): their cubes are trivial and their commutator c is a
    # double transposition, but <c> is not normal, so the generator test
    # of p-th powers and commutators alone would accept (A4, <c>) at p = 3
    def compose(x, y):
        return tuple(x[y[i]] for i in range(4))

    a, b = (1, 2, 0, 3), (1, 3, 2, 0)
    evens = [(0, 1, 2, 3), a, compose(a, a), b]
    frontier = list(evens)
    while frontier:
        x = frontier.pop()
        for y in (a, b):
            z = compose(x, y)
            if z not in evens:
                evens.append(z)
                frontier.append(z)
    index = {x: i for i, x in enumerate(evens)}
    A4 = Group([[index[compose(x, y)] for y in evens] for x in evens], "A4")
    assert A4.order == 12 and A4.generators == (1, 3)
    whole = A4.full_subgroup()
    c = A4.mul(A4.mul(A4.inv(1), A4.inv(3)), A4.mul(1, 3))
    K = Subgroup(A4, A4.closure([c]))
    assert K.order == 2 and not K.is_normal()
    assert all(A4.power(x, 3) in K for x in whole.generators)
    assert not _is_elementary_abelian_section(A4, whole, K, 3)
    assert not elementwise_section(A4, whole.elements, K.elements, 3)


@pytest.mark.parametrize("name", ["C64", "D8xC4", "C2xC2xC2xC2"])
def test_lattice_work_is_bounded_by_generators(monkeypatch, name):
    # at most one closure per left coset of each subgroup, plus one per
    # generator for each Subgroup check, and conjugation of elements by
    # G's generators only
    G = parse_group_name(name)
    calls = {"closure": 0, "conj": 0}
    for method in calls:
        real = getattr(Group, method)

        def counting(self, *args, real=real, method=method):
            calls[method] += 1
            return real(self, *args)

        monkeypatch.setattr(Group, method, counting)
    subs = subgroups(G)
    assert calls["closure"] <= sum(S.index + len(S.generators)
                                   for S in subs)
    conjugation_table(G)
    assert calls["conj"] <= len(G.generators) * sum(S.order for S in subs)


def test_subgroups_are_enumerated_once_per_group(monkeypatch):
    G = parse_group_name("D16")
    first = subgroups(G)
    assert subgroups(G) is not first
    assert all(a is b for a, b in zip(first, subgroups(G)))
    built = []
    init = Subgroup.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(Subgroup, "__init__", counting_init)
    sections_category(G, 2)
    assert built == []


def test_membership_and_containment_use_the_element_sets():
    G = parse_group_name("D8")
    subs = subgroups(G)
    for S in subs:
        assert [x in S for x in G.elements()] == \
            [x in S.elements for x in G.elements()]
        for T in subs:
            assert (S <= T) == set(S.elements).issubset(T.elements)


def test_subgroup_lattice_dies_with_its_group():
    G = parse_group_name("D8")
    subgroups(G)
    conjugation_table(G)
    sections_category(G, 2)
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None


def test_make_group_from_descriptor():
    G = make_group({"kind": "product",
                    "factors": [{"kind": "cyclic", "n": 2},
                                {"kind": "cyclic", "n": 3}]})
    assert G.order == 6
    assert max(G.element_order(g) for g in G.elements()) == 6  # cyclic
    assert make_group({"kind": "quaternion"}).order == 8


def test_generators_are_greedy_and_generate():
    # each element, in index order, that the earlier ones do not reach
    assert cyclic(64).generators == (1,)
    assert cyclic(1).generators == ()
    for name in REFERENCE_GROUPS:
        G = parse_group_name(name)
        gens = G.generators
        assert G.closure(gens) == tuple(G.elements()), name
        for k, g in enumerate(gens):
            assert g not in G.closure(gens[:k]), (name, g)
            assert all(h in G.closure(gens[:k]) for h in range(g)), name


def _associates(table, a, b, c):
    return table[table[a][b]][c] == table[a][table[b][c]]


def test_associativity_fails_away_from_the_generators():
    # C6 with the products 2*3 and 2*4 swapped: the identity and every
    # inverse survive, every triple of generators still associates, and
    # the visible failure (2 3) 1 != 2 (3 1) has a non-generator middle;
    # Light's test on the generator 1 must still reject the table
    n = 6
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    table[2][3], table[2][4] = table[2][4], table[2][3]
    gens = cyclic(n).generators
    assert gens == (1,)
    assert all(_associates(table, a, b, c)
               for a in gens for b in gens for c in gens)
    assert not _associates(table, 2, 3, 1)
    with pytest.raises(ValueError, match="not associative"):
        Group(table, "C6 with two products swapped")


_GROUP_CHECKS = """
import sys
from ttperm.grp import (Group, SectionMorphism, SectionObject, Subgroup,
                        cyclic, dihedral, direct_product, sections_category,
                        subgroups)

assert sys.flags.optimize
C4, C6 = cyclic(4), cyclic(6)
C2 = Subgroup(C4, [0, 2])
swapped = [[(a + b) % 6 for b in range(6)] for a in range(6)]
swapped[2][3], swapped[2][4] = swapped[2][4], swapped[2][3]
bad = {
    "empty": lambda: Group([], "empty"),
    "square": lambda: Group([[0, 1], [1]], "ragged"),
    "entries": lambda: Group([[0, 2], [2, 0]], "out of range"),
    "identity": lambda: Group([[1, 1], [1, 1]], "no identity"),
    "inverse": lambda: Group([[0, 1, 2], [1, 1, 1], [2, 1, 2]], "monoid"),
    "associative": lambda: Group(swapped, "C6 with two products swapped"),
    "contains": lambda: Subgroup(C4, [2]),
    "inverses": lambda: Subgroup(C6, [0, 2]),
    "products": lambda: Subgroup(C6, [0, 1, 5]),
    "parents": lambda: C2 <= Subgroup(C6, [0]),
    "cyclic": lambda: cyclic(0),
    "product": lambda: direct_product(),
    "dihedral": lambda: dihedral(5),
    "order": lambda: subgroups(cyclic(65)),
    "section": lambda: SectionObject(C2, Subgroup(C4, range(4))),
    "morphism": lambda: SectionMorphism(None, SectionObject(C2, C2), 0,
                                        C4.trivial_subgroup(), C2),
    "p-group": lambda: sections_category(C6, 2),
}
for name, build in bad.items():
    try:
        build()
        sys.exit("%s passed its check" % name)
    except ValueError as exc:
        print(name, exc)
"""


def test_subgroup_closure_check_raises_under_python_O(python_O):
    # the inverse of every generator taken is present, but the closure
    # of {2} in C8 leaves the set
    proc = python_O("import sys\n"
                    "from ttperm.grp import Subgroup, cyclic\n"
                    "assert sys.flags.optimize\n"
                    "try:\n"
                    "    Subgroup(cyclic(8), [0, 2, 3, 6])\n"
                    "except ValueError as exc:\n"
                    "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "not closed\n"


def test_group_checks_raise_under_python_O(python_O):
    # the Group axioms, Subgroup closure, constructors and sections are
    # ValueErrors, never asserts that -O strips
    proc = python_O(_GROUP_CHECKS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "empty a group table needs at least one element",
        "square multiplication table must be square",
        "entries table entries must lie in 0..1",
        "identity table has no identity element",
        "inverse element 1 has no inverse",
        "associative table is not associative",
        "contains a subgroup must contain the identity",
        "inverses not closed under inverses",
        "products not closed",
        "parents subgroups of different groups",
        "cyclic a cyclic group needs order >= 1, got 0",
        "product a direct product needs a factor",
        "dihedral a dihedral group needs an even order >= 2, got 5",
        "order subgroup enumeration is desk scale (order <= 64)",
        "section not a section: K must lie in H",
        "morphism not a section morphism",
        "p-group sections_category expects a p-group",
    ]
