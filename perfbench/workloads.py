"""The benchmark's workloads: fixed ttperm command lists.

Each command is the argument list of one ``python -m ttperm.cli`` child.
The inputs are fixed instances named in ROADMAP.md; the workload seed only
sets the order in which a run issues them.  ``{c64_report}`` stands for a
C64 spectrum report that the benchmark writes before timing starts (see
``REPORTS``).  The expected exit status and stdout digest of every command,
recorded from the seed, are in ``expected.json``.
"""

WORKLOADS = {
    # Under cProfile, building equivariant hom bases
    # (permod.equivariant_hom_basis, EquivMap checks) and the equivalence
    # search (chain_map_space, cone contraction) take 70-90% of the time.
    # The memory peak and the reuse of cached canonical powers sit here.
    "twist-search": [
        "invert --group C3 --ring Z",
        "invert --group C5 --ring Z",
        "invert --group C7 --ring Z",
        "twisted --group C3 --ring Z --max-twist 5 --shift-min -10"
        " --shift-max 0",
        "twisted --group C2 --ring F2 --max-twist 4",
        "twisted --group C2xC2 --ring F2 --max-twist 2",
    ],
    # Uses homotopy for contraction and homology, not search: dense Smith
    # normal form over Fraction, raw and averaged contractions,
    # check_homotopy and koszul tensor induction.
    "koszul-certify": [
        "kos --group C4 --subgroup 1 --verify",
        "kos --group C2xC2 --subgroup 1 --ring Z",
        "kos --group C2xC2 --subgroup 1 --ring F3",
        "kos --group C9 --subgroup C3 --verify",
    ],
    # Almost all grp (Subgroup.__init__) and spectrum, no linear algebra;
    # verify covers the read path (report -> poset -> validate).
    "spectrum-posets": [
        "spectrum --group C64",
        "spectrum --group C64 --format dot",
        "verify {c64_report}",
        "spectrum --group C32 --format dot",
        "spectrum --group C48 --format text",
        "spectrum --group C60",
    ],
}

# Report files written before timing: placeholder -> command whose stdout
# becomes the file.  The command's digest is checked like any other.
REPORTS = {"c64_report": "spectrum --group C64"}

# Inputs left out on purpose, each measured on the seed.  None of them is
# left out to hide a wrong answer: the slow ones are too slow or too large
# for a run, and the failing ones are known defects that would make every
# run of the benchmark fail.
EXCLUDED = [
    ("kos --group C2xC2 --subgroup 1 --verify",
     "50 s; its base-change check is already timed by the tier-1 tests"),
    ("kos --group C8 --subgroup C2 --verify", "467 s and 6.4 GB"),
    ("kos --group C16 --subgroup C2 --ring F2", "45 s"),
    ("kos --group D8|Q8|C8 --subgroup 1 --ring Z",
     "killed by the kernel OOM killer at about 7.7 GB"),
    ("twisted --group C5 --ring F5 --max-twist 2", "9 s"),
    ("twisted --group C2xC2 --ring Z --max-twist 2",
     "exits 2 with TheoryCheckFailure: entry ... is nonzero but no "
     "monomial lands there (a defect not yet in ROADMAP.md)"),
    ("twisted --group C2 --ring F3",
     "exits 2: the known coprime-characteristic crash in ROADMAP.md"),
]
