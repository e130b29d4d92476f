"""Faults the suite must catch, one row each: in the counting kernel and
beyond it (the independent bracelet total, the CLI's exit codes, the
MINPACK port).

A row names a file of the tree, a text in it, the text that replaces it
and the tests that must fail once it is replaced: modules, or one test's
node id.  The old text must occur exactly once in its file, so a refactor
that moves or rewrites it fails the gate loudly instead of dropping the
mutant: rewrite the row against the new code.  Each row names the fewest
tests that kill it, since every row costs one pytest start.
`tests/test_mutants.py` runs the table; a new check adds its mutants
here.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "name path old new modules")

COUNTING = "src/dna_necklace/counting.py"
CLI = "src/dna_necklace/cli.py"
LMDIF = "src/dna_necklace/_lmdif.py"
# Criteria 1 and 2 (the worked example and the oracle comparison) kill
# each kernel row below (`count_necklaces`) in about half a second;
# test_counting.py alone runs four times as long.
ACCEPTANCE = ("tests/test_acceptance.py",)

MUTANTS = [
    Mutant(
        "totient-plus-one",
        COUNTING,
        "phi * c[",
        "(phi + 1) * c[",
        ACCEPTANCE,
    ),
    Mutant(
        "odd-m-one-axis-too-many",
        COUNTING,
        "fixed += m * c[(n_at - 1) >> 1][k]",
        "fixed += (m + 1) * c[(n_at - 1) >> 1][k]",
        ACCEPTANCE,
    ),
    Mutant(
        "even-m-both-even-without-minus-m",
        COUNTING,
        "(n_at + n_gc - m) * paired",
        "(n_at + n_gc) * paired",
        ACCEPTANCE,
    ),
    Mutant(
        "even-m-one-odd-k-plus-one",
        COUNTING,
        "fixed += m * c[odd >> 1][k] *",
        "fixed += m * c[odd >> 1][k + 1] *",
        ACCEPTANCE,
    ),
    # The even color takes the fixed containers' term, the odd one the
    # paired term.
    Mutant(
        "one-odd-branches-swapped",
        COUNTING,
        "odd, even = (n_at, n_gc) if n_at & 1 else (n_gc, n_at)",
        "odd, even = (n_gc, n_at) if n_at & 1 else (n_at, n_gc)",
        ACCEPTANCE,
    ),
    Mutant(
        "last-rotation-divisor-skipped",
        COUNTING,
        "        for d, phi in _rotation_classes(g):",
        "        for d, phi in _rotation_classes(g)[:-1]:",
        ACCEPTANCE,
    ),
    Mutant(
        "totient-of-prime-power-times-p",
        COUNTING,
        "phi = power * (p - 1)",
        "phi = power * p",
        ACCEPTANCE,
    ),
    Mutant(
        "bracelet-reflections-dropped",
        COUNTING,
        "fixed += n * comb(p, n_at // 2)",
        "fixed += 0 * comb(p, n_at // 2)",
        ("tests/test_acceptance.py::test_criterion_3_independent_normalizer",),
    ),
    # Only a fault that keeps every Burnside total divisible reaches the
    # distribution's total check.
    Mutant(
        "distribution-total-unchecked",
        COUNTING,
        "    if total != direct:\n"
        "        raise IntegralityError(\n"
        "            f\"distribution total {_digits(total)} is not the bead-position\"\n"
        "            f\" total {_digits(direct)}\"\n"
        "        )\n",
        "",
        ("tests/test_counting.py::test_integrality_failure_exits_three"
         "[identity-comb-divisible]",),
    ),
    Mutant(
        "integrality-exit-as-usage",
        CLI,
        "return INTEGRALITY_ERROR",
        "return USAGE_ERROR",
        ("tests/test_counting.py::test_integrality_failure_exits_three",),
    ),
    # Only pdfs scaled past any real one reach _enorm's giant range.
    Mutant(
        "enorm-giant-range-squares-once",
        LMDIF,
        "s1 = 1.0 + s1 * (t * t)",
        "s1 = 1.0 + s1 * t",
        ("tests/test_lmdif.py::TestBitIdentity::test_giant_amplitude_pdfs",),
    ),
]

# The unmutated tree must pass every test a row names, so a kill is the
# mutant's doing.
CONTROL = Mutant(
    "control",
    COUNTING,
    None,
    None,
    tuple(sorted({module for row in MUTANTS for module in row.modules})),
)
