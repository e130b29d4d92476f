"""Faults in the counting kernel the suite must catch, one row each.

A row names a file of the tree, a text in it, the text that replaces it
and the tests that must fail once it is replaced: modules, or one test's
node id.  The old text must occur exactly once in its file, so a refactor
that moves or rewrites it fails the gate loudly instead of dropping the
mutant: rewrite the row against the new code.  Each row names the fewest
tests that kill it, since every row costs one pytest start.
`tests/test_mutants.py` runs the table; a new kernel check adds its
mutants here.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "name path old new modules")

COUNTING = "src/dna_necklace/counting.py"
# Criteria 1 and 2 (the worked example and the oracle comparison) kill
# every kernel row below in about half a second; test_counting.py alone
# runs four times as long.
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
        "fixed += m * c[n_gc >> 1][k] *",
        "fixed += m * c[n_gc >> 1][k + 1] *",
        ACCEPTANCE,
    ),
    Mutant(
        "one-odd-branches-swapped",
        COUNTING,
        "            fixed += m * c[n_gc >> 1][k] * c[(n_at >> 1) - 1][k - 1]\n"
        "        else:\n"
        "            paired = c[(n_at >> 1) - 1][k - 1] * c[(n_gc >> 1) - 1][k - 1]\n"
        "            fixed += (n_at + n_gc - m) * paired\n"
        "    elif not n_gc & 1:\n"
        "        fixed += m * c[n_at >> 1][k] * c[(n_gc >> 1) - 1][k - 1]\n",
        "            fixed += m * c[n_at >> 1][k] * c[(n_gc >> 1) - 1][k - 1]\n"
        "        else:\n"
        "            paired = c[(n_at >> 1) - 1][k - 1] * c[(n_gc >> 1) - 1][k - 1]\n"
        "            fixed += (n_at + n_gc - m) * paired\n"
        "    elif not n_gc & 1:\n"
        "        fixed += m * c[n_gc >> 1][k] * c[(n_at >> 1) - 1][k - 1]\n",
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
