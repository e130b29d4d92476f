"""Two independent routes to necklace counts, kept as test references.

`cycle_index` is Pólya's route: it builds the dihedral bipartite cycle
index and substitutes the container weight series into it; the tests
check that `dna_necklace.counting.count_necklaces` agrees.
`bead_strings` canonicalizes 0/1 bead strings by slicing; the tests check
that the integer walk of `dna_necklace.oracle.enumerate_all` agrees.
Test modules import this package as ``reference``: pytest puts the
``tests`` directory on ``sys.path`` because it holds no ``__init__.py``.
"""
