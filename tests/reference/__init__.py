"""The general cycle-index route to necklace counts, kept as a test reference.

`cycle_index` builds the bipartite cycle indices of the container
symmetry groups and substitutes the weight series into them; `series`
extracts the series coefficients.  The package's production counts
(`dna_necklace.counting.necklace_count`) use closed forms instead, and
the tests check the two routes agree.  Test modules import this package
as ``reference``: pytest puts the ``tests`` directory on ``sys.path``
because it holds no ``__init__.py``.
"""
