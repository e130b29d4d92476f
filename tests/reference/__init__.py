"""Pólya's cycle-index route to necklace counts, kept as a test reference.

`cycle_index` builds the dihedral bipartite cycle index and substitutes
the container weight series into it; the tests check that
`dna_necklace.counting.count_necklaces` agrees.  Test modules import this
package as ``reference``: pytest puts the ``tests`` directory on
``sys.path`` because it holds no ``__init__.py``.
"""
