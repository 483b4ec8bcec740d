"""Spatial-keyword indexing substrate (paper Section 3).

The paper organises geo-textual objects in a uniform spatial grid; each grid cell
holds an inverted index over the descriptions of the objects in the cell, and the
postings lists of each cell are stored in a disk-based B+-tree. This subpackage
reproduces that layered structure:

* :mod:`repro.index.bptree` — an order-configurable B+-tree with range scans (the
  in-memory stand-in for the paper's disk-based tree; same key → value access
  pattern),
* :mod:`repro.index.inverted` — per-cell inverted lists whose postings carry the
  precomputed ``wto(t)`` term weights of Equation 2, backed by the B+-tree,
* :mod:`repro.index.grid` — the uniform grid that ties cells to space and answers the
  query-time "score all relevant objects in Q.Λ" request.
"""

from repro.index.bptree import BPlusTree
from repro.index.inverted import InvertedIndex, Posting
from repro.index.grid import GridIndex

__all__ = [
    "BPlusTree",
    "InvertedIndex",
    "Posting",
    "GridIndex",
]
