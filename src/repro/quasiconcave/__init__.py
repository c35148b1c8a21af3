"""Private solvers for quasi-concave promise problems (paper Section 4.1).

The paper's GoodRadius delegates its radius search to Algorithm RecConcave of
Beimel–Nissim–Stemmer (2013), which solves *quasi-concave promise problems*
(Definition 4.2) with an additive loss of only ``2^{O(log* |F|)}`` in the
quality promise.  This package provides:

* :func:`~repro.quasiconcave.rec_concave.rec_concave` — a structurally
  faithful reimplementation of the recursive solver over the dense score
  vector of a sensitivity-1, quasi-concave quality (see the module docstring
  for the documented substitution on the log* constant).
* :func:`~repro.quasiconcave.binary_search.noisy_binary_search` — the simpler
  private binary search over a monotone per-index score, which the paper
  mentions as the ``log |X|``-loss alternative.
"""

from repro.quasiconcave.rec_concave import rec_concave, RecConcaveResult, rec_concave_promise
from repro.quasiconcave.binary_search import noisy_binary_search, BinarySearchResult

__all__ = [
    "rec_concave",
    "RecConcaveResult",
    "rec_concave_promise",
    "noisy_binary_search",
    "BinarySearchResult",
]
