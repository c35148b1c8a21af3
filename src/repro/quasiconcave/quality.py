"""Quality functions of quasi-concave promise problems.

A quasi-concave promise problem (paper Definition 4.2) consists of a totally
ordered finite solution set ``F`` (here always represented as indices
``0 .. size-1``), a sensitivity-1 quality function ``Q(S, f)``, an
approximation parameter ``alpha`` and a quality promise ``p``.  The solvers
only interact with the database through ``Q``: RecConcave reads it as the
dense ``(|F|,)`` score vector, the noisy binary search as a per-index
callable.
"""

from __future__ import annotations

import numpy as np


def is_quasi_concave(scores, tolerance: float = 1e-9) -> bool:
    """Check whether a score array is quasi-concave.

    ``Q`` is quasi-concave iff for every ``i <= l <= j``,
    ``Q(l) >= min(Q(i), Q(j))`` — equivalently, the sequence never dips below
    a level it later exceeds again.  Used by tests and by debug assertions in
    the solvers.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.size <= 2:
        return True
    # Quasi-concave iff scores first (weakly) rise to a peak then (weakly)
    # fall, up to tolerance: running max from the left and running max from
    # the right must cover every value.
    prefix_max = np.maximum.accumulate(scores)
    suffix_max = np.maximum.accumulate(scores[::-1])[::-1]
    lower_envelope = np.minimum(prefix_max, suffix_max)
    return bool(np.all(scores >= lower_envelope - tolerance))


__all__ = ["is_quasi_concave"]
