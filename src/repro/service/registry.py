"""Resident datasets: register once, query many times.

A library caller pays backend construction (sharding, worker-pool spawn,
node dials) on every ``one_cluster`` call; a *service* must not — its whole
point is that the dataset outlives the request.  :class:`DatasetRegistry`
keeps, per registered name, one :class:`RegisteredDataset`: the validated
points and a resident :class:`~repro.neighbors.base.NeighborBackend` (warm
caches, live pools).  Every query kind runs on that backend; ``k_cluster``,
whose point set shrinks per iteration, runs each iteration after its first
released ball on a :meth:`~repro.neighbors.base.NeighborBackend.subset` of
it.

Ownership is deterministic: a backend the registry *built* (from ``None``,
a name or a class) is closed by :meth:`DatasetRegistry.unregister` /
:meth:`close_all`; an already-built instance handed to :meth:`register`
stays the caller's to close — the same contract ``one_cluster`` itself
follows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.neighbors import BackendLike, NeighborBackend, resolve_backend
from repro.utils.validation import check_points


@dataclass
class RegisteredDataset:
    """One resident dataset: points + warm backend.

    Attributes
    ----------
    name:
        The registry key.
    points:
        The validated ``(n, d)`` float array the backend indexes.
    backend:
        The resident :class:`NeighborBackend` answering this dataset's
        queries.
    owns_backend:
        Whether the registry built (and therefore closes) the backend.
    """

    name: str
    points: np.ndarray
    backend: NeighborBackend
    owns_backend: bool
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def num_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def describe(self) -> dict:
        """A JSON-friendly snapshot (no live pool stats — the service layer
        merges those in, under the dataset's execution lock)."""
        return {
            "name": self.name,
            "num_points": self.num_points,
            "dimension": self.dimension,
            "backend": type(self.backend).__name__,
            "owns_backend": self.owns_backend,
        }


class DatasetRegistry:
    """Thread-safe name → :class:`RegisteredDataset` map."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._datasets: Dict[str, RegisteredDataset] = {}

    def register(self, name: str, points, backend: BackendLike = None,
                 options: Optional[dict] = None) -> RegisteredDataset:
        """Validate ``points``, build (or adopt) a backend, make both
        resident under ``name``.

        Parameters
        ----------
        name:
            Registry key; must not already be registered.
        points:
            The ``(n, d)`` dataset.
        backend:
            Anything :func:`~repro.neighbors.resolve_backend` accepts.  From
            ``None``, a name or a class the registry builds, owns, and
            closes the backend; an instance is adopted as-is (the caller
            keeps ownership).
        options:
            Constructor options for a backend built here (e.g.
            ``{"num_workers": 2}``); rejected with ``None`` / ``"auto"``
            and with an instance, exactly as in :func:`resolve_backend`.
        """
        name = str(name)
        if not name:
            raise ValueError("dataset name must be non-empty")
        points = check_points(points)
        resolved = resolve_backend(points, backend, options=options)
        # Index the exact array the backend indexed: an adopted instance
        # may hold its own (equal) copy, and release parity demands the
        # solver and the backend see the same bytes AND object.
        entry = RegisteredDataset(
            name=name,
            points=resolved.points,
            backend=resolved,
            owns_backend=resolved is not backend,
        )
        with self._lock:
            if name in self._datasets:
                if entry.owns_backend:
                    resolved.close()
                raise ValueError(f"dataset {name!r} is already registered")
            self._datasets[name] = entry
        return entry

    def get(self, name: str) -> RegisteredDataset:
        """The entry for ``name`` (``KeyError`` with the known names
        otherwise)."""
        with self._lock:
            try:
                return self._datasets[name]
            except KeyError:
                known = sorted(self._datasets)
                raise KeyError(
                    f"no dataset registered as {name!r}; known: {known}"
                ) from None

    def names(self) -> List[str]:
        """Sorted registered names (a snapshot)."""
        with self._lock:
            return sorted(self._datasets)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._datasets

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)

    def unregister(self, name: str) -> None:
        """Drop ``name`` and deterministically close its backend (only if
        the registry built it)."""
        with self._lock:
            entry = self._datasets.pop(name, None)
        if entry is None:
            raise KeyError(f"no dataset registered as {name!r}")
        if entry.owns_backend:
            entry.backend.close()

    def close_all(self) -> None:
        """Unregister everything, closing every registry-owned backend
        (idempotent)."""
        with self._lock:
            entries, self._datasets = list(self._datasets.values()), {}
        for entry in entries:
            if entry.owns_backend:
                entry.backend.close()


__all__ = ["DatasetRegistry", "RegisteredDataset"]
