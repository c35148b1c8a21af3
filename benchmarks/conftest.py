"""Shared configuration for the benchmark harness.

Each benchmark runs the corresponding experiment module once per measurement
round (the experiments are end-to-end private-algorithm runs, so a single
round is already seconds of work) and prints the resulting table, so every
table can be regenerated directly from the benchmark output.

Backend-aware benchmarks additionally honour two command-line options::

    pytest benchmarks/bench_lower_bound.py --backend sharded --workers 2

``--backend`` names the neighbor backend the experiment threads its query
plans through (any :data:`repro.neighbors.BACKENDS` key); ``--workers``
sets the sharded backend's worker-process count.  Both default to the
experiment's own defaults when omitted.  Releases are backend-independent
by construction, so the flags only move wall-clock time — the parity smokes
in the individual benchmark modules assert exactly that.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    group = parser.getgroup("repro benchmarks")
    group.addoption("--backend", default=None,
                    help="neighbor backend for backend-aware benchmarks "
                         "(a repro.neighbors.BACKENDS name: chunked, "
                         "tree or sharded)")
    group.addoption("--workers", type=int, default=None,
                    help="worker-process count for the sharded backend "
                         "(0 = serial in-parent fallback)")


@pytest.fixture
def backend_choice(request):
    """The ``(--backend, --workers)`` pair, both ``None`` when unset."""
    return (request.config.getoption("--backend"),
            request.config.getoption("--workers"))


@pytest.fixture
def backend_options(backend_choice):
    """``resolve_backend``-style construction options for ``--backend``.

    ``None`` unless ``--workers`` was given alongside ``--backend sharded``
    (the only registry backend that takes a worker count).
    """
    name, workers = backend_choice
    if name == "sharded" and workers is not None:
        return {"num_workers": workers}
    return None


def run_and_report(benchmark, label, runner, **kwargs):
    """Benchmark ``runner(**kwargs)`` once and print its table."""
    from repro.experiments.harness import format_table

    rows = benchmark.pedantic(lambda: runner(**kwargs), rounds=1, iterations=1)
    print(f"\n=== {label} ===")
    print(format_table(rows))
    return rows


@pytest.fixture
def report():
    """Fixture exposing :func:`run_and_report` to the benchmark modules."""
    return run_and_report
