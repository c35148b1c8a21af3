"""Clustering-as-a-service quickstart: tenants, budgets, resident datasets.

Runs a tiny multi-tenant session against one in-process
:class:`~repro.service.ClusteringService`:

1. register a dataset once (its neighbor backend stays resident and warm),
2. give two tenants different enforced ``(epsilon, delta)`` budgets,
3. run interleaved queries and show that each release is bit-identical to
   the same-seed direct library call,
4. drive one tenant into ``BudgetExhaustedError`` while the other keeps
   working,
5. print the merged ``service_stats()`` snapshot.

Run with::

    PYTHONPATH=src python examples/service_quickstart.py
"""

import numpy as np

from repro import PrivacyParams
from repro.core import good_radius
from repro.datasets import planted_cluster
from repro.service import BudgetExhaustedError, ClusteringService


def main() -> None:
    data = planted_cluster(n=2000, d=3, cluster_size=600,
                           cluster_radius=0.05, rng=0)
    points = data.points
    step = PrivacyParams(epsilon=0.5, delta=1e-7)

    with ClusteringService() as service:
        # One registration, many queries: the backend (and its caches)
        # outlives every request.
        service.register_dataset("demo", points, backend="chunked")
        service.create_tenant("alice", cap=PrivacyParams(2.0, 1e-6))
        service.create_tenant("bob", cap=PrivacyParams(0.5, 1e-6))

        # --- parity: the service release IS the direct-call release ------
        job = service.good_radius("alice", "demo", target=500, params=step,
                                  rng=7)
        served = job.result()
        direct = good_radius(points, target=500, params=step, rng=7)
        print(f"served radius   : {served.radius}")
        print(f"direct radius   : {direct.radius}")
        print(f"bitwise equal   : {served.radius == direct.radius}")

        # --- budgets: enforced per tenant, at submit time ----------------
        service.good_radius("bob", "demo", target=500, params=step, rng=1) \
            .result()
        try:
            service.good_radius("bob", "demo", target=500, params=step,
                                rng=2)
        except BudgetExhaustedError as error:
            print(f"bob refused     : {error}")
        # Alice still has budget; bob's exhaustion does not affect her.
        job = service.one_cluster("alice", "demo", target=500,
                                  params=PrivacyParams(1.0, 1e-7), rng=5)
        result = job.result()
        print(f"alice 1-cluster : found={result.found} "
              f"radius={result.ball.radius if result.found else None}")

        # --- the merged stats snapshot -----------------------------------
        stats = service.service_stats()
        for tenant, info in stats["tenants"].items():
            spent = info["spent"] or {"epsilon": 0.0}
            print(f"tenant {tenant:<6}: queries={info['queries']} "
                  f"refused={info['refused']} "
                  f"spent_eps={spent['epsilon']:g} "
                  f"remaining_eps={info['remaining']['epsilon']:g}")
        demo = stats["datasets"]["demo"]
        print(f"dataset demo   : executed={demo['executed']} "
              f"queue_depth={demo['queue_depth']} "
              f"backend={demo['backend']}")


if __name__ == "__main__":
    main()
