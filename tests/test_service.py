"""Tests for the multi-tenant clustering service (``repro.service``).

The contract under test, in order of importance:

1. **Release parity** — a private release produced through the service is
   *bitwise identical* to the same-seed direct library call, on every
   backend strategy (chunked / tree / sharded / distributed).
2. **Budget enforcement** — each tenant's cumulative spend is capped
   atomically: the query that would exceed the cap raises
   ``BudgetExhaustedError`` at submit time, other tenants proceed
   unaffected, and refused/saturated queries cost nothing.
3. **Job and lifecycle mechanics** — queued → running → done/failed
   handles, bounded queues with charge rollback, deterministic dataset
   unregistration.
"""

import threading
import time

import numpy as np
import pytest

from repro.accounting import BudgetExhaustedError, PrivacyParams
from repro.clustering import k_cluster, outlier_ball
from repro.core import good_center, good_radius, one_cluster
from repro.neighbors import ChunkedBackend
from repro.neighbors.serve import NodeServer
from repro.service import (
    ClusteringService,
    JobStatus,
    ServiceSaturatedError,
)
import repro.service.service as service_module

LOOSE = PrivacyParams(8.0, 1e-5)


@pytest.fixture(scope="module")
def cluster_points():
    """A planted 3-d cluster: 900 clustered points + 150 uniform noise."""
    rng = np.random.default_rng(5)
    cluster = np.full(3, 0.4) + rng.normal(0, 0.02, size=(900, 3))
    noise = rng.uniform(0, 1, size=(150, 3))
    return np.vstack([cluster, noise])


def assert_same_radius_release(reference, other):
    assert other.radius == reference.radius
    assert other.gamma == reference.gamma
    assert other.score == reference.score
    assert other.method == reference.method


def assert_same_center_release(reference, other):
    assert other.found == reference.found
    assert other.attempts == reference.attempts
    if reference.found:
        assert np.array_equal(other.center, reference.center)
        assert other.radius_bound == reference.radius_bound
        assert other.captured_count == reference.captured_count


def assert_same_cluster_release(reference, other):
    assert other.found == reference.found
    if reference.found:
        assert np.array_equal(other.ball.center, reference.ball.center)
        assert other.ball.radius == reference.ball.radius
    assert_same_radius_release(reference.radius_result, other.radius_result)
    assert_same_center_release(reference.center_result, other.center_result)


# --------------------------------------------------------------------- #
# 1. Release parity through the service
# --------------------------------------------------------------------- #
BACKEND_SPECS = [
    pytest.param("tree", None, id="tree", marks=pytest.mark.needs_scipy),
    pytest.param("sharded", {"num_shards": 3, "num_workers": 0},
                 id="sharded-serial"),
    pytest.param("sharded", {"num_workers": 2}, id="sharded-pool",
                 marks=pytest.mark.slow),
]


class TestServiceReleaseParity:
    @pytest.mark.parametrize("backend,options", BACKEND_SPECS)
    def test_radius_and_center_parity(self, cluster_points, backend,
                                      options):
        points = cluster_points
        with ClusteringService() as service:
            service.register_dataset("data", points, backend=backend,
                                     options=options)
            service.create_tenant("tenant", PrivacyParams(64.0, 1e-4))
            for seed in (0, 7):
                # The direct call runs the in-parent reference path; the
                # service runs the resident backend — equality across both
                # layers at once IS the parity contract.
                direct_radius = good_radius(points, target=800, params=LOOSE,
                                            rng=seed)
                job = service.good_radius("tenant", "data", target=800,
                                          params=LOOSE, rng=seed)
                assert_same_radius_release(direct_radius,
                                           job.result(timeout=120))
                direct_center = good_center(points,
                                            radius=direct_radius.radius,
                                            target=800, params=LOOSE,
                                            rng=seed)
                job = service.good_center("tenant", "data",
                                          radius=direct_radius.radius,
                                          target=800, params=LOOSE, rng=seed)
                assert_same_center_release(direct_center,
                                           job.result(timeout=120))

    @pytest.mark.parametrize("backend,options", BACKEND_SPECS)
    def test_one_cluster_and_outlier_parity(self, cluster_points, backend,
                                            options):
        points = cluster_points
        with ClusteringService() as service:
            service.register_dataset("data", points, backend=backend,
                                     options=options)
            service.create_tenant("tenant", PrivacyParams(64.0, 1e-4))
            direct = one_cluster(points, target=800, params=LOOSE, rng=3)
            job = service.one_cluster("tenant", "data", target=800,
                                      params=LOOSE, rng=3)
            assert_same_cluster_release(direct, job.result(timeout=240))
            direct_screen = outlier_ball(points, params=LOOSE, rng=9)
            job = service.outlier_screen("tenant", "data", params=LOOSE,
                                         rng=9)
            screened = job.result(timeout=240)
            assert screened.found == direct_screen.found
            if direct_screen.found:
                assert np.array_equal(screened.ball.center,
                                      direct_screen.ball.center)
                assert screened.ball.radius == direct_screen.ball.radius

    @pytest.mark.needs_scipy
    def test_k_cluster_parity_on_name_registered_dataset(self,
                                                         cluster_points):
        # A dataset registered from a name: k_cluster runs its first
        # iteration on the service-built resident backend and the second
        # on a subset of it.
        points = cluster_points
        with ClusteringService() as service:
            service.register_dataset("data", points, backend="tree")
            service.create_tenant("tenant", PrivacyParams(64.0, 1e-4))
            direct = k_cluster(points, k=2, params=LOOSE, rng=4,
                               backend="tree")
            job = service.k_cluster("tenant", "data", k=2, params=LOOSE,
                                    rng=4)
            result = job.result(timeout=240)
            assert result.num_found == direct.num_found
            for ours, theirs in zip(result.balls, direct.balls):
                assert np.array_equal(ours.center, theirs.center)
                assert ours.radius == theirs.radius
            assert result.ball_coverages == direct.ball_coverages

    def test_k_cluster_on_instance_dataset(self, cluster_points):
        """A dataset registered from an instance serves k_cluster: the
        release is the direct call's on the same instance, which runs the
        first iteration of each; every later iteration's subset is closed,
        and the instance stays open."""
        closed = []

        class Tracking(ChunkedBackend):
            def close(self):
                closed.append(self)

        points = cluster_points
        instance = Tracking(points)
        with ClusteringService() as service:
            service.register_dataset("inst", points, backend=instance)
            service.create_tenant("tenant", PrivacyParams(64.0, 1e-4))
            direct = k_cluster(points, k=2, params=LOOSE, rng=4,
                               backend=instance)
            job = service.k_cluster("tenant", "inst", k=2, params=LOOSE,
                                    rng=4)
            result = job.result(timeout=240)
        assert result.num_found == direct.num_found >= 1
        for ours, theirs in zip(result.balls, direct.balls):
            assert np.array_equal(ours.center, theirs.center)
            assert ours.radius == theirs.radius
        assert result.covered_fraction == direct.covered_fraction
        assert result.ball_coverages == direct.ball_coverages
        assert direct.results[0].found and len(direct.results) == 2
        assert len(closed) == 2
        assert all(backend.num_points < points.shape[0] for backend in closed)
        assert instance not in closed

    def test_distributed_parity(self, cluster_points):
        # In-process loopback node servers (the test_distributed pattern):
        # the service's resident backend is a real DistributedBackend.
        points = cluster_points
        servers = [NodeServer().start() for _ in range(2)]
        try:
            nodes = [server.address for server in servers]
            with ClusteringService() as service:
                service.register_dataset(
                    "data", points, backend="distributed",
                    options={"nodes": nodes, "num_shards": 4,
                             "node_workers": 0},
                )
                service.create_tenant("tenant", PrivacyParams(64.0, 1e-4))
                direct = good_radius(points, target=800, params=LOOSE, rng=1)
                job = service.good_radius("tenant", "data", target=800,
                                          params=LOOSE, rng=1)
                assert_same_radius_release(direct, job.result(timeout=240))
                direct_center = good_center(points, radius=direct.radius,
                                            target=800, params=LOOSE, rng=1)
                job = service.good_center("tenant", "data",
                                          radius=direct.radius, target=800,
                                          params=LOOSE, rng=1)
                assert_same_center_release(direct_center,
                                           job.result(timeout=240))
        finally:
            for server in servers:
                server.stop()


# --------------------------------------------------------------------- #
# 2. Budget enforcement
# --------------------------------------------------------------------- #
class TestBudgetEnforcement:
    def test_refusal_exactly_at_cap(self, cluster_points):
        # Four eps/4 queries fill the cap exactly; the fifth is refused.
        with ClusteringService() as service:
            service.register_dataset("data", cluster_points, backend="chunked")
            service.create_tenant("capped", PrivacyParams(1.0, 1e-6))
            step = PrivacyParams(0.25, 1e-8)
            jobs = [service.good_radius("capped", "data", target=800,
                                        params=step, rng=seed)
                    for seed in range(4)]
            with pytest.raises(BudgetExhaustedError) as excinfo:
                service.good_radius("capped", "data", target=800,
                                    params=step, rng=4)
            assert excinfo.value.tenant == "capped"
            assert excinfo.value.cap.epsilon == 1.0
            # The admitted queries all ran; the refused one never did.
            for job in jobs:
                job.result(timeout=120)
            stats = service.tenant("capped").stats()
            assert stats["queries"] == 4
            assert stats["refused"] == 1
            assert stats["spent"]["epsilon"] == pytest.approx(1.0)
            assert stats["remaining"]["epsilon"] == pytest.approx(0.0)

    def test_other_tenants_unaffected(self, cluster_points):
        with ClusteringService() as service:
            service.register_dataset("data", cluster_points, backend="chunked")
            service.create_tenant("poor", PrivacyParams(0.5, 1e-6))
            service.create_tenant("rich", PrivacyParams(50.0, 1e-4))
            step = PrivacyParams(0.5, 1e-8)
            service.good_radius("poor", "data", target=800, params=step,
                                rng=0).result(timeout=120)
            with pytest.raises(BudgetExhaustedError):
                service.good_radius("poor", "data", target=800, params=step,
                                    rng=1)
            # The exhausted tenant does not block anyone else.
            job = service.good_radius("rich", "data", target=800,
                                      params=step, rng=1)
            assert job.result(timeout=120).radius > 0
            assert service.tenant("rich").stats()["refused"] == 0

    def test_refused_query_never_runs(self, cluster_points):
        calls = []
        original = service_module._SOLVERS["good_radius"]

        def counting_solver(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        service_module._SOLVERS["good_radius"] = counting_solver
        try:
            with ClusteringService() as service:
                service.register_dataset("data", cluster_points,
                                         backend="chunked")
                service.create_tenant("t", PrivacyParams(1.0, 1e-6))
                service.good_radius("t", "data", target=800,
                                    params=PrivacyParams(1.0, 1e-8),
                                    rng=0).result(timeout=120)
                with pytest.raises(BudgetExhaustedError):
                    service.good_radius("t", "data", target=800,
                                        params=PrivacyParams(0.5, 1e-8),
                                        rng=1)
            assert len(calls) == 1
        finally:
            service_module._SOLVERS["good_radius"] = original

    def test_invalid_requests_cost_nothing(self, cluster_points):
        with ClusteringService() as service:
            service.register_dataset("inst", cluster_points,
                                     backend=ChunkedBackend(cluster_points))
            service.create_tenant("t", PrivacyParams(1.0, 1e-6))
            step = PrivacyParams(0.25, 1e-8)
            with pytest.raises(ValueError, match="unknown query kind"):
                service.submit("t", "inst", "sort_the_data", step)
            with pytest.raises(TypeError, match="supplied by the service"):
                service.submit("t", "inst", "good_radius", step,
                               target=800, backend="chunked")
            assert service.tenant("t").spent() is None

    def test_advanced_composition_tenant(self, cluster_points):
        # Under advanced composition many small queries fit where the basic
        # sum would long be exhausted.  A stub solver keeps this an
        # accounting test, not a 300-query solver benchmark.
        original = service_module._SOLVERS["good_radius"]
        service_module._SOLVERS["good_radius"] = lambda *a, **k: "ok"
        try:
            with ClusteringService(max_queue=512) as service:
                service.register_dataset("data", cluster_points,
                                         backend="chunked")
                ledger = service.create_tenant(
                    "adv", PrivacyParams(1.0, 1e-4),
                    composition="advanced", delta_prime=1e-6,
                )
                step = PrivacyParams(0.01, 1e-9)
                admitted = 0
                try:
                    for seed in range(500):
                        service.good_radius("adv", "data", target=800,
                                            params=step, rng=seed)
                        admitted += 1
                except BudgetExhaustedError:
                    pass
                # Basic composition alone caps at 1.0/0.01 = 100 queries.
                assert admitted > 100
                assert ledger.spent().epsilon <= 1.0 * (1 + 1e-9)
                assert ledger.spent().delta <= 1e-4
        finally:
            service_module._SOLVERS["good_radius"] = original


# --------------------------------------------------------------------- #
# 3. Concurrency: interleaved tenants, bitwise-identical to serial
# --------------------------------------------------------------------- #
class TestConcurrentTenants:
    def test_interleaved_tenants_match_serial(self, cluster_points):
        points = cluster_points
        other = points + 0.25  # distinct dataset, same geometry
        requests = {
            "alice": [("shared", 0), ("shared", 1), ("mine", 2)],
            "bob": [("shared", 2), ("theirs", 0), ("shared", 3)],
        }
        datasets = {"shared": points, "mine": other, "theirs": other[::-1]}
        # Serial ground truth, one direct library call per request.
        expected = {
            tenant: [good_radius(datasets[name], target=800, params=LOOSE,
                                 rng=seed)
                     for name, seed in spec]
            for tenant, spec in requests.items()
        }
        with ClusteringService() as service:
            for name, data in datasets.items():
                service.register_dataset(name, data, backend="chunked")
            for tenant in requests:
                service.create_tenant(tenant, PrivacyParams(64.0, 1e-4))
            results: dict = {}
            errors: list = []

            def run(tenant):
                try:
                    jobs = [service.good_radius(tenant, name, target=800,
                                                params=LOOSE, rng=seed)
                            for name, seed in requests[tenant]]
                    results[tenant] = [job.result(timeout=240)
                                       for job in jobs]
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [threading.Thread(target=run, args=(tenant,))
                       for tenant in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not errors
            for tenant, spec in requests.items():
                for reference, ours in zip(expected[tenant],
                                           results[tenant]):
                    assert_same_radius_release(reference, ours)
            # Per-tenant debits: 3 queries each, LOOSE each.
            for tenant in requests:
                stats = service.tenant(tenant).stats()
                assert stats["queries"] == 3
                assert stats["spent"]["epsilon"] == pytest.approx(
                    3 * LOOSE.epsilon)

    def test_concurrent_charges_never_overshoot(self, cluster_points):
        # Hammer one tenant's budget from many threads; the admitted total
        # must respect the cap no matter the interleaving.
        blocker = threading.Event()

        def stub_solver(*args, **kwargs):
            blocker.wait(timeout=30)
            return "done"

        original = service_module._SOLVERS["good_radius"]
        service_module._SOLVERS["good_radius"] = stub_solver
        try:
            with ClusteringService(max_queue=64) as service:
                service.register_dataset("data", cluster_points,
                                         backend="chunked")
                service.create_tenant("t", PrivacyParams(1.0, 1e-5))
                step = PrivacyParams(0.1, 1e-9)
                outcomes: list = []

                def submit_one(seed):
                    try:
                        outcomes.append(
                            service.good_radius("t", "data", target=800,
                                                params=step, rng=seed))
                    except BudgetExhaustedError:
                        outcomes.append(None)

                threads = [threading.Thread(target=submit_one, args=(s,))
                           for s in range(25)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                blocker.set()
                admitted = [job for job in outcomes if job is not None]
                assert len(admitted) == 10  # exactly cap / step
                assert service.tenant("t").stats()["refused"] == 15
                for job in admitted:
                    assert job.result(timeout=60) == "done"
        finally:
            service_module._SOLVERS["good_radius"] = original


# --------------------------------------------------------------------- #
# 4. Jobs, queues, lifecycle
# --------------------------------------------------------------------- #
class TestJobsAndLifecycle:
    def test_job_lifecycle_and_failure(self, cluster_points):
        def failing_solver(*args, **kwargs):
            raise RuntimeError("solver exploded")

        original = service_module._SOLVERS["good_radius"]
        service_module._SOLVERS["good_radius"] = failing_solver
        try:
            with ClusteringService() as service:
                service.register_dataset("data", cluster_points,
                                         backend="chunked")
                service.create_tenant("t", PrivacyParams(4.0, 1e-5))
                job = service.good_radius("t", "data", target=800,
                                          params=PrivacyParams(0.5, 1e-8),
                                          rng=0)
                assert job.wait(timeout=30)
                assert job.status is JobStatus.FAILED
                assert job.done()
                with pytest.raises(RuntimeError, match="solver exploded"):
                    job.result()
                # Conservative accounting: the failed query stays debited
                # (the mechanism may have touched the data before failing).
                assert service.tenant("t").spent().epsilon == \
                    pytest.approx(0.5)
                described = job.describe()
                assert described["status"] == "failed"
                assert "solver exploded" in described["error"]
        finally:
            service_module._SOLVERS["good_radius"] = original

    def test_queue_saturation_rolls_charge_back(self, cluster_points):
        release = threading.Event()

        def blocking_solver(*args, **kwargs):
            release.wait(timeout=30)
            return "ok"

        original = service_module._SOLVERS["good_radius"]
        service_module._SOLVERS["good_radius"] = blocking_solver
        try:
            with ClusteringService(max_queue=1) as service:
                service.register_dataset("data", cluster_points,
                                         backend="chunked")
                service.create_tenant("t", PrivacyParams(10.0, 1e-5))
                step = PrivacyParams(0.5, 1e-8)
                running = service.good_radius("t", "data", target=800,
                                              params=step, rng=0)
                # Wait until the first job occupies the executor so the
                # next one is guaranteed to sit in the queue.
                while running.status is JobStatus.QUEUED:
                    time.sleep(0.001)
                queued = service.good_radius("t", "data", target=800,
                                             params=step, rng=1)
                assert queued.status is JobStatus.QUEUED
                with pytest.raises(ServiceSaturatedError):
                    service.good_radius("t", "data", target=800,
                                        params=step, rng=2)
                # Saturation refunded the third charge: two remain.
                assert service.tenant("t").spent().epsilon == \
                    pytest.approx(1.0)
                release.set()
                assert running.result(timeout=30) == "ok"
                assert queued.result(timeout=30) == "ok"
        finally:
            service_module._SOLVERS["good_radius"] = original

    def test_unregister_fails_queued_jobs_and_closes_backend(
            self, cluster_points):
        release = threading.Event()

        def blocking_solver(*args, **kwargs):
            release.wait(timeout=30)
            return "ok"

        original = service_module._SOLVERS["good_radius"]
        service_module._SOLVERS["good_radius"] = blocking_solver
        try:
            with ClusteringService() as service:
                entry = service.register_dataset(
                    "data", cluster_points, backend="sharded",
                    options={"num_shards": 2, "num_workers": 0},
                )
                closes = []
                entry.backend.close = lambda: closes.append(1)  # type: ignore
                service.create_tenant("t", PrivacyParams(10.0, 1e-5))
                step = PrivacyParams(0.5, 1e-8)
                running = service.good_radius("t", "data", target=800,
                                              params=step, rng=0)
                queued = service.good_radius("t", "data", target=800,
                                             params=step, rng=1)
                while running.status is JobStatus.QUEUED:
                    time.sleep(0.001)
                release.set()
                service.unregister_dataset("data")
                assert running.result(timeout=30) == "ok"
                # The queued job either ran before the executor stopped or
                # was failed deterministically — it never hangs.
                assert queued.wait(timeout=30)
                assert closes == [1]
                assert "data" not in service.datasets()
                with pytest.raises(KeyError, match="no dataset"):
                    service.good_radius("t", "data", target=800,
                                        params=step, rng=2)
        finally:
            service_module._SOLVERS["good_radius"] = original

    def test_submit_racing_unregister_rolls_back_and_raises(
            self, cluster_points):
        # submit() captures the worker reference before charging; if
        # unregister_dataset() stops that worker in between, the enqueue
        # must NOT land (a job enqueued after stop()'s drain would never
        # run and its waiter would block forever) and the admission charge
        # must be refunded.  Stopping the captured worker directly
        # reproduces exactly the state the race leaves behind.
        with ClusteringService() as service:
            service.register_dataset("data", cluster_points, backend="chunked")
            service.create_tenant("t", PrivacyParams(1.0, 1e-6))
            service._workers["data"].stop()
            with pytest.raises(KeyError, match="no dataset"):
                service.good_radius("t", "data", target=800,
                                    params=PrivacyParams(0.5, 1e-8), rng=0)
            # The query provably never ran, so it cost nothing.
            assert service.tenant("t").spent() is None

    @pytest.mark.parametrize("close_before_insert", [True, False],
                             ids=["close-first", "insert-first"])
    def test_register_racing_close_does_not_leak(self, cluster_points,
                                                 close_before_insert):
        # close() landing between register_dataset()'s advisory open-check
        # and its worker creation must not leave behind a registered
        # dataset, a live executor thread, or an unclosed backend.
        service = ClusteringService()
        real_register = service._registry.register

        def racing_register(*args, **kwargs):
            if close_before_insert:
                service.close()
                return real_register(*args, **kwargs)
            entry = real_register(*args, **kwargs)
            service.close()
            return entry

        service._registry.register = racing_register  # type: ignore
        with pytest.raises(RuntimeError, match="closed"):
            service.register_dataset("data", cluster_points, backend="chunked")
        assert service._workers == {}
        assert service.datasets() == []

    def test_registry_validation(self, cluster_points):
        with ClusteringService() as service:
            # Options fit one strategy, and backend=None picks it by size.
            with pytest.raises(ValueError, match="name the strategy"):
                service.register_dataset("data", cluster_points,
                                         options={"num_workers": 2})
            assert service.datasets() == []
            service.register_dataset("data", cluster_points, backend="chunked")
            with pytest.raises(ValueError, match="already registered"):
                service.register_dataset("data", cluster_points,
                                         backend="chunked")
            with pytest.raises(ValueError, match="already exists"):
                service.create_tenant("t", PrivacyParams(1.0, 1e-6))
                service.create_tenant("t", PrivacyParams(1.0, 1e-6))
            with pytest.raises(KeyError, match="no tenant"):
                service.good_radius("ghost", "data", target=800,
                                    params=PrivacyParams(0.1, 1e-8))
            with pytest.raises(KeyError, match="no dataset"):
                service.good_radius("t", "ghost", target=800,
                                    params=PrivacyParams(0.1, 1e-8))

    def test_close_is_terminal_and_idempotent(self, cluster_points):
        service = ClusteringService()
        service.register_dataset("data", cluster_points, backend="chunked")
        service.create_tenant("t", PrivacyParams(1.0, 1e-6))
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            service.register_dataset("more", cluster_points)
        with pytest.raises(RuntimeError, match="closed"):
            service.good_radius("t", "data", target=800,
                                params=PrivacyParams(0.1, 1e-8))

    def test_service_stats_shape(self, cluster_points):
        with ClusteringService() as service:
            service.register_dataset(
                "data", cluster_points, backend="sharded",
                options={"num_shards": 2, "num_workers": 0},
            )
            service.create_tenant("t", PrivacyParams(4.0, 1e-5))
            service.good_radius("t", "data", target=800,
                                params=PrivacyParams(0.5, 1e-8),
                                rng=0).result(timeout=120)
            stats = service.service_stats()
            data = stats["datasets"]["data"]
            assert data["executed"] == 1
            assert data["queue_depth"] == 0
            assert data["backend"] == "ShardedBackend"
            assert data["pool"] is not None  # engine pool_stats merged in
            tenant = stats["tenants"]["t"]
            assert tenant["queries"] == 1
            assert tenant["remaining"]["epsilon"] == pytest.approx(3.5)
