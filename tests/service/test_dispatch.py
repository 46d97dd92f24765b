"""Dispatch policy semantics: ordering and balance."""

import asyncio

import pytest

from repro.service.config import ServiceConfig
from repro.service.dispatch import (
    DISPATCH_POLICIES,
    FifoPolicy,
    LeastLoadedPolicy,
    make_policy,
)
from repro.service.jobs import FactorRequest, Job


def _job(n=32, seed=0, **kw):
    request = FactorRequest(n=n, seed=seed, **kw)
    return Job(
        request=request,
        key=request.cache_key(),
        future=None,
        submitted_at=0.0,
    )


def run(coro):
    return asyncio.run(coro)


class TestRegistry:
    def test_policies_registered(self):
        assert set(DISPATCH_POLICIES) == {"fifo", "least-loaded"}

    def test_make_policy_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dispatch policy"):
            make_policy("round-robin", 2, ServiceConfig())

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ServiceConfig(policy="round-robin")


class TestFifo:
    def test_strict_arrival_order(self):
        async def go():
            policy = FifoPolicy(2, ServiceConfig())
            jobs = [_job(seed=i) for i in range(5)]
            for job in jobs:
                await policy.put(job)
            assert policy.depth() == 5
            seen = []
            for _ in jobs:
                (job,) = await policy.get(0)
                seen.append(job.request.seed)
            assert seen == [0, 1, 2, 3, 4]
            assert policy.depth() == 0

        run(go())

    def test_shutdown_delivers_one_sentinel_per_worker(self):
        async def go():
            policy = FifoPolicy(3, ServiceConfig())
            await policy.shutdown()
            assert [await policy.get(i) for i in range(3)] == [
                None, None, None,
            ]

        run(go())


class TestLeastLoaded:
    def test_spreads_jobs_across_idle_workers(self):
        async def go():
            policy = LeastLoadedPolicy(2, ServiceConfig())
            for i in range(4):
                await policy.put(_job(seed=i))
            # alternating routing: both workers hold two jobs
            assert policy._queues[0].qsize() == 2
            assert policy._queues[1].qsize() == 2

        run(go())

    def test_avoids_busy_worker(self):
        async def go():
            policy = LeastLoadedPolicy(2, ServiceConfig())
            # worker 0 is busy with a two-job unit: both new jobs must
            # route to the idle worker 1
            policy.task_started(0, 2)
            for i in range(2):
                await policy.put(_job(seed=i))
            assert policy._queues[0].qsize() == 0
            assert policy._queues[1].qsize() == 2
            policy.task_done(0, 2)

        run(go())

