"""Outside-in per-layer trace of one benchmark child process.

Wraps the public entry points of each ``repro`` layer from outside the
package -- nothing under ``src/`` is edited.  Names that a module
imported *by name* (``campaign.run_point_batch``,
``campaign.make_workload``, ``replication.mean_confidence_interval``,
``scenario.run_trajectory``, ``soa.native_supported``) are patched at
that call site, because patching only the defining module would leave
the caller's reference untouched and the layer would silently read
zero.  :meth:`Tracer.restore` puts every original back.

Each span records inclusive time, self time (inclusive minus the direct
child spans on the same thread) and a call count.  A call nested inside
a span of the same name (a subclass calling ``super()``, a pipeline
building its sources) is passed through, so nothing is counted twice.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import Callable

_perf = time.perf_counter


class _FuturesProxy:
    """``concurrent.futures`` with ``wait`` replaced (call-site patch)."""

    def __init__(self, real, wait: Callable) -> None:
        self._real = real
        self.wait = wait

    def __getattr__(self, name: str):
        return getattr(self._real, name)


class Tracer:
    """Span/counter recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        with self._lock:
            self.counts[name] += n

    def wrapped(self, fn: Callable, name: str,
                pre: Callable | None = None,
                post: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``pre(args, kwargs)`` runs before the call; ``post(result, pre)``
        after it returns, with ``pre``'s value.
        """
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack()
            for frame in stack:
                if frame[0] == name:
                    return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with tracer._lock:
                    tracer.total[name] += dt
                    tracer.self_time[name] += dt - frame[1]
                    tracer.calls[name] += 1
            if post is not None:
                post(result, before)
            return result

        span.__wrapped__ = fn
        return span

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` by its traced form (undone by restore)."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]  # the plain function, unbound
        else:
            original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrapped(original, name, **hooks))

    def patch_hierarchy(self, base: type, attrs: tuple[str, ...],
                        name: str, **hooks) -> None:
        """Patch ``attrs`` on ``base`` and every subclass defining them."""
        seen: set[type] = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for attr in attrs:
                if attr in cls.__dict__:
                    self.patch(cls, attr, name, **hooks)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """A copy of every total, self time, call count and counter."""
        with self._lock:
            return {
                "total": dict(self.total),
                "self": dict(self.self_time),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    # ------------------------------------------------------------ installing
    def install(self) -> None:
        """Wrap every layer's public entry point."""
        from repro.alloc.base import Allocator
        from repro.alloc.soa_state import LaneState
        from repro.core import soa
        from repro.core.simulator import Simulator
        from repro.experiments import campaign, scenario
        from repro.experiments.store import ResultCache
        from repro.network import channel
        from repro.network.backend import NetworkBackend
        from repro.network.traffic import AllToAllTraffic
        from repro.sched.policies import Scheduler
        from repro.stats import replication
        from repro.workload.columnar import BlockCache

        # experiments.campaign: dispatch, waiting, tasks
        self.patch(campaign.Campaign, "run", "campaign.run",
                   pre=self._campaign_jobs)
        real_futures = campaign.futures
        self._undo.append((campaign, "futures", real_futures))
        campaign.futures = _FuturesProxy(
            real_futures, self.wrapped(real_futures.wait, "campaign.wait")
        )
        self.patch(campaign, "_run_batch_task_raw", "campaign.task")
        self.patch(campaign, "_run_task_raw", "campaign.task")

        # core.soa / alloc.soa_state
        self.patch(campaign, "run_point_batch", "soa.batch")
        self.patch(soa, "native_supported", "soa.probe",
                   post=lambda ok, _: ok and self.count("soa.native"))
        self.patch(soa, "_run_native", "soa.native_run")
        self.patch(LaneState, "__init__", "soa.lane_init")
        self.patch(LaneState, "feed", "soa.feed")
        self.patch(LaneState, "result", "soa.result")

        # workload
        self.patch(campaign, "make_workload", "workload.build")
        self.patch(BlockCache, "stream", "workload.block",
                   pre=lambda a, k: a[3] in a[0]._streams,
                   post=lambda _r, hit: hit and self.count("workload.block_hit"))

        # core.simulator, alloc, sched
        self.patch(Simulator, "run", "sim.run")
        self.patch_hierarchy(Allocator, ("allocate",), "alloc.allocate",
                             post=lambda r, _: r is None and self.count("alloc.fail"))
        self.patch_hierarchy(Scheduler, ("add", "peek", "remove"), "sched")

        # network, channel, ARQ
        self.patch(AllToAllTraffic, "launch", "network.launch")
        self.patch_hierarchy(NetworkBackend, ("inject_rounds",), "network.inject")
        self.patch(channel, "resolve_launch", "channel.resolve")
        self.patch(channel.ChannelSampler, "fate", "arq.fate",
                   post=lambda ok, _: ok and self.count("arq.delivered"))

        # experiments.scenario / core.hooks
        self.patch(scenario, "run_trajectory", "scenario.trajectory")

        # stats
        self.patch(replication.ReplicationController, "add_batch", "stats")
        self.patch(replication.ReplicationController, "result", "stats")
        self.patch(replication, "mean_confidence_interval", "stats.ci")

        # experiments.store
        self.patch(ResultCache, "put_many", "store.put",
                   pre=lambda a, k: len(a[1]),
                   post=lambda _r, n: self.count("store.points_written", n))
        self.patch(ResultCache, "get", "store.get",
                   post=lambda r, _: r is not None and self.count("store.hit"))

    def _campaign_jobs(self, args, kwargs) -> None:
        jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
        kind = kwargs.get("executor_kind")
        self.count("campaign.jobs", max(1, jobs) if kind == "thread" else 1)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(cold: dict, warm: dict,
                  passes: int = 1) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from snapshots of the cold run and warm passes.

    ``cold`` covers the cold campaign only; ``warm`` covers ``passes``
    warm store re-reads, which is what the ``store.get*`` metrics
    describe, per pass.
    """
    total, own = cold["total"], cold["self"]
    calls, counts = cold["calls"], cold["counts"]

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    wall = t("campaign.run")
    jobs = counts.get("campaign.jobs", 1)
    w_total, w_calls = warm["total"], warm["calls"]
    gets = w_calls.get("store.get", 0) / max(1, passes)
    return {
        "campaign.dispatch_s": (own.get("campaign.run", 0.0), "s"),
        "campaign.wait_s": (t("campaign.wait"), "s"),
        "campaign.waits": (n("campaign.wait"), "count"),
        "campaign.worker_busy_ratio": (
            _ratio(t("campaign.task"), jobs * wall), "ratio"),
        "campaign.tasks": (n("campaign.task"), "count"),
        "soa.batch_s": (t("soa.batch"), "s"),
        "soa.batches": (n("soa.batch"), "count"),
        "soa.native_batches": (counts.get("soa.native", 0), "count"),
        "soa.native_ratio": (
            _ratio(counts.get("soa.native", 0), n("soa.probe")), "ratio"),
        "soa.lane_init_s": (t("soa.lane_init"), "s"),
        "soa.feed_s": (t("soa.feed"), "s"),
        "soa.result_s": (t("soa.result"), "s"),
        "soa.kernel_s": (own.get("soa.native_run", 0.0), "s"),
        "workload.build_s": (t("workload.build"), "s"),
        "workload.builds": (n("workload.build"), "count"),
        "workload.block_hit_ratio": (
            _ratio(counts.get("workload.block_hit", 0), n("workload.block")),
            "ratio"),
        "sim.run_s": (t("sim.run"), "s"),
        "sim.runs": (n("sim.run"), "count"),
        "alloc.allocate_s": (t("alloc.allocate"), "s"),
        "alloc.attempts": (n("alloc.allocate"), "count"),
        "alloc.fail_ratio": (
            _ratio(counts.get("alloc.fail", 0), n("alloc.allocate")), "ratio"),
        "sched.s": (t("sched"), "s"),
        "sched.calls": (n("sched"), "count"),
        "network.launch_s": (t("network.launch"), "s"),
        "network.launches": (n("network.launch"), "count"),
        "network.inject_s": (t("network.inject"), "s"),
        "network.injects": (n("network.inject"), "count"),
        "channel.resolve_s": (t("channel.resolve"), "s"),
        "channel.launches": (n("channel.resolve"), "count"),
        "arq.attempts": (n("arq.fate"), "count"),
        "arq.delivered_ratio": (
            _ratio(counts.get("arq.delivered", 0), n("arq.fate")), "ratio"),
        "scenario.trajectory_s": (t("scenario.trajectory"), "s"),
        "scenario.trajectories": (n("scenario.trajectory"), "count"),
        "stats.s": (t("stats"), "s"),
        "stats.ci_calls": (n("stats.ci"), "count"),
        "store.put_s": (t("store.put"), "s"),
        "store.points_written": (counts.get("store.points_written", 0), "count"),
        "store.get_s": (
            w_total.get("store.get", 0.0) / max(1, passes), "s"),
        "store.gets": (gets, "count"),
        "store.hit_ratio": (
            _ratio(warm["counts"].get("store.hit", 0),
                   w_calls.get("store.get", 0)),
            "ratio"),
    }


def delta(after: dict, before: dict) -> dict:
    """Snapshot ``after`` minus snapshot ``before``, field by field."""
    return {
        part: {k: v - before[part].get(k, 0) for k, v in values.items()}
        for part, values in after.items()
    }


_EMPTY = {"total": {}, "self": {}, "calls": {}, "counts": {}}

#: unit of every per-layer metric the traced run reports
UNITS = {
    **{k: unit for k, (_v, unit) in layer_metrics(_EMPTY, _EMPTY).items()},
    "setup.import_s": "s",
    "setup.kernel_load_s": "s",
    "setup.trace_synth_s": "s",
    "warm_points_per_s": "1/s",
    "trace.campaign_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}
