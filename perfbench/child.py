"""One measured benchmark process: set-up, one cold run, warm re-reads.

Run by ``perfbench/run.py`` as a fresh interpreter per repetition, so
the trace memo, column memo and block cache start empty exactly as they
do for a CLI user, and with a private, empty result store.  Prints one
JSON object on its last stdout line.

Argument: a JSON object with ``workload``, ``seed``, ``store``,
``spawn_time`` (``time.time()`` just before ``run.py`` started this
process), ``trace`` (bool) and ``variant`` (overrides of the workload
entry: empty for timed repetitions, set for the differential check); or
only ``mode: "build"``, which loads the native kernels and reports the
machine context.
"""

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WARM_MIN_S, WARM_PASSES, WORKLOADS  # noqa: E402


class SpeedProbe:
    """Host CPU speed sampled through a run, to put times on one scale.

    A shared host alternates, seconds at a time, between a fast and a
    ~1.8x slower state that the VM cannot see (no steal time).  Every
    ``INTERVAL_S`` of wall time a ``SIGALRM`` handler times a fixed
    snippet of interpreter work on this very process and CPU.  A span's
    *reference seconds* are its wall seconds weighted by
    ``REF_S / snippet time`` over the samples inside it: what the span
    would have taken on a host where the snippet takes ``REF_S``.
    """

    INTERVAL_S = 0.025
    #: the snippet's time in the host's fast state (Xeon, Python 3.11)
    REF_S = 4.0e-4

    def __init__(self) -> None:
        self.samples: list[float] = []

    @staticmethod
    def _snippet() -> int:
        acc = 0
        table = {}
        for i in range(4000):
            acc += (i * 7) % 13
            table[i & 63] = acc
        return acc

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self._snippet()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, since: int) -> float:
        """Mean of ``REF_S / snippet time`` over the samples since ``since``."""
        window = self.samples[since:]
        if not window:
            return 1.0
        return statistics.fmean(self.REF_S / s for s in window)


def _setup() -> dict:
    """Import repro, load the native kernels, synthesise the SDSC trace."""
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import repro.experiments.campaign  # noqa: F401
    import repro.experiments.scenario  # noqa: F401
    from repro.core import _soa_native
    from repro.network import _native as net_native
    from repro.workload import _native as draw_native
    t1 = time.perf_counter()
    loaders = (_soa_native, net_native, draw_native)
    native = all(mod.load_kernel() is not None for mod in loaders)
    t2 = time.perf_counter()
    from repro.workload.sdsc import synthesize_sdsc_trace

    # timed but not memoised: the campaign's own trace memo stays cold
    synthesize_sdsc_trace()
    t3 = time.perf_counter()
    source = "".join(
        mod._SOURCE for mod in (_soa_native, draw_native)
    )
    return {
        "import_s": t1 - t0,
        "kernel_load_s": t2 - t1,
        "trace_synth_s": t3 - t2,
        "native": native,
        "kernel_digest": hashlib.sha256(source.encode()).hexdigest()[:16],
    }


class _Runner:
    """The workload's cold run and warm re-read, bound to one store."""

    def __init__(self, entry: dict, seed: int, store: Path, nproc: int) -> None:
        from repro.core.config import PAPER_CONFIG
        from repro.experiments.campaign import Campaign
        from repro.experiments.figures import FIGURES
        from repro.experiments.scenario import Scenario

        self.store = store
        self.jobs = nproc if entry["jobs"] == "nproc" else entry["jobs"]
        self.executor = entry["executor"]
        self.trajectories = entry.get("trajectories", True)
        self.scenario = None
        if entry["kind"] == "scenario":
            doc = dict(entry["scenario"])
            doc["config"] = {**doc["config"], "seed": seed}
            self.scenario = Scenario.from_dict(doc)
            self.campaign = self.scenario.campaign()
        else:
            config = PAPER_CONFIG.with_(engine=entry["engine"], seed=seed)
            self.campaign = Campaign.from_figures(
                tuple(FIGURES), scale=entry["scale"], config=config
            )

    def _cache(self):
        from repro.experiments.store import ResultCache

        return ResultCache(self.store)

    def cold(self) -> dict:
        """Run every point from the empty store; spec -> PointResult."""
        if self.scenario is not None and self.trajectories:
            out = self.scenario.run(
                jobs=self.jobs, cache=self._cache(), executor=self.executor
            )
            return dict(out.metrics)
        return self.campaign.run(
            jobs=self.jobs, cache=self._cache(), executor_kind=self.executor
        )

    def warm(self) -> dict:
        """Serve every point from the now-full store, read from disk."""
        return self.campaign.run(cache=self._cache())


def _means(results: dict) -> dict[str, dict[str, float]]:
    return {spec.key(): dict(result.means) for spec, result in results.items()}


def main() -> int:
    args = json.loads(sys.argv[1])
    probe = SpeedProbe()
    probe.start()
    setup = _setup()
    setup_s = time.time() - args["spawn_time"]
    setup_speed = probe.speed(0)
    nproc = len(os.sched_getaffinity(0))
    context = {
        "nproc": nproc,
        "native": setup["native"],
        "kernel_digest": setup["kernel_digest"],
        "python": sys.version.split()[0],
    }
    if args.get("mode") == "build":
        probe.stop()
        print(json.dumps({"context": context}))
        return 0

    entry = {**WORKLOADS[args["workload"]], **args["variant"]}
    runner = _Runner(entry, args["seed"], Path(args["store"]), nproc)
    tracer = None
    if args["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        mark = probe.mark()
        t0 = time.perf_counter()
        results = runner.cold()
        campaign_s = time.perf_counter() - t0
        campaign_speed = probe.speed(mark)
        cold_snap = tracer.snapshot() if tracer else None
        warm_s = []
        warm_mismatch = 0
        while len(warm_s) < WARM_PASSES or sum(warm_s) < WARM_MIN_S:
            t0 = time.perf_counter()
            again = runner.warm()
            warm_s.append(time.perf_counter() - t0)
            warm_mismatch += sum(
                1 for spec, result in results.items()
                if dict(again[spec].means) != dict(result.means)
            )
        layers = None
        if tracer is not None:
            from tracer import delta, layer_metrics

            warm_snap = delta(tracer.snapshot(), cold_snap)
            layers = {k: v for k, (v, _unit) in
                      layer_metrics(cold_snap, warm_snap, len(warm_s)).items()}
            layers["setup.import_s"] = setup["import_s"]
            layers["setup.kernel_load_s"] = setup["kernel_load_s"]
            layers["setup.trace_synth_s"] = setup["trace_synth_s"]
    finally:
        probe.stop()
        if tracer is not None:
            tracer.restore()
    points = len(results)
    print(json.dumps({
        "context": context,
        "setup_s": setup_s * setup_speed,
        "campaign_s": campaign_s * campaign_speed,
        "setup_wall_s": setup_s,
        "campaign_wall_s": campaign_s,
        "warm_points_per_s": points / statistics.median(warm_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "points": points,
        "warm_mismatch": warm_mismatch,
        "means": _means(results),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
