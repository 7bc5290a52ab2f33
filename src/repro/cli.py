"""Command-line interface: regenerate paper figures as text tables.

Usage::

    python -m repro fig3                 # one figure, smoke scale
    python -m repro fig2 fig5 --scale quick
    python -m repro all --scale paper    # every figure, paper fidelity
    python -m repro all --scale paper -j 4   # ... on 4 worker processes
    python -m repro fig2 --swf SDSC-Par-95.swf   # real archive trace
    python -m repro point --workload uniform --load 0.02 \
        --alloc GABL --sched SSD         # a single simulation point
    python -m repro sweep --workloads uniform,exponential \
        --loads 0.005,0.009,0.013 --allocs GABL,MBS --scheds FCFS,SSD \
        -j 4                             # a custom grid campaign
    python -m repro scenario examples/scenario_smoke.json \
        --out results/scenario.json      # a declarative scenario file
    python -m repro diff baseline.json candidate.json \
        --fail-on-regress                # statistical report comparison
    python -m repro diff baseline.json candidate.json \
        --trajectories --fail-on-regress # ... also gate on run *shape*
    python -m repro fig9 --auto-saturation --out report.json
                                         # detect the saturation knee
    python -m repro plot results/scenario.json --metric utilization \
        --compare other.json --png out.png   # trajectory/sweep charts
    python -m repro serve --port 8037 --store results/shards
                                         # long-running campaign service
    python -m repro submit examples/scenario_smoke.json --wait
                                         # queue a job on the service
    python -m repro status               # every service job's progress
    python -m repro plot JOB_ID --follow # live charts of a running job

Figure targets are executed as one deduplicated campaign: cells shared
between figures (e.g. the uniform sweep behind figs 3/6/9/12/15) are
simulated once, and ``--jobs/-j N`` fans the work out over N worker
processes with identical results to a serial run (replication seeds are
derived from each point's spec, never from worker state).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Sequence

from repro import __version__
from repro.core.config import ENGINES, NETWORK_MODES, PAPER_CONFIG
from repro.experiments.campaign import SCALES, Campaign, default_scale
from repro.experiments.figures import FIGURES
from repro.network.arq import ARQ_PROTOCOLS


#: per-target contracts: report schema written by --out and exit codes.
#: Shown in --help (and audited by tests/test_cli.py): every target that
#: writes a report names its schema here, and every nonzero exit is
#: documented.  Report schemas: 1 = pre-1.3 scenario reports (no point
#: keys; rejected by diff), 2 = point keys + replication summaries,
#: 3 = current (embedded trajectory series + saturation block).
_TARGET_CONTRACTS = """\
targets and their contracts (report schemas: 1 legacy, 2 keys+stats,
3 current = 2 + embedded trajectory series + saturation block):

  fig2..fig16, all   regenerate paper figures as text tables.
                     exit 0 done; 2 unknown target/bad arguments.
                     with --auto-saturation, fig8/9/10 detect their
                     saturation load and --out writes a schema-3
                     figures report embedding the scan.
  claims             verify the paper's headline claims.
                     exit 0 all pass; 1 a claim failed.
  point              one cell (--workload, --load [--alloc --sched]).
                     exit 0 done; 2 missing/bad parameters.
  sweep              grid campaign (--workloads, --loads, ...).
                     --out writes a schema-3 campaign report.
                     exit 0 done; 2 missing/bad grid parameters.
  scenario FILE...   run declarative scenario JSON files.
                     --out writes a schema-3 scenario report (with
                     trajectory series when 'sample_interval' is set;
                     with a saturation block under --auto-saturation).
                     exit 0 done; 2 bad scenario file.
  diff A.json B.json statistical comparison of two --out reports
                     (schemas 2 and 3 readable; --trajectories needs
                     schema-3 embedded series).  --out writes a
                     schema-3 diff report.  a strict-subset grid (an
                     in-progress campaign) aligns on the intersection
                     with a warning; an empty side warns and exits 0
                     unless --fail-on-regress (a CI gate must never
                     pass vacuously).
                     exit 0 clean; 1 regression (regressed mean or
                     diverged trajectory) under --fail-on-regress;
                     2 malformed/old-schema reports or disjoint
                     non-empty grids.
  plot REPORT.json   ASCII charts of a schema-2/3 report (trajectory
                     series and per-load sweep curves); --compare
                     overlays a second report, --png adds a PNG when
                     matplotlib is importable.  with --follow the
                     argument is a service job id: charts re-render
                     every --interval seconds until the job finishes.
                     exit 0 rendered; 2 unreadable report or
                     unreachable service.
  serve              long-running campaign service on --host/--port
                     (store: --store or the default cache dir).
                     accepts submitted scenario/sweep JSON, streams
                     finished points to the sharded store, resumes
                     unfinished jobs on restart.
                     exit 0 on clean shutdown; 2 bad arguments (a
                     --port outside 0-65535), an address it cannot
                     listen on, or a --store path that is not a
                     directory.
  submit FILE...     queue scenario/sweep JSON files on the service.
                     --wait polls until done (--out then writes each
                     job's schema-3 report).
                     exit 0 accepted (and done, with --wait); 1 a job
                     failed; 2 bad file or unreachable service, or
                     a negative or non-finite --interval.
  status [JOB_ID]    service overview, or one job's progress/ETA.
                     exit 0; 2 unknown job or unreachable service.
"""


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-mesh",
        description=(
            "Reproduce Bani-Mohammad et al. (IPDPS 2008): allocation and "
            "scheduling in 2D mesh multicomputers."
        ),
        epilog=_TARGET_CONTRACTS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument(
        "targets",
        nargs="+",
        help="figure ids (fig2..fig16), 'all', 'claims', 'point', 'sweep', "
        "'scenario' followed by one or more scenario JSON files, "
        "'diff' followed by exactly two --out report files, "
        "'plot' followed by one --out report file (or a job id with "
        "--follow), 'serve' (the campaign service), 'submit' followed "
        "by scenario/sweep JSON files, or 'status' with an optional "
        "job id",
    )
    p.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    p.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="fidelity preset (default: REPRO_SCALE env or 'smoke')",
    )
    p.add_argument(
        "-j", "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel workers for simulation points (default: 1, serial)",
    )
    p.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default=None,
        help="parallel backend for -j N: thread (in-process workers; the "
        "compiled SoA driver releases the GIL so lanes run concurrently "
        "and share caches), process (worker processes) or serial. "
        "Default: auto -- thread when the native driver carries every "
        "point (--engine soa), process otherwise. Results are identical "
        "across backends",
    )
    p.add_argument("--plot", action="store_true", help="add ASCII plots")
    p.add_argument(
        "--network-mode",
        choices=NETWORK_MODES,
        default=None,
        help="network transport backend: batch (compiled whole-launch "
        "kernel, the default), fast (bit-identical reference), causal "
        "(exact per-hop arbitration) or sfb (single-flit-buffer wormhole)",
    )
    p.add_argument(
        "--topology",
        choices=("mesh", "torus"),
        default=None,
        help="interconnect topology (default mesh; torus = the paper's "
        "future work)",
    )
    p.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="execution engine: reference (one event loop per "
        "replication, the default) or soa (lockstep replication batches "
        "through the compiled structure-of-arrays driver; bit-identical "
        "results, REPRO_NATIVE=0 falls back to per-seed reference "
        "runs)",
    )
    p.add_argument(
        "--channel",
        default=None,
        metavar="SPEC",
        help="lossy interconnect channel policy, e.g. 'loss:0.05 + "
        "delay:exp:0.1' (terms: loss:P, corrupt:P, delay:fixed:T, "
        "delay:exp:MEAN, delay:uniform:LO:HI). Default: perfect links. "
        "A policy that can fail packets requires --arq",
    )
    p.add_argument(
        "--arq",
        choices=ARQ_PROTOCOLS,
        default=None,
        help="retransmission protocol recovering channel losses "
        "(inert without a lossy --channel)",
    )
    p.add_argument(
        "--swf",
        default=None,
        help="replay this SWF trace file for the real workload",
    )
    # 'point' options
    p.add_argument(
        "--workload",
        default=None,
        help="point: real/uniform/exponential or a pipeline spec such as "
        "'real*0.5 | thin:0.8 + uniform'",
    )
    p.add_argument("--load", type=float, help="point: offered system load")
    p.add_argument("--alloc", default="GABL", help="point: allocator name")
    p.add_argument("--sched", default="FCFS", help="point: scheduler name")
    # 'sweep' options (comma-separated grids)
    p.add_argument(
        "--workloads",
        default=None,
        help="sweep: comma-separated workloads "
        "(real,uniform,exponential, or pipeline specs)",
    )
    p.add_argument(
        "--loads", default=None, help="sweep: comma-separated load values"
    )
    p.add_argument(
        "--allocs", default="GABL", help="sweep: comma-separated allocators"
    )
    p.add_argument(
        "--scheds", default="FCFS", help="sweep: comma-separated schedulers"
    )
    p.add_argument(
        "--channels",
        default=None,
        help="sweep: comma-separated channel policy specs forming a "
        "lossy-interconnect grid axis (e.g. 'loss:0,loss:0.05,loss:0.15')",
    )
    p.add_argument(
        "--arqs",
        default=None,
        help="sweep: comma-separated ARQ protocols crossed with --channels",
    )
    # 'scenario' / 'sweep' / 'diff' options
    p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="scenario/sweep/auto-saturation figures: write the "
        "machine-readable schema-3 JSON report (metrics + replication "
        "stats + trajectory series, diffable); diff: write the verdict "
        "report as JSON",
    )
    # 'diff' options
    p.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="NAME",
        help="diff: compare only this metric (repeatable; default all "
        "metrics the two reports share)",
    )
    p.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help="diff: significance level for Welch's t-test (default 0.05)",
    )
    p.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        dest="rel_tol",
        help="diff: relative-delta dead band; deltas within it are "
        "'indistinguishable' (default 0, exact)",
    )
    p.add_argument(
        "--fail-on-regress",
        action="store_true",
        help="diff: exit 1 when any metric verdict is 'regressed' or any "
        "trajectory series 'diverged' (the CI-gate mode)",
    )
    p.add_argument(
        "--trajectories",
        action="store_true",
        help="diff: also compare the embedded trajectory series "
        "(schema-3 reports) sample by sample on a common grid",
    )
    p.add_argument(
        "--traj-atol",
        type=float,
        default=0.0,
        dest="traj_atol",
        help="diff: absolute per-sample tolerance band for --trajectories "
        "(default 0, exact)",
    )
    p.add_argument(
        "--traj-rtol",
        type=float,
        default=0.0,
        dest="traj_rtol",
        help="diff: relative per-sample tolerance band for --trajectories "
        "(fraction of the baseline sample; default 0, exact)",
    )
    # saturation options
    p.add_argument(
        "--auto-saturation",
        action="store_true",
        dest="auto_saturation",
        help="detect the saturation load from a utilization load ladder "
        "instead of the fixed SATURATION_LOADS constants "
        "(fig8/9/10 and scenario targets); the scan lands in --out "
        "reports' 'saturation' block",
    )
    # 'plot' options
    p.add_argument(
        "--compare",
        default=None,
        metavar="REPORT",
        help="plot: overlay this second --out report on the same axes",
    )
    p.add_argument(
        "--png",
        default=None,
        metavar="PATH",
        help="plot: also write a PNG (needs matplotlib; ASCII is always "
        "rendered)",
    )
    # 'serve' / 'submit' / 'status' options (the campaign service)
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve/submit/status/plot --follow: service address "
        "(default 127.0.0.1)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="serve/submit/status/plot --follow: service port, 0-65535 "
        "(default 8037)",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="serve: result-store shard directory (default: "
        "$REPRO_CACHE_DIR/results.shards or ./.repro-cache/results.shards); "
        "job manifests live in DIR/jobs",
    )
    p.add_argument(
        "--wait",
        action="store_true",
        help="submit: poll each submitted job until it finishes "
        "(exit 1 when a job fails)",
    )
    p.add_argument(
        "--follow",
        action="store_true",
        help="plot: treat the argument as a service job id and "
        "re-render its partial report every --interval seconds until "
        "the job finishes",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="submit --wait / plot --follow: poll interval, a finite "
        "number >= 0 (default 2.0)",
    )
    return p


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _run_scenarios(files: Sequence[str], args, flags: dict, trace) -> int:
    import dataclasses

    from repro.experiments.scenario import Scenario

    for path in files:
        try:
            scenario = Scenario.load(path)
            # explicitly-given CLI flags override the file's settings
            overrides: dict = {}
            if args.scale is not None:
                overrides["scale"] = args.scale
            if flags:
                overrides["config"] = {**scenario.config, **flags}
            if overrides:
                scenario = dataclasses.replace(scenario, **overrides)
        except (OSError, ValueError) as exc:
            print(f"bad scenario file {path}: {exc}", file=sys.stderr)
            return 2
        cfg = scenario.sim_config()
        _progress(
            f"scenario {scenario.name}: {len(scenario.campaign().points)} "
            f"points, scale={scenario.scale}, network={cfg.network_mode}, "
            f"topology={cfg.topology}, jobs={args.jobs}"
        )
        t0 = time.perf_counter()
        result = scenario.run(
            jobs=args.jobs, trace=trace, progress=_progress,
            auto_saturation=args.auto_saturation, executor=args.executor,
        )
        dt = time.perf_counter() - t0
        print(result.format())
        print(f"[scenario {scenario.name}: {len(result.points)} points, {dt:.1f}s]")
        if args.out:
            import json
            from pathlib import Path

            out = Path(args.out)
            if len(files) > 1:
                # one report per scenario file: a shared --out path would
                # silently overwrite every report but the last
                out = out.with_name(
                    f"{out.stem}-{scenario.name}{out.suffix or '.json'}"
                )
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(result.to_dict(), indent=2))
            print(f"report written to {out}")
    return 0


def _run_diff(files: Sequence[str], args) -> int:
    """The ``diff`` target: align, classify, and gate on two reports."""
    from repro.experiments.diff import DiffError, diff_reports, load_report

    try:
        report = diff_reports(
            load_report(files[0]),
            load_report(files[1]),
            metrics=args.metric,
            alpha=args.alpha,
            rel_tol=args.rel_tol,
            trajectories=args.trajectories,
            traj_atol=args.traj_atol,
            traj_rtol=args.traj_rtol,
        )
    except DiffError as exc:
        print(f"diff error: {exc}", file=sys.stderr)
        return 2
    print(report.format())
    for warning in report.warnings():
        print(f"warning: {warning}", file=sys.stderr)
    if args.out:
        import json
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_dict(), indent=2))
        print(f"diff report written to {out}")
    if not report.matched:
        empty = [r for r in (report.a, report.b) if not r.points]
        if empty and not args.fail_on_regress:
            # an in-progress campaign legitimately serves an empty (or
            # not-yet-overlapping) report; plot --follow and ad-hoc
            # service diffs must degrade gracefully.  --fail-on-regress
            # still hard-fails: a CI gate must never pass vacuously.
            for side in empty:
                print(
                    f"warning: report {side.source} has no points yet "
                    "(in-progress campaign?); nothing to compare",
                    file=sys.stderr,
                )
            return 0
        print(
            "diff error: the two reports share no points "
            "(disjoint grids or different configs)",
            file=sys.stderr,
        )
        return 2
    if args.fail_on_regress and report.regressions:
        print(
            f"FAIL: {len(report.regressions)} point(s) regressed",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_plot(files: Sequence[str], args) -> int:
    """The ``plot`` target: render a report's series as charts."""
    from repro.experiments.diff import DiffError, load_report
    from repro.experiments.plot import plot_report

    if args.follow:
        return _run_plot_follow(files[0], args)
    try:
        report = load_report(files[0])
        compare = load_report(args.compare) if args.compare else None
    except DiffError as exc:
        print(f"plot error: {exc}", file=sys.stderr)
        return 2
    print(plot_report(
        report, metrics=args.metric, compare=compare, png=args.png,
    ))
    return 0


def _service_client(args):
    """A :class:`ServiceClient` bound to the --host/--port flags."""
    from repro.experiments.serve import DEFAULT_PORT
    from repro.experiments.service_client import ServiceClient

    return ServiceClient(
        host=args.host, port=args.port if args.port is not None else DEFAULT_PORT
    )


def _run_plot_follow(jid: str, args) -> int:
    """``plot JOB_ID --follow``: live charts of a running service job."""
    import time as _time

    from repro.experiments.diff import DiffError, parse_report
    from repro.experiments.plot import plot_report
    from repro.experiments.service_client import (
        FINISHED_STATES, ServiceError, format_job,
    )

    client = _service_client(args)
    try:
        while True:
            payload = client.report(jid)
            job = payload.get("job", {})
            try:
                report = parse_report(payload, source=f"job:{jid}")
            except DiffError as exc:
                print(f"plot error: {exc}", file=sys.stderr)
                return 2
            print(plot_report(report, metrics=args.metric, png=args.png))
            _progress(format_job(job))
            if job.get("state") in FINISHED_STATES:
                return 0 if job.get("state") == "done" else 1
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except ServiceError as exc:
        print(f"plot error: {exc}", file=sys.stderr)
        return 2


def _run_serve(args) -> int:
    """The ``serve`` target: run the campaign service until interrupted."""
    from repro.experiments.serve import DEFAULT_PORT, serve

    try:
        serve(
            store=args.store,
            host=args.host,
            port=args.port if args.port is not None else DEFAULT_PORT,
            jobs=args.jobs,
            executor=args.executor,
            progress=_progress,
        )
    except ValueError as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_submit(files: Sequence[str], args) -> int:
    """The ``submit`` target: queue scenario/sweep files on the service."""
    import json
    from pathlib import Path

    from repro.experiments.service_client import ServiceError, format_job

    client = _service_client(args)
    jobs = []
    for path in files:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            print(f"bad submission file {path}: {exc}", file=sys.stderr)
            return 2
        try:
            summary = client.submit(doc)
        except ServiceError as exc:
            print(f"submit error: {exc}", file=sys.stderr)
            return 2
        print(format_job(summary))
        jobs.append(summary["id"])
    if not args.wait:
        return 0
    failed = 0
    for jid in jobs:
        try:
            final = client.wait(
                jid, interval=args.interval,
                progress=lambda s: _progress(format_job(s)),
            )
        except ServiceError as exc:
            print(f"submit error: {exc}", file=sys.stderr)
            return 2
        if final.get("state") != "done":
            failed += 1
            continue
        if args.out:
            out = Path(args.out)
            if len(jobs) > 1:
                out = out.with_name(f"{out.stem}-{jid}{out.suffix or '.json'}")
            try:
                report = client.report(jid)
            except ServiceError as exc:
                print(f"submit error: {exc}", file=sys.stderr)
                return 2
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(report, indent=2))
            print(f"report written to {out}")
    if failed:
        print(f"FAIL: {failed} job(s) failed", file=sys.stderr)
        return 1
    return 0


def _run_status(rest: Sequence[str], args) -> int:
    """The ``status`` target: service overview or one job's progress."""
    from repro.experiments.service_client import ServiceError, format_job

    client = _service_client(args)
    try:
        if rest:
            print(format_job(client.job(rest[0])))
            return 0
        status = client.status()
    except ServiceError as exc:
        print(f"status error: {exc}", file=sys.stderr)
        return 2
    print(
        f"repro-serve {status.get('version', '?')} at {client.base} "
        f"(store: {status.get('store', '?')}, "
        f"up {status.get('uptime_seconds', 0.0):.0f}s)"
    )
    jobs = status.get("jobs", [])
    if not jobs:
        print("no jobs submitted")
        return 0
    for job in jobs:
        print(format_job(job))
    return 0


def _run_auto_saturation_figures(
    fig_targets: Sequence[str], args, scale, config, trace
) -> int:
    """Saturation figures under ``--auto-saturation``: scan, run, report."""
    import json
    from pathlib import Path

    from repro.experiments.diff import campaign_report
    from repro.experiments.report import ascii_plot, format_figure
    from repro.experiments.trajectory import run_saturation_figure

    all_points: dict = {}
    scans = []
    for fig_id in fig_targets:
        t0 = time.perf_counter()
        figure, scan, points = run_saturation_figure(
            fig_id, scale=scale, config=config, trace=trace, jobs=args.jobs,
            executor=args.executor,
        )
        dt = time.perf_counter() - t0
        print(scan.format())
        if not scan.saturated:
            print(
                f"note: falling back to the pinned saturation load for "
                f"{fig_id}",
                file=sys.stderr,
            )
        print(format_figure(figure))
        if args.plot:
            print(ascii_plot(figure))
        print(f"[{fig_id}: scale={scale}, auto-saturation, {dt:.1f}s]\n")
        scans.append({"figure": fig_id, **scan.to_dict()})
        all_points.update(points)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(campaign_report(
            tuple(all_points), all_points,
            name="auto-saturation", kind="figures", saturation=scans,
        ), indent=2))
        print(f"report written to {out}")
    return 0


def _run_sweep(args, scale, config, trace) -> int:
    if args.workloads is None or args.loads is None:
        print("sweep requires --workloads and --loads", file=sys.stderr)
        return 2
    try:
        loads = tuple(float(x) for x in args.loads.split(",") if x)
    except ValueError:
        print(f"bad --loads value {args.loads!r}", file=sys.stderr)
        return 2
    channels: tuple[str | None, ...] = (None,)
    if args.channels is not None:
        channels = tuple(x.strip() for x in args.channels.split(",") if x.strip())
    arqs: tuple[str | None, ...] = (None,)
    if args.arqs is not None:
        arqs = tuple(x.strip() for x in args.arqs.split(",") if x.strip())
    try:
        campaign = Campaign.sweep(
            workloads=tuple(x.strip() for x in args.workloads.split(",") if x),
            loads=loads,
            allocs=tuple(x for x in args.allocs.split(",") if x),
            scheds=tuple(x for x in args.scheds.split(",") if x),
            scale=scale, config=config, trace=trace,
            channels=channels, arqs=arqs,
        )
    except ValueError as exc:
        # a pipeline spec error comes from the grammar, loaded by then
        from repro.workload.transforms import SpecError

        if isinstance(exc, SpecError):
            print(f"bad workload spec: {exc}", file=sys.stderr)
        else:
            print(f"bad sweep parameters: {exc}", file=sys.stderr)
        return 2
    print(f"sweep: {len(campaign.points)} unique points, "
          f"scale={scale}, jobs={args.jobs}")
    t0 = time.perf_counter()
    results = campaign.run(
        jobs=args.jobs, progress=_progress, executor_kind=args.executor
    )
    dt = time.perf_counter() - t0
    from repro.experiments.report import summarize_point

    for spec in campaign.points:
        print(f"{spec.label()}: {summarize_point(results[spec])}")
    print(f"[sweep: {len(campaign.points)} points, {dt:.1f}s]")
    if args.out:
        import json
        from pathlib import Path

        from repro.experiments.diff import campaign_report

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(
            campaign_report(campaign.points, results, name="sweep"), indent=2
        ))
        print(f"report written to {out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.port is not None and not 0 <= args.port <= 65535:
        print(f"--port must be in 0-65535, got {args.port}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.interval) and args.interval >= 0):
        print(
            f"--interval must be a finite number >= 0, got {args.interval}",
            file=sys.stderr,
        )
        return 2
    try:
        scale = args.scale or default_scale()
    except KeyError as exc:
        print(f"bad REPRO_SCALE: {exc.args[0]}", file=sys.stderr)
        return 2
    # the one place CLI flags become run settings: every explicitly given
    # flag overrides the matching SimConfig field
    flags = {
        f: v for f in ("topology", "network_mode", "engine", "channel", "arq")
        if (v := getattr(args, f)) is not None
    }
    try:
        config = PAPER_CONFIG.with_(**flags)
    except ValueError as exc:
        print(f"bad --channel/--arq: {exc}", file=sys.stderr)
        return 2
    trace = None
    if args.swf:
        from repro.workload.swf import SWFError, load_swf

        try:
            trace = load_swf(args.swf, max_size=PAPER_CONFIG.processors)
        except (OSError, SWFError) as exc:
            print(f"bad --swf {args.swf}: {exc}", file=sys.stderr)
            return 2
        if len(trace) < 2:
            print(
                f"bad --swf {args.swf}: needs at least two usable jobs, "
                f"found {len(trace)}",
                file=sys.stderr,
            )
            return 2
        print(f"loaded {len(trace)} jobs from {args.swf}")

    targets: list[str] = []
    for t in args.targets:
        if t == "all":
            targets.extend(FIGURES)
        else:
            targets.append(t)

    # the service targets stand alone: serve runs the service, submit
    # consumes the following targets as JSON files, status takes an
    # optional job id
    if "serve" in targets:
        if targets != ["serve"]:
            print(
                "serve cannot be combined with other targets", file=sys.stderr
            )
            return 2
        return _run_serve(args)
    if "submit" in targets:
        idx = targets.index("submit")
        submit_files = targets[idx + 1:]
        if targets[:idx]:
            print(
                "submit cannot be combined with other targets",
                file=sys.stderr,
            )
            return 2
        if not submit_files:
            print(
                "submit requires at least one scenario/sweep JSON file",
                file=sys.stderr,
            )
            return 2
        return _run_submit(submit_files, args)
    if "status" in targets:
        idx = targets.index("status")
        if targets[:idx] or len(targets) > idx + 2:
            print(
                "status takes at most one job id and no other targets",
                file=sys.stderr,
            )
            return 2
        return _run_status(targets[idx + 1:], args)

    # 'diff' consumes the (exactly two) following targets as report files
    if "diff" in targets:
        idx = targets.index("diff")
        diff_files = targets[idx + 1:]
        if targets[:idx]:
            print(
                "diff cannot be combined with other targets", file=sys.stderr
            )
            return 2
        if len(diff_files) != 2:
            print(
                "diff requires exactly two report files "
                "(repro diff a.json b.json)",
                file=sys.stderr,
            )
            return 2
        return _run_diff(diff_files, args)

    # 'plot' consumes the (exactly one) following target as a report file
    if "plot" in targets:
        idx = targets.index("plot")
        plot_files = targets[idx + 1:]
        if targets[:idx]:
            print(
                "plot cannot be combined with other targets", file=sys.stderr
            )
            return 2
        if len(plot_files) != 1:
            print(
                "plot requires exactly one report file "
                "(repro plot report.json [--compare other.json])",
                file=sys.stderr,
            )
            return 2
        return _run_plot(plot_files, args)

    # 'scenario' consumes every following target as a scenario JSON file
    scenario_files: list[str] = []
    if "scenario" in targets:
        idx = targets.index("scenario")
        scenario_files = targets[idx + 1:]
        targets = targets[:idx]
        if not scenario_files:
            print("scenario requires at least one JSON file", file=sys.stderr)
            return 2

    # under --auto-saturation the saturation bar charts (fig8/9/10) are
    # run at their *detected* knee instead of the pinned constant, so
    # they leave the fixed-load union campaign below
    auto_sat_figs: list[str] = []
    if args.auto_saturation:
        auto_sat_figs = [
            t for t in targets if t in FIGURES and FIGURES[t].saturation
        ]
        targets = [t for t in targets if t not in auto_sat_figs]

    # run the union of all requested figures as ONE deduplicated campaign
    # (shared sweeps simulate once; -j parallelises across every cell)
    fig_targets = [t for t in targets if t in FIGURES]
    if fig_targets:
        try:
            campaign = Campaign.from_figures(
                fig_targets, scale=scale, config=config, trace=trace,
            )
        except ValueError as exc:
            print(f"bad figure parameters: {exc}", file=sys.stderr)
            return 2
        _progress(
            f"campaign: {len(campaign.points)} unique points for "
            f"{len(fig_targets)} figure(s), scale={scale}, jobs={args.jobs}"
        )
        campaign.run(
            jobs=args.jobs, progress=_progress, executor_kind=args.executor
        )

    for target in targets:
        if target == "claims":
            from repro.experiments.claims import verify_all

            report = verify_all(
                scale=scale, config=config, trace=trace,
                jobs=args.jobs, executor=args.executor,
            )
            print(report.format())
            if not report.passed:
                return 1
            continue
        if target == "sweep":
            rc = _run_sweep(args, scale, config, trace)
            if rc != 0:
                return rc
            continue
        if target == "point":
            if args.workload is None or args.load is None:
                print("point requires --workload and --load", file=sys.stderr)
                return 2
            from repro.experiments.report import summarize_point
            from repro.experiments.runner import run_point

            t0 = time.perf_counter()
            try:
                point = run_point(
                    args.workload, args.load, args.alloc, args.sched,
                    scale=scale, config=config, trace=trace,
                    jobs=args.jobs, executor=args.executor,
                )
            except (ValueError, KeyError) as exc:
                print(f"bad point parameters: {exc}", file=sys.stderr)
                return 2
            dt = time.perf_counter() - t0
            print(
                f"{args.alloc}({args.sched}) {args.workload} load={args.load}: "
                f"{summarize_point(point)}  [{dt:.1f}s]"
            )
            continue
        if target not in FIGURES:
            print(f"unknown target {target!r}", file=sys.stderr)
            return 2
        from repro.experiments.report import ascii_plot, format_figure
        from repro.experiments.runner import run_figure

        t0 = time.perf_counter()
        result = run_figure(target, scale=scale, config=config, trace=trace)
        dt = time.perf_counter() - t0
        print(format_figure(result))
        if args.plot:
            print(ascii_plot(result))
        print(f"[{target}: scale={scale}, {dt:.1f}s]\n")

    if auto_sat_figs:
        rc = _run_auto_saturation_figures(
            auto_sat_figs, args, scale, config, trace
        )
        if rc != 0:
            return rc

    if scenario_files:
        rc = _run_scenarios(scenario_files, args, flags, trace)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
