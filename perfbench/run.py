"""Repository benchmark: cold figure campaigns, the lossy scenario, threads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figs-soa --seed 12345 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload figs-soa --teeth   # corrupt one mean

Each repetition is a fresh ``perfbench/child.py`` process with an empty,
private result store, so every run is cold as it is for a CLI user.
Repetitions continue until ``--seconds`` have passed; each end-to-end
metric is the median over repetitions.  ``setup_s`` and ``campaign_s``
are reference seconds (``child.SpeedProbe``): wall time put on one
host-speed scale, so a shared host's fast and slow spells cancel; the
wall times are printed beside them.  An untimed differential run
(another executor or engine, see ``workloads.py``) then supplies the
per-point means every repetition must match bit for bit, and at the
default seed the means must also match ``pinned.json``.

``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics (medians over traced repetitions), the tracing
overhead, and whether every layer prediction in ``workloads.py`` held.

The last stdout line is one JSON object: ``correct``, ``attempted``
(points run), ``failed`` (points that raised or whose means differ) and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: scratch space inside the checkout: compiled kernels, stores, temp files
WORK = ROOT / ".perfbench"
PINNED = HERE / "pinned.json"

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "peak_rss_mb": "MB",
}
#: printed beside the end-to-end metrics, not bounded: the raw wall
#: times, and ``warm_points_per_s`` (in the JSON line of traced runs
#: only), whose run-to-run spread on a shared 2-vCPU VM (store reads
#: are syscall- and page-cache-bound) is too wide to bound
PRINTED = {**END_TO_END, "warm_points_per_s": "1/s",
           "setup_wall_s": "s", "campaign_wall_s": "s"}
#: repetitions a run makes at least, whatever ``--seconds`` says
MIN_REPS = 3
#: a run stops starting repetitions after this many seconds; with the
#: child timeout this keeps a run (repetitions + check) under 180 s
RUN_CAP_S = 50.0
CHILD_TIMEOUT_S = 60.0
BUILD_TIMEOUT_S = 800.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source, failed build)."""


# ------------------------------------------------------------------ digests
def point_hash(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def means_hash(means: dict) -> str:
    blob = json.dumps(means, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def results_digest(means: dict[str, dict]) -> str:
    """sha256 of the sorted point-key -> means JSON."""
    blob = json.dumps(means, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_pinned(workload: str, seed: int) -> dict | None:
    try:
        pinned = json.loads(PINNED.read_text()).get(workload)
    except (OSError, json.JSONDecodeError):
        return None
    if not pinned or pinned["seed"] != seed:
        return None
    return pinned


# ------------------------------------------------------------------ children
def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") or k == "REPRO_NATIVE"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["XDG_CACHE_HOME"] = str(WORK / "xdg")
    env["REPRO_CACHE_DIR"] = str(WORK / "global-cache")
    env["TMPDIR"] = str(WORK / "tmp")
    # one string-hash layout for every repetition: dict and set timings
    # then differ between processes only by what the code does
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Start one child, wait for it, return its JSON (or an ``error``)."""
    args = {**args, "spawn_time": time.time()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(args)],
            env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"child exited {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def build() -> dict:
    """Compile the native kernels once, outside every timed region."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}")
    for sub in ("xdg", "global-cache", "tmp", "stores"):
        (WORK / sub).mkdir(parents=True, exist_ok=True, mode=0o700)
    out = run_child({"mode": "build"}, timeout=BUILD_TIMEOUT_S)
    if "error" in out:
        raise BenchError(f"build failed: {out['error']}")
    return out["context"]


# ------------------------------------------------------------------ one run
def measured_rep(workload: str, seed: int, tag: str, trace: bool,
                 variant: dict | None = None) -> dict:
    """One fresh child on an empty private store, removed afterwards."""
    store = WORK / "stores" / f"{os.getpid()}-{tag}"
    shutil.rmtree(store, ignore_errors=True)
    args = {"workload": workload, "seed": seed, "store": str(store),
            "trace": trace, "variant": variant or {}}
    try:
        return run_child(args)
    finally:
        shutil.rmtree(store, ignore_errors=True)


def count_failures(rep: dict, expected: dict[str, dict]) -> int:
    """Points of one repetition that raised or differ from ``expected``."""
    if "error" in rep:
        return max(1, len(expected))
    means = rep["means"]
    bad = sum(1 for key, m in expected.items() if means.get(key) != m)
    bad += sum(1 for key in means if key not in expected)
    return bad + rep["warm_mismatch"]


def pinned_failures(rep: dict, pinned: dict) -> int:
    if "error" in rep:
        return max(1, len(pinned["points"]))
    got = {point_hash(k): means_hash(m) for k, m in rep["means"].items()}
    return sum(1 for p, h in pinned["points"].items() if got.get(p) != h) + sum(
        1 for p in got if p not in pinned["points"])


def check_layers(entry: dict, layers: dict) -> list[str]:
    """Layer predictions that failed on this workload."""
    problems = [f"{name} is 0, predicted non-zero"
                for name in entry["nonzero"] if not layers.get(name)]
    problems += [f"{name} is {layers.get(name)}, predicted 0"
                 for name in entry["zero"] if layers.get(name)]
    if entry.get("needs_native") and layers.get("soa.native_ratio") != 1.0:
        problems.append(
            f"soa.native_ratio is {layers.get('soa.native_ratio')}, "
            "expected 1.0 (silent fallback)")
    if not entry.get("needs_native") and layers.get("soa.kernel_s"):
        problems.append("soa.kernel_s is non-zero, predicted 0")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 teeth: bool, context: dict, log) -> dict | None:
    """Measure one workload; the result dict, or None when skipped."""
    entry = WORKLOADS[name]
    if entry.get("needs_native") and not context["native"]:
        log(f"SKIPPED {name}: the native kernels did not load, so the SoA "
            "engine would silently measure the reference fallback")
        return None
    if context["nproc"] < entry.get("min_cpus", 1):
        log(f"SKIPPED {name}: needs {entry['min_cpus']} CPUs, "
            f"nproc is {context['nproc']}")
        return None

    start = time.perf_counter()
    reps: list[dict] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = measured_rep(name, seed, f"rep{len(reps)}", traced)
        rep["traced"] = traced
        reps.append(rep)
        if "error" in rep:
            log(f"  rep {len(reps)}: {rep['error']}")
        else:
            log(f"  rep {len(reps)}: " + " ".join(
                f"{m} {rep[m]:.4f}" for m in PRINTED))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS + trace and (
                elapsed >= seconds or elapsed >= RUN_CAP_S):
            if not trace or len(reps) % 2 == 0:
                break

    problems = []
    # with no check results every point of every repetition counts as failed
    check = measured_rep(name, seed, "check", False, entry["check"])
    if "error" in check:
        problems.append(f"differential check run failed: {check['error']}")
    expected = check.get("means", {})
    ok = [r for r in reps if "error" not in r]
    if teeth and ok:
        means = next(iter(ok[0]["means"].values()))
        metric = next(iter(means))
        means[metric] = math.nextafter(means[metric], math.inf)
        log(f"  teeth: perturbed {metric} of one point by one ulp")

    pinned = load_pinned(name, seed)
    attempted = 0
    failed = 0
    for rep in reps:
        points = rep.get("points", max(1, len(expected)))
        bad = count_failures(rep, expected)
        if pinned is not None:
            bad = max(bad, pinned_failures(rep, pinned))
        attempted += points
        failed += min(bad, points)
    digest = results_digest(expected)
    if pinned is not None and digest != pinned["digest"]:
        problems.append("differential check run differs from pinned.json")

    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain:
        raise BenchError("no repetition completed")
    result = {
        "workload": name, "seed": seed, "reps": len(reps),
        "points": len(expected), "digest": digest,
        "pinned": pinned is not None,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": {m: statistics.median(r[m] for r in plain)
                    for m in PRINTED},
        "spread": {m: [min(r[m] for r in plain), max(r[m] for r in plain)]
                   for m in PRINTED},
        "wall_s": time.perf_counter() - start,
    }
    if trace:
        if not traced:
            raise BenchError("no traced repetition completed")
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        untraced_s = result["metrics"]["campaign_s"]
        traced_s = statistics.median(r["campaign_s"] for r in traced)
        layers["warm_points_per_s"] = result["metrics"]["warm_points_per_s"]
        layers["trace.campaign_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
        problems += check_layers(entry, layers)
        result["layers"] = layers
    result["problems"] = problems
    result["correct"] = failed == 0 and not problems
    return result


# ------------------------------------------------------------------ output
def print_result(result: dict, trace: bool, context: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} reps={result['reps']} "
          f"points={result['points']} digest={result['digest'][:16]} "
          f"pinned={'yes' if result['pinned'] else 'no'} "
          f"wall={result['wall_s']:.1f}s")
    print("# context " + json.dumps(context, sort_keys=True))
    for m, unit in PRINTED.items():
        lo, hi = result["spread"][m]
        print(f"  {m:20s} {result['metrics'][m]:12.4f} {unit:5s} "
              f"(min {lo:.4f}, max {hi:.4f})")
    print(f"  {'error_rate':20s} {result['error_rate']:12.4f} ratio "
          f"({result['failed']}/{result['attempted']} points)")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    if trace:
        from tracer import UNITS

        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in sorted(result["layers"].items())}
        for k, v in metrics.items():
            print(f"  {k:28s} {v['value']:14.6f} {v['unit']}")
    else:
        metrics = {m: {"value": result["metrics"][m], "unit": unit}
                   for m, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def pin(names: list[str], log) -> None:
    """Record per-point means hashes of ``names`` at their default seeds."""
    try:
        out = json.loads(PINNED.read_text())
    except (OSError, json.JSONDecodeError):
        out = {}
    for name in names:
        seed = WORKLOADS[name]["default_seed"]
        rep = measured_rep(name, seed, "pin", False)
        if "error" in rep:
            raise BenchError(f"{name}: {rep['error']}")
        out[name] = {
            "seed": seed,
            "digest": results_digest(rep["means"]),
            "points": {point_hash(k): means_hash(m)
                       for k, m in sorted(rep["means"].items())},
        }
        log(f"pinned {name} seed={seed} digest={out[name]['digest'][:16]}")
    PINNED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--teeth", action="store_true",
                        help="perturb one mean to show error_rate catches it")
    parser.add_argument("--pin", action="store_true",
                        help="record the workload's means in pinned.json "
                             "at its default seed instead of measuring")
    args = parser.parse_args(argv)

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    try:
        context = build()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if args.pin:
            pin(names, log)
            return 0
        status = 0
        for name in names:
            seed = (args.seed if args.seed is not None
                    else WORKLOADS[name]["default_seed"])
            result = run_workload(name, seed, args.seconds, bool(args.trace),
                                  args.teeth, context, log)
            if result is None:
                status = status or 3
                continue
            print_result(result, bool(args.trace), context)
            if not result["correct"]:
                status = 1
        return status
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2
    finally:
        shutil.rmtree(WORK / "stores", ignore_errors=True)
        shutil.rmtree(WORK / "tmp", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
