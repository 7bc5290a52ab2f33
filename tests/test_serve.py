"""Tests for the campaign service (experiments/serve.py), its thin
client, and the end-to-end restart drill: SIGKILL the service
mid-campaign, restart it, and the resumed job completes with zero lost
flushed points and a report metric-identical to a foreground run."""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.campaign import PointResult
from repro.experiments.serve import (
    CampaignService,
    build_campaign,
    job_id,
    make_server,
)
from repro.experiments.service_client import ServiceClient, ServiceError
from repro.experiments.store import ResultCache

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")

SCENARIO_DOC = {
    "name": "serve-test",
    "workload": "uniform",
    "loads": [0.02],
    "allocs": ["GABL"],
    "scheds": ["FCFS"],
    "scale": "smoke",
}

SWEEP_DOC = {
    "kind": "sweep",
    "name": "serve-sweep",
    "workloads": ["uniform"],
    "loads": [0.02, 0.03],
    "allocs": ["GABL"],
    "scheds": ["FCFS"],
    "scale": "smoke",
}


@pytest.fixture
def service(tmp_path):
    svc = CampaignService(store=tmp_path / "shards")
    server = make_server(svc, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(port=server.server_address[1])
    yield svc, client
    server.shutdown()
    server.server_close()
    svc.close()


class TestDocuments:
    def test_job_id_is_content_hash(self):
        assert job_id(SCENARIO_DOC) == job_id(dict(SCENARIO_DOC))
        assert job_id(SCENARIO_DOC) != job_id(SWEEP_DOC)

    def test_build_scenario_campaign(self):
        name, kind, campaign = build_campaign(SCENARIO_DOC)
        assert (name, kind) == ("serve-test", "scenario")
        assert len(campaign.points) == 1

    def test_build_sweep_campaign(self):
        name, kind, campaign = build_campaign(SWEEP_DOC)
        assert (name, kind) == ("serve-sweep", "sweep")
        assert len(campaign.points) == 2
        # a sweep's top-level network_mode lands in every point's config;
        # null means the config default
        for mode, want in (("causal", "causal"), (None, "batch")):
            _, _, campaign = build_campaign({**SWEEP_DOC, "network_mode": mode})
            assert {p.config.network_mode for p in campaign.points} == {want}
        with pytest.raises(ValueError, match="network mode"):
            build_campaign({**SWEEP_DOC, "network_mode": "quantum"})

    def test_bad_documents_raise_value_error(self):
        with pytest.raises(ValueError):
            build_campaign({"kind": "sweep", "loads": [0.02]})  # no workloads
        with pytest.raises(ValueError):
            build_campaign({"kind": "sweep", "workloads": ["uniform"],
                            "loads": [0.02], "bogus": 1})
        with pytest.raises(ValueError):
            build_campaign({"name": "x"})  # scenario missing keys
        with pytest.raises(ValueError):
            build_campaign([1, 2, 3])
        # a plain name that is neither a source nor a pipeline spec, and
        # a bare string (it would split into one-letter workloads)
        for workloads in (["bogus"], "uniform"):
            with pytest.raises(ValueError, match="unknown workload"):
                build_campaign({**SWEEP_DOC, "workloads": workloads})


class TestServiceEndpoints:
    def test_submit_wait_report(self, service):
        svc, client = service
        summary = client.submit(SCENARIO_DOC)
        assert summary["total"] == 1
        final = client.wait(summary["id"], interval=0.05, timeout=120)
        assert final["state"] == "done"
        assert final["done"] == 1
        report = client.report(summary["id"])
        assert report["schema"] == 3
        assert len(report["points"]) == 1
        assert report["points"][0]["metrics"]
        assert report["job"]["state"] == "done"

    def test_resubmit_is_idempotent(self, service):
        svc, client = service
        first = client.submit(SWEEP_DOC)
        client.wait(first["id"], interval=0.05, timeout=120)
        again = client.submit(dict(SWEEP_DOC))
        assert again["id"] == first["id"]
        assert again["state"] == "done"

    def test_status_lists_jobs(self, service):
        svc, client = service
        jid = client.submit(SCENARIO_DOC)["id"]
        client.wait(jid, interval=0.05, timeout=120)
        status = client.status()
        assert status["service"] == "repro-serve"
        assert jid in {j["id"] for j in status["jobs"]}

    def test_bad_submission_is_http_400(self, service):
        svc, client = service
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit({"name": "x", "bogus": True})

    @pytest.mark.parametrize("doc", [
        {**SCENARIO_DOC, "sample_interval": "a"},
        {**SCENARIO_DOC, "allocs": [5]},
        {**SWEEP_DOC, "allocs": [7]},
        {**SCENARIO_DOC, "config": {"max_time": "z"}},
        {**SCENARIO_DOC, "config": {"width": 1.5}},
        {**SWEEP_DOC, "workloads": ["bogus"]},
        {**SWEEP_DOC, "workloads": "uniform"},
        {**SWEEP_DOC, "workloads": [5]},
        {**SWEEP_DOC, "workloads": ["uniform|scale:nan"]},
    ], ids=["interval-str", "alloc-int", "sweep-alloc-int", "max-time-str",
            "width-float", "sweep-workload-unknown", "sweep-workloads-str",
            "sweep-workload-int", "sweep-workload-nan-scale"])
    def test_malformed_field_is_http_400(self, service, doc):
        """A wrongly typed field is rejected at submission; the service
        stays up and queues nothing."""
        svc, client = service
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit(doc)
        status = client.status()
        assert status["service"] == "repro-serve" and status["jobs"] == []

    def test_negative_content_length_is_http_400(self, service):
        """The body is never read, so the reply cannot stall."""
        svc, client = service
        port = int(client.base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Length: -1\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"negative Content-Length" in reply
        assert client.status()["service"] == "repro-serve"

    def test_unknown_job_is_http_404(self, service):
        svc, client = service
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.job("nope")
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.report("nope")

    def test_unreachable_service_raises(self):
        client = ServiceClient(port=1, timeout=0.5)
        with pytest.raises(ServiceError, match="no campaign service"):
            client.status()

    def test_done_job_is_in_a_fresh_store(self, service):
        """Once a job reports ``done`` every point is on disk: a fresh
        cache over the store path returns each one."""
        svc, client = service
        jid = client.submit(SWEEP_DOC)["id"]
        assert client.wait(jid, interval=0.05, timeout=120)["state"] == "done"
        fresh = ResultCache(svc.cache.path)
        for spec in svc.job(jid).campaign.points:
            assert PointResult.from_payload(fresh.get(spec.key())) is not None

    def test_restart_reconciles_done_job_from_store(self, tmp_path, service):
        svc, client = service
        jid = client.submit(SCENARIO_DOC)["id"]
        client.wait(jid, interval=0.05, timeout=120)
        # a fresh service over the same store recovers the manifest and
        # marks the job done without recomputing anything
        twin = CampaignService(store=svc.cache.path)
        try:
            job = twin.job(jid)
            assert job is not None and job.state == "done"
            report = twin.job_report(jid)
            assert len(report["points"]) == 1
        finally:
            twin.close()


class TestStoreValidation:
    """A ``--store`` path that exists and is not a directory fails at
    start, not on the first submission."""

    def test_service_rejects_file_store(self, tmp_path):
        store = tmp_path / "store-file"
        store.write_text("{}")
        with pytest.raises(ValueError, match="not a directory"):
            CampaignService(store=store)

    def test_cli_serve_file_store_exits_two(self, tmp_path):
        store = tmp_path / "store-file"
        store.write_text("{}")
        # a subprocess with a timeout: a regression would serve forever
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--port", "0", "--store", str(store)],
            env={**os.environ, "PYTHONPATH": SRC}, cwd=str(REPO),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"serve error: result store {store} is not a directory"
        ]


def _serve_workers() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name == "repro-serve-worker"}


class TestServeArguments:
    """Bad service arguments exit 2 with one stderr line and start no
    work."""

    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_out_of_range_port_exits_two(self, tmp_path, capsys, port):
        rc = main(["serve", "--port", port, "--store", str(tmp_path / "s")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"--port must be in 0-65535, got {port}"
        ]

    def test_busy_port_exits_two_before_recovering_jobs(self, tmp_path, capsys):
        store = tmp_path / "shards"
        (store / "jobs").mkdir(parents=True)
        # a queued job a started service would recover and run
        (store / "jobs" / f"{job_id(SCENARIO_DOC)}.json").write_text(
            json.dumps({"id": job_id(SCENARIO_DOC), "name": "serve-test",
                        "kind": "scenario", "doc": SCENARIO_DOC,
                        "submitted_at": 0.0})
        )
        workers = _serve_workers()
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            rc = main(["serve", "--port", str(port), "--store", str(store)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"serve error: cannot listen on 127.0.0.1:{port}: ")
        assert _serve_workers() == workers
        assert not list(store.glob("*.json"))

    def test_unresolvable_host_exits_two(self, tmp_path, capsys, monkeypatch):
        # stands in for a host that does not resolve, without a lookup
        def unresolvable(address, handler):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(
            "repro.experiments.serve.ThreadingHTTPServer", unresolvable
        )
        workers = _serve_workers()
        rc = main(["serve", "--host", "256.1.1.1", "--port", "0",
                   "--store", str(tmp_path / "s")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "serve error: cannot listen on 256.1.1.1:0: "
            f"[Errno {socket.EAI_NONAME}] Name or service not known"
        ]
        assert _serve_workers() == workers

    @pytest.mark.parametrize("interval", ["-1", "nan", "inf"])
    def test_bad_interval_rejected_before_submitting(
        self, service, tmp_path, capsys, interval
    ):
        svc, client = service
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(SCENARIO_DOC))
        port = client.base.rsplit(":", 1)[1]
        rc = main(["submit", str(doc), "--port", port, "--wait",
                   "--interval", interval])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"--interval must be a finite number >= 0, got {float(interval)}"
        ]
        assert client.status()["jobs"] == []

    def test_plot_follow_bad_interval_exits_two(self, capsys):
        assert main(["plot", "abc", "--follow", "--interval", "-0.5"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "--interval must be a finite number >= 0, got -0.5"
        ]


# ------------------------------------------------- the restart drill (E2E)
DRILL_DOC = {
    "name": "drill",
    "workload": "uniform",
    "loads": [0.02, 0.025, 0.03, 0.035, 0.04, 0.045, 0.05, 0.055],
    "allocs": ["GABL"],
    "scheds": ["FCFS"],
    "scale": "smoke",
}


def start_serve(store: Path) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve`` on an ephemeral port; returns (proc, port)."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--store", str(store)],
        env=env, cwd=str(REPO),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30.0
    line = ""
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if "listening on" in line:
            break
    match = re.search(r"http://[\d.]+:(\d+)", line)
    assert match, f"serve did not report its port: {line!r}"
    return proc, int(match.group(1))


def shard_files(store: Path) -> dict[str, tuple[int, int]]:
    return {
        p.name: (p.stat().st_mtime_ns, p.stat().st_size)
        for p in store.glob("*.json")
    }


def test_restart_drill_sigkill_resume_and_match_foreground(tmp_path):
    store = tmp_path / "shards"
    scenario_file = tmp_path / "drill.json"
    scenario_file.write_text(json.dumps(DRILL_DOC))

    # 1. serve, submit, and SIGKILL once at least one point is flushed
    proc, port = start_serve(store)
    try:
        client = ServiceClient(port=port)
        jid = client.submit(DRILL_DOC)["id"]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if shard_files(store):
                break
            time.sleep(0.01)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    flushed = shard_files(store)

    # 2. restart over the same store: the job resumes from the manifest
    #    and completes without touching any flushed shard
    proc, port = start_serve(store)
    try:
        client = ServiceClient(port=port)
        final = client.wait(jid, interval=0.1, timeout=300)
        assert final["state"] == "done"
        assert final["done"] == len(DRILL_DOC["loads"])
        report = client.report(jid)
        client.shutdown()
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    after = shard_files(store)
    for name, stamp in flushed.items():
        assert after[name] == stamp, f"flushed shard {name} was recomputed"
    assert len(report["points"]) == len(DRILL_DOC["loads"])

    # 3. metric-identical to a foreground run of the same spec, and
    #    `repro diff` agrees (no regressed/diverged under the CI gate)
    served_path = tmp_path / "served.json"
    served_path.write_text(json.dumps(report))
    fg_path = tmp_path / "foreground.json"
    env = {
        **os.environ,
        "PYTHONPATH": SRC,
        "REPRO_CACHE_DIR": str(tmp_path / "fg-cache"),
    }
    fg = subprocess.run(
        [sys.executable, "-m", "repro", "scenario", str(scenario_file),
         "--out", str(fg_path)],
        env=env, cwd=str(REPO), capture_output=True, text=True, timeout=300,
    )
    assert fg.returncode == 0, fg.stderr
    fg_metrics = {
        p["key"]: p["metrics"]
        for p in json.loads(fg_path.read_text())["points"]
    }
    served_metrics = {p["key"]: p["metrics"] for p in report["points"]}
    assert served_metrics == fg_metrics
    assert main([
        "diff", str(fg_path), str(served_path), "--fail-on-regress",
    ]) == 0


# ------------------------------------------- diff subset degradation (CLI)
def _write_report(tmp_path, name, points):
    doc = {
        "schema": 3, "kind": "campaign", "name": name,
        "metric_names": ["mean_turnaround"], "points": points,
    }
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _point(key):
    return {
        "key": key, "label": key,
        "metrics": {"mean_turnaround": 1.0},
        "stats": {"mean_turnaround": {"mean": 1.0, "variance": 0.0, "n": 2}},
        "replications": 2,
    }


class TestDiffAgainstInProgressReports:
    def test_empty_side_warns_and_exits_zero(self, tmp_path, capsys):
        a = _write_report(tmp_path, "full.json", [_point("k1")])
        b = _write_report(tmp_path, "empty.json", [])
        assert main(["diff", str(a), str(b)]) == 0
        err = capsys.readouterr().err
        assert "no points yet" in err

    def test_empty_side_still_fails_the_ci_gate(self, tmp_path, capsys):
        a = _write_report(tmp_path, "full.json", [_point("k1")])
        b = _write_report(tmp_path, "empty.json", [])
        assert main(["diff", str(a), str(b), "--fail-on-regress"]) == 2

    def test_disjoint_nonempty_reports_still_exit_two(self, tmp_path, capsys):
        a = _write_report(tmp_path, "a.json", [_point("k1")])
        b = _write_report(tmp_path, "b.json", [_point("k2")])
        assert main(["diff", str(a), str(b)]) == 2

    def test_strict_subset_aligns_with_warning(self, tmp_path, capsys):
        a = _write_report(tmp_path, "full.json", [_point("k1"), _point("k2")])
        b = _write_report(tmp_path, "partial.json", [_point("k1")])
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr()
        assert "1 matched point" in out.out
