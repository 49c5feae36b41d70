"""Benchmark of the AdaSense reproduction's ``repro fleet`` / ``repro campaign`` runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_steady [--seed 2020] [--seconds 25] [--trace 0]

Each run of a workload is a fresh ``perfbench/child.py`` process making
the CLI's public calls (see ``workloads.py`` for the command lines).
With ``--trace 0`` the benchmark repeats untraced runs for about
``--seconds`` seconds (at least three) and reports the median of every
end-to-end metric.  With ``--trace 1`` it makes two untraced runs and
one traced run, and reports the per-layer ledger (``ledger.py``).

Every run's report must hash the same (the campaign report without its
host-time fields).  Once per invocation, ``fleet_cold`` compares its
report byte for byte with ``python -m repro fleet``, and
``fleet_sharded`` compares its telemetry with an in-process
``FleetSimulator`` run; a sharded run that retried, failed or timed out
fails.  A run failing a check counts in ``failed``.

The last line of standard output is the result JSON; the line before it
is the run metadata, also kept with each run's figures in
``.perfbench/results/``.  Traced runs leave a Chrome trace in
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import ledger  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, cli_args, needs_checkpoint  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
#: No new run starts once the invocation has used this much time.
INVOCATION_BUDGET_S = 150.0
#: A child still running this long after the invocation started is
#: killed and counted failed.
DEADLINE_S = 170.0
#: Simulation span of each command line, the end of set-up.
SIMULATION_SPANS = ("FleetSimulator.run", "ShardedFleetSimulator.run", "CampaignRunner.run")
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS")


class CheckFailed(Exception):
    """A run produced output that fails one of the benchmark's checks."""


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _child_env():
    src = str(ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))


def spawn(argv, log_path, deadline):
    """Run ``argv`` to completion; its spawn stamp and ``wait4`` usage.

    ``os.wait4`` reports the child's own CPU and peak RSS together with
    those of every descendant it waited for (the shard workers), and
    nothing of earlier runs.
    """
    with open(log_path, "wb") as log:
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
            stderr=log, start_new_session=True,
        )
        timeout = max(1.0, deadline - time.perf_counter())
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = Path(log_path).read_text(errors="replace")[-2000:]
        raise CheckFailed(f"{argv[1:3]} exited {proc.returncode}: {tail}")
    return spawn_ns, {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def report_digest(workload, path):
    """SHA-256 of a run's report, campaign host-time fields removed."""
    data = Path(path).read_bytes()
    if workload == "campaign_grid":
        report = json.loads(data)
        del report["meta"]["elapsed_s"]
        del report["meta"]["throughput_device_seconds_per_s"]
        data = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def outcome_metrics(workload, path):
    """Deterministic results and simulated device-seconds of a report."""
    report = json.loads(Path(path).read_bytes())
    if workload == "campaign_grid":
        fleets = [variant["fleet"] for variant in report["variants"]]
        device_seconds = report["meta"]["device_seconds"]
    else:
        fleets = [report["fleet"]]
        device_seconds = report["fleet"]["device_seconds"]
    accuracy = statistics.fmean(fleet["accuracy"]["mean"] for fleet in fleets)
    current = statistics.fmean(fleet["average_current_ua"]["mean"] for fleet in fleets)
    if not (0.0 < accuracy <= 1.0 and current > 0.0 and device_seconds > 0.0):
        raise CheckFailed(f"implausible report: accuracy {accuracy}, current {current}")
    return {"accuracy_mean": accuracy, "current_ua_mean": current}, device_seconds


class Invocation:
    """The runs of one workload at one seed, and their checks."""

    def __init__(self, workload, seed, workdir, deadline):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.digest = None
        self.runs = []
        self.errors = []

    def _paths(self, tag):
        out = self.workdir / f"{tag}.report.json"
        ckpt = self.workdir / f"{tag}.ckpt" if needs_checkpoint(self.workload) else None
        return out, ckpt, self.workdir / f"{tag}.stamps.json", self.workdir / f"{tag}.log"

    def _check_digest(self, path):
        digest = report_digest(self.workload, path)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed(f"report hash {digest[:12]} != {self.digest[:12]}")
        return digest

    def attempt(self, kind, action):
        """Run one operation; a failed check is recorded, not raised."""
        record = {"kind": kind, "loadavg_before": _loadavg()}
        try:
            record.update(action())
        except (CheckFailed, OSError, ValueError, KeyError) as error:
            record["error"] = str(error)
            self.errors.append(f"{kind}: {error}")
        record["loadavg_after"] = _loadavg()
        self.runs.append(record)
        return record

    def child_run(self, traced=False):
        tag = f"run{len(self.runs)}"
        out, ckpt, stamps_path, log = self._paths(tag)
        argv = [sys.executable, str(CHILD), "--stamps", str(stamps_path)]
        if traced:
            traces = OUTPUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            argv += ["--traced", str(traces / f"{self.workload}-seed{self.seed}.trace.json")]
        argv += ["--", *cli_args(self.workload, self.seed, str(out),
                                 None if ckpt is None else str(ckpt))]
        try:
            spawn_ns, usage = spawn(argv, log, self.deadline)
            stamps = json.loads(stamps_path.read_text())
            digest = self._check_digest(out)
            outcome, device_seconds = outcome_metrics(self.workload, out)
            facts = stamps["facts"]
            if facts.get("retries") or facts.get("failures") or facts.get("timeouts"):
                raise CheckFailed(f"fault-free sharded run recovered: {facts}")
            sim = next(s for s in stamps["spans"] if s["name"] in SIMULATION_SPANS)
            metrics = {
                "wall_s": (stamps["report_end_ns"] - spawn_ns) * 1e-9,
                "setup_s": (sim["start_ns"] - spawn_ns) * 1e-9,
                "sim_rate": device_seconds / ((sim["end_ns"] - sim["start_ns"]) * 1e-9),
                **usage,
                **outcome,
            }
            result = {"metrics": metrics, "digest": digest}
            if traced:
                result["ledger"] = ledger(
                    stamps, spawn_ns, out.stat().st_size,
                    statistics.median(r["metrics"]["wall_s"] for r in self.measured()),
                )
            return result
        finally:
            out.unlink(missing_ok=True)
            if ckpt is not None:
                shutil.rmtree(ckpt, ignore_errors=True)

    def reference_run(self):
        """The once-per-invocation cross check of ``fleet_cold`` / ``fleet_sharded``."""
        out, ckpt, stamps_path, log = self._paths("reference")
        args = cli_args(self.workload, self.seed, str(out), None if ckpt is None else str(ckpt))
        if self.workload == "fleet_cold":
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(CHILD), "--stamps", str(stamps_path),
                    "--inprocess", "--", *args]
        try:
            spawn(argv, log, self.deadline)
            return {"digest": self._check_digest(out)}
        finally:
            out.unlink(missing_ok=True)

    def measured(self):
        return [r for r in self.runs if r["kind"] == "run" and "error" not in r]


def run_metadata(args):
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        git_sha = top[1] if Path(top[0]).resolve() == ROOT else None
    except (OSError, subprocess.CalledProcessError, IndexError):
        git_sha = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": cli_args(args.workload, args.seed, "OUT",
                            "CKPT" if needs_checkpoint(args.workload) else None),
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_ENV},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    meta = run_metadata(args)
    (OUTPUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUTPUT / "tmp"))
    started = time.perf_counter()
    try:
        # Compile the sources once so no measured run pays for it.
        deadline = started + DEADLINE_S
        spawn([sys.executable, "-c", "import repro.cli"], workdir / "warmup.log", deadline)
        bench = Invocation(args.workload, args.seed, workdir, deadline)
        if args.workload in ("fleet_cold", "fleet_sharded"):
            bench.attempt("reference", bench.reference_run)
        # A traced invocation needs its untraced runs only as the base
        # of trace.overhead, so it spends half the time on them.
        min_runs, loop_s = (2, args.seconds / 2) if args.trace else (3, args.seconds)
        loop_start = time.perf_counter()
        while True:
            record = bench.attempt("run", bench.child_run)
            now = time.perf_counter()
            last = record.get("metrics", {}).get("wall_s", 0.0)
            if len(bench.errors) > min_runs or now - started + last > INVOCATION_BUDGET_S:
                break
            if len(bench.measured()) >= min_runs and now - loop_start + last > loop_s:
                break
        measured = bench.measured()
        if not measured:
            print("perfbench: every run failed:\n" + "\n".join(bench.errors), file=sys.stderr)
            return 1
        if args.trace:
            traced = bench.attempt("traced", lambda: bench.child_run(traced=True))
            values = traced.get("ledger")
            if values is None:
                print("perfbench: the traced run failed:\n" + "\n".join(bench.errors),
                      file=sys.stderr)
                return 1
        else:
            values = {
                name: statistics.median(r["metrics"][name] for r in measured)
                for name in units
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: computed metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    meta["runs"] = bench.runs
    meta["errors"] = bench.errors
    results = OUTPUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(meta, indent=1) + "\n"
    )
    for name, unit in units.items():
        print(f"{name:<40} {values[name]:>16.6g} {unit}")
    print(json.dumps(meta, separators=(",", ":")))
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": len(bench.runs),
        "failed": len(bench.errors),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
