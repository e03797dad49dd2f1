"""hivealg benchmark: run one workload and print its metrics.

    python3 hivebench/run.py --workload tensor --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports hivealg from src/ and needs
nothing but the standard library.  Every measurement runs in a fresh
interpreter (hivebench/worker.py), one process at a time with one thread.
While a worker waits between two operations, this process times a fixed
loop, and every time the benchmark reports is put at the host speed at which
that loop takes hostspeed.REFERENCE_S (see hostspeed.py).

--trace 0 reports the end-to-end metrics: set-up time (the median of several
fresh imports plus the workload's lazy set-up), operations per second, median
and tail latency, and peak RSS.  --trace 1 runs a fixed number of operations
twice, untraced and then with per-layer spans, and reports the layer metrics
and the tracing overhead.  The last line of output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it records
the environment and how each figure was taken.  hivebench/METRICS.md says
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"

WORKLOADS = ("tensor", "series", "decompose", "lift")
SETUP_SAMPLES = 21
# The percentile reported as tail_ms: for each workload, one whose spread
# over runs of different seeds stayed well within its bound (see
# METRICS.md).  In a 25 s run of seed code each has far more than ten
# samples beyond it.  A series run holds only four to nine batches, so its
# tail is p75.
TAIL_PERCENTILE = {"tensor": 90.0, "series": 75.0, "decompose": 90.0, "lift": 95.0}
# Operations per fresh worker process for the workloads that run in rounds.
# A round carries no cache into the next: series counts are cached for the
# life of a process, and tensor's count cache would otherwise warm over the
# whole run, so that a run on a faster host, getting through more products,
# would read faster even at reference speed.  One tensor round is one block
# of inputs.  Other workloads run in one process.
ROUND_OPS = {"series": 1, "tensor": 126}
# Operations in each of the four passes of a traced run, per second of
# --seconds / 2: on seed code a pass takes about a quarter of the run.  A
# fixed count, so that for one seed the layer counts of two versions
# compare.  A workload that runs in rounds runs one round per pass.
TRACE_OPS_PER_SECOND = {"decompose": 380, "lift": 45}
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


class Children:
    """Starts worker processes one at a time and waits for each."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        # bytecode is written, so that set-up times the import and not the
        # compiling of hivealg's sources, whatever the caller's environment
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def remaining(self) -> float:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        return remaining

    def run(self, script: Path, *args: str) -> dict:
        try:
            proc = subprocess.run([sys.executable, str(script), *args], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{script.name} {' '.join(args)} did not finish in time")
        return self.result(script, args, proc.returncode, proc.stdout, proc.stderr)

    def run_paced(self, script: Path, *args: str) -> dict:
        """Run a worker that pauses between operations while this process
        times the host (hostspeed.py).  Each operation's timed segments are
        put at reference speed and summed into its latency."""
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        proc = subprocess.Popen([sys.executable, str(script), *args,
                                 "--pace", f"{reply_r},{request_w}"],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                pass_fds=(reply_r, request_w))
        os.close(reply_r)
        os.close(request_w)
        try:
            samples = hostspeed.serve(request_r, reply_w, self.deadline)
            stdout, stderr = proc.communicate(timeout=self.remaining())
        except (TimeoutError, subprocess.TimeoutExpired):
            raise BenchError(f"{script.name} {' '.join(args)} did not finish in time")
        except BrokenPipeError:   # the worker died during a pause
            samples = []
            stdout, stderr = proc.communicate(timeout=self.remaining())
        finally:
            os.close(request_r)
            os.close(reply_w)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        out = self.result(script, args, proc.returncode, stdout, stderr)
        segments = out.pop("segments")
        out["latencies"] = [sum(seconds * hostspeed.scale(samples, loops)
                                for seconds, loops in parts) for parts in segments]
        out["wall_latencies"] = [sum(seconds for seconds, _loops in parts) for parts in segments]
        out["reference_s"] = statistics.median(samples)
        return out

    @staticmethod
    def result(script: Path, args, returncode: int, stdout: str, stderr: str) -> dict:
        if returncode != 0:
            raise BenchError(f"{script.name} {' '.join(args)} exited with {returncode}:\n"
                             f"{stderr.strip()[-2000:]}")
        return json.loads(stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(children: Children, workload: str, seed: int, seconds: float, ops: int | None,
            trace: bool = False) -> dict:
    """One closed-loop run: for a workload in ROUND_OPS, one fresh process
    per round until the time is up (or `ops` operations); otherwise one
    process."""
    base = [workload, "--seed", str(seed)] + (["--trace"] if trace else [])
    if workload not in ROUND_OPS:
        limit = ["--ops", str(ops)] if ops is not None else ["--seconds", str(seconds)]
        out = children.run_paced(WORKER, *base, *limit)
        out["reference_s"] = [out["reference_s"]]
        return out
    merged = {"latencies": [], "wall_latencies": [], "work": 0, "failed": [], "peak_rss_mb": 0.0,
              "failures": [], "layers": {}, "details": {}, "reference_s": []}
    calls = []
    start = time.monotonic()
    while (len(merged["latencies"]) < ops) if ops is not None \
            else (not merged["latencies"] or time.monotonic() - start < seconds):
        out = children.run_paced(WORKER, *base, "--ops", str(ROUND_OPS[workload]),
                                 "--round", str(len(merged["reference_s"])))
        offset = len(merged["latencies"])
        merged["latencies"] += out["latencies"]
        merged["wall_latencies"] += out["wall_latencies"]
        merged["work"] += out["work"]
        merged["failed"] += [offset + i for i in out["failed"]]
        merged["failures"] += out["failures"]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], out["peak_rss_mb"])
        merged["layers"] = out["layers"]
        merged["details"] = out["details"]
        merged["reference_s"].append(out["reference_s"])
        if workload == "series":
            calls.append(out["details"]["call_seconds"])
    if calls:
        merged["details"] = {**merged["details"], "call_seconds": calls}
    return merged


def timing_metrics(latencies: list[float], work: int, q: float) -> dict[str, float]:
    return {"ops_per_s": work / sum(latencies),
            "p50_ms": 1000 * statistics.median(latencies),
            "tail_ms": 1000 * percentile(latencies, q)}


def end_to_end(children: Children, workload: str, seed: int, seconds: float):
    def setup_samples(count):
        samples = []
        for _ in range(count):
            loops = [hostspeed.reference_loop() for _ in range(hostspeed.WINDOW)]
            setup_s = children.run(SETUP_PROBE, workload)["setup_s"]
            loops += [hostspeed.reference_loop() for _ in range(hostspeed.WINDOW)]
            samples.append(setup_s * hostspeed.scale(loops, hostspeed.WINDOW))
        return samples

    # half the set-up samples before the run and half after it, so that a
    # slow spell of the host at one end moves their median less
    setups = setup_samples(SETUP_SAMPLES // 2)
    out = measure(children, workload, seed, seconds, None)
    setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    q = TAIL_PERCENTILE[workload]
    timed = timing_metrics(out["latencies"], out["work"], q)
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "ops_per_s": (timed["ops_per_s"], "1/s"),
               "p50_ms": (timed["p50_ms"], "ms"),
               "tail_ms": (timed["tail_ms"], "ms"),
               "peak_rss_mb": (out["peak_rss_mb"], "MB")}
    # the same figures before scaling, so that what the scaling does shows
    detail = {"wall_clock": timing_metrics(out["wall_latencies"], out["work"], q),
              "ops": len(out["latencies"]), "tail_percentile": q,
              "samples_beyond_tail": sum(1 for v in out["latencies"]
                                         if v > timed["tail_ms"] / 1000),
              "setup_samples_s": setups,
              "reference_loop_s": statistics.median(out["reference_s"]), **out["details"]}
    return out, metrics, detail


def layers(children: Children, workload: str, seed: int, seconds: float):
    ops = ROUND_OPS.get(workload) or max(1, round(TRACE_OPS_PER_SECOND[workload] * seconds / 2))
    # untraced and traced passes alternate, so that two fresh processes'
    # difference in speed weighs less on the overhead ratio
    passes = [measure(children, workload, seed, seconds, ops, trace=trace)
              for trace in (False, True, False, True)]
    untraced_s = sum(sum(p["latencies"]) for p in passes[0::2])
    traced_s = sum(sum(p["latencies"]) for p in passes[1::2])
    # every traced pass runs the same operations; the metrics are the last one's
    metrics = {k: (v, unit_of(k)) for k, v in passes[-1]["layers"].items()}
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    out = {"latencies": [], "failed": [], "failures": []}
    for p in passes:
        out["failed"] += [len(out["latencies"]) + i for i in p["failed"]]
        out["latencies"] += p["latencies"]
        out["failures"] += p["failures"]
    detail = {"ops_per_pass": ops, "untraced_s": untraced_s, "traced_s": traced_s,
              **passes[-1]["details"]}
    return out, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hivealg" / "__init__.py").is_file():
        print(f"error: no hivealg package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 1

    children = Children(time.monotonic() + RUN_LIMIT_S)
    try:
        children.run(SETUP_PROBE, args.workload)   # compiles bytecode; no sample pays for it
        if args.trace:
            out, metrics, detail = layers(children, args.workload, args.seed, args.seconds)
        else:
            out, metrics, detail = end_to_end(children, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in out["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    environment = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
                   "python": platform.python_version(), "cpu_model": cpu_model()}
    print(json.dumps({"environment": environment, "detail": detail}))
    attempted = len(out["latencies"])
    failed = len(set(out["failed"]))
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
