#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload figures|contention-matrix|serve-mixed \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script first builds, from source and
outside any measured time, the `swarm` binary (the repository's own release
profile) and the in-process benchmark package in `perfbench/`, both into
$CARGO_TARGET_DIR (default `target`).

Workloads (why each was chosen is recorded in BENCHMARK.json):

* figures: the 13-command paper suite through the `swarm` binary at tiny
  scale with --jobs = the number of usable hardware threads. Each iteration
  regenerates the whole suite with a fresh seed derived from --seed.
* contention-matrix / serve-mixed: run in-process by the `perfbench` binary
  (see perfbench/src/matrix.rs and perfbench/src/serve.rs).

Every run completes a fixed minimum of work whatever the machine's speed, so
its output digest is comparable between commits, then keeps iterating with
fresh inputs until --seconds have passed.

With --trace 0 the report carries every end_to_end metric of BENCHMARK.json,
with --trace 1 every per_layer metric; a per-layer metric of a layer the
workload does not exercise (serve stages on figures, figure commands on
serve-mixed, ...) reads 0. Metric meanings per workload:

* wall_s: wall time of the timed phase per iteration (an iteration is a
  suite regeneration, a 36-point matrix, or a round of 10 submits per
  client).
* cpu_s: user+sys CPU of the timed phase per iteration.
* setup_s: median of several set-ups: `swarm sysconfig` (binary start-up,
  no simulation) for figures; input generation plus
  engine build of every point for contention-matrix; server start plus cache
  warm-up for serve-mixed.
* peak_rss_mb: peak resident memory of the workload's processes.
* req_per_s, latency_p50_ms, latency_p99_ms: operations per second of the
  timed phase and their latency, where an operation is a figure command, a
  matrix point, or a submit answered by run-complete.

error_rate (failed / attempted operations) is 0 on a correct build, so it is
not a bounded metric; it is carried by the report's attempted and failed
counts and printed on its own line. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench-out")
COMMANDS = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10",
            "fig11", "table1", "table2", "summary", "ablation-lb"]
# The suite's scale; perfbench/src/figplan.rs replays at the same one.
SCALE = "tiny"
# Suite iterations whose outputs form the digest; every run completes them.
DIGEST_SUITES = 3
SETUP_REPEATS = 9
# Every run must end well inside the 180 s a run may take.
DEADLINE_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def iteration_seed(seed, i):
    digest = hashlib.sha256(f"{seed}:{i}".encode()).hexdigest()
    return int(digest[:8], 16)


def build():
    """Build both binaries; return their paths."""
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    target = os.path.join(ROOT, target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "swarm"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              env=dict(os.environ, CARGO_TARGET_DIR=target))
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)
    return (os.path.join(target, "release", "swarm"),
            os.path.join(target, "release", "perfbench"))


class Deadline:
    def __init__(self):
        self.start = time.monotonic()

    def left(self):
        return DEADLINE_S - (time.monotonic() - self.start)


def spawn(argv, deadline, tag):
    """Run argv to completion; return (exit code, stdout, wall s, cpu s,
    peak RSS KiB). Kills the process if it outlives the deadline."""
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"{tag}.out")
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=sys.stderr)
        timer = threading.Timer(max(deadline.left(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    os.remove(out_path)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, text, wall, cpu, usage.ru_maxrss


class Report:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.notes = []
        self.digest = hashlib.sha256()

    def check(self, error):
        self.attempted += 1
        if error:
            self.failed += 1
            self.notes.append(f"FAILED: {error}")


def run_suite(swarm, seed, jobs, deadline, report):
    """One regeneration of the paper suite; returns per command its name,
    start (monotonic s), wall s, cpu s, peak RSS KiB and stdout."""
    rows = []
    for cmd in COMMANDS:
        argv = [swarm, cmd, "--scale", SCALE, "--seed", str(seed), "--jobs", str(jobs)]
        began = time.monotonic()
        code, text, wall, cpu, rss = spawn(argv, deadline, "figure")
        error = None
        if code != 0:
            error = f"swarm {cmd} --seed {seed} exited {code}"
        elif "n/a" in text:
            error = f"swarm {cmd} --seed {seed} printed an n/a cell"
        report.check(error)
        rows.append((cmd, began, wall, cpu, rss, text))
        if deadline.left() < 0:
            raise TimeoutError("the figure suite overran the deadline")
    return rows


def figures(swarm, perfbench, args, deadline, report):
    jobs = len(os.sched_getaffinity(0))
    first = iteration_seed(args.seed, 0)
    if args.trace:
        # The replay runs once; suite regenerations fill the rest of the
        # measured time (at least one).
        start = time.monotonic()
        report.metrics.update(
            run_perfbench(perfbench, "figures-replay", first, 0, 1, deadline, report))
        per_cmd = {cmd: [] for cmd in COMMANDS}
        utils = []
        spans = []
        while not utils or time.monotonic() - start < args.seconds:
            rows = run_suite(swarm, first, jobs, deadline, report)
            for cmd, began, wall, _, _, _ in rows:
                per_cmd[cmd].append(wall)
                spans.append({"name": "bench.command", "id": cmd,
                              "start_s": began - start, "end_s": began - start + wall})
            walls = sum(r[2] for r in rows)
            utils.append(sum(r[3] for r in rows) / (walls * jobs))
        for cmd, walls in per_cmd.items():
            report.metrics[f"bench.{cmd}_s"] = statistics.median(walls)
        report.metrics["bench.pool_util"] = statistics.median(utils)
        with open(os.path.join(OUT, "trace-figures-commands.json"), "w") as f:
            json.dump(spans, f)
        report.notes.append(f"{len(utils)} traced suite regenerations")
        return

    setups = []
    for _ in range(SETUP_REPEATS):
        code, _, wall, _, _ = spawn([swarm, "sysconfig"], deadline, "setup")
        report.check(None if code == 0 else f"swarm sysconfig exited {code}")
        setups.append(wall)
    cpu, rss, latencies = 0.0, 0, []
    start = time.monotonic()
    i = 0
    while i < DIGEST_SUITES or time.monotonic() - start < args.seconds:
        rows = run_suite(swarm, iteration_seed(args.seed, i), jobs, deadline, report)
        for cmd, _, wall, c, r, text in rows:
            cpu += c
            rss = max(rss, r)
            latencies.append(wall * 1e3)
            if i < DIGEST_SUITES:
                report.digest.update(f"{cmd}\n{text}".encode())
        i += 1
    total = time.monotonic() - start
    p99 = percentile(latencies, 99)
    report.metrics.update({
        "wall_s": total / i,
        "cpu_s": cpu / i,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss / 1024,
        "req_per_s": len(latencies) / total,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": p99,
    })
    report.notes.append(
        f"{i} suite regenerations at --jobs {jobs}; p99 over "
        f"{len(latencies)} commands, {sum(v > p99 for v in latencies)} beyond it")


def percentile(values, pct):
    """Nearest-rank percentile (the same rule as the Rust half)."""
    ordered = sorted(values)
    rank = min(max(int(-(-pct * len(ordered) // 100)), 1), len(ordered))
    return ordered[rank - 1]


def run_perfbench(perfbench, workload, seed, seconds, trace, deadline, report):
    """Run the in-process benchmark; fold its checks and digest into
    report and return its metrics (with peak RSS added). A traced run
    writes its spans to .perfbench-out/trace-<workload>.json."""
    argv = [workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        argv += ["--trace-out", os.path.join(OUT, f"trace-{workload}.json")]
    code, text, _, _, rss = spawn([perfbench] + argv, deadline, workload)
    lines = text.strip().splitlines()
    if code != 0 or not lines:
        log(f"perfbench {' '.join(argv)} exited {code} without a result")
        sys.exit(1)
    result = json.loads(lines[-1])
    report.attempted += result["attempted"]
    report.failed += result["failed"]
    report.notes.extend(result["notes"])
    report.digest.update(result["digest"].encode())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["peak_rss_mb"] = rss / 1024
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["figures", "contention-matrix", "serve-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")) or not os.path.exists(spec_path):
        log("run from the root of a full checkout: Cargo.toml or BENCHMARK.json is missing")
        sys.exit(2)
    with open(spec_path) as f:
        spec = json.load(f)
    swarm, perfbench = build()
    # The first run in a checkout may spend long building; the workload
    # itself must end inside the deadline.
    deadline = Deadline()

    report = Report()
    if args.workload == "figures":
        figures(swarm, perfbench, args, deadline, report)
    else:
        report.metrics.update(run_perfbench(perfbench, args.workload, args.seed,
                                            args.seconds, args.trace, deadline, report))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = report.metrics.get(m["name"])
        if value is None:
            if not args.trace:
                report.check(f"metric {m['name']} was not measured")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    for note in report.notes:
        print(note)
    print(f"digest {args.workload} {report.digest.hexdigest()[:16]}")
    print(f"error_rate {report.failed / max(report.attempted, 1)} "
          f"({report.failed} of {report.attempted} operations failed)")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
