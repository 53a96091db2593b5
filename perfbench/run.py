"""Benchmark of quantkmeans: certified runs timed from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload kmeans-n45 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` repeats untraced solves for ``--seconds`` after one warm-up
solve and reports the end-to-end metrics as medians over the solves;
``--trace 1`` makes one untraced and one traced solve and reports the
per-layer metrics.  Every solve is checked against the oracle and the
counts in ``pinned.json``; the last line of standard output is one JSON
object, and the exit code is nonzero when any operation failed.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(w["name"] for w in BENCH["workloads"])
SETUP_REPEATS = 9
SAMPLE_PERIOD_S = 0.02

# A fresh interpreter per sample, so the import of quantkmeans is measured.
SETUP_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.process_time()
import workloads
workloads.WORKLOADS[sys.argv[3]].make_inputs(int(sys.argv[4]))
print(time.process_time() - start)
"""


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reference_chunk() -> None:
    """The unit of ``solve_ref``: a sum of 100 standard-library Fractions,
    the kind of exact arithmetic the program spends its time in, and none
    of the program's own code."""
    total = Fraction(0)
    for i in range(1, 101):
        total += Fraction(1, i)


class HostSpeed:
    """Samples how fast the host runs during a solve.  While it is active,
    every ``SAMPLE_PERIOD_S`` of CPU time SIGPROF interrupts the solve and
    times one reference chunk on this thread's CPU clock."""

    def __init__(self):
        self.cpu = 0.0
        self.chunks = 0

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        reference_chunk()
        self.cpu += time.thread_time() - start
        self.chunks += 1

    def __enter__(self) -> "HostSpeed":
        self.cpu, self.chunks = 0.0, 0
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "quantkmeans").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "nproc": nproc(), "loadavg_start": list(os.getloadavg())}


def setup_sample(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), name,
         str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise SystemExit(f"perfbench: setup of {name} failed:\n{out.stderr}")
    return float(out.stdout)


def layer_metrics(n: int, tracer, counts: dict, gate, untraced_s: float,
                  traced_s: float, w2_speedup: float) -> dict:
    """Per-layer metrics of one traced solve.  Times include traced callees
    except ``sim.self_s``; every ratio is reported next to the counts it
    divides."""
    t = tracer
    windows = t.calls("coordination.window_check") // n
    triggers = t.calls("consensus.trigger")
    polls = t.calls("consensus.node_step") + t.calls("kmeans.mass_phase")
    return {
        "graph.generate_s": t.total("graph.generate"),
        "graph.diameter_s": t.total("graph.diameter"),
        "exactmath.elementwise_calls": t.calls("exactmath.elementwise"),
        "exactmath.elementwise_s": t.total("exactmath.elementwise"),
        "exactmath.sq_dist_calls": t.calls("exactmath.sq_dist_exact"),
        "exactmath.sq_dist_s": t.total("exactmath.sq_dist_exact"),
        "exactmath.payload_bits": counts["payload_bits"],
        "consensus.node_step_calls": t.calls("consensus.node_step"),
        "consensus.node_step_s": t.total("consensus.node_step"),
        "consensus.absorb_calls": t.calls("consensus.absorb_one"),
        "consensus.trigger_calls": triggers,
        "consensus.emit_calls": t.calls("consensus.emit"),
        "consensus.fire_ratio":
            t.calls("consensus.emit") / triggers if triggers else 0.0,
        "consensus.mass_messages": counts["mass_messages"],
        "coordination.merge_calls": t.calls("coordination.extrema_merge"),
        "coordination.merge_s": t.total("coordination.extrema_merge"),
        "coordination.snapshot_s": t.total("coordination.snapshot"),
        "coordination.window_check_s": t.total("coordination.window_check"),
        "coordination.windows": windows,
        "coordination.certify_ratio":
            counts["rounds"] / windows if windows else 0.0,
        "coordination.extrema_messages": counts["extrema_messages"],
        "kmeans.mass_phase_calls": t.calls("kmeans.mass_phase"),
        "kmeans.mass_phase_s": t.total("kmeans.mass_phase"),
        "kmeans.begin_round_s": t.total("kmeans.begin_round"),
        "kmeans.held_snapshot_s": t.total("kmeans.held_snapshot"),
        "kmeans.assign_cluster_calls": t.calls("kmeans.assign_cluster"),
        "kmeans.finalize_round_s": t.total("kmeans.finalize_round"),
        "sim.self_s": t.self_time("sim."),
        "sim.polls": polls,
        "sim.polls_per_message": polls / counts["mass_messages"],
        "sim.distance_objective_s": t.total("sim.distance_objective"),
        "sim.steps": counts["steps"],
        "sim.rounds": counts["rounds"],
        "sim.sweep_w2_speedup": w2_speedup,
        "oracle.lloyd_s": gate.lloyd_s,
        "oracle.check_s": gate.check_s,
        "trace_overhead_s": traced_s - untraced_s,
    }


class Tally:
    """Operations attempted and failed; problems go to standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, problems: list[list[str]]) -> None:
        self.attempted += len(problems)
        for found in problems:
            self.failed += bool(found)
            for line in found:
                print(f"FAILED {line}", file=sys.stderr)


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 pins: dict) -> dict:
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    env = environment()
    setup = []
    tally = Tally()
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    inp = wl.make_inputs(seed)
    if trace:
        tracer.uninstall()
    ref = wl.reference(inp)
    # Warm-up: checked like every solve, not timed.
    tally.add(wl.check(inp, wl.solve(inp), ref, pins, seed).problems)

    # Untraced solves are sampled for host speed; the samples' CPU time is
    # taken out of the solve's.
    cpu, wall, in_ref = [], [], []
    speed = HostSpeed()
    start = time.perf_counter()
    while True:
        with speed:
            c0, w0 = cpu_seconds(), time.perf_counter()
            result = wl.solve(inp)
            c1, w1 = cpu_seconds(), time.perf_counter()
        cpu.append(c1 - c0 - speed.cpu)
        wall.append(w1 - w0 - speed.cpu)
        if speed.chunks:
            in_ref.append(cpu[-1] / (speed.cpu / speed.chunks))
        tally.add(wl.check(inp, result, ref, pins, seed).problems)
        elapsed = time.perf_counter() - start
        if trace or elapsed >= seconds:
            break
        # Set-up samples are spread over the run, between solves, so they
        # meet the same spells of a shared host's speed as the solves do.
        if len(setup) < elapsed / seconds * SETUP_REPEATS:
            setup.append(setup_sample(name, seed))
    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(name, seed))
    solve_s = statistics.median(cpu)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        tracer.install(keep=("sim.run_kmeans",))
        c0 = cpu_seconds()
        traced = wl.solve(inp)
        traced_s = cpu_seconds() - c0
        tracer.uninstall()
        gate = wl.check(inp, traced, ref, pins, seed)
        tally.add(gate.problems)

    logged = wl.log_run(inp, seed)
    tally.add([wl.log_check(inp, logged, ref, pins, seed)])

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "solves": len(cpu),
              "solve_cpu_s": cpu, "solve_wall_s": wall, "solve_ref": in_ref}
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "solve_ref": statistics.median(in_ref),
            "peak_rss_mb": peak_rss_mb,
        }
        record["setup_cpu_s"] = setup
        record["steps_per_s"] = wl.counts(result)["steps"] / solve_s
    else:
        counts = wl.counts(traced)
        if counts["payload_bits"] is None:
            kept = tracer.results["sim.run_kmeans"]
            counts["payload_bits"] = (
                sum(tr.mass_payload_bits for tr in kept) if kept
                else wl.counts(logged)["payload_bits"])
        w2_speedup = 0.0
        if name == "sweep-n15-k6":
            # Wall time: the workers' CPU time is not this process's.
            w0 = time.perf_counter()
            parallel = wl.solve(inp, workers=min(2, nproc()))
            w2_speedup = wall[0] / (time.perf_counter() - w0)
            tally.add([[] if parallel.per_seed == result.per_seed else
                        [f"{name}: 2-worker sweep differs from serial"]])
        metrics = layer_metrics(wl.n, tracer, counts, gate, solve_s,
                                traced_s, w2_speedup)
        record["functions"] = {
            key: {"calls": c, "total_s": tot, "self_s": own}
            for key, (c, tot, own) in sorted(
                tracer.stats.items(), key=lambda kv: -kv[1][1])}
    env["loadavg_end"] = list(os.getloadavg())
    record["env"] = env
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    # Names and units are those BENCHMARK.json declares for this mode.
    declared = BENCH["per_layer" if trace else "end_to_end"]
    record["metrics"] = {m["name"]: {"value": metrics[m["name"]],
                                     "unit": m["unit"]} for m in declared}
    return record


def print_record(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']} solves {record['solves']}")
    for key, metric in record["metrics"].items():
        print(f"  {key:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'ops':32s} {record['attempted']:>16d} count")
    print(f"  {'failed_ops':32s} {record['failed']:>16d} count")
    cpu = sorted(record["solve_cpu_s"])
    line = f"  solve cpu s over {len(cpu)} solves: median {statistics.median(cpu):.6g}"
    if len(cpu) > 10:
        # The highest percentile with ten solves beyond it.
        line += (f", p{100 * (len(cpu) - 10) // len(cpu)} "
                 f"{cpu[len(cpu) - 11]:.6g}")
    print(line + f"; wall median {statistics.median(record['solve_wall_s']):.6g}")
    if "steps_per_s" in record:
        print(f"  simulated steps per cpu s: {record['steps_per_s']:.6g}")
    for key, row in record.get("functions", {}).items():
        print(f"  fn {key:34s} {row['calls']:>10d} calls "
              f"{row['total_s']:10.4f} s total {row['self_s']:10.4f} s self")
    print("env " + json.dumps(record["env"], sort_keys=True))


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    records = []
    for name in NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = [ln for ln in out.stdout.splitlines() if ln.startswith("record ")]
        if not lines:
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return 2
        records.append(json.loads(lines[-1][len("record "):]))
        print_record(records[-1])
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    failed = sum(r["failed"] for r in records)
    print(result_line(
        sum(r["attempted"] for r in records), failed,
        {f"{r['workload']}.{k}": v for r in records
         for k, v in r["metrics"].items()}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write every "
                        "record, environment included, to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "quantkmeans" / "__init__.py").is_file():
        print(f"perfbench: no quantkmeans sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(HERE), str(SRC)]
    pins = json.loads((HERE / "pinned.json").read_text())[args.workload]
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), pins)
    print_record(record)
    print("record " + json.dumps(record))
    print(result_line(record["attempted"], record["failed"],
                      record["metrics"]))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
