"""spinsim benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload explore-3t --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; spinsim is imported from its
`src/`. A run has four phases, all in this one process and thread:

1. set-up: `setup_s` is the median over fresh processes, run between
   the passes, of the time to import spinsim and build the workload's
   inputs;
2. a warm-up pass over the workload's fixed job list;
3. untraced passes for `--seconds` (half of it with `--trace 1`), which
   give the end-to-end metrics;
4. traced passes (one with `--trace 0`, the rest of `--seconds` with
   `--trace 1`), which give the per-layer metrics and the exact counts.

Every job's output is checked outside its timing. The last line printed
is one JSON object: correct, attempted, failed (jobs whose check failed,
plus failed run-level checks) and the metrics of the chosen mode.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracing import TARGETS, JOB_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, load_spinsim  # noqa: E402

SETUP_PROBES = 15
# Counts that do not depend on the host. A change that moves one must say why.
GATED_COUNTS = (
    "sched.explore.states",
    "sched.explore.transitions",
    "sched.explore.terminal_states",
    "sched.explore.violating_states",
    "machine.instr_retired",
    "trace.bytes",
    "tamper.fires",
)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def build_workload(name: str, seed: int, expected: dict):
    OUT_DIR.mkdir(exist_ok=True)
    return WORKLOADS[name](load_spinsim(ROOT), seed, expected, OUT_DIR)


def setup_probe(name: str, seed: int) -> float:
    expected = load_expected()
    t0 = time.perf_counter()
    build_workload(name, seed, expected)
    return time.perf_counter() - t0


class SetupProbes:
    """Set-up time in fresh processes. Probes are spread over the run, a
    few after each untraced pass, so that their median spans the same
    host conditions as the passes. The first probe is not counted: it
    lets the interpreter write its bytecode caches."""

    def __init__(self, name: str, seed: int):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                     "--workload", name, "--seed", str(seed)]
        self.times: list[float] = []
        self._probe()

    def _probe(self) -> float:
        done = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def take(self, n: int) -> None:
        for _ in range(min(n, SETUP_PROBES - len(self.times))):
            self.times.append(self._probe())

    def median(self) -> float:
        self.take(SETUP_PROBES)
        return statistics.median(self.times)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"CHECK FAILED [{what}]: {p}")


def run_pass(jobs, tally: Tally, tracer: Tracer | None = None) -> list[float]:
    """Run the job list once; returns each job's seconds."""
    latencies = []
    for job in jobs:
        if tracer is None:
            t0 = time.perf_counter()
            output = job.run()
            latencies.append(time.perf_counter() - t0)
        else:
            tracer.enable()
            t0 = time.perf_counter()
            output = tracer.call(JOB_SPAN, job.run)
            latencies.append(time.perf_counter() - t0)
            tracer.disable()
        tally.record(job.name, job.check(output))
    return latencies


def layer_metrics(stats: dict, counts: dict, passes: int) -> dict:
    """Per-layer metrics from the traced passes' span statistics. Counts
    are per pass."""

    def calls(span: str) -> int:
        s = stats.get(span)
        return round(s.calls / passes) if s else 0

    def mean_ns(span: str, self_time: bool = False) -> float:
        s = stats.get(span)
        if not s or not s.calls:
            return 0.0
        return (s.self_ns if self_time else s.total_ns) / s.calls

    def per_pass_s(span: str, self_time: bool = False) -> float:
        s = stats.get(span)
        return (s.self_ns if self_time else s.total_ns) / passes / 1e9 if s else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    step_instr = {k: counts.get(f"machine.step.{k}.instr", 0) for k in ("collect", "nocollect")}
    step_self = {k: per_pass_s(f"machine.step.{k}", self_time=True) * 1e9 for k in step_instr}
    states = counts.get("sched.explore.states", 0)
    transitions = counts.get("sched.explore.transitions", 0)
    emit_s = per_pass_s("trace.emit")
    trace_bytes = counts.get("trace.bytes", 0)
    return {
        "isa.parse_us": (mean_ns("isa.parse") / 1e3, "us"),
        "isa.parse_calls": (calls("isa.parse"), "count"),
        "machine.init_us": (mean_ns("machine.init") / 1e3, "us"),
        "machine.step_ns_per_instr.nocollect": (ratio(step_self["nocollect"], step_instr["nocollect"]), "ns/instr"),
        "machine.step_ns_per_instr.collect": (ratio(step_self["collect"], step_instr["collect"]), "ns/instr"),
        "machine.instr_retired": (sum(step_instr.values()), "count"),
        "machine.steps": (calls("machine.step.collect") + calls("machine.step.nocollect"), "count"),
        "sched.explore.states": (states, "count"),
        "sched.explore.transitions": (transitions, "count"),
        "sched.explore.new_state_ratio": (ratio(states - calls("sched.explore"), transitions), "ratio"),
        "sched.explore.terminal_states": (counts.get("sched.explore.terminal_states", 0), "count"),
        "sched.explore.violating_states": (counts.get("sched.explore.violating_states", 0), "count"),
        "sched.explore.key_s": (per_pass_s("sched.freeze") + per_pass_s("sched.thaw"), "s"),
        "sched.explore.self_s": (per_pass_s("sched.explore", self_time=True), "s"),
        "sched.run.dispatch_self_ns": (mean_ns("sched.dispatch", self_time=True), "ns"),
        "tamper.compile_us": (mean_ns("tamper.compile") / 1e3, "us"),
        "tamper.apply_calls": (calls("tamper.apply"), "count"),
        "tamper.apply_ns": (mean_ns("tamper.apply"), "ns"),
        "tamper.fires": (counts.get("tamper.fires", 0), "count"),
        "lint.lint_us": (mean_ns("lint.lint") / 1e3, "us"),
        "lint.findings": (counts.get("lint.findings", 0), "count"),
        "trace.emit_mib_per_s": (ratio(trace_bytes / 2**20, emit_s), "MiB/s"),
        "trace.events": (counts.get("trace.events", 0), "count"),
        "trace.bytes": (trace_bytes, "bytes"),
        "scenario.load_us": (mean_ns("scenario.load") / 1e3, "us"),
        "scenario.run_us": (mean_ns("scenario.run") / 1e3, "us"),
        "scenario.check_us": (mean_ns("scenario.check") / 1e3, "us"),
        "cli.self_ms": (mean_ns("cli.main", self_time=True) / 1e6, "ms"),
        "debug.handle_us": (mean_ns("debug.handle") / 1e3, "us"),
    }


def unwrapped_calls(stats: dict, workload: str) -> list[str]:
    """Targets mapped to `workload` that the traced passes never saw: a
    binding site the tracer missed would otherwise read as zero."""
    missing = []
    for t in TARGETS:
        if workload not in t.workloads:
            continue
        spans = [n for n in stats if n == t.span or n.startswith(t.span + ".")]
        if not any(stats[n].calls for n in spans):
            missing.append(f"{t.module}.{t.qualname} was never called")
    return missing


def measure(name: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    """One benchmark run. Returns the result object that `main` prints."""
    wl = build_workload(name, seed, expected)
    setup = SetupProbes(name, seed)
    jobs = wl.jobs()
    tally = Tally()

    run_pass(jobs, tally)   # warm-up
    begin = time.perf_counter()
    walls, latencies = [], []
    while True:
        lat = run_pass(jobs, tally)
        walls.append(sum(lat))
        latencies.extend(lat)
        setup.take(2)
        if time.perf_counter() - begin >= (seconds / 2 if trace else seconds):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = setup.median()

    tracer = Tracer()
    tracer.install()
    traced_walls, pass_counts = [], []
    while True:
        traced_walls.append(sum(run_pass(jobs, tracer=tracer, tally=tally)))
        counts = dict(tracer.counters)
        counts["machine.instr_retired"] = sum(v for k, v in counts.items() if k.startswith("machine.step."))
        pass_counts.append(counts)
        tracer.counters.clear()
        if not trace or time.perf_counter() - begin >= seconds:
            break

    stats = tracer.stats()
    tally.record("final checks", wl.final_checks())
    tally.record("every wrapped layer called", unwrapped_calls(stats, name))
    tally.record("counts equal in every traced pass",
                 [] if all(c == pass_counts[0] for c in pass_counts) else [f"counts per pass: {pass_counts}"])
    counts = pass_counts[0]

    recorded = expected["counts"][name]
    if wl.uses_seed:
        recorded = recorded.get(str(seed))
    count_changes = []
    if recorded is None:
        print(f"no recorded counts for {name} at seed {seed}")
    else:
        for key in GATED_COUNTS:
            if recorded.get(key, 0) != counts.get(key, 0):
                count_changes.append(f"{key}: recorded {recorded.get(key, 0)}, measured {counts.get(key, 0)}")
    for change in count_changes:
        print(f"COUNT CHANGED {change}")

    wall_s = statistics.median(walls)
    # Every pass repeats the same jobs, so a job's samples are reduced to
    # their median before taking percentiles over the job list: a slow
    # stretch of the host then cannot stand in for a slow job.
    per_job = [statistics.median(latencies[j::len(jobs)]) for j in range(len(jobs))]
    tail = percentile(per_job, wl.tail_pct)
    beyond = sum(1 for x in per_job if x > tail)
    if beyond < 10 and wl.tail_pct > 50:
        print(f"warning: only {beyond} jobs beyond p{wl.tail_pct:g}; the tail is not resolved")
    if trace:
        metrics = layer_metrics(stats, counts, len(traced_walls))
        metrics["bench.trace_overhead_s"] = (statistics.median(traced_walls) - wall_s, "s")
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write_spans(spans_path)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "job_p50_ms": (percentile(per_job, 50) * 1e3, "ms"),
            "job_tail_ms": (tail * 1e3, "ms"),
            "sim_instr_per_s": (counts["machine.instr_retired"] / wall_s, "1/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }

    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [wall_s] * 3
    info = {
        "workload": name,
        "seed": seed,
        "seed_used": wl.uses_seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "jobs_per_pass": len(jobs),
        "untraced_passes": len(walls),
        "traced_passes": len(traced_walls),
        "wall_s_quartiles": [q[0], q[2]],
        "tail_percentile": wl.tail_pct,
        "tail_samples": len(per_job),
        "tail_beyond": beyond,
        "failed_frac": tally.failed / tally.attempted,
        "counts": {k: counts.get(k, 0) for k in GATED_COUNTS},
        "count_changes": count_changes,
    }
    return {
        "info": info,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), load_expected())
    info = result.pop("info")
    seed_note = "" if info["seed_used"] else " (not used: the workload is deterministic)"
    print(f"workload {info['workload']}, seed {info['seed']}{seed_note}, trace {info['trace']}")
    print(f"python {info['python']}, nproc {info['nproc']}, commit {info['commit']}")
    print(f"passes: {info['untraced_passes']} untraced, {info['traced_passes']} traced, "
          f"{info['jobs_per_pass']} jobs each; failed_frac = {result['failed']}/{result['attempted']}")
    if not args.trace:
        print(f"wall_s quartiles {info['wall_s_quartiles'][0]:.4f} .. {info['wall_s_quartiles'][1]:.4f} s; "
              f"job_tail_ms is p{info['tail_percentile']:g} of {info['tail_samples']} jobs "
              f"({info['untraced_passes']} samples each), {info['tail_beyond']} beyond it")
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "info": info}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
