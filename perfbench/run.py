"""hyperinv benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of the repository:

    python3 perfbench/run.py --workload rational_classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all             # every workload in turn
    python3 perfbench/run.py ... --out runs.jsonl       # also append the run record
    python3 perfbench/run.py --compare base.jsonl [change.jsonl]

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Lines before it start with '#' and give
the run environment and the details behind the metrics.  README.md in this
directory defines every metric and workload.
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

from spans import (COUNT_METRICS, TRACE_MARK, Tracer, cyclo_mul_ns, layer_metrics,
                   write_trace)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: fresh interpreters timed for setup_s, spread over the timed section
SETUP_REPEATS = 9
CALIBRATION_REPEATS = 5
#: cycles of each workload's stream in one traced pass (a fixed amount of work)
TRACE_CYCLES = {"rational_classify": 2, "symbolic_verify": 1,
                "cyclo_invariants": 1, "cli_requests": 1}


# -- small statistics ----------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values, pct: int):
    """The pct-th percentile and the number of samples above it."""
    if len(values) < 2:
        return values[0], 0
    cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return cut, sum(1 for v in values if v > cut)


# -- environment ---------------------------------------------------------------

def git_commit():
    """The commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def wall_of(argv, **kwargs):
    start = time.perf_counter_ns()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, **kwargs)
    return time.perf_counter_ns() - start, proc


def environment(seed: int, hyperinv) -> dict:
    calibration = [wall_of([sys.executable, "-c", "pass"])[0] / 1e6
                   for _ in range(CALIBRATION_REPEATS)]
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "hyperinv": hyperinv.__version__,
            "fixture": hyperinv.default_table().version,
            "commit": git_commit(),
            "seed": seed,
            "calibration_ms": statistics.median(calibration)}


# -- set-up --------------------------------------------------------------------

class SetupProbe:
    """Times fresh interpreters that import hyperinv, load the fixture and
    answer one warm-up request, each right after a calibration run.

    Called between cycles with the share of the timed section done, it takes
    its samples spread over the run, so that they meet the same host drift
    as the requests.  This process has already imported hyperinv, so the
    bytecode cache is filled before the first sample.
    """

    def __init__(self, workload):
        spec = json.dumps(workload.warmup())
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        if workload.name == "cli_requests":
            self.argv, self.feed = [sys.executable, "-m", "hyperinv"], spec
        else:
            self.argv, self.feed = [sys.executable, str(HERE / "setup_child.py"), spec], ""
        self.walls, self.scaled, self.calibrations = [], [], []

    def sample(self):
        from workloads import CAL_REF_NS, calibrate

        calibration = calibrate()
        wall, proc = wall_of(self.argv, input=self.feed, env=self.env)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        self.walls.append(wall / 1e9)
        self.scaled.append(wall / 1e9 * CAL_REF_NS / calibration)
        self.calibrations.append(calibration)

    def __call__(self, done: float):
        if len(self.walls) < SETUP_REPEATS * done:
            self.sample()

    def finish(self):
        while len(self.walls) < SETUP_REPEATS:
            self.sample()


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_requests" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


# -- the timed run (end-to-end metrics) ---------------------------------------------

def end_to_end(latencies, cycles, requests_ok, batch_requests, batch_ns, setup, tail_pct):
    """The time-based end-to-end metrics from one set of times (ns, s for setup)."""
    throughput = requests_ok / (sum(cycles) / 1e9)
    return {
        "setup_s": statistics.median(setup),
        "throughput_rps": throughput,
        "latency_ms.p50": statistics.median(latencies) / 1e6,
        "latency_ms.tail": tail(latencies, tail_pct)[0] / 1e6,
        "verdict_s": statistics.median(cycles) / 1e9,
        "batch_rps": batch_requests / (batch_ns / 1e9) if batch_ns else throughput,
    }


def timed_run(workload, seconds: float):
    from workloads import run_timed

    probe = SetupProbe(workload)
    out = run_timed(workload, seconds, probe)
    probe.finish()
    rss = peak_rss_mib(workload)
    failed = workload.check_all(out)
    ok = out.requests - failed
    metrics = end_to_end(out.scaled_latencies_ns, out.scaled_cycles_ns, ok,
                         out.batch_requests, out.scaled_batch_ns, probe.scaled,
                         workload.tail_pct)
    metrics["peak_rss_mib"] = rss
    raw = end_to_end(out.latencies_ns, out.cycles_ns, ok, out.batch_requests,
                     out.batch_ns, probe.walls, workload.tail_pct)
    details = {
        "fail_ratio": failed / out.requests,
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": tail(out.scaled_latencies_ns, workload.tail_pct)[1],
        "latency_samples": len(out.latencies_ns),
        "cycles": len(out.cycles_ns),
        "timed_s": sum(out.cycles_ns) / 1e9,
        "batch_requests": out.batch_requests,
        "kernel_ms": statistics.median(out.calibrations_ns + probe.calibrations) / 1e6,
        "raw": raw,
        "setup_samples_s": probe.scaled,
        "errors": out.errors[:3],
    }
    return out.requests, failed, metrics, details


# -- the traced run (per-layer metrics) --------------------------------------------

def paired_pass(workload, cycles, seed):
    """One pass over the fixed cycles, each part run untraced and then traced,
    so that drift in the host's speed falls on both alike.

    Returns the untraced and traced outcomes, the span dumps (one per traced
    process) and the metrics that do not come from spans.
    """
    from workloads import Outcome

    plain, out = Outcome(), Outcome()
    parts = [[part] for cycle in cycles for part in cycle]
    if workload.name == "cli_requests":
        records = []
        for part in parts:
            workload.run_cycle(part, plain)
            workload.run_cycle(part, out, tracer=records)
        dumps, oneshot = [], []
        for mode, wall, stderr in records:
            lines = [l for l in stderr.splitlines() if l.startswith(TRACE_MARK)]
            if not lines:       # the process failed; its output check counts it
                continue
            dump = json.loads(lines[0][len(TRACE_MARK):])
            dumps.append(dump)
            if mode == "oneshot":
                fixture_ns = sum(end - start for name, start, end, _, _ in dump["spans"]
                                 if name == "loci.default_table")
                oneshot.append((wall, dump["run_ns"], dump["import_ns"] + fixture_ns))
        extra = {"cli.process_ms": statistics.fmean(w for w, _, _ in oneshot) / 1e6,
                 "cli.interpreter_ms": statistics.fmean(w - r for w, r, _ in oneshot) / 1e6,
                 "cli.startup_ms": statistics.fmean(s for _, _, s in oneshot) / 1e6}
    else:
        tracer = Tracer(seed)
        for part in parts:
            workload.run_cycle(part, plain)
            with tracer:
                workload.run_cycle(part, out, tracer=tracer)
        dumps = [tracer.dump()]
        extra = {"scalars.cyclo_mul.ns_per_call": cyclo_mul_ns(tracer.operands)}
    return plain, out, dumps, extra


def traced_run(workload, seconds: float, seed: int):
    """Repeat paired passes over the same fixed cycles until `seconds` have passed."""
    cycles = [workload.next_cycle() for _ in range(TRACE_CYCLES[workload.name])]
    untraced, traced, passes, outcomes = [], [], [], []
    first_dumps = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not passes:
        plain, out, dumps, extra = paired_pass(workload, cycles, seed)
        untraced.append(sum(plain.cycles_ns))
        traced.append(sum(out.cycles_ns))
        genus = ({i: item for i, (item, _) in enumerate(out.results)}
                 if workload.name == "symbolic_verify" else None)
        layer = layer_metrics(dumps, out.requests, sum(out.cycles_ns), genus)
        layer.update(extra)
        passes.append(layer)
        outcomes += [plain, out]
        first_dumps = first_dumps or dumps

    attempted = sum(o.requests for o in outcomes)
    failed = sum(workload.check_all(o) for o in outcomes)
    unsteady = [k for k in COUNT_METRICS if len({p[k] for p in passes}) > 1]
    metrics = {k: (passes[0][k] if k in COUNT_METRICS
                   else statistics.median(p[k] for p in passes)) for k in passes[0]}
    for m in SPEC["per_layer"]:     # layers this workload never reaches read 0
        metrics.setdefault(m["name"], 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    (HERE / "out").mkdir(exist_ok=True)
    trace_path = HERE / "out" / f"trace-{workload.name}-seed{seed}.json"
    write_trace(trace_path, {"workload": workload.name, "seed": seed,
                             "requests": outcomes[1].requests}, first_dumps)
    details = {
        "fail_ratio": failed / attempted,
        "passes": len(passes),
        "requests_per_pass": outcomes[0].requests,
        "counts_differ_between_passes": unsteady,
        "not_applicable": sorted(k for k, v in metrics.items() if v == 0),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "errors": [e for o in outcomes for e in o.errors][:3],
    }
    if unsteady:
        failed = attempted
    return attempted, failed, metrics, details


# -- one workload ------------------------------------------------------------------

def run_workload(args) -> int:
    if not (SRC / "hyperinv" / "__init__.py").is_file():
        print(f"hyperinv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hyperinv
    if Path(hyperinv.__file__).resolve().parent != SRC / "hyperinv":
        print(f"imported hyperinv from {hyperinv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args.seed, hyperinv)
    if args.trace:
        attempted, failed, metrics, details = traced_run(workload, args.seconds, args.seed)
    else:
        attempted, failed, metrics, details = timed_run(workload, args.seconds)
    expected = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in expected}}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "details": details, "result": result}
    print("# env " + json.dumps(env))
    print("# details " + json.dumps(details))
    print(json.dumps(result))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SPEC_WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--out", args.out] if args.out else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        print(f"# workload {name}")
        for line in lines[:-1]:
            print(line)
        for metric, value in result["metrics"].items():
            print(f"#   {name:18s} {metric:38s} {value['value']:14.6g} {value['unit']}")
            combined["metrics"][f"{name}/{metric}"] = value
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


# -- compare ---------------------------------------------------------------------

def load_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def paired(base, change):
    """Pairs of runs: by seed where both sides ran it, else in order."""
    by_seed = {}
    for seed, value in base:
        by_seed.setdefault(seed, []).append(value)
    pairs = []
    for seed, value in change:
        if by_seed.get(seed):
            pairs.append((by_seed[seed].pop(0), value))
    if pairs:
        return pairs
    return list(zip((v for _, v in base), (v for _, v in change)))


def verdict(base, change, better: str, bound) -> str:
    """better, worse, unchanged or unresolved for one workload and metric.

    Better needs the change to win at least nine in ten pairs and the medians
    to differ by more than the parent's quartile spread.  With a bound, worse
    means the change's median is worse by more than the bound; a spread wider
    than the bound is unresolved unless every change run beats every parent run.
    """
    b = [v for _, v in base]
    c = [v for _, v in change]
    sign = 1 if better == "higher" else -1
    mb, mc = statistics.median(b), statistics.median(c)
    q1, q3 = quartiles(b)
    spread = q3 - q1
    gain = sign * (mc - mb)
    pairs = paired(base, change)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse"
        return "unchanged" if abs(gain) <= spread else "unresolved"
    scale = abs(mb) or 1.0
    all_better = all(sign * (y - x) > 0 for x in b for y in c)
    if spread / scale > bound and not all_better:
        return "unresolved"
    if -gain > bound * scale:
        return "worse"
    return "unchanged"


def compare(paths) -> int:
    info = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    sides = []
    for path in paths:
        values = {}
        for rec in load_records(path):
            for metric, v in rec["result"]["metrics"].items():
                values.setdefault((rec["workload"], metric), []).append(
                    (rec["seed"], v["value"]))
        sides.append(values)
    keys = sorted(set().union(*sides))
    print(f"{'workload':18s} {'metric':36s} " + "  ".join(
        f"{'median [q1, q3] n (' + Path(p).name + ')':44s}" for p in paths)
        + ("  verdict" if len(paths) == 2 else "  spread/bound"))
    for key in keys:
        workload, metric = key
        m = info.get(metric, {"better": "lower", "unit": "?"})
        cells, runs = [], []
        for side in sides:
            runs.append(side.get(key, []))
            vals = [v for _, v in runs[-1]]
            if vals:
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.6g} [{q1:.6g}, {q3:.6g}] {len(vals)}")
            else:
                cells.append("-")
        row = f"{workload:18s} {metric + ' ' + m['unit']:36s} " + "  ".join(
            f"{c:44s}" for c in cells)
        if len(paths) == 2:
            row += "  " + (verdict(runs[0], runs[1], m["better"], m.get("bound"))
                           if runs[0] and runs[1] else "missing")
        elif runs[0]:
            vals = [v for _, v in runs[0]]
            q1, q3 = quartiles(vals)
            med = statistics.median(vals)
            share = (q3 - q1) / abs(med) if med else 0.0
            row += f"  {share:.4f}" + (f"/{m['bound']}" if "bound" in m else "")
        print(row)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=SPEC_WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this JSON-lines file")
    parser.add_argument("--compare", nargs="+", metavar="RUNS",
                        help="one or two JSON-lines files of run records")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two files")
        return compare(args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
