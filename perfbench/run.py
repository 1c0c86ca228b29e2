"""quemon benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload queue-long --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from src/.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones:
that run times half its seconds untraced and half traced, records a span
around every call the benchmark makes into a layer, and writes the spans
to .perfbench_work/trace-<workload>-<seed>.json.  Workloads and their
ladders are described in perfbench/workloads.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 11  # fresh interpreters per run for setup_s, after one warm-up

# A fresh interpreter timing `import quemon` and the workload's alphabet loads.
PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import quemon\n"
    "from quemon.alphabet import IndependenceAlphabet\n"
    "for p in sys.argv[1:]:\n"
    "    IndependenceAlphabet.load(p)\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()

    if not (ROOT / "src" / "quemon" / "__init__.py").is_file():
        print(f"perfbench: no quemon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if ns.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {ns.workload!r}; one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_work" / f"{ns.workload}-{ns.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(ns, workloads, workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(ns, workloads, workdir: Path, spec: dict) -> dict:
    from harness import Tracer, digest, median, min_ops_for, new_first, percentile, run_phase

    tracer = Tracer()
    tracer.enabled = bool(ns.trace)
    wl = workloads.build(ns.workload, ns.seed, workdir, tracer)
    tracer.enabled = False
    # the inputs live for the whole run; keeping them out of the collector's
    # generations stops them from making the program's collections slower
    gc.collect()
    gc.freeze()
    ops = wl.ops
    p_tail = workloads.SPEC[ns.workload]["tail_percentile"]
    min_ops = min_ops_for(p_tail)

    calibrations: list[float] = []
    if wl.cli is None:
        setup = probe_setup(wl.alphabet_files, calibrations)
    else:
        ops[0].fn(*ops[0].args)  # warm-up child: byte-compiles the sources once
        wl.cli.reset()

    first = new_first(ops)
    if ns.trace:
        plain = run_phase(ops, ns.seconds / 2, min_ops, tracer, first)
        if wl.cli is not None:
            wl.cli.reset()
        tracer.enabled = True
        traced = run_phase(ops, ns.seconds / 2, min_ops, tracer, first)
        tracer.enabled = False
        phases = [plain, traced]
    else:
        plain = run_phase(ops, ns.seconds, min_ops, tracer, first)
        phases = [plain]
        if wl.cli is None:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = wl.cli.peak_kb
            setup = median(wl.cli.import_s)

    for ph in phases:
        calibrations += ph.calibrations

    # checks run after timing, on each op's first output
    by_key = {op.key: out for op, out in zip(ops, first)}
    rounds = sum(ph.rounds for ph in phases)
    attempted = sum(len(ph.latencies) for ph in phases)
    problems: dict[int, str] = {}
    failed = 0
    for ph in phases:
        problems.update(ph.errors)
        failed += ph.failed_runs
    for i, op in enumerate(ops):
        if i in problems:
            continue
        try:
            why = op.check(first[i], by_key)
        except Exception as exc:  # a checker tripping on a malformed output
            why = f"check raised {type(exc).__name__}: {exc}"
        if why:
            problems[i] = why
            failed += rounds
    failed = min(failed, attempted)
    dig = digest(ops, first)

    print(f"workload {ns.workload} seed {ns.seed}: {rounds} rounds of {len(ops)} ops, "
          f"{attempted} attempted, {failed} failed (error_rate {failed / attempted:.6f})")
    print(f"output digest sha256:{dig}")
    print(f"calibration loop {median(calibrations) * 1000:.2f} ms, median of {len(calibrations)}; "
          f"reference {workloads.MACHINE['calibration_ms']} ms")
    for i, why in sorted(problems.items())[:10]:
        print(f"FAILED {ops[i].key}: {why}")

    if not ns.trace:
        raw = {
            "ops_per_s": plain.ops_per_s,
            "op_p50_ms": median(plain.latencies) * 1000,
            "op_tail_ms": percentile(plain.latencies, p_tail) * 1000,
            "setup_s": setup,
        }
        # how much slower than the reference the interpreter ran during this
        # run: times are divided by it and the rate multiplied, which reports
        # them at the reference speed
        slowness = median(calibrations) / (workloads.MACHINE["calibration_ms"] / 1000)
        values = {k: v * slowness if k == "ops_per_s" else v / slowness for k, v in raw.items()}
        values["peak_rss_mb"] = peak_kb / 1024
        print(f"tail percentile p{p_tail} over {len(plain.latencies)} ops")
        print("as measured, before scaling: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        metrics = spec["end_to_end"]
    else:
        metrics = spec["per_layer"]
        values = layer_metrics(ns, wl, tracer, plain, traced, by_key, [m["name"] for m in metrics])
        write_trace(ns, tracer, ops, dig)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def probe_setup(alphabet_files: list[str], calibrations: list[float]) -> float:
    """Median seconds for a fresh interpreter to import quemon and load the
    alphabet files, measured inside the interpreter; a calibration loop
    runs before each probe."""
    from harness import calibrate, median

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_PROBES + 1):
        calibrations.append(calibrate())
        out = subprocess.run([sys.executable, "-c", PROBE, *alphabet_files], env=env,
                             capture_output=True, text=True, check=True).stdout
        times.append(float(out))
    return median(times[1:])


def interp_ms() -> float:
    """Median wall time of a bare `python -c pass`, the start-up cost that
    is not quemon's."""
    from harness import median

    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(perf_counter() - t0)
    return median(times[1:]) * 1000


def layer_metrics(ns, wl, tracer, plain, traced, by_key: dict, names: list[str]) -> dict[str, float]:
    """Every per-layer metric in names, from the spans of the traced phase.

    X.busy_ms sums the spans called X, X.slope fits the median span time per
    input size, and L.self_ms sums the self time of the spans of layer L
    (bench: the benchmark's own time inside each op).  Functions and layers
    a workload never calls read 0.
    """
    from harness import ladder_medians, loglog_slope, median, self_times

    spans, ops = tracer.spans, wl.ops
    busy: dict[str, float] = {}
    for _, name, start, end, _, _ in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
    selfs = self_times(spans)
    cli = wl.cli
    values: dict[str, float] = dict(wl.counts(by_key))
    values.update({
        "witness.verify_share": verify_share(ops) if ns.workload == "witness-battery" else 0.0,
        "cli.process_ms": median(cli.process_s) * 1000 if cli else 0.0,
        "cli.import_ms": median(cli.import_s) * 1000 if cli else 0.0,
        "cli.main_ms": median(cli.main_s) * 1000 if cli else 0.0,
        "cli.interp_ms": interp_ms(),
        "tracing.overhead_pct": 100 * (1 - traced.ops_per_s / plain.ops_per_s),
    })
    for metric in names:
        base, _, kind = metric.rpartition(".")
        if kind == "busy_ms":
            values[metric] = busy.get(base, 0.0) * 1000
        elif kind == "slope":
            ladder = ladder_medians(spans, ops, base)
            values[metric] = loglog_slope(list(ladder.items()))
            if ladder:
                steps = ", ".join(f"{s}: {t * 1000:.3f}" for s, t in ladder.items())
                print(f"ladder {base} (size: median ms) {steps}; slope {values[metric]:.3f}")
        elif kind == "self_ms":
            values[metric] = 1000 * sum(t for name, t in selfs.items()
                                        if ("bench" if name == "op" else name.split(".")[0]) == base)
        else:
            values.setdefault(metric, 0)  # a count this workload does not make
    return values


def verify_share(ops) -> float:
    """Time of equivalent(lhs, rhs) on each report over the time of the
    builder call that returned it, summed over one pass of the builders."""
    from quemon.queue import equivalent

    t_build = t_verify = 0.0
    for op in ops:
        if op.name.startswith("witness."):
            t0 = perf_counter()
            report = op.fn(*op.args)
            t1 = perf_counter()
            equivalent(report.lhs, report.rhs)
            t2 = perf_counter()
            t_build += t1 - t0
            t_verify += t2 - t1
    return t_verify / t_build


def write_trace(ns, tracer, ops, dig: str) -> None:
    out = ROOT / ".perfbench_work" / f"trace-{ns.workload}-{ns.seed}.json"
    spans = [
        {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
         "op": None if op is None else ops[op].key}
        for sid, name, start, end, parent, op in tracer.spans
    ]
    out.write_text(json.dumps({"workload": ns.workload, "seed": ns.seed, "digest": dig, "spans": spans}))
    print(f"trace written to {out.relative_to(ROOT)} ({len(spans)} spans)")


if __name__ == "__main__":
    sys.exit(main())
