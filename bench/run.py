"""Benchmark of the shoelace package on four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The run
generates its inputs from the seed, runs one round of checked ops, one op
per input, to fill the package's caches, then times further rounds until S
seconds have passed.  It prints a readable table, a JSON report line, and
last a JSON result line {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, from a traced phase that follows
an untraced one, each timing S/2 seconds (their ratio is the tracing
overhead).

Timings and set-up times are reported at the nominal host speed of host.py:
each wall time is rescaled by a fixed reference kernel timed around it.  The
report line holds the wall-clock figures as well.

Everything runs in one process and one thread, except the cli workload's
subcommands and the set-up samples, which are child processes started one
at a time.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import host
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("exactlin", "proset", "rep", "interleave", "zed", "docio", "render", "cli")
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Spec:
    gen: Callable
    count: int         # inputs generated; a round runs the op on each once
    tail: float        # percentile reported as op_tail_ms


# Each count is a whole number of periods of its generator's size schedule,
# and a round takes a few seconds, so that every run times the same mix of
# sizes in whole rounds.  Each tail is the highest whole percentile with at
# least ten of the round's ops beyond it, except for intervals: above p85 its
# inputs' times thin into a long tail, and across ten seeds alone p90 and p95
# spread 0.08 and 0.16 of their medians, against 0.06 at p85.
SPECS = {
    "modules": Spec(wl.gen_modules, 36, 70),
    "intervals": Spec(wl.gen_intervals, 240, 85),
    "matchings": Spec(wl.gen_matchings, 120, 90),
    "cli": Spec(wl.gen_cli, 6, 70),
}


# set-up


def import_package() -> SimpleNamespace:
    """Import shoelace from ./src, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    sh = SimpleNamespace(**{m: importlib.import_module(f"shoelace.{m}") for m in MODULES})
    where = Path(sh.zed.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"shoelace was imported from {where}, not from {SRC}")
    return sh


def setup(workload: str, seed: int):
    """Import, generate the inputs, and for cli compile the package: what a
    run pays before its first op.  Returns (seconds, package, inputs)."""
    t0 = time.perf_counter()
    sh = import_package()
    spec = SPECS[workload]
    items = spec.gen(random.Random(f"{workload}:{seed}"), spec.count, sh)
    if workload == "cli":
        compileall.compile_dir(str(SRC / "shoelace"), force=True, quiet=1)
        items = [(item, step) for item in items for step in wl.CLI_STEPS]
    return time.perf_counter() - t0, sh, items


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh process: (wall seconds, host kernel seconds)."""
    before = host.kernel_s()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1]), statistics.median([before, host.kernel_s()])


# timed phases


def tmp_dir() -> str:
    d = ROOT / ".bench_tmp" / str(os.getpid())
    d.mkdir(parents=True, exist_ok=True)
    return str(d)


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli_in_process(sh) -> Callable[[list], int]:
    def call(argv):
        try:
            return sh.cli.main(argv)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 2
    return call


def cli_subprocess(argv) -> int:
    return subprocess.run([sys.executable, "-m", "shoelace.cli", *argv], env=cli_env(),
                          cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def make_op(workload: str, call: Optional[Callable] = None):
    """The op function and its untimed preparation for a workload."""
    if workload != "cli":
        return getattr(wl, f"op_{workload}"), None
    d = tmp_dir()

    def prepare(entry):
        item, step = entry
        if step == wl.CLI_STEPS[0]:
            wl.write_inputs(item, d)

    def op(_sh, entry):
        item, step = entry
        code = call(wl.cli_argv(step, item, d))
        if code != 0:
            op.nonzero += 1
        return wl.check_cli_step(step, code, item, d)

    op.nonzero = 0
    return op, prepare


@dataclass
class Phase:
    walls: list        # wall seconds per timed op
    scaled: list       # the same, rescaled to the nominal host speed
    elapsed: float     # of the timed rounds
    failed: int
    digest: str
    rss_mib: float
    rounds: int        # timed
    attempted: int     # ops of all rounds, every one checked
    busy_s: float      # wall seconds of the ops of all rounds
    fm_self: Optional[list] = None


def run_phase(sh, items, seconds: float, op, prepare,
              tracer: Optional[spans.Tracer] = None,
              usage: int = resource.RUSAGE_SELF) -> Phase:
    """Run rounds of ops over items: one that fills the package's caches,
    then timed ones until the given seconds have passed, timing the host
    kernel between ops.  The digest and peak RSS cover the first round, so
    that they do not depend on how many rounds the host's speed allowed."""
    walls, mids, fm_self = [], [], []
    refs = [host.time_kernel()]
    failed = 0
    digest = hashlib.sha256()
    clock = time.perf_counter
    n, deadline = 0, math.inf
    while n % len(items) or clock() < deadline:
        if n == len(items):
            start = clock()
            deadline = start + seconds
        if clock() - refs[-1][0] >= host.REF_EVERY_S:
            refs.append(host.time_kernel())
        item = items[n % len(items)]
        if prepare is not None:
            prepare(item)
        if tracer is not None:
            fm0 = tracer.self_s.get("zed.find_matching", 0.0)
        t0 = clock()
        try:
            errors, out = op(sh, item)
        except Exception:
            errors, out = [traceback.format_exc()], b"raised;"
        t1 = clock()
        walls.append(t1 - t0)
        mids.append((t0 + t1) / 2)
        if tracer is not None:
            fm_self.append(tracer.self_s.get("zed.find_matching", 0.0) - fm0)
        if n < len(items):
            digest.update(out)
            rss_mib = resource.getrusage(usage).ru_maxrss / 1024
        if errors:
            if not failed:
                print(f"op {n} failed: {errors[0]}", file=sys.stderr)
            failed += 1
        n += 1
    elapsed = clock() - start
    refs.append(host.time_kernel())
    timed = slice(len(items), None)
    return Phase(walls[timed], host.rescale(walls[timed], mids[timed], refs), elapsed,
                 failed, digest.hexdigest(), rss_mib, n // len(items) - 1,
                 n, sum(walls), fm_self=fm_self[timed] if tracer else None)


# statistics


def nearest_rank(values: list, q: float) -> tuple[float, int]:
    """The q-th percentile by nearest rank, and the samples beyond it."""
    v = sorted(values)
    idx = max(math.ceil(q / 100 * len(v)) - 1, 0)
    return v[idx], len(v) - 1 - idx


# environment


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(1 for path in sorted((SRC / "shoelace").glob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def environment() -> dict:
    return {"python": platform.python_version(), "platform": platform.platform(),
            "commit": commit(), "nproc": os.cpu_count()}


# the run


def typical_times(times: list, rounds: int) -> list:
    """Each input's median time over the timed rounds, which drops one-off
    stalls of the host."""
    per_round = len(times) // rounds
    return [statistics.median(times[k::per_round]) for k in range(per_round)]


def timing(times: list, rounds: int, q: float) -> dict:
    typical = typical_times(times, rounds)
    return {"ops_per_s": len(typical) / sum(typical),
            "op_p50_ms": statistics.median(typical) * 1000,
            "op_tail_ms": nearest_rank(typical, q)[0] * 1000}


def untraced_metrics(spec, phase) -> tuple[dict, dict]:
    """The timings at the nominal host speed; the wall-clock ones, and the
    wall-clock ops per second over the whole phase, go to the report."""
    metrics = {**timing(phase.scaled, phase.rounds, spec.tail),
               "peak_rss_mib": phase.rss_mib}
    _, beyond = nearest_rank(typical_times(phase.walls, phase.rounds), spec.tail)
    extra = {"tail_percentile": spec.tail, "tail_inputs_beyond": beyond,
             "timed_ops": len(phase.walls),
             "wall": {**timing(phase.walls, phase.rounds, spec.tail),
                      "ops_per_elapsed_s": len(phase.walls) / phase.elapsed},
             "host_scale": statistics.median(s / w for s, w in zip(phase.scaled, phase.walls))}
    return metrics, extra


def traced_metrics(workload, sh, spec, items, seconds, base: Phase):
    """Per-layer metrics from a traced phase that starts, like the untraced
    one, with the package's caches empty."""
    for fn in (sh.zed.interval_to_module, sh.zed.shoelace_window,
               sh.zed.window_chain, sh.zed.lambda_eps):
        fn.cache_clear()
    tracer = spans.Tracer()
    op, prepare = make_op(workload, cli_in_process(sh))
    tracer.install()
    try:
        phase = run_phase(sh, items, seconds, op, prepare, tracer)
    finally:
        tracer.uninstall()
    metrics = {}
    totals = tracer.totals()
    for name, _module, _attr in spans.SPANS:
        names = [f"cli.main.{s}" for s in wl.CLI_STEPS] if name == "cli.main" else [name]
        for span in names:
            calls, total, own = totals.get(span, (0, 0.0, 0.0))
            metrics[f"{span}.calls"] = calls
            metrics[f"{span}.total_s"] = total
            metrics[f"{span}.self_s"] = own
    counts = tracer.counts
    for key in spans.COUNTS:
        metrics[key] = counts.get(key, 0)
    metrics.update(tracer.cache_ratios())
    fm_calls = totals.get("zed.find_matching", (0,))[0]
    metrics["zed.find_matching.found_ratio"] = (
        counts.get("zed.find_matching.found", 0) / fm_calls if fm_calls else 0.0)
    tail, _ = nearest_rank(phase.walls, spec.tail)
    slow = [(w, f) for w, f in zip(phase.walls, phase.fm_self) if w >= tail]
    metrics["zed.find_matching.tail_share"] = (
        sum(f for _, f in slow) / sum(w for w, _ in slow))
    metrics["trace.uncovered_share"] = 1 - tracer.top_s / phase.busy_s
    metrics["trace.overhead_ratio"] = sum(base.scaled) / len(base.walls) / (
        sum(phase.scaled) / len(phase.walls))
    metrics["cli.exit_nonzero"] = getattr(op, "nonzero", 0)
    metrics["cli.import_s"] = metrics["cli.process_s"] = 0.0
    phases = [phase]
    if workload == "cli":
        # the traced phase calls cli.main in-process; time real processes too
        metrics["cli.import_s"] = cli_import_s()
        op, prepare = make_op("cli", cli_subprocess)
        processes = run_phase(sh, items[:len(wl.CLI_STEPS)], 0, op, prepare)
        metrics["cli.process_s"] = statistics.median(processes.walls)
        metrics["cli.exit_nonzero"] += op.nonzero
        phases.append(processes)
    return metrics, {"spans_by_parent": tracer.by_parent()}, phases


def cli_import_s() -> float:
    """Median time to import shoelace.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import shoelace.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=cli_env(), cwd=ROOT,
                             stdin=subprocess.DEVNULL, capture_output=True, text=True,
                             check=True).stdout)
        for _ in range(SETUP_SAMPLES))


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_metrics(declared: list, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up, printing the seconds")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed)[0])
            return 0
        bench = benchmark_spec()
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        drift_before = host.spin_ms()
        kernel_before = host.kernel_s()
        setup_s, sh, items = setup(args.workload, args.seed)
        setup_kernel_s = statistics.median([kernel_before, host.kernel_s()])
        # the generated inputs are the benchmark's, not the program's: keep
        # them out of the collections the program's allocations trigger
        gc.collect()
        gc.freeze()
    except (ImportError, OSError, ValueError) as e:
        print(f"error: cannot set up the benchmark: {e}", file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    try:
        call = cli_in_process(sh) if args.trace else cli_subprocess
        op, prepare = make_op(args.workload, call)
        usage = (resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace
                 else resource.RUSAGE_SELF)
        phase_s = seconds / 2 if args.trace else seconds
        base = run_phase(sh, items, phase_s, op, prepare, usage=usage)
        values, extra = untraced_metrics(spec, base)
        phases = [base]
        if args.trace:
            layer, traced_extra, more = traced_metrics(
                args.workload, sh, spec, items, phase_s, base)
            phases += more
        setups = [(setup_s, setup_kernel_s)] + [setup_sample(args.workload, args.seed)
                                                for _ in range(SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(ROOT / ".bench_tmp" / str(os.getpid()), ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_tmp").rmdir()
    values["setup_s"] = statistics.median(s * host.REF_S / k for s, k in setups)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    same = not args.trace or phases[1].digest == base.digest
    correct = failed == 0 and same
    if not same:
        print("error: traced and untraced runs produced different outputs", file=sys.stderr)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "digest": base.digest, "round_ops": len(items),
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "rounds": base.rounds, "setup_samples": [s for s, _ in setups],
        "drift_spin_ms": {"before": drift_before, "after": host.spin_ms()},
        "src_lines": src_lines(), "environment": environment(), **extra,
    }
    if args.trace:
        declared, metrics = bench["per_layer"], layer
        report.update(traced_extra, untraced_ops_per_s=values["ops_per_s"])
    else:
        declared, metrics = bench["end_to_end"], values
    metrics = result_metrics(declared, metrics)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_ratio':48s} {failed / attempted:>16.6g} ratio")
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
