"""Benchmark runner for fedrosvm.

    python3 perfbench/run.py --workload admm-rounds --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory. One run is one workload in a fresh process: set up the
inputs from the seed, then run ops in a closed loop (one caller; the next
op starts when the previous one returns) for `--seconds`, at least two
ops and at least 100 pooled server rounds. Every op is checked (see
`check_op` and `Run.reference_checks`); a failure is printed with its
cause and makes the exit code 1.

With `--trace 0` the last stdout line holds the end-to-end metrics, all
measured without tracing. With `--trace 1` untraced and traced ops
alternate, and the last line holds the per-layer metrics of the traced
ops (see tracing.py). Earlier lines print the environment and every metric
by name and unit. The same document, and in a traced run the spans, are
written under perfbench/out/.

The gated times are CPU seconds (user + system, all threads, plus waited-for
children). On a shared 2-CPU virtual machine the hypervisor steals 15-30%
of the time the guest wants to run, and that share drifts over minutes, so
wall times move by more than the bounds between runs of the same code.
Wall times are printed and stored next to them.
"""

import time

_STARTED = time.perf_counter()  # set-up counts from here: imports included

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 2  # set-ups repeated in child processes; setup_s is the median
MIN_OPS = 2
MIN_ROUNDS = 100  # ten rounds beyond the 90th percentile
MIN_TRACED_OPS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cpu_seconds():
    """User + system CPU of this process (all threads) and of the child
    processes it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def host_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def probe_setup(workload, seed):
    """Set up once more in a fresh process; returns its (cpu, wall) set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["cpu_s"], doc["wall_s"]


# ---------------------------------------------------------------- checking


def check_op(i, result, first):
    """Problems with one op's outputs: non-finite values, or a model or
    score that is not bitwise the run's first."""
    problems = []
    for name, w in result.models.items():
        if not all(math.isfinite(v) for v in w):
            problems.append(f"op {i}: model {name} is not finite: {w!r}")
    for name in ("test_f1", "objective"):
        value = getattr(result, name)
        if not math.isfinite(value):
            problems.append(f"op {i}: {name} is not finite: {value!r}")
    if not result.round_s or not all(math.isfinite(s) and s > 0 for s in result.round_s):
        problems.append(f"op {i}: round times missing or not finite")
    if first is not None:
        for name, w in result.models.items():
            if w.tobytes() != first.models[name].tobytes():
                problems.append(f"op {i}: model {name} {w!r} differs from op 0's "
                                f"{first.models[name]!r}")
        for name in ("test_f1", "objective"):
            a, b = getattr(result, name), getattr(first, name)
            if a != b:
                problems.append(f"op {i}: {name} {a!r} differs from op 0's {b!r}")
    return problems


class Run:
    """Closed-loop ops with checking. An op that raises or fails a check
    counts as failed, and its times and rounds are left out."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failures = []
        self.first = None
        self.results = []
        self.op_times = []  # (traced, wall s, cpu s) of good ops
        self.round_s = []
        self.optimum = None
        self.steal = host_ticks()
        self.rss_mb = []  # peak RSS after each good op

    def op(self, traced=False, before=None, after=None):
        i = self.attempted
        self.attempted += 1
        try:
            if before is not None:
                before(i)
            try:
                wall, cpu = time.perf_counter(), cpu_seconds()
                raw = self.workload.op(self.inputs)
                wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
            finally:
                if after is not None:
                    after(i)
            result = self.workload.score(self.inputs, raw)
        except Exception as exc:
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return None
        problems = check_op(i, result, self.first)
        if problems:
            self.failures += problems
            return None
        if self.first is None:
            self.first = result
        self.results.append(result)
        self.op_times.append((traced, wall, cpu))
        self.round_s += result.round_s
        self.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return result

    def enough(self, deadline):
        if time.perf_counter() < deadline:
            return False
        good = len(self.results)
        # a run whose ops keep failing stops once its time is up
        return (good >= MIN_OPS and len(self.round_s) >= MIN_ROUNDS) or self.failed >= MIN_OPS

    def reference_checks(self):
        """Once-per-run checks outside the timing: the workload's own (the
        TCP model against an in-process run), and the exact minimum of the
        objective the model is scored on."""
        if self.first is None:
            return
        try:
            problems = self.workload.reference_check(self.inputs, self.first)
            self.optimum = workloads.objective_minimum(
                *self.workload.objective_problem(self.inputs))
        except Exception as exc:
            problems = [f"reference run: {type(exc).__name__}: {exc}"]
        if problems:
            # every op repeated the first op's model, so all of them are wrong
            self.failures += problems
            self.results = []

    @property
    def failed(self):
        return self.attempted - len(self.results)

    def steal_pct(self):
        now = host_ticks()
        if self.steal is None or now is None or now[1] == self.steal[1]:
            return None
        return 100.0 * (now[0] - self.steal[0]) / (now[1] - self.steal[1])


def end_to_end(run, setups):
    """Gated metrics, and the printed-only details."""
    walls = [w for traced, w, _ in run.op_times if not traced]
    cpus = [c for traced, _, c in run.op_times if not traced]
    first = run.first
    metrics = {
        "setup_s": metric(statistics.median(c for c, _ in setups), "s"),
        "train_cpu_s": metric(statistics.median(cpus), "s"),
        "test_f1": metric(first.test_f1, "1"),
        "objective_ratio": metric(first.objective / run.optimum, "1"),
    }
    round_p90 = 1e3 * p90(run.round_s)
    details = {
        # read after a fixed number of ops: runs complete different numbers
        # of ops, and memory that grows per op would otherwise track speed
        "peak_rss_mb": metric(run.rss_mb[:MIN_OPS][-1], "MiB"),
        "train_s": metric(statistics.median(walls), "s"),
        "round_ms_p50": metric(1e3 * statistics.median(run.round_s), "ms"),
        "round_ms_p90": metric(round_p90, "ms"),
        "objective": metric(first.objective, "1"),
        "objective_min": metric(run.optimum, "1"),
        "ops_failed": metric(run.failed / run.attempted, "share"),
        "setup_wall_s": metric(statistics.median(w for _, w in setups), "s"),
        "rss_growth_mb_per_op": metric(
            (run.rss_mb[-1] - run.rss_mb[0]) / max(1, len(run.rss_mb) - 1), "MiB"),
        "ops": len(walls),
        "rounds": len(run.round_s),
        "rounds_beyond_p90": sum(1e3 * s > round_p90 for s in run.round_s),
        "setup_samples": setups,
    }
    if first.fedavg_f1 is not None:
        details["fedavg_f1"] = metric(first.fedavg_f1, "1")
    return metrics, details


def traced_loop(run, seed, seconds):
    """Alternate untraced and traced ops; returns the tracer and the
    per-layer metrics (medians over the traced ops)."""
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    per_op = []

    def start(i):
        tracer.op = i
        tracer.install()

    def stop(i):
        tracer.uninstall()
        problems = tracer.validate_distributions()
        if problems:
            raise RuntimeError("; ".join(problems))

    # the federation workloads set up outside the op: trace one more set-up
    tracer.op = "setup"
    tracer.wrap(workloads, "prepare_shards", "data.prepare")
    run.workload.prepare(seed)
    tracer.uninstall()

    while True:
        run.op()
        if run.op(traced=True, before=start, after=stop) is not None:
            per_op.append(tracing.op_metrics(tracer, run.attempted - 1))
        done = time.perf_counter() >= deadline
        if done and (len(per_op) >= MIN_TRACED_OPS or run.failed >= MIN_OPS):
            break

    if not per_op:
        return tracer, {}
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    for name in tracing.EXACT_COUNTS:
        values = [m[name] for m in per_op]
        if len(set(values)) != 1:
            run.failures.append(f"exact count {name} differs between traced ops: {values}")
    prepare = [1e3 * (s[tracing.END] - s[tracing.START])
               for s in tracer.spans if s[tracing.NAME] == "data.prepare"]
    metrics["data.prepare_ms"] = statistics.median(prepare)
    untraced = [c for traced, _, c in run.op_times if not traced]
    traced = [c for traced, _, c in run.op_times if traced]
    metrics["tracing.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        if traced and untraced else 0.0
    )
    return tracer, metrics


def compare_previous(path, env, metrics, run):
    """Check the exact counts against the previous traced run of the same
    workload, seed and sources, if its result is still in perfbench/out.
    Returns whether there was one to compare with."""
    try:
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        return False
    if previous["env"].get("source_sha256") != env["source_sha256"] or not previous["correct"]:
        return False
    for name in tracing.EXACT_COUNTS:
        before = previous["metrics"][name]["value"]
        if before != metrics.get(name):
            run.failures.append(f"exact count {name} is {metrics.get(name)} here and "
                                f"{before} in the previous traced run")
    return True


def write_out(name, doc, tracer=None):
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    if tracer is not None:
        with open(OUT / f"{name}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fedrosvm" / "__init__.py").is_file():
        print(f"perfbench: no fedrosvm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    global tracing, workloads
    import fedrosvm
    import tracing
    import workloads

    if Path(fedrosvm.__file__).resolve().parent != (SRC / "fedrosvm").resolve():
        print(f"perfbench: imported fedrosvm from {fedrosvm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    setup = (cpu_seconds(), time.perf_counter() - _STARTED)
    if args.setup_probe:
        print(json.dumps({"cpu_s": setup[0], "wall_s": setup[1]}))
        return 0

    import envinfo

    env = envinfo.collect(ROOT, args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    run = Run(workload, inputs)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer, metrics = traced_loop(run, args.seed, args.seconds)
        run.reference_checks()
        out = {k: metric(v, tracing.PER_LAYER[k]) for k, v in sorted(metrics.items())}
        details = {"ops": run.attempted, "exact_counts_match_previous_run": compare_previous(
            OUT / f"{label}.json", env, metrics, run)}
    else:
        tracer = None
        setups = [setup] + [probe_setup(args.workload, args.seed)
                            for _ in range(SETUP_PROBES)]
        deadline = time.perf_counter() + args.seconds
        while not run.enough(deadline):
            run.op()
        run.reference_checks()
        out, details = ({}, {}) if not run.results else end_to_end(run, setups)
    details["host_steal_pct"] = metric(run.steal_pct(), "%")

    for failure in run.failures:
        print(f"FAILED {failure}", flush=True)
    printed = {**out, **{k: v for k, v in details.items() if isinstance(v, dict)}}
    for name, m in sorted(printed.items()):
        if m["value"] is not None:
            print(f"{args.workload:12s} {name:34s} {m['value']:.6g} {m['unit']}")
    correct = not run.failures and bool(run.results)
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": out}
    write_out(label, {"env": env, "details": details, **result}, tracer)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
