"""Outside-in tracing for the traced benchmark run.

The tracer rebinds the library's public functions where they are looked
up (a module attribute, or a transport method on its class), so spans are
recorded from the benchmark's files without touching the library. Every
span records name, start, end, parent span, op id, federation id, round
`t` and client `g`. Spans stay in memory until the run ends.

Round `t` on the server thread comes from the `RoundStart` it broadcasts;
on a client thread from the `RoundStart` it receives. The client id comes
from the `run_client` call the thread runs, and a client step is the time
from receiving `RoundStart` to sending the result.
"""

import functools
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict

from fedrosvm import baselines, experiments, federation, robust, wire
from fedrosvm.solver import SolverStatus

# span fields, in record order
NAME, START, END, PARENT, OP, FED, T, G, ID, ATTRS = range(10)

LAYERS = ("data", "core", "solver", "robust", "federation", "wire",
          "baselines", "experiments")

# per-layer metrics of the traced run, name -> unit; BENCHMARK.json lists the
# same names
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "data.prepare_ms": "ms",
    "core.evaluate_ms": "ms",
    "solver.calls": "count",
    "solver.iterations": "count",
    "solver.solve_ms_p50": "ms",
    "solver.solve_ms_p90": "ms",
    "solver.iterations_mean": "count",
    "solver.ms_per_iteration": "ms",
    "solver.kkt_residual_max": "1",
    "solver.non_optimal": "count",
    "robust.sm_lp_build_ms": "ms",
    "robust.sm_lp_nnz": "count",
    "robust.extract_ms": "ms",
    "robust.subgradient_ms": "ms",
    "robust.admm_step_ms_p50": "ms",
    "robust.admm_cold_retries": "count",
    "robust.dual_risk_ms": "ms",
    "robust.dual_risk_calls": "count",
    "federation.client_step_ms_p50": "ms",
    "federation.client_step_ms_p90": "ms",
    "federation.barrier_wait_ms": "ms",
    "federation.handoff_ms": "ms",
    "federation.client_overlap": "1",
    "federation.objective_ms": "ms",
    "federation.aggregate_ms": "ms",
    "federation.messages_per_round": "count",
    "accounting.round_ms_p50": "ms",
    "accounting.slowest_step_ms": "ms",
    "accounting.unaccounted_ms": "ms",
    "accounting.covered_pct": "%",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "wire.bytes_per_round": "B",
    "wire.frames_per_round": "count",
    "baselines.fed_train_ms": "ms",
    "baselines.fed_calls": "count",
    "baselines.minibatch_steps": "count",
    "baselines.step_us": "us",
    "experiments.cv_s": "s",
    "experiments.final_fit_s": "s",
    "experiments.federations": "count",
    "tracing.overhead_pct": "%",
}

# the exact counts: these must repeat between traced ops, and between traced
# runs of the same code
EXACT_COUNTS = (
    "solver.calls", "solver.iterations", "robust.admm_cold_retries",
    "robust.sm_lp_nnz", "baselines.minibatch_steps", "wire.bytes_per_round",
    "wire.frames_per_round", "federation.messages_per_round",
    "experiments.federations",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()  # (op, name) -> count, for events too frequent to span
        self._count_lock = threading.Lock()
        self.distributions = []  # (op, dist, data, cfg) for every extracted SM distribution
        self.op = None
        self.fed = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    # ------------------------------------------------------------ recording

    def _ctx(self):
        ctx = self._local
        if not hasattr(ctx, "stack"):
            ctx.stack, ctx.t, ctx.g = [], None, None
        return ctx

    def open(self, name):
        ctx = self._ctx()
        span = [name, time.perf_counter(), None, ctx.stack[-1][ID] if ctx.stack else None,
                self.op, self.fed, ctx.t, ctx.g, next(self._ids), None]
        ctx.stack.append(span)
        return span

    def tally(self, name):
        with self._count_lock:
            self.counts[(self.op, name)] += 1

    def close(self, span, attrs=None):
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        stack = self._ctx().stack
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, owner, attr, name, before=None, after=None):
        """Rebind owner.attr to a spanned call. `before(args)` runs first in
        the caller's context; `after(args, result)` returns span attributes."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = self.open(name)
            try:
                result = inner(*args, **kwargs)
            except BaseException as exc:
                self.close(span, {"error": type(exc).__name__})
                raise
            self.close(span, after(args, result) if after is not None else None)
            return result

        self._rebind(owner, attr, traced)

    def count(self, owner, attr, name):
        """Rebind owner.attr to a call that is only counted, for functions
        called so often that a span would distort what it measures."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            self.tally(name)
            return inner(*args, **kwargs)

        self._rebind(owner, attr, counted)

    def _rebind(self, owner, attr, fn):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # --------------------------------------------------------- installation

    def install(self):
        f = federation

        def solve_attrs(args, sol):
            return {"iterations": sol.iterations, "kkt": sol.kkt_residual,
                    "optimal": sol.status is SolverStatus.OPTIMAL}

        def lp_attrs(args, prog):
            return {"nnz": prog.A_ineq.nnz + prog.A_eq.nnz}

        def keep_distribution(args, dist):
            self.distributions.append((self.op, dist, args[1], args[2]))
            return None

        def frame_attrs(args, payload):
            return {"bytes": len(payload) + 4,
                    "shutdown": isinstance(args[0], wire.Shutdown)}

        def set_round(args):
            if isinstance(args[1], wire.RoundStart):
                self._ctx().t = args[1].t

        def enter_federation(args):
            self.fed = next(self._ids)
            self._ctx().t = None

        def federation_attrs(args, result):
            return {"rounds": {tr.t: tr.wall_time for tr in result.traces}}

        # data
        self.wrap(experiments, "prepare_repetition", "data.prepare")
        # core; the federation workloads score outside the op
        self.wrap(experiments, "evaluate", "core.evaluate")
        # solver, at each module that looks it up
        self.wrap(f, "solve", "solver.solve", after=solve_attrs)
        self.wrap(robust, "solve", "solver.solve", after=solve_attrs)
        # robust
        self.wrap(f, "build_sm_lp", "robust.build_sm_lp", after=lp_attrs)
        self.wrap(f, "extract_worst_case", "robust.extract_worst_case",
                  after=keep_distribution)
        self.wrap(f, "sm_subgradient", "robust.sm_subgradient")
        self.wrap(f, "admm_client_step", "robust.admm_client_step")
        self.wrap(f, "admm_multiplier_update", "robust.admm_multiplier_update")
        self.wrap(f, "worst_case_risk_dual", "robust.worst_case_risk_dual")
        # federation
        self.wrap(f, "run_federation", "federation.run_federation",
                  before=enter_federation, after=federation_attrs)
        self.wrap(experiments, "run_federation", "federation.run_federation",
                  before=enter_federation, after=federation_attrs)
        for cls in (f.InProcessTransport, f.TcpServerTransport):
            self.wrap(cls, "broadcast", "federation.broadcast", before=set_round)
            self.wrap(cls, "collect", "federation.collect")
        self.wrap(f, "global_objective", "federation.global_objective")
        self.wrap(f, "sm_server_update", "federation.aggregate")
        self.wrap(f, "admm_server_update", "federation.aggregate")
        self._wrap_run_client()
        # wire
        self.wrap(wire, "encode_message", "wire.encode", after=frame_attrs)
        self.wrap(wire, "decode_message", "wire.decode")
        # baselines
        self.wrap(experiments, "train_fed_l2_svm", "baselines.train_fed_l2_svm")
        self.count(baselines, "l2_hinge_subgradient", "baselines.minibatch_steps")
        # experiments
        self.wrap(experiments, "cross_validate", "experiments.cross_validate")
        self.wrap(experiments, "train_model", "experiments.train_model")

    def _wrap_run_client(self):
        inner = federation.run_client
        tracer = self

        class Channel:
            """Client endpoint proxy: marks round and client step on the
            client's own thread and counts the messages it moves."""

            def __init__(self, channel):
                self._channel = channel
                self._step = None

            def recv(self):
                msg = self._channel.recv()
                if not isinstance(msg, wire.Shutdown):
                    tracer.tally("federation.messages")
                if isinstance(msg, wire.RoundStart):
                    tracer._ctx().t = msg.t
                    self._step = tracer.open("federation.client_step")
                return msg

            def send(self, msg):
                if self._step is not None:
                    tracer.close(self._step)
                    self._step = None
                tracer.tally("federation.messages")
                self._channel.send(msg)

            def close(self):
                self._channel.close()

        @functools.wraps(inner)
        def traced_run_client(channel, g, *args, **kwargs):
            ctx = tracer._ctx()
            ctx.g, ctx.t = g, None
            return inner(Channel(channel), g, *args, **kwargs)

        self._rebind(federation, "run_client", traced_run_client)

    # ------------------------------------------------------------- analysis

    def validate_distributions(self):
        """Problems of every extracted SM distribution, by op."""
        problems = []
        for op, dist, shard, cfg in self.distributions:
            problems += [f"op {op}: worst-case distribution: {p}"
                         for p in dist.validate(shard, cfg)]
        self.distributions = []
        return problems


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def self_times(spans):
    """Per-span self time: duration minus the union its children cover.
    Children run on their parent's thread, so they never overlap."""
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    return {s[ID]: (s[END] - s[START]) - child_time[s[ID]] for s in spans}


def op_metrics(tracer, op):
    """Per-layer metrics of one traced op."""
    spans = [s for s in tracer.spans if s[OP] == op]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def ms(name):
        return [1e3 * (s[END] - s[START]) for s in by_name[name]]

    m = {}
    own = self_times(spans)
    for layer in LAYERS:
        # busy time only: the server's wait at the barrier is barrier_wait_ms
        m[f"{layer}.self_ms"] = 1e3 * sum(
            own[s[ID]] for s in spans
            if s[NAME].split(".")[0] == layer and s[NAME] != "federation.collect"
        )

    fed_spans = by_name["federation.run_federation"]
    rounds = {(s[FED], t): wall for s in fed_spans for t, wall in s[ATTRS]["rounds"].items()}
    n_rounds = len(rounds)

    m["data.prepare_ms"] = _median(ms("data.prepare"))
    m["core.evaluate_ms"] = _median(ms("core.evaluate"))

    solves = by_name["solver.solve"]
    solve_ms = ms("solver.solve")
    iterations = sum(s[ATTRS]["iterations"] for s in solves)
    m["solver.calls"] = len(solves)
    m["solver.iterations"] = iterations
    m["solver.solve_ms_p50"] = _median(solve_ms)
    m["solver.solve_ms_p90"] = _p90(solve_ms)
    m["solver.iterations_mean"] = iterations / len(solves) if solves else 0.0
    m["solver.ms_per_iteration"] = sum(solve_ms) / iterations if iterations else 0.0
    m["solver.kkt_residual_max"] = max((s[ATTRS]["kkt"] for s in solves), default=0.0)
    m["solver.non_optimal"] = sum(not s[ATTRS]["optimal"] for s in solves)

    m["robust.sm_lp_build_ms"] = _median(ms("robust.build_sm_lp"))
    m["robust.sm_lp_nnz"] = sum(s[ATTRS]["nnz"] for s in by_name["robust.build_sm_lp"])
    m["robust.extract_ms"] = _median(ms("robust.extract_worst_case"))
    m["robust.subgradient_ms"] = _median(ms("robust.sm_subgradient"))
    m["robust.admm_step_ms_p50"] = _median(ms("robust.admm_client_step"))
    solves_under = Counter(s[PARENT] for s in solves)
    m["robust.admm_cold_retries"] = sum(
        solves_under[s[ID]] > 1 for s in by_name["robust.admm_client_step"]
    )
    m["robust.dual_risk_ms"] = _median(ms("robust.worst_case_risk_dual"))
    m["robust.dual_risk_calls"] = len(by_name["robust.worst_case_risk_dual"])

    # federation: per (federation, round) pieces of the server's round
    def per_round(name):
        out = defaultdict(float)
        for s in by_name[name]:
            out[(s[FED], s[T])] += 1e3 * (s[END] - s[START])
        return out

    steps = by_name["federation.client_step"]
    slowest = defaultdict(float)
    for s in steps:
        key = (s[FED], s[T])
        slowest[key] = max(slowest[key], 1e3 * (s[END] - s[START]))
    barrier = per_round("federation.collect")
    objective = per_round("federation.global_objective")
    aggregate = per_round("federation.aggregate")
    step_ms = ms("federation.client_step")
    keys = sorted(k for k in rounds if k in barrier)
    handoff = [barrier[k] - slowest[k] for k in keys]
    m["federation.client_step_ms_p50"] = _median(step_ms)
    m["federation.client_step_ms_p90"] = _p90(step_ms)
    m["federation.barrier_wait_ms"] = _median([barrier[k] for k in keys])
    m["federation.handoff_ms"] = _median(handoff)
    total_barrier = sum(barrier[k] for k in keys)
    m["federation.client_overlap"] = sum(step_ms) / total_barrier if total_barrier else 0.0
    m["federation.objective_ms"] = _median([objective[k] for k in keys])
    m["federation.aggregate_ms"] = _median([aggregate[k] for k in keys])
    m["federation.messages_per_round"] = (
        tracer.counts[(op, "federation.messages")] / n_rounds if n_rounds else 0.0
    )

    # accounting: how much of the server's round the parts cover
    round_ms = [1e3 * rounds[k] for k in keys]
    # slowest step + handoff is the barrier wait by definition of handoff
    covered = [barrier[k] + objective[k] + aggregate[k] for k in keys]
    m["accounting.round_ms_p50"] = _median(round_ms)
    m["accounting.slowest_step_ms"] = _median([slowest[k] for k in keys])
    m["accounting.unaccounted_ms"] = _median([r - c for r, c in zip(round_ms, covered)])
    m["accounting.covered_pct"] = (
        100.0 * sum(covered) / sum(round_ms) if round_ms else 0.0
    )

    frames = [s for s in by_name["wire.encode"] if not s[ATTRS]["shutdown"]]
    m["wire.encode_us"] = 1e3 * _median(ms("wire.encode"))
    m["wire.decode_us"] = 1e3 * _median(ms("wire.decode"))
    m["wire.bytes_per_round"] = (
        sum(s[ATTRS]["bytes"] for s in frames) / n_rounds if n_rounds else 0.0
    )
    m["wire.frames_per_round"] = len(frames) / n_rounds if n_rounds else 0.0

    train_ms = ms("baselines.train_fed_l2_svm")
    steps_taken = tracer.counts[(op, "baselines.minibatch_steps")]
    m["baselines.fed_train_ms"] = _median(train_ms)
    m["baselines.fed_calls"] = len(train_ms)
    m["baselines.minibatch_steps"] = steps_taken
    m["baselines.step_us"] = 1e3 * sum(train_ms) / steps_taken if steps_taken else 0.0

    m["experiments.cv_s"] = sum(ms("experiments.cross_validate")) / 1e3
    m["experiments.final_fit_s"] = sum(ms("experiments.train_model")) / 1e3
    m["experiments.federations"] = len(fed_spans)
    return m
