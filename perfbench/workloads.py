"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs once (`prepare`), then
runs one operation after another against the library's public API (`op`).
The program only ever sees the generated inputs. The runner times `op`
alone; `score` reads the model's quality off its result outside the timing.

Sizes are chosen so that a 20-second run holds at least two ops and at
least 100 server rounds (so ten rounds lie beyond the 90th percentile), and
so that one run of each workload takes about half a minute on a 2-CPU
machine.
"""

import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from fedrosvm import core as fcore
from fedrosvm import data as fdata
from fedrosvm import experiments as fexp
from fedrosvm import federation as ffed
from fedrosvm.robust import ClientConfig, build_risk_epigraph_qp
from fedrosvm.solver import ConvexProgram, SolverStatus, solve


@dataclass
class OpResult:
    models: dict  # name -> weight vector; every op of a run must repeat them bit for bit
    test_f1: float
    objective: float
    round_s: list  # server-observed round wall times
    fedavg_f1: float = None  # noisy-cv: the FedAvg model of the same repetition


@dataclass
class Inputs:
    shards: list = None
    test: object = None
    fed: object = None
    configs: tuple = None


def prepare_shards(seed, N, G, test_fraction=0.3):
    """Synthetic P=2 data, 70/30 split, min-max scaled with training-side
    statistics, EVEN partition into G shards."""
    raw = fdata.generate_synthetic(fdata.SyntheticSpec(N=N, P=2, G=G, seed=seed))
    train, test = fdata.split_train_test(raw, test_fraction, seed)
    stats = fdata.fit_minmax(train)
    train = fdata.apply_minmax(train, stats)
    test = fdata.apply_minmax(test, stats)
    shards = fdata.partition(
        train, fdata.PartitionPlan(scheme=fdata.PartitionScheme.EVEN, G=G, seed=seed)
    )
    return shards, test


def client_configs(shards, rho=1.0):
    """L1 transport, kappa=1, epsilon=1/(10 n_g), equal weights."""
    G = len(shards)
    return [
        ClientConfig(epsilon=1.0 / (10.0 * s.n), kappa=1.0, alpha=1.0 / G,
                     norm=fcore.NormKind.L1, rho=rho)
        for s in shards
    ]


def objective_minimum(shards, cfgs, rtol=1e-5):
    """Exact minimum over w of sum_g alpha_g R_g(w), the objective that
    `global_objective` reports. Every client's risk epigraph
    (`build_risk_epigraph_qp`) is stacked into one program whose w columns
    are shared, and the library's solver solves it. The program's value
    must agree with `global_objective` at its minimizer to `rtol`."""
    P = shards[0].p
    progs = [build_risk_epigraph_qp(s, c) for s, c in zip(shards, cfgs)]
    rows, c, b = [], [np.zeros(P)], []
    for g, (prog, cfg) in enumerate(zip(progs, cfgs)):
        A = prog.A_ineq.tocsc()
        rows.append([A[:, :P]] + [
            A[:, P:] if h == g else sparse.csc_matrix((A.shape[0], other.n - P))
            for h, other in enumerate(progs)
        ])
        c.append(cfg.alpha * prog.c[P:])
        b.append(prog.b_ineq)
    A = sparse.bmat(rows, format="csr")
    sol = solve(ConvexProgram(n=A.shape[1], c=np.concatenate(c), A_ineq=A,
                              b_ineq=np.concatenate(b)))
    if sol.status is not SolverStatus.OPTIMAL:
        raise RuntimeError(f"joint reference program did not solve: {sol.message}")
    at_minimizer = ffed.global_objective(sol.x_star[:P], shards, cfgs)
    if abs(at_minimizer - sol.objective) > rtol * sol.objective:
        raise RuntimeError(f"reference minimum {sol.objective!r} disagrees with "
                           f"global_objective at its minimizer {at_minimizer!r}")
    return sol.objective


class Workload:
    name = ""

    def prepare(self, seed):
        raise NotImplementedError

    def op(self, inputs):
        raise NotImplementedError

    def score(self, inputs, raw):
        raise NotImplementedError

    def reference_check(self, inputs, first):
        """Once-per-run check outside the timing; returns problems found."""
        return []

    def objective_problem(self, inputs):
        """(shards, client configs) whose objective the op's model is
        scored on."""
        return inputs.shards, inputs.fed.clients


class SmOracle(Workload):
    """Subgradient method, in-process transport: every client step builds
    and solves the worst-case LP, extracts the distribution and forms the
    subgradient."""

    name = "sm-oracle"
    N, G, T, GAMMA0 = 430, 2, 10, 100.0

    def prepare(self, seed):
        shards, test = prepare_shards(seed, self.N, self.G)
        fed = ffed.FederationConfig(
            clients=client_configs(shards), T=self.T,
            algorithm=ffed.Algorithm.SM, gamma0=self.GAMMA0,
        )
        return Inputs(shards=shards, test=test, fed=fed)

    def op(self, inputs):
        return ffed.run_federation(inputs.fed, inputs.shards)

    def score(self, inputs, result):
        return OpResult(
            models={"w_best": result.w_best.w},
            test_f1=fcore.evaluate(result.w_best, inputs.test).f1,
            objective=result.best_objective,
            round_s=[tr.wall_time for tr in result.traces],
        )


class AdmmRounds(Workload):
    """Consensus ADMM, in-process transport: warm-started proximal QPs on
    the Schur backend, many cheap rounds."""

    name = "admm-rounds"
    N, G, T, RHO = 400, 4, 200, 0.01

    def prepare(self, seed):
        shards, test = prepare_shards(seed, self.N, self.G)
        fed = ffed.FederationConfig(
            clients=client_configs(shards, self.RHO), T=self.T,
            algorithm=ffed.Algorithm.ADMM, rho=self.RHO,
        )
        return Inputs(shards=shards, test=test, fed=fed)

    def op(self, inputs):
        return ffed.run_federation(inputs.fed, inputs.shards)

    def score(self, inputs, result):
        return OpResult(
            models={"w_last": result.w_last.w},
            test_f1=fcore.evaluate(result.w_last, inputs.test).f1,
            objective=result.traces[-1].global_objective,
            round_s=[tr.wall_time for tr in result.traces],
        )


class TcpAdmm(AdmmRounds):
    """The admm-rounds problem on two clients over loopback TCP. The
    listener is bound and both clients connect inside the op."""

    name = "tcp-admm"
    G, T = 2, 100

    def op(self, inputs):
        server = ffed.transport_tcp_serve()
        failures = []

        def client(g):
            try:
                channel = ffed.transport_tcp_connect(server.address)
                ffed.run_client(channel, g, inputs.shards[g], inputs.fed.clients[g],
                                inputs.fed.algorithm)
            except Exception as exc:  # surfaces as the op's failure below
                failures.append(f"client {g}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=client, args=(g,), name=f"tcp-client-{g}")
                   for g in range(self.G)]
        for th in threads:
            th.start()
        try:
            result = ffed.run_federation(inputs.fed, inputs.shards, transport=server)
        finally:
            for th in threads:
                th.join(timeout=60.0)
        alive = [th.name for th in threads if th.is_alive()]
        if alive or failures:
            raise RuntimeError(f"TCP clients did not finish cleanly: {alive + failures}")
        return result

    def reference_check(self, inputs, first):
        local = ffed.run_federation(inputs.fed, inputs.shards).w_last.w
        remote = first.models["w_last"]
        if local.tobytes() != remote.tobytes():
            return [f"TCP model {remote!r} differs from the in-process model "
                    f"{local!r} on the same shards"]
        return []


class NoisyCv(Workload):
    """One repetition of the label-noise protocol through run_experiment:
    cross-validated ADMM, then cross-validated FedAvg, same repetition
    seed. The round grids are cut from the acceptance protocol's so that
    two ops fit one run."""

    name = "noisy-cv"
    BASE = {
        "dataset": {"kind": "synthetic", "N": 400, "P": 2, "class_sep": 2.4},
        "partition": {"scheme": "label_noise", "G": 4, "noise_rate": 0.15},
        "cv_folds": 5,
        "repetitions": 1,
    }
    ADMM_GRID = {"rho": [1e-2, 1e-1], "T": [5, 10, 20]}
    FEDAVG_GRID = {"gamma0": [1e-2, 1e-1], "T": [5, 10, 20, 60]}

    def prepare(self, seed):
        admm = fexp.ExperimentConfig.from_dict({
            **self.BASE, "name": "noisy_admm", "model": "admm",
            "grid": self.ADMM_GRID, "base_seed": seed,
        })
        fedavg = fexp.ExperimentConfig.from_dict({
            **self.BASE, "name": "noisy_fedavg", "model": "fedavg",
            "grid": self.FEDAVG_GRID, "base_seed": seed,
        })
        return Inputs(configs=(admm, fedavg))

    def op(self, inputs):
        admm_cfg, fedavg_cfg = inputs.configs
        round_s = []
        inner = fexp.run_federation

        def observed(*args, **kwargs):
            # reads the server's own round times off each result; adds no timing
            result = inner(*args, **kwargs)
            round_s.extend(tr.wall_time for tr in result.traces)
            return result

        fexp.run_federation = observed
        try:
            admm = fexp.run_experiment(admm_cfg)
        finally:
            fexp.run_federation = inner
        return admm, fexp.run_experiment(fedavg_cfg), round_s

    def objective_problem(self, inputs):
        admm_cfg = inputs.configs[0]
        shards, _, _ = fexp.prepare_repetition(admm_cfg, admm_cfg.base_seed)
        return shards, client_configs(shards)

    def score(self, inputs, raw):
        admm, fedavg, round_s = (raw[0].repetitions[0], raw[1].repetitions[0], raw[2])
        for rep in (admm, fedavg):
            if not rep["ok"]:
                raise RuntimeError(f"repetition {rep['seed']} failed: {rep['error']}")
        return OpResult(
            models={"admm": np.array(admm["model_w"]),
                    "fedavg": np.array(fedavg["model_w"])},
            test_f1=admm["f1"],
            objective=admm["rounds"][-1]["objective"],
            round_s=round_s,
            fedavg_f1=fedavg["f1"],
        )


WORKLOADS = {w.name: w for w in (SmOracle(), AdmmRounds(), TcpAdmm(), NoisyCv())}
