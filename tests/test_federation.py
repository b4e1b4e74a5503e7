"""Federated runtime: server updates, barriers, both transports."""

import re
import socket
import struct
import threading

import numpy as np
import pytest

from fedrosvm import federation, robust, solver, wire
from fedrosvm.core import DatasetView, NormKind
from fedrosvm.federation import (
    Algorithm,
    FederatedClient,
    FederationConfig,
    InProcessTransport,
    admm_server_update,
    check_barrier,
    global_objective,
    rho_upper_bound,
    run_client,
    run_federation,
    sm_server_update,
    transport_tcp_connect,
    transport_tcp_serve,
)
from fedrosvm.robust import (
    ClientConfig,
    WorstCaseDual,
    build_risk_epigraph_qp,
    worst_case_risk_dual,
)
from fedrosvm.solver import SolverSolution, SolverStatus, solve
from fedrosvm.wire import FRAME_CAP, AdmmResult, ProtocolError, Shutdown, SmResult


def make_shards(seed, G, n_per, p):
    rng = np.random.default_rng(seed)
    shards = []
    for _ in range(G):
        X = rng.uniform(0.05, 0.95, size=(n_per, p))
        y = np.where(np.arange(n_per) % 2 == 0, 1.0, -1.0)
        rng.shuffle(y)
        if abs(y.sum()) == n_per:  # keep both labels present
            y[0] = -y[0]
        shards.append(DatasetView(X=X, y=y))
    return shards


def toy_cfg(G, epsilon=1e-3, tau=0.0, norm=NormKind.L1):
    return [
        ClientConfig(epsilon=epsilon, kappa=0.5, alpha=1.0 / G, norm=norm, tau=tau)
        for _ in range(G)
    ]


# ------------------------------------------------------------ server math


def test_sm_update_zero_subgradient_is_identity():
    w = np.array([0.3, -1.2])
    out = sm_server_update(w, [(1.0, np.zeros(2))], t=5, gamma0=2.0)
    assert np.array_equal(out, w)


def test_sm_update_single_client_arithmetic():
    out = sm_server_update(np.zeros(2), [(1.0, np.array([1.0, 0.0]))], t=2, gamma0=1.0)
    assert np.allclose(out, [-0.5, 0.0])


def test_sm_update_weights_and_round_scaling():
    subs = [(0.25, np.array([4.0, 0.0])), (0.75, np.array([0.0, 4.0]))]
    out = sm_server_update(np.zeros(2), subs, t=1, gamma0=0.5)
    assert np.allclose(out, [-0.5, -1.5])


def test_sm_update_rejects_bad_round_index():
    with pytest.raises(ValueError):
        sm_server_update(np.zeros(2), [(1.0, np.zeros(2))], t=0, gamma0=1.0)


def test_admm_update_weighted_average():
    w_g = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(admm_server_update([0.5, 0.5], w_g, np.zeros((2, 2))), [0.5, 0.5])


def test_admm_update_consensus_fixed_point():
    w = np.array([0.2, -0.7, 1.1])
    assert np.allclose(admm_server_update([0.3, 0.7], np.array([w, w]), np.zeros((2, 3))), w)


def test_admm_update_linear_in_multipliers():
    rng = np.random.default_rng(7)
    ws = rng.normal(size=(2, 3))
    mus = rng.normal(size=(2, 3))
    base = admm_server_update([0.5, 0.5], ws, mus)
    doubled = admm_server_update([0.5, 0.5], ws, 2 * mus)
    shift = 0.5 * mus[0] + 0.5 * mus[1]
    assert np.allclose(doubled - base, shift)


def test_rho_bound_frozen_two_client_value():
    assert rho_upper_bound([0.5, 0.5], [1.0, 1.0]) == pytest.approx(0.5)


def test_rho_bound_scales_with_tau():
    one = rho_upper_bound([0.4, 0.6], [1.0, 2.0])
    two = rho_upper_bound([0.4, 0.6], [2.0, 4.0])
    assert two == pytest.approx(2.0 * one)
    assert one > 0.0


def test_rho_bound_needs_two_clients():
    with pytest.raises(ValueError):
        rho_upper_bound([1.0], [1.0])


# ----------------------------------------------------------- config checks


def test_config_rejects_weights_not_summing_to_one():
    clients = [ClientConfig(epsilon=0.1, alpha=0.5), ClientConfig(epsilon=0.1, alpha=0.6)]
    with pytest.raises(ValueError, match="sum to 1"):
        FederationConfig(clients=clients, T=1)


def test_config_admm_rejects_positive_tau():
    clients = [ClientConfig(epsilon=0.1, alpha=0.5, tau=0.1),
               ClientConfig(epsilon=0.1, alpha=0.5, tau=0.0)]
    with pytest.raises(ValueError, match="tau = 0"):
        FederationConfig(clients=clients, T=1, algorithm=Algorithm.ADMM)


def test_config_strongly_convex_requires_tau():
    clients = [ClientConfig(epsilon=0.1, alpha=0.5, tau=1.0),
               ClientConfig(epsilon=0.1, alpha=0.5, tau=0.0)]
    with pytest.raises(ValueError, match="tau > 0"):
        FederationConfig(clients=clients, T=1, algorithm=Algorithm.ADMM_SC)


def test_config_rejects_negative_horizon():
    with pytest.raises(ValueError):
        FederationConfig(clients=[ClientConfig(epsilon=0.1)], T=-1)


def test_config_applies_federation_rho_to_every_client():
    clients = [ClientConfig(epsilon=0.1, alpha=0.5, rho=r) for r in (1.0, 3.0)]
    cfg = FederationConfig(clients=clients, T=1, algorithm=Algorithm.ADMM, rho=0.25)
    assert [c.rho for c in cfg.clients] == [0.25, 0.25]
    assert [c.rho for c in clients] == [1.0, 3.0]


@pytest.mark.parametrize("knob", ["gamma0", "rho"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_a_non_finite_knob(knob, value):
    with pytest.raises(ValueError, match=f"{knob} must be positive and finite"):
        FederationConfig(clients=[ClientConfig(epsilon=0.1)], T=1, **{knob: value})


def test_zero_rounds_returns_initial_model():
    cfg = FederationConfig(clients=toy_cfg(1), T=0)
    res = run_federation(cfg, make_shards(0, 1, 6, 2))
    assert np.array_equal(res.w_last.w, [0.0, 0.0])
    assert res.traces == [] and res.best_objective is None and res.best_round == 0


def test_mismatched_shard_count_rejected():
    cfg = FederationConfig(clients=toy_cfg(2), T=1)
    with pytest.raises(ValueError, match="client datasets"):
        run_federation(cfg, make_shards(0, 3, 6, 2))


# ------------------------------------------------------------ full SM runs


def test_sm_run_tracks_best_iterate():
    shards = make_shards(11, 2, 10, 3)
    cfg = FederationConfig(clients=toy_cfg(2), T=12, algorithm=Algorithm.SM,
                           gamma0=0.5)
    res = run_federation(cfg, shards)
    objs = [tr.global_objective for tr in res.traces]
    assert len(objs) == 12
    assert res.best_objective == pytest.approx(min(objs))
    assert res.best_round == int(np.argmin(objs)) + 1
    assert np.array_equal(res.w_best.w, res.traces[res.best_round - 1].w_after)
    # the method makes progress on this toy
    assert res.best_objective < objs[0]
    # SM rounds report no consensus gap
    assert all(tr.consensus_residual == 0.0 for tr in res.traces)
    assert all(tr.wall_time >= 0.0 for tr in res.traces)


def test_sm_best_objective_monotone_in_horizon():
    shards = make_shards(12, 2, 8, 2)
    prev = np.inf
    for T in (2, 4, 8):
        cfg = FederationConfig(clients=toy_cfg(2), T=T, algorithm=Algorithm.SM,
                               gamma0=0.5)
        res = run_federation(cfg, shards)
        assert res.best_objective <= prev + 1e-12
        prev = res.best_objective


def test_in_process_sm_replies_equal_a_lone_client_and_the_closed_form(monkeypatch):
    # in-process clients read their rows off one shared stack; a lone client
    # (as run_client builds over TCP) computes a stack of one, with the same bytes
    shards = make_shards(14, 3, 9, 2)
    cfg = FederationConfig(clients=toy_cfg(3, epsilon=2e-3), T=4, algorithm=Algorithm.SM,
                           gamma0=0.5)
    answers = []
    answering = FederatedClient.handle

    def recorded(self, msg):
        reply = answering(self, msg)
        answers.append((self.g, msg.t, msg.w.copy(), reply.v))
        return reply

    monkeypatch.setattr(FederatedClient, "handle", recorded)
    run_federation(cfg, shards)
    monkeypatch.undo()
    assert len(answers) == 3 * 4
    rng = np.random.default_rng(14)
    for g, t, w, v in answers:
        data, client_cfg = shards[g], cfg.clients[g]
        lone = FederatedClient(g, data, client_cfg, Algorithm.SM)
        assert v.tobytes() == lone.handle(wire.RoundStart(t=t, w=w)).v.tobytes(), (g, t)
        closed = WorstCaseDual([(data, client_cfg)]).at(w)
        assert v.tobytes() == closed.v[0].tobytes(), (g, t)
        risk, _ = worst_case_risk_dual(w, data, client_cfg)
        for _ in range(20):
            w2 = w + rng.standard_normal(2)
            slack = worst_case_risk_dual(w2, data, client_cfg)[0] - risk - v @ (w2 - w)
            assert slack >= -1e-12, (g, t, slack)


@pytest.mark.parametrize("algorithm", [Algorithm.SM, Algorithm.ADMM])
@pytest.mark.parametrize("w,named", [
    (np.zeros(3), "w has shape (3,), expected (2,)"),
    (np.array([0.3]), "w has shape (1,), expected (2,)"),
    (np.array([np.inf, 0.0]), "w must be finite"),
], ids=["wrong-shape", "length-1", "infinite"])
def test_client_rejects_a_bad_model_in_every_round(w, named, algorithm):
    # a length-1 model would broadcast silently against an ADMM client's
    # multipliers if nothing checked it
    data = make_shards(15, 1, 6, 2)[0]
    first = FederatedClient(0, data, toy_cfg(1)[0], algorithm)
    later = FederatedClient(0, data, toy_cfg(1)[0], algorithm)
    later.handle(wire.RoundStart(t=1, w=np.zeros(2)))
    for client, t in ((first, 1), (later, 2)):
        with pytest.raises(ValueError, match=re.escape(named)):
            client.handle(wire.RoundStart(t=t, w=w))


def test_sm_client_refuses_features_outside_the_unit_box_in_every_round():
    shards = make_shards(16, 2, 6, 2)
    bad = DatasetView(X=shards[1].X + 2.0, y=shards[1].y)
    cfgs = toy_cfg(2)
    shared = WorstCaseDual([(shards[0], cfgs[0]), (bad, cfgs[1])])
    good = FederatedClient(0, shards[0], cfgs[0], Algorithm.SM, shared, 0)
    clients = [FederatedClient(1, bad, cfgs[1], Algorithm.SM, shared, 1),
               FederatedClient(1, bad, cfgs[1], Algorithm.SM)]
    for t in (1, 2):
        w = np.full(2, 0.1 * t)
        assert good.handle(wire.RoundStart(t=t, w=w)).v.shape == (2,)
        for client in clients:
            with pytest.raises(ValueError, match=re.escape("features must lie in [0, 1]")):
                client.handle(wire.RoundStart(t=t, w=w))


def test_objective_shuffle_invariant():
    shards = make_shards(13, 3, 8, 2)
    cfgs = [ClientConfig(epsilon=1e-3, kappa=0.5, alpha=a)
            for a in (0.2, 0.3, 0.5)]
    w = np.array([0.4, -0.9])
    base = global_objective(w, shards, cfgs)
    perm = [2, 0, 1]
    shuffled = global_objective(w, [shards[i] for i in perm], [cfgs[i] for i in perm])
    assert shuffled == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------- full ADMM runs


def central_optimum(data, cfg):
    sol = solve(build_risk_epigraph_qp(data, cfg))
    assert sol.status is SolverStatus.OPTIMAL
    return sol.objective


def test_single_client_consensus_matches_central_solve():
    shards = make_shards(21, 1, 12, 3)
    clients = toy_cfg(1, epsilon=5e-3)
    # small rho: each proximal step is close to a full minimization, so the
    # single-client chain homes in on the central optimum quickly
    cfg = FederationConfig(clients=clients, T=30, algorithm=Algorithm.ADMM, rho=0.05)
    res = run_federation(cfg, shards)
    target = central_optimum(shards[0], clients[0])
    final = res.traces[-1].global_objective
    assert abs(final - target) <= 1e-3 * (1.0 + abs(target))


def test_strongly_convex_run_reaches_consensus():
    shards = make_shards(22, 2, 8, 2)
    clients = toy_cfg(2, epsilon=1e-3, tau=1.0)
    cap = rho_upper_bound([0.5, 0.5], [1.0, 1.0])
    cfg = FederationConfig(clients=clients, T=100, algorithm=Algorithm.ADMM_SC,
                           rho=0.8 * cap)
    res = run_federation(cfg, shards)
    assert res.traces[-1].consensus_residual <= 1e-4
    # residual settles: the tail is no worse than the early rounds
    early = max(tr.consensus_residual for tr in res.traces[:10])
    assert res.traces[-1].consensus_residual <= early


@pytest.mark.parametrize("algorithm", [Algorithm.ADMM, Algorithm.ADMM_SC])
def test_server_multiplier_mirror_equals_every_client_bit_for_bit(monkeypatch, algorithm):
    # the server aggregates with its mirror of the multipliers; at every
    # round's aggregation the mirror must hold exactly what each client holds
    G, T = 3, 25
    shards = make_shards(24, G, 10, 2)
    cfg = FederationConfig(clients=toy_cfg(G, tau=0.0 if algorithm is Algorithm.ADMM else 1.0),
                           T=T, algorithm=algorithm, rho=0.05)
    clients = [FederatedClient(g, shards[g], cfg.clients[g], algorithm) for g in range(G)]
    compared = []

    def checking(alphas, w_g, mu_g):
        for client, mu in zip(clients, mu_g):
            compared.append(client.mu_g.tobytes() == mu.tobytes())
        return admm_server_update(alphas, w_g, mu_g)

    monkeypatch.setattr(federation, "admm_server_update", checking)
    run_federation(cfg, shards, transport=InProcessTransport(clients))
    assert len(compared) == G * T
    assert all(compared), f"{compared.count(False)} of {G * T} client-rounds differ"


@pytest.mark.parametrize("algorithm", [Algorithm.ADMM, Algorithm.ADMM_SC])
def test_in_process_admm_replies_equal_lone_clients_on_uneven_shards(monkeypatch, algorithm,
                                                                     wrong_active_sets):
    # the two shards of one size step as one exact batch, the third alone;
    # every reply and every trace must have the bytes of lone clients, whose
    # steps are the TCP path's. Every polish is given a wrong active set, so
    # that every round's steps go to the interior-point method
    G, T = 3, 20
    shards = [make_shards(27 + g, 1, n, 2)[0] for g, n in enumerate((10, 12, 10))]
    cfg = FederationConfig(clients=toy_cfg(G, tau=0.0 if algorithm is Algorithm.ADMM else 1.0),
                           T=T, algorithm=algorithm, rho=0.05)
    replies = []
    answering = FederatedClient.handle

    def recorded(self, msg):
        reply = answering(self, msg)
        replies.append((self.g, msg.t, reply.w_g.tobytes()))
        return reply

    batched = []
    stepping = solver._batch_loop

    def counted(batch, *args):
        batched.append(batch.ids)
        return stepping(batch, *args)

    monkeypatch.setattr(FederatedClient, "handle", recorded)
    monkeypatch.setattr(solver, "_batch_loop", counted)
    shared = run_federation(cfg, shards)
    shared_replies = replies[:]
    assert batched == [[0, 2]] * T
    replies.clear()
    lone = run_federation(cfg, shards, transport=InProcessTransport(
        FederatedClient(g, shards[g], cfg.clients[g], algorithm) for g in range(G)))
    assert batched == [[0, 2]] * T
    assert len(replies) == G * T and shared_replies == replies
    for a, b in zip(shared.traces, lone.traces, strict=True):
        assert a.w_after.tobytes() == b.w_after.tobytes()
        assert (a.global_objective, a.consensus_residual) == (b.global_objective,
                                                               b.consensus_residual)
    assert wrong_active_sets == []


def test_a_failed_step_in_a_shared_batch_aborts_naming_its_client(monkeypatch,
                                                                  wrong_active_sets):
    # with wrong active sets, no polish is accepted, and every round's steps
    # go to the batch
    G = 3
    shards = make_shards(28, G, 8, 2)
    cfg = FederationConfig(clients=toy_cfg(G), T=4, algorithm=Algorithm.ADMM, rho=0.05)
    rounds = []
    real = solver.ProgramBatch.solve

    def forced(prog):
        return SolverSolution(np.full(prog.n, np.nan), np.nan, SolverStatus.NUMERICAL_FAILURE,
                              np.inf, 0, "forced failure")

    def third_fails_in_round_2(self, warms, skip=None):
        sols = real(self, warms, skip)
        rounds.append(len(sols))
        if len(rounds) == 2:
            sols[2] = forced(self.programs[2])
        return sols

    monkeypatch.setattr(solver.ProgramBatch, "solve", third_fails_in_round_2)
    # the cold retry fails too
    monkeypatch.setattr(robust, "solve", lambda prog, cfg=None, warm=None: forced(prog))
    replied = []
    answering = FederatedClient.handle

    def recorded(self, msg):
        reply = answering(self, msg)
        replied.append((msg.t, self.g))
        return reply

    monkeypatch.setattr(FederatedClient, "handle", recorded)
    with pytest.raises(RuntimeError, match="federation aborted: client 2 failed") as info:
        run_federation(cfg, shards)
    assert rounds == [G, G]
    assert replied[-2:] == [(2, 0), (2, 1)]
    assert isinstance(info.value.__cause__, RuntimeError)
    assert str(info.value.__cause__) == ("client 2: proximal QP failed to converge: "
                                         "forced failure")
    assert wrong_active_sets == []


def test_strongly_convex_warns_above_penalty_bound():
    shards = make_shards(23, 2, 6, 2)
    clients = toy_cfg(2, tau=0.1)
    cap = rho_upper_bound([0.5, 0.5], [0.1, 0.1])
    cfg = FederationConfig(clients=clients, T=1, algorithm=Algorithm.ADMM_SC,
                           rho=2.0 * cap)
    with pytest.warns(RuntimeWarning, match="convergence bound"):
        run_federation(cfg, shards)


# ------------------------------------------------------- failure handling


def test_client_failure_aborts_run_with_diagnostic():
    shards = make_shards(31, 2, 6, 2)
    # client 1's features leave the unit box, which its round-1 build rejects
    bad = DatasetView(X=shards[1].X + 2.0, y=shards[1].y)
    cfg = FederationConfig(clients=toy_cfg(2), T=3, algorithm=Algorithm.SM)
    with pytest.raises(RuntimeError, match="federation aborted: client 1 failed") as info:
        run_federation(cfg, [shards[0], bad])
    assert isinstance(info.value.__cause__, ValueError)


def test_duplicate_result_is_a_barrier_violation():
    replies = [SmResult(g=0, v=np.zeros(2)), SmResult(g=0, v=np.ones(2))]
    with pytest.raises(RuntimeError, match="duplicate result from client 0"):
        check_barrier(replies, 2, SmResult, 2)


def test_unknown_client_id_is_a_barrier_violation():
    replies = [SmResult(g=7, v=np.zeros(2))]
    with pytest.raises(RuntimeError, match="unknown client id 7"):
        check_barrier(replies, 2, SmResult, 2)


def test_wrong_reply_type_is_a_barrier_violation():
    replies = [SmResult(g=0, v=np.zeros(2)), AdmmResult(g=1, w_g=np.zeros(2))]
    with pytest.raises(RuntimeError, match="client 1 sent AdmmResult in an SM round"):
        check_barrier(replies, 2, SmResult, 2)
    with pytest.raises(RuntimeError, match="client 0 sent SmResult in an ADMM round"):
        check_barrier(replies, 2, AdmmResult, 2)


@pytest.mark.parametrize("kind,field", [(SmResult, "v"), (AdmmResult, "w_g")])
def test_reply_of_the_wrong_length_is_a_barrier_violation(kind, field):
    replies = [kind(g=0, **{field: np.zeros(3)}), kind(g=1, **{field: np.ones(1)})]
    with pytest.raises(RuntimeError,
                       match=f"client 1 sent a {field} of length 1; the model has length 3"):
        check_barrier(replies, 2, kind, 3)


@pytest.mark.parametrize("algorithm", [Algorithm.SM, Algorithm.ADMM])
def test_in_process_run_aborts_on_a_reply_of_the_wrong_length(monkeypatch, algorithm):
    real = FederatedClient.on_round_start

    def short_from_client_1(self, msg):
        reply = real(self, msg)
        if self.g != 1:
            return reply
        if algorithm is Algorithm.SM:
            return SmResult(g=1, v=reply.v[:1])
        return AdmmResult(g=1, w_g=reply.w_g[:1])

    monkeypatch.setattr(FederatedClient, "on_round_start", short_from_client_1)
    cfg = FederationConfig(clients=toy_cfg(2), T=2, algorithm=algorithm, rho=0.5)
    with pytest.raises(RuntimeError, match="client 1 sent a .* of length 1; the model has length 3"):
        run_federation(cfg, make_shards(5, 2, 6, 3))


@pytest.mark.parametrize("algorithm", [Algorithm.SM, Algorithm.ADMM])
def test_in_process_run_starts_no_thread(monkeypatch, algorithm):
    def refuse(self):
        raise AssertionError(f"in-process federation started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = FederationConfig(clients=toy_cfg(2), T=3, algorithm=algorithm, rho=0.5)
    result = run_federation(cfg, make_shards(33, 2, 6, 2))
    assert len(result.traces) == 3


@pytest.mark.parametrize("msg", [Shutdown(), AdmmResult(g=0, w_g=np.zeros(2))],
                         ids=["shutdown", "admm-result"])
def test_client_answers_only_a_round_start(msg):
    shards = make_shards(34, 1, 6, 2)
    client = FederatedClient(0, shards[0], toy_cfg(1)[0], Algorithm.ADMM)
    with pytest.raises(RuntimeError, match="unexpected message"):
        client.handle(msg)


def test_wrong_result_type_for_round_is_rejected():
    class CannedTransport:
        def start(self, G):
            pass

        def broadcast(self, msg):
            pass

        def collect(self, G):
            return [AdmmResult(g=0, w_g=np.zeros(2))]

        def close(self):
            pass

    cfg = FederationConfig(clients=toy_cfg(1), T=1, algorithm=Algorithm.SM)
    with pytest.raises(RuntimeError, match="AdmmResult in an SM round"):
        run_federation(cfg, make_shards(32, 1, 6, 2), transport=CannedTransport())


# ------------------------------------------------------------ tcp transport


def spawn_tcp_clients(address, shards, cfgs, algorithm):
    threads = []
    for g, (data, c) in enumerate(zip(shards, cfgs)):
        def go(g=g, data=data, c=c):
            run_client(transport_tcp_connect(address), g, data, c, algorithm)

        th = threading.Thread(target=go)
        th.start()
        threads.append(th)
    return threads


def test_tcp_matches_in_process_bit_for_bit():
    shards = make_shards(41, 2, 8, 2)
    clients = toy_cfg(2, epsilon=2e-3)
    cfg = FederationConfig(clients=clients, T=3, algorithm=Algorithm.SM, gamma0=0.5)

    local = run_federation(cfg, shards)

    server = transport_tcp_serve()
    threads = spawn_tcp_clients(server.address, shards, clients, Algorithm.SM)
    remote = run_federation(cfg, shards, transport=server)
    for th in threads:
        th.join(timeout=30.0)
        assert not th.is_alive()

    assert np.array_equal(local.w_last.w, remote.w_last.w)
    for a, b in zip(local.traces, remote.traces):
        assert np.array_equal(a.w_after, b.w_after)
        assert a.global_objective == b.global_objective


def test_tcp_admm_round_trip_matches_in_process():
    shards = make_shards(42, 2, 6, 2)
    clients = [ClientConfig(epsilon=1e-3, kappa=0.5, alpha=0.5, rho=0.7)
               for _ in range(2)]
    cfg = FederationConfig(clients=clients, T=3, algorithm=Algorithm.ADMM, rho=0.7)

    local = run_federation(cfg, shards)

    server = transport_tcp_serve()
    threads = spawn_tcp_clients(server.address, shards, clients, Algorithm.ADMM)
    remote = run_federation(cfg, shards, transport=server)
    for th in threads:
        th.join(timeout=30.0)

    assert np.array_equal(local.w_last.w, remote.w_last.w)


def test_tcp_admm_round_is_one_frame_each_way_per_client(monkeypatch):
    G, T = 2, 3
    shards = make_shards(45, G, 6, 2)
    cfg = FederationConfig(clients=toy_cfg(G), T=T, algorithm=Algorithm.ADMM, rho=0.5)
    sent = []
    encode = wire.encode_message

    def counting(msg):
        sent.append(type(msg).__name__)
        return encode(msg)

    monkeypatch.setattr(wire, "encode_message", counting)
    server = transport_tcp_serve()
    threads = spawn_tcp_clients(server.address, shards, cfg.clients, Algorithm.ADMM)
    run_federation(cfg, shards, transport=server)
    for th in threads:
        th.join(timeout=30.0)
        assert not th.is_alive()

    assert sorted(sent) == sorted(["RoundStart"] * (G * T) + ["AdmmResult"] * (G * T)
                                  + ["Shutdown"] * G)


def test_tcp_clients_built_from_config_use_federation_rho():
    # the client configs keep their default rho = 1; the federation's rho
    # reaches remote clients through FederationConfig.clients
    shards = make_shards(43, 2, 6, 2)
    cfg = FederationConfig(clients=toy_cfg(2), T=3, algorithm=Algorithm.ADMM, rho=0.3)
    local = run_federation(cfg, shards)

    server = transport_tcp_serve()
    threads = spawn_tcp_clients(server.address, shards, cfg.clients, Algorithm.ADMM)
    remote = run_federation(cfg, shards, transport=server)
    for th in threads:
        th.join(timeout=30.0)
        assert not th.is_alive()

    assert np.array_equal(local.w_last.w, remote.w_last.w)


@pytest.mark.parametrize("algorithm", [Algorithm.SM, Algorithm.ADMM])
def test_tcp_run_starts_no_server_thread(monkeypatch, algorithm):
    shards = make_shards(44, 2, 6, 2)
    cfg = FederationConfig(clients=toy_cfg(2), T=3, algorithm=algorithm, rho=0.5)
    server = transport_tcp_serve()
    threads = spawn_tcp_clients(server.address, shards, cfg.clients, algorithm)

    def refuse(self):
        raise AssertionError(f"TCP federation server started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    try:
        result = run_federation(cfg, shards, transport=server)
    finally:
        server.close()  # releases the clients if the run failed early
        for th in threads:
            th.join(timeout=30.0)
    assert not any(th.is_alive() for th in threads)
    assert len(result.traces) == 3
    assert np.array_equal(result.w_last.w, run_federation(cfg, shards).w_last.w)


def test_tcp_client_closing_mid_run_aborts_without_hanging():
    shards = make_shards(45, 2, 6, 2)
    cfg = FederationConfig(clients=toy_cfg(2), T=3, algorithm=Algorithm.SM)
    server = transport_tcp_serve()
    # connect both ends here so the closing client is the second connection
    honest = transport_tcp_connect(server.address)
    quitter = transport_tcp_connect(server.address)

    def serve_honestly():
        try:
            run_client(honest, 0, shards[0], cfg.clients[0], Algorithm.SM)
        except ConnectionError:
            pass  # the server may close before its shutdown reaches us

    def answer_once_then_close():
        assert quitter.recv().t == 1
        quitter.send(SmResult(g=1, v=np.zeros(2)))
        quitter.close()

    errors = []

    def run():
        try:
            run_federation(cfg, shards, transport=server)
        except RuntimeError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=f, daemon=True)
               for f in (serve_honestly, answer_once_then_close, run)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30.0)
        assert not th.is_alive()
    assert len(errors) == 1
    assert re.search(r"federation aborted: connection from .* lost", str(errors[0]))


def test_tcp_accept_timeout_releases_the_clients_that_connected(monkeypatch):
    shards = make_shards(46, 2, 6, 2)
    cfg = FederationConfig(clients=toy_cfg(2), T=3, algorithm=Algorithm.SM)
    monkeypatch.setattr(federation, "ACCEPT_TIMEOUT", 1.0)
    server = transport_tcp_serve()
    address = server.address
    lone = transport_tcp_connect(address)  # the second client never comes
    client = threading.Thread(
        target=run_client, args=(lone, 0, shards[0], cfg.clients[0], Algorithm.SM),
        daemon=True,
    )
    client.start()
    with pytest.raises(RuntimeError, match="only 1 of 2 clients connected"):
        run_federation(cfg, shards, transport=server)
    client.join(timeout=10.0)
    assert not client.is_alive()  # it got its Shutdown
    with pytest.raises(ConnectionRefusedError):
        transport_tcp_connect(address)  # the listener is closed


def test_tcp_zero_rounds_shuts_the_clients_down():
    shards = make_shards(47, 1, 6, 2)
    cfg = FederationConfig(clients=toy_cfg(1), T=0)
    server = transport_tcp_serve()
    address = server.address
    channel = transport_tcp_connect(address)
    client = threading.Thread(
        target=run_client, args=(channel, 0, shards[0], cfg.clients[0], Algorithm.SM),
        daemon=True,
    )
    client.start()
    result = run_federation(cfg, shards, transport=server)
    client.join(timeout=10.0)
    assert not client.is_alive()  # it got its Shutdown
    assert result.traces == [] and result.best_round == 0
    assert np.array_equal(result.w_best.w, [0.0, 0.0])
    with pytest.raises(ConnectionRefusedError):
        transport_tcp_connect(address)  # the listener is closed


def test_tcp_server_rejects_oversized_inbound_frame():
    server = transport_tcp_serve()
    address = server.address

    def chatty():
        # a raw length header announcing more than the cap; the client's own
        # write_frame would refuse to send such a frame
        with socket.create_connection(address) as sock:
            sock.sendall(struct.pack(">I", FRAME_CAP + 1))

    th = threading.Thread(target=chatty)
    th.start()
    server.start(1)
    with pytest.raises(RuntimeError, match="protocol error"):
        server.collect(1)
    th.join(timeout=10.0)
    server.close()


def test_tcp_client_send_respects_frame_cap():
    server = transport_tcp_serve()
    address = server.address
    caught = []

    def quiet():
        ch = transport_tcp_connect(address)
        try:
            ch.send(SmResult(g=0, v=np.zeros(1 << 17)))  # 9 bytes over the cap
        except ProtocolError as exc:
            caught.append(exc)
        ch.close()

    th = threading.Thread(target=quiet)
    th.start()
    server.start(1)
    th.join(timeout=10.0)
    server.close()
    assert len(caught) == 1


def test_tcp_dropped_connection_names_the_peer():
    server = transport_tcp_serve()
    address = server.address

    def flaky():
        ch = transport_tcp_connect(address)
        ch.close()  # disappear without sending anything

    th = threading.Thread(target=flaky)
    th.start()
    server.start(1)
    with pytest.raises(RuntimeError, match="connection .* lost"):
        server.collect(1)
    th.join(timeout=10.0)
    server.close()


def test_tcp_silent_client_aborts_the_run_at_the_reply_deadline(monkeypatch):
    monkeypatch.setattr(federation, "REPLY_TIMEOUT", 0.5)
    shards = make_shards(48, 1, 6, 2)
    cfg = FederationConfig(clients=toy_cfg(1), T=3, algorithm=Algorithm.SM)
    server = transport_tcp_serve()
    silent = transport_tcp_connect(server.address)  # connects, never replies
    errors = []

    def run():
        try:
            run_federation(cfg, shards, transport=server)
        except RuntimeError as exc:
            errors.append(exc)

    th = threading.Thread(target=run, daemon=True)
    th.start()
    try:
        th.join(timeout=30.0)
        assert not th.is_alive()
    finally:
        silent.close()  # lets a server without a deadline return too
    assert len(errors) == 1
    assert re.search(r"client at .* sent no reply within 0.5 s", str(errors[0]))
