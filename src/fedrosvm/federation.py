"""Synchronous federated training runtime.

One server orchestrates G clients for T rounds. Every round is a strict
barrier and one message each way per client: the server sends the current
model in a `RoundStart`, every client answers with its local result (a
subgradient for SM rounds, a proximal iterate for ADMM rounds), and only
when all G results are in does the server update. A client failure aborts
the whole run with a diagnostic naming the client; there is no
partial-participation fallback.

Each client is one `FederatedClient` state machine that answers each
`RoundStart` with its result. Two interchangeable transports drive it: an
in-process one (the default) that calls the client objects directly, in
client order, on the server's own thread, and a TCP one speaking the
length-prefixed frame format from `wire`, where `run_client` wraps the
same object in a socket loop and the server reads one reply per
connection, in connection order, on its own thread. Neither transport starts a thread or checks a reply:
`run_federation` checks each round's replies once, in `check_barrier`.
The rounds are synchronous, so the order of the client steps within a
round changes no result; both transports deliver the same message
sequence to every client and the server reduces results in client order,
so the two produce bit-identical models on the same inputs.

The model starts at zeros and every ADMM multiplier at ones.

ADMM bookkeeping: each client's w_g, multipliers mu_g, QP and warm start
are its row of a `robust.ProximalSteps` kept for the whole run (the wire
only ever carries w_g). A TCP client holds a `ProximalSteps` of one; the
in-process transport's clients share one, so the round's first client
folds the aggregate w of the previous round, which its `RoundStart`
carries, into every row's multipliers (mu_g + w_g - w; a no-op in round
1, where w = w_g = 0) and takes every client's proximal step, equal-size
shards through one `solver.ProgramBatch`; each client then replies with
its own row, and a failed step raises in its own client's call. The
batch's rows are `solve`'s bytes and the fold is elementwise, so a
client's replies are the same bytes either way. The server keeps its
own mirror of the multipliers, one row per client, and updates it with
one call of the same rule (`robust.multiplier_step`) on the same w_g and
w right after aggregating, so the mirror equals every client's
multipliers bit for bit. That is what lets it form the Prop.-5-style
weighted sum (`admm_server_update`, the one aggregation rule, which the
cross-validation lockstep calls too) without extra traffic.
"""

import socket
import time
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import GlobalModel

# build_sm_lp, extract_worst_case, sm_subgradient, worst_case_risk_dual and
# solve are imported for perfbench/tracing.py, which rebinds them here to
# span them; no round calls them
from .robust import (  # noqa: F401
    ProximalSteps,
    WorstCaseDual,
    _check_model,
    admm_client_step,
    admm_multiplier_update,
    build_sm_lp,
    extract_worst_case,
    multiplier_step,
    sm_subgradient,
    worst_case_risk_dual,
)
from .solver import solve  # noqa: F401
from .wire import (
    AdmmResult,
    ProtocolError,
    RoundStart,
    Shutdown,
    SmResult,
    read_frame,
    write_frame,
)


class Algorithm(Enum):
    """The federated training rule.

    SM       subgradient method: each client replies with a subgradient of
             its worst-case risk at the broadcast model.
    ADMM     consensus ADMM: each client replies with its proximal step,
             the minimizer of its worst-case risk plus
             (rho/2)||w - w_global + mu_g||^2.
    ADMM_SC  the strongly convex variant of ADMM. Each client minimizes
             its worst-case risk plus tau_g||w||^2 (tau_g > 0) plus the
             same proximal term, so its step is strongly convex in w
             however small rho is. The server does not add the tau term:
             its objective, the best iterate w_best chosen by it, and the
             benchmark's objective_ratio all use sum_g alpha_g R_g(w), the
             risk alone.
    """

    SM = "sm"
    ADMM = "admm"
    ADMM_SC = "admm_sc"


@dataclass
class FederationConfig:
    """Run-level knobs. Client weights (alpha) and robustness parameters
    live in the per-client configs. The federation-level rho is
    authoritative: construction stores every client config with its rho
    replaced by it, so `clients` is what each client runs with and the
    proximal penalty always matches the server's aggregation rule.

    T = 0 is allowed and returns the initial (zero) model with an empty
    trace.
    """

    clients: list
    T: int
    algorithm: Algorithm = Algorithm.SM
    gamma0: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        if len(self.clients) < 1:
            raise ValueError("at least one client is required")
        if self.T < 0:
            raise ValueError(f"T must be nonnegative, got {self.T}")
        if not (self.gamma0 > 0.0 and np.isfinite(self.gamma0)):
            raise ValueError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if not (self.rho > 0.0 and np.isfinite(self.rho)):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        self.clients = [replace(c, rho=self.rho) for c in self.clients]
        total = sum(c.alpha for c in self.clients)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"client weights must sum to 1, got {total!r}")
        taus = [c.tau for c in self.clients]
        if self.algorithm is Algorithm.ADMM and any(t != 0.0 for t in taus):
            raise ValueError("plain ADMM expects tau = 0 on every client")
        if self.algorithm is Algorithm.ADMM_SC and any(t <= 0.0 for t in taus):
            raise ValueError("the strongly convex variant needs tau > 0 everywhere")

    @property
    def G(self):
        return len(self.clients)

    @property
    def alphas(self):
        return np.array([c.alpha for c in self.clients])


@dataclass
class RoundTrace:
    t: int
    w_after: np.ndarray
    global_objective: float
    consensus_residual: float
    wall_time: float


@dataclass
class FederationResult:
    """Final and best-objective iterates plus the per-round trace. The
    subgradient method only guarantees convergence of the best objective
    value, so downstream reporting uses w_best; ADMM callers usually want
    w_last."""

    w_last: GlobalModel
    w_best: GlobalModel
    best_round: int
    best_objective: float
    traces: list


def sm_server_update(w, subgradients, t, gamma0):
    """Diminishing-step aggregation: w - (gamma0/t) * sum alpha_g v_g."""
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if not subgradients:
        raise ValueError("no subgradients to aggregate (barrier violated)")
    w = np.asarray(w, dtype=float)
    step = np.zeros_like(w)
    for alpha, v in subgradients:
        step += alpha * np.asarray(v, dtype=float)
    return w - (gamma0 / t) * step


def admm_server_update(alphas, w_g, mu_g):
    """Weighted consensus w = sum_g alphas[g] * (w_g[g] + mu_g[g]), added
    in client order. `alphas` is (G,); `w_g` and `mu_g` are (G, p), one row
    per client."""
    if len(w_g) == 0:
        raise ValueError("no client iterates to aggregate (barrier violated)")
    w = np.zeros(w_g.shape[1])
    for alpha, row in zip(alphas, w_g + mu_g):
        w += alpha * row
    return w


def rho_upper_bound(alphas, taus):
    """Largest penalty with a convergence guarantee for the strongly
    convex variant: min over g < G of 4*alpha_g*tau_g / (g(2G+1-g)),
    together with 4*alpha_G*tau_G / ((G-1)(G+2)) for the last client."""
    alphas = np.asarray(alphas, dtype=float)
    taus = np.asarray(taus, dtype=float)
    G = alphas.size
    if G < 2:
        raise ValueError("the penalty bound needs at least two clients")
    if taus.size != G:
        raise ValueError("need one tau per client")
    if (alphas <= 0).any() or (taus <= 0).any():
        raise ValueError("weights and taus must be positive")
    cands = [
        4.0 * alphas[g - 1] * taus[g - 1] / (g * (2 * G + 1 - g))
        for g in range(1, G)
    ]
    cands.append(4.0 * alphas[G - 1] * taus[G - 1] / ((G - 1) * (G + 2)))
    return float(min(cands))


def warn_above_rho_cap(cfg):
    """Warn (RuntimeWarning) when a strongly convex run's rho exceeds
    `rho_upper_bound`; every runner of an ADMM-SC federation calls it once
    per federation."""
    if cfg.algorithm is Algorithm.ADMM_SC and cfg.G >= 2:
        cap = rho_upper_bound(cfg.alphas, [c.tau for c in cfg.clients])
        if cfg.rho > cap:
            warnings.warn(
                f"rho={cfg.rho:.6g} exceeds the convergence bound {cap:.6g}; "
                "consensus is no longer guaranteed",
                RuntimeWarning,
            )


def global_objective(w, client_data, client_cfgs, dual=None):
    """Mixture objective sum alpha_g * worst-case risk of client g at w,
    evaluated through the exact dual. `dual`, a `robust.WorstCaseDual`
    over the same clients, saves building one (`run_federation` keeps one
    for the whole run)."""
    if dual is None:
        dual = WorstCaseDual(zip(client_data, client_cfgs))
    return dual.objective(w, [cfg.alpha for cfg in client_cfgs])


# --------------------------------------------------------------- transports


# Seconds a client waits for the server to accept its connection.
CONNECT_TIMEOUT = 60.0
# Seconds the server waits for each of its clients to connect.
ACCEPT_TIMEOUT = 60.0
# Seconds the server waits on a client's socket before it aborts the run.
REPLY_TIMEOUT = 600.0


def check_barrier(replies, G, expected, p):
    """One round's barrier: take replies until every client id in [0, G)
    has answered exactly once with an `expected` message carrying a
    length-p vector, and return them keyed by client id. A reply of
    another type, a duplicate or out-of-range id, a vector of another
    length, or running out of replies early aborts the round."""
    kind, field = ("SM", "v") if expected is SmResult else ("ADMM", "w_g")
    results = {}
    for msg in replies:
        g = getattr(msg, "g", None)
        if not isinstance(msg, expected):
            raise RuntimeError(f"client {g} sent {type(msg).__name__} in an {kind} round")
        if g in results:
            raise RuntimeError(f"barrier violation: duplicate result from client {g}")
        if not (0 <= g < G):
            raise RuntimeError(f"barrier violation: unknown client id {g}")
        size = np.size(getattr(msg, field))
        if size != p:
            raise RuntimeError(f"client {g} sent a {field} of length {size}; "
                               f"the model has length {p}")
        results[g] = msg
        if len(results) == G:
            return results
    raise RuntimeError(f"barrier violation: only {len(results)} of {G} clients answered")


class InProcessTransport:
    """Delivers messages by calling the client objects directly, in client
    order, on the server's thread. `broadcast` only records the round's
    message; `collect` hands it to every client and returns their replies,
    so the client work happens inside the barrier."""

    def __init__(self, clients):
        self.clients = list(clients)
        self._pending = None

    def start(self, G):
        if len(self.clients) != G:
            raise ValueError(f"expected {G} in-process clients, got {len(self.clients)}")

    def broadcast(self, msg):
        self._pending = msg

    def collect(self, G):
        replies = []
        for client in self.clients:
            try:
                replies.append(client.handle(self._pending))
            except Exception as exc:
                raise RuntimeError(
                    f"federation aborted: client {client.g} failed: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        return replies

    def close(self):
        self._pending = None


class _SocketChannel:
    """One end of a TCP connection, server or client side: a socket with
    Nagle's algorithm off (each frame is a whole message that the peer waits
    on, so none should sit in a send buffer) that moves one frame per
    message and waits at most `timeout` seconds on it (None: forever)."""

    def __init__(self, sock, timeout):
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def send(self, msg):
        write_frame(self._sock, msg)

    def recv(self):
        return read_frame(self._sock)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class TcpServerTransport:
    """Server side of the TCP transport. Binds immediately; `start`
    accepts exactly G client connections before the first round. `collect`
    reads one frame from each connection, in accept order, on the server's
    thread; a lost connection, a malformed frame or a client silent for
    REPLY_TIMEOUT seconds aborts the run and names the peer."""

    def __init__(self, host="127.0.0.1", port=0):
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(ACCEPT_TIMEOUT)
        self._peers = []

    @property
    def address(self):
        return self._listener.getsockname()

    def start(self, G):
        for i in range(G):
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                raise RuntimeError(
                    f"only {i} of {G} clients connected before the accept timeout"
                )
            self._peers.append((_SocketChannel(conn, REPLY_TIMEOUT), peer))

    def broadcast(self, msg):
        for channel, peer in self._peers:
            try:
                channel.send(msg)
            except OSError as exc:
                raise RuntimeError(
                    f"federation aborted: connection from {peer} lost"
                ) from exc

    def _read(self, channel, peer):
        try:
            return channel.recv()
        except socket.timeout as exc:
            raise RuntimeError(
                f"federation aborted: client at {peer} sent no reply "
                f"within {REPLY_TIMEOUT:g} s"
            ) from exc
        except OSError as exc:
            raise RuntimeError(
                f"federation aborted: connection from {peer} lost"
            ) from exc
        except ProtocolError as exc:
            raise RuntimeError(
                f"federation aborted: protocol error from {peer}: {exc}"
            ) from exc

    def collect(self, G):
        return [self._read(channel, peer) for channel, peer in self._peers]

    def close(self):
        for channel, _ in self._peers:
            channel.close()
        self._listener.close()


transport_tcp_serve = TcpServerTransport


def transport_tcp_connect(address):
    return _SocketChannel(socket.create_connection(address, timeout=CONNECT_TIMEOUT), None)


# ------------------------------------------------------------- client side


class FederatedClient:
    """State machine of one client: its shard, its config and its round
    state. Both transports drive the same object, one `RoundStart` in and
    one result out per round.

    SM rounds: reply with the exact subgradient, at the received model, of
    the worst-case risk over unbounded support, the risk the server
    reports (`robust.WorstCaseDual`, in closed form; no LP is solved).
    `shared` is a `WorstCaseDual` whose row `row` is this client; the
    in-process transport gives all its clients one, which computes every
    row once per model, and by default the client builds its own of one
    client. Either way the reply has the same bytes. Every round refuses a
    model that is not a finite vector of the data's length and features
    outside the unit box.

    ADMM rounds: the client's last w_g (zeros before round 1), its
    multipliers mu_g (ones), its QP and its warm start are its row `row`
    of `shared`, a `robust.ProximalSteps` kept for the whole run. The
    in-process transport gives all its clients one, which steps every
    client of a round in the first client's call, and by default the
    client builds its own of one client; either way its replies have the
    same bytes. Each round refuses a model that is not a finite vector of
    the data's length, folds it (the previous round's aggregate) into
    mu_g, takes the proximal step and replies with w_g; a failed step
    raises in its own client's call.
    """

    def __init__(self, g, data, cfg, algorithm, shared=None, row=0):
        self.g = g
        self.data = data
        self.cfg = cfg
        self.algorithm = algorithm
        if shared is None:
            shared, row = (WorstCaseDual([(data, cfg)]) if algorithm is Algorithm.SM
                           else ProximalSteps([(data, cfg, g)])), 0
        self.shared, self.row = shared, row

    @property
    def w_g(self):
        return self.shared.w_g[self.row]

    @property
    def mu_g(self):
        return self.shared.mu_g[self.row]

    def on_round_start(self, msg):
        if self.algorithm is Algorithm.SM:
            return SmResult(g=self.g, v=self.shared.subgradient(msg.w, self.row))
        w = _check_model(msg.w, self.data.p)
        steps = self.shared
        if steps.t != msg.t:
            # the round's first client folds w into every row's multipliers;
            # its step then takes every row's proximal step
            steps.mu_g = admm_multiplier_update(steps.mu_g, steps.w_g, w)
        return AdmmResult(g=self.g, w_g=admm_client_step(steps, self.row, msg.t, w))

    def handle(self, msg):
        """Answer one `RoundStart` with this round's result."""
        if isinstance(msg, RoundStart):
            return self.on_round_start(msg)
        raise RuntimeError(f"unexpected message: {type(msg).__name__}")


def run_client(channel, g, data, cfg, algorithm):
    """Message loop for one remote client; returns when the server shuts
    the federation down. `cfg` should be the client's entry of
    `FederationConfig.clients`, which carries the federation's rho."""
    client = FederatedClient(g, data, cfg, algorithm)
    try:
        while True:
            msg = channel.recv()
            if isinstance(msg, Shutdown):
                return
            channel.send(client.handle(msg))
    finally:
        channel.close()


# ------------------------------------------------------------- server side


def run_federation(cfg, client_data, transport=None):
    """Run T synchronous rounds and return the result with full telemetry.

    `client_data` is one DatasetView per client (also used to evaluate the
    global objective after each round). With the default in-process
    transport every client step runs on the caller's thread, inside the
    round's `collect`; no thread is started, and the ADMM clients share
    one `robust.ProximalSteps`. With a TCP server transport
    the clients connect on their own (see `run_client` /
    `transport_tcp_connect`), `start` waits for all of them and each
    `collect` reads their replies on the caller's thread.
    """
    G = cfg.G
    if len(client_data) != G:
        raise ValueError(f"expected {G} client datasets, got {len(client_data)}")
    dims = {d.p for d in client_data}
    if len(dims) != 1:
        raise ValueError(f"clients disagree on feature dimension: {sorted(dims)}")
    p = dims.pop()

    w = np.zeros(p)
    warn_above_rho_cap(cfg)

    # the server's objective, and the stack in-process SM clients read
    # their rows off
    dual = WorstCaseDual(zip(client_data, cfg.clients))
    if transport is None:
        shared = dual if cfg.algorithm is Algorithm.SM else ProximalSteps(
            (client_data[g], cfg.clients[g], g) for g in range(G))
        transport = InProcessTransport(
            FederatedClient(g, client_data[g], cfg.clients[g], cfg.algorithm, shared, g)
            for g in range(G)
        )
    expected = SmResult if cfg.algorithm is Algorithm.SM else AdmmResult
    server_mu = np.ones((G, p))
    traces = []
    try:
        # inside the try: clients that connected before a failed start still
        # get their Shutdown and their sockets closed
        transport.start(G)
        for t in range(1, cfg.T + 1):
            started = time.perf_counter()
            transport.broadcast(RoundStart(t=t, w=w))
            results = check_barrier(transport.collect(G), G, expected, p)
            if cfg.algorithm is Algorithm.SM:
                w = sm_server_update(
                    w, [(cfg.clients[g].alpha, results[g].v) for g in range(G)],
                    t, cfg.gamma0,
                )
                consensus = 0.0
            else:
                iterates = np.array([results[g].w_g for g in range(G)])
                w = admm_server_update(cfg.alphas, iterates, server_mu)
                consensus = max(float(np.linalg.norm(w_g - w)) for w_g in iterates)
                server_mu = multiplier_step(server_mu, iterates, w)
            objective = global_objective(w, client_data, cfg.clients, dual)
            traces.append(RoundTrace(
                t=t, w_after=w.copy(), global_objective=objective,
                consensus_residual=consensus,
                wall_time=time.perf_counter() - started,
            ))
    finally:
        try:
            transport.broadcast(Shutdown())
        except Exception:
            pass  # sockets may already be gone; shutdown is best-effort
        transport.close()

    best = min(traces, key=lambda tr: tr.global_objective,
               default=RoundTrace(t=0, w_after=w, global_objective=None,
                                  consensus_residual=0.0, wall_time=0.0))
    return FederationResult(
        w_last=GlobalModel(w=w),
        w_best=GlobalModel(w=best.w_after.copy()),
        best_round=best.t,
        best_objective=best.global_objective,
        traces=traces,
    )
