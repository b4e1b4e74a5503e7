"""Command-line front end.

Subcommands:
  train     run all repetitions of a config, write result files
  evaluate  score a saved model against a CSV dataset
  cv        cross-validate repetition 0 of a config and print the choice
  serve     run the federation server over TCP for one config
  client    join a TCP federation as one client of a config

`serve` and `client` rebuild the same deterministic shards from the shared
config (same seed, same partition), so the client processes hold exactly
the data the in-process run would use; the grid must be a single point.

Exit codes: 0 success, 1 config error, 2 run failure, 3 partial failure
(more than 10% of repetitions failed).
"""

import argparse
import json
import sys

import numpy as np

from .core import GlobalModel, evaluate
from .data import apply_minmax, load_csv
from .experiments import (
    ConfigError,
    ExperimentConfig,
    FEDERATED_MODELS,
    cross_validate,
    emit_results,
    exit_code_for,
    federation_config,
    grid_points,
    kept_models,
    load_model,
    prepare_repetition,
    run_experiment,
    save_model,
)
from .federation import (
    run_client,
    run_federation,
    transport_tcp_connect,
    transport_tcp_serve,
)


def _single_point_params(cfg):
    for knob, values in cfg.grid.items():
        if len(values) != 1:
            raise ConfigError(
                f"serve/client need a single-point grid, but {knob!r} has "
                f"{len(values)} values"
            )
    point = grid_points(cfg.grid)[0]
    if "T" in cfg.grid:
        point["T"] = int(cfg.grid["T"][0])
    return point


def _address(text):
    """argparse type of `--address`: host:port, the port in 1-65535."""
    host, _, port = text.rpartition(":")
    if host and port.isascii() and port.isdigit() and 1 <= int(port) <= 65535:
        return host, int(port)
    raise argparse.ArgumentTypeError(f"expected host:port with a port in 1-65535, got {text!r}")


def _federation_setup(cfg, rep):
    if cfg.model not in FEDERATED_MODELS:
        raise ConfigError(f"serve/client support sm/admm/admm_sc, not {cfg.model!r}")
    seed = cfg.base_seed + rep
    shards, test, stats = prepare_repetition(cfg, seed)
    params = _single_point_params(cfg)
    fed = federation_config(cfg, params, shards, int(params["T"]))
    return fed, shards, test, stats


def cmd_train(args):
    cfg = ExperimentConfig.from_file(args.config)
    out_dir = args.output or cfg.output or f"{cfg.name}_results"

    def progress(rep):
        if rep["ok"]:
            print(f"rep seed={rep['seed']}: f1={rep['f1']:.4f} "
                  f"mccr={rep['mccr']:.4f} ({rep['wall_time']:.1f}s)")
        else:
            print(f"rep seed={rep['seed']}: FAILED {rep['error']}")

    result = run_experiment(cfg, progress=progress)
    paths = emit_results(result, out_dir)
    last_ok = next((r for r in reversed(result.repetitions) if r["ok"]), None)
    if last_ok is not None:
        # the repetition already trained this model; only its min-max stats
        # need rebuilding
        _, _, stats = prepare_repetition(cfg, last_ok["seed"])
        model = GlobalModel(w=np.array(last_ok["model_w"], dtype=float))
        model_path = f"{out_dir}/model.json"
        save_model(model_path, model, stats)
        paths["model"] = model_path
    print(json.dumps(result.aggregates, indent=2, sort_keys=True))
    print(f"wrote {sorted(paths.values())}")
    return exit_code_for(result)


def cmd_evaluate(args):
    model, stats = load_model(args.model)
    data = load_csv(args.csv, args.label_column, args.positive_label)
    if data.p != model.w.size:
        raise ValueError(f"{args.csv} has {data.p} features but the model in "
                         f"{args.model} has {model.w.size} weights")
    view = apply_minmax(data, stats)
    metrics = evaluate(model, view)
    print(json.dumps({
        "f1": metrics.f1, "mccr": metrics.mccr, "n": metrics.n,
        "confusion": [[int(v) for v in row] for row in metrics.confusion],
    }, indent=2, sort_keys=True))
    return 0


def cmd_cv(args):
    cfg = ExperimentConfig.from_file(args.config)
    seed = cfg.base_seed + args.rep
    shards, _, _ = prepare_repetition(cfg, seed)
    chosen, report = cross_validate(cfg, shards, seed)
    print(json.dumps({"chosen": chosen, "fold_resamples": report["fold_resamples"],
                      "table": report["table"]}, indent=2, sort_keys=True))
    return 0


def cmd_serve(args):
    cfg = ExperimentConfig.from_file(args.config)
    fed, shards, test, _ = _federation_setup(cfg, args.rep)
    server = transport_tcp_serve(host=args.host, port=args.port)
    host, port = server.address
    print(f"serving on {host}:{port}, waiting for {fed.G} clients", flush=True)
    result = run_federation(fed, shards, transport=server)
    model = kept_models(cfg.model, result.traces, [fed.T])[fed.T]
    metrics = evaluate(model, test)
    print(json.dumps({
        "model_w": [float(v) for v in model.w],
        "w_last": [float(v) for v in result.w_last.w],
        "best_round": result.best_round,
        "best_objective": result.best_objective,
        "test_f1": metrics.f1,
    }, indent=2, sort_keys=True))
    return 0


def cmd_client(args):
    cfg = ExperimentConfig.from_file(args.config)
    fed, shards, _, _ = _federation_setup(cfg, args.rep)
    g = args.client_id
    if not (0 <= g < fed.G):
        raise ConfigError(f"client id must be in [0, {fed.G}), got {g}")
    channel = transport_tcp_connect(args.address)
    run_client(channel, g, shards[g], fed.clients[g], fed.algorithm)
    print(f"client {g} finished", flush=True)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fedrosvm",
        description="Federated distributionally robust SVM experiment driver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a config end to end")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--label-column", required=True)
    p.add_argument("--positive-label", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="cross-validate one repetition")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--rep", type=int, default=0)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("serve", help="run the federation server over TCP")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--rep", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="join a TCP federation as one client")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--address", required=True, type=_address, help="host:port of the server")
    p.add_argument("--client-id", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.set_defaults(func=cmd_client)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
