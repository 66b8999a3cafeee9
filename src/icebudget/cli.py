"""Command-line entry point.

Subcommands mirror the pipeline stages; `run` executes everything end to
end, reusing saved allocators trained from the same inputs, the others run
or inspect individual stages.
Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .config import POLICY_VARIANTS, load_config
from .corpus import load_dataset
from .embedder import HashEncoder, encode_dataset, save_embeddings
from .errors import IceBudgetError, ValidationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icebudget",
        description="Budgeted distributed in-context-example retrieval")
    parser.add_argument("--config", help="path to a YAML experiment config")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="override the output directory")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("run", help="execute the full pipeline and write a report")
    sub.add_parser("partition", help="partition the corpus into client shards")

    encode = sub.add_parser("encode", help="hash-encode a JSONL dataset")
    encode.add_argument("--dataset", required=True)
    encode.add_argument("--output", required=True)
    encode.add_argument("--dim", type=int, default=64)

    sub.add_parser("build-budget-dataset",
                   help="construct the allocator supervision set")
    sub.add_parser("train-allocator", help="train the per-client allocators")

    infer = sub.add_parser("infer", help="answer one query with the pipeline")
    infer.add_argument("--text", required=True)
    infer.add_argument("--policy", default=None, choices=POLICY_VARIANTS,
                       help="override the first configured policy")
    infer.add_argument("--seed-index", type=int, default=0)

    report = sub.add_parser("report", help="budget-efficiency analysis")
    report.add_argument("--transcripts", help="transcript JSONL path")
    report.add_argument("--curve", default="0.5,1.0,1.25,2.0",
                        help="comma-separated budget multipliers")
    report.add_argument("--seed-index", type=int, default=0)
    return parser


def _load_cfg(args):
    if not args.config:
        raise ValidationError("this command needs --config")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    return cfg


def _cmd_run(args):
    from .harness import run_experiment
    cfg = _load_cfg(args)
    report = run_experiment(cfg)
    print(f"report written to {os.path.join(cfg.output_dir, 'report.json')}")
    for name, result in report["policies"].items():
        print(f"  {name}: accuracy {result['mean_accuracy']:.4f} "
              f"± {result['std_accuracy']:.4f}")
    return 0


def _per_seed(describe, args):
    """Run one stage for every seed of the config, one stdout line each."""
    from .harness import save_shards, seed_contexts
    cfg = _load_cfg(args)
    contexts = seed_contexts(cfg, range(cfg.num_seeds), args.command)
    save_shards(contexts, args.command)
    for i, line in enumerate(describe(contexts)):
        print(f"seed {i}: {line}")
    return 0


def _describe_partition(contexts):
    return [f"shard sizes {[len(s) for s in ctx.shards]}" for ctx in contexts]


def _describe_budget_dataset(contexts):
    return [f"{len(b)} budget records ({b.num_classes} classes)"
            for b in (ctx.budget_dataset(save=True) for ctx in contexts)]


def _describe_allocators(contexts):
    from .harness import allocators
    return [f"{'trained' if ctx.trained else 'loaded'} {model.num_clients} "
            f"allocators, final losses "
            f"{[f'{l:.4f}' for l in model.loss_history[-1]]}"
            for ctx, model in zip(contexts, allocators(contexts))]


def _cmd_encode(args):
    dataset = load_dataset(args.dataset)
    seed = args.seed if args.seed is not None else 0
    store = encode_dataset(dataset, HashEncoder(args.dim, seed))
    save_embeddings(store, args.output)
    print(f"wrote {len(store)} embeddings (dim {store.dim}) to {args.output}")
    return 0


def _cmd_infer(args):
    from .federation import distributed_infer
    from .harness import _policy_for, _stage, seed_contexts
    cfg = _load_cfg(args)
    # the query is hash-encoded, so the stores must be hash-encoded text too
    if cfg.dataset is None or cfg.embeddings.source != "hash":
        raise ValidationError(
            "ad-hoc text inference needs a 'dataset' config with "
            "'embeddings.source: hash'")
    if args.policy:
        cfg.policies = [args.policy]
    with _stage("infer", args.seed_index):
        [ctx] = seed_contexts(cfg, [args.seed_index], "infer")
        e_q = ctx.encoder.encode_many([args.text])[0]
        server = ctx.make_server(_policy_for(cfg.policies[0], ctx.run_seed))
        answer, transcript = distributed_infer(server, ctx.clients, args.text,
                                               e_q)
    print(transcript.to_json())
    print(f"answer: {ctx.train_ds.labels.verbalizers[answer]} ({answer})")
    return 0


def _cmd_report(args):
    from .harness import _stage, efficiency_curve_from_run
    try:
        multipliers = [float(x) for x in args.curve.split(",") if x]
    except ValueError as exc:
        raise ValidationError(f"--curve: {exc}") from exc
    if not all(map(math.isfinite, multipliers)):
        raise ValidationError(f"--curve: multipliers must be finite: {args.curve}")
    if any(m < 0 for m in multipliers):
        raise ValidationError(
            f"--curve: multipliers must be nonnegative: {args.curve}")
    cfg = _load_cfg(args)
    with _stage("report", args.seed_index):
        rows = efficiency_curve_from_run(cfg, args.seed_index, multipliers,
                                         args.transcripts)
    print("multiplier\tmean_recall")
    for row in rows:
        print(f"{row['multiplier']:.2f}\t{row['mean_recall']:.4f}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "partition": functools.partial(_per_seed, _describe_partition),
    "encode": _cmd_encode,
    "build-budget-dataset": functools.partial(_per_seed,
                                              _describe_budget_dataset),
    "train-allocator": functools.partial(_per_seed, _describe_allocators),
    "infer": _cmd_infer,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage()
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IceBudgetError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
