"""Command-line surface: pretrain, finetune, score-viz, gradcheck, profile,
oracle-test.

Exit codes: 0 ok, 1 check failure, 2 usage/config error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from importlib import resources

import numpy as np

from .bytes_data import encode, load_corpus
from .config import RunConfig, format_config, load_config, resolve_for, with_model
from .errors import ConfigError, ShapeError
from .flops import benchmark_steps, check_bench_steps, count_flops
from .gradcheck import DEFAULT_TOLERANCE, REQUIRED_GROUPS, run_suite
from .model import ModelState, load_checkpoint, run_frontend, save_checkpoint
from .reference import run_oracle_suite
from .subword import serialize_scores
from .tensor import no_grad
from .train import TrainingAborted, dump_batch, train_loop

HEAT_CHARS = " .:-=+*#%@"


def bundled_corpus_path() -> str:
    return str(resources.files("gbst").joinpath("data/toy_corpus.txt"))


def _load_run_config(args, command: str) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    cfg = resolve_for(command, cfg)
    if cfg.corpus is None:
        cfg = dataclasses.replace(cfg, corpus=bundled_corpus_path())
    # building each section checks its values, before a command writes anything
    cfg.stack_config(), cfg.gbst_config(), cfg.train_config()
    return cfg


def _write_out(out_dir: str, name: str, text: str) -> None:
    """Write ``text`` to the file ``name`` in ``out_dir``, which is made if
    missing; a directory that cannot be made is a ``ConfigError`` naming it."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out_dir}: {err.strerror}") from err
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _run_training(cfg: RunConfig, state: ModelState) -> int:
    docs = load_corpus(cfg.corpus)
    _write_out(cfg.out_dir, "config.resolved.txt", format_config(cfg))
    train_cfg = cfg.train_config()
    log_path = os.path.join(cfg.out_dir, "metrics.log")
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.gbst")

    with open(log_path, "w", encoding="utf-8") as log:

        def emit(line: str) -> None:
            print(line)
            log.write(line + "\n")

        def checkpoint(st: ModelState) -> None:
            save_checkpoint(st, os.path.join(cfg.out_dir, f"checkpoint-{st.step}.gbst"))

        try:
            train_loop(state, docs, train_cfg, log_fn=emit, checkpoint_fn=checkpoint)
        except TrainingAborted as err:
            dump_path = os.path.join(cfg.out_dir, "nan_batch.txt")
            dump_batch(err.batch, dump_path)
            print(f"error: {err} (offending batch dumped to {dump_path})", file=sys.stderr)
            return 3
    save_checkpoint(state, ckpt_path)
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_run_config(args, "pretrain")
    state = ModelState(cfg.stack_config(), cfg.gbst_config(), seed=cfg.seed)
    return _run_training(cfg, state)


def cmd_finetune(args) -> int:
    cfg = _load_run_config(args, "finetune")
    if cfg.checkpoint is None:
        raise ConfigError("finetune requires a checkpoint path in the config")
    state = load_checkpoint(cfg.checkpoint)
    state.step = 0
    # the resolved config describes the checkpoint's model, which is the one trained
    return _run_training(with_model(cfg, state.stack, state.gbst), state)


def _heatmap(weights: np.ndarray, labels: list[str]) -> str:
    # rows = candidate streams, columns = byte positions, shade by decile
    lines = []
    for c, label in enumerate(labels):
        cells = "".join(
            HEAT_CHARS[min(len(HEAT_CHARS) - 1, int(w * 10))] for w in weights[:, c]
        )
        lines.append(f"{label:>10} |{cells}|")
    return "\n".join(lines)


def cmd_score_viz(args) -> int:
    if not args.checkpoint or not args.text:
        raise ConfigError("score-viz needs --checkpoint and --text")
    state = load_checkpoint(args.checkpoint)
    if state.stack.frontend != "gbst":
        raise ConfigError("checkpoint has no gbst frontend to visualize")
    seq = encode(args.text)
    max_bytes = state.stack.max_positions * state.gbst.downsample_rate
    ids = seq.ids
    if len(ids) > max_bytes:
        print(f"warning: input truncated to {max_bytes} bytes", file=sys.stderr)
        ids = ids[:max_bytes]
    with no_grad():
        _, out = run_frontend(state, ids)
    tsv = serialize_scores(out.scores)
    _write_out(args.out or "runs/latest", "scores.tsv", tsv)
    sys.stdout.write(tsv)
    print(_heatmap(out.scores.mixing_weights().data, out.scores.labels))
    return 0


def cmd_gradcheck(args) -> int:
    seeds = [args.seed if args.seed is not None else 0]
    report, ok = run_suite(seeds=seeds, corrupt_op=args.corrupt)
    offenders = []
    for group in sorted(report):
        err = report[group]
        status = "ok" if err < DEFAULT_TOLERANCE else "FAIL"
        print(f"{group}\t{err:.3e}\t{status}")
        if err >= DEFAULT_TOLERANCE:
            offenders.append(group)
    missing = [g for g in REQUIRED_GROUPS if g not in report]
    if missing:
        print(f"error: missing parameter groups: {missing}", file=sys.stderr)
        return 1
    if offenders:
        print(f"gradient check failed for: {', '.join(offenders)}", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    cfg = _load_run_config(args, "pretrain")
    seq_len = cfg.window_len
    rows = [("identity", None)] + [("gbst", rate) for rate in (1, 2, 3, 4)]
    if not args.no_bench:
        check_bench_steps(args.bench_steps)  # before the warm-up runs
        # prime allocator/BLAS so the first grid row is not penalized
        warm = dataclasses.replace(cfg, frontend="gbst", batch_size=1)
        benchmark_steps(
            ModelState(warm.stack_config(), warm.gbst_config(), seed=0),
            warm.train_config(),
            10,
            min(seq_len, 128),
        )
    print(f"{'frontend':>10} {'d_s':>4} {'params':>10} {'flops':>14} {'steps/s':>9} {'peak MB':>8}")
    for frontend, rate in rows:
        row_cfg = dataclasses.replace(
            cfg,
            frontend=frontend,
            downsample_rate=rate if rate is not None else cfg.downsample_rate,
        )
        stack, gbst = row_cfg.stack_config(), row_cfg.gbst_config()
        report = count_flops(stack, gbst, seq_len)
        speed = peak = ""
        if not args.no_bench:
            state = ModelState(stack, gbst, seed=cfg.seed)
            bench = benchmark_steps(state, row_cfg.train_config(), args.bench_steps, seq_len)
            speed = f"{bench.steps_per_second:9.3f}"
            peak = f"{bench.peak_alloc_bytes / 1e6:8.2f}"  # tracemalloc peak of one step
        print(f"{frontend:>10} {rate if rate is not None else '-':>4} "
              f"{report.params:>10} {report.flops_forward:>14} {speed:>9} {peak:>8}")
        sys.stdout.write(report.machine_lines())
    return 0


def cmd_oracle_test(args) -> int:
    worst, failures = run_oracle_suite(n_instances=args.instances, seed=args.seed or 0)
    print(f"instances={args.instances} worst_abs_diff={worst:.3e} failures={failures}")
    return 0 if failures == 0 else 1


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take no negative seed."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbst",
        description="byte-level encoder-decoder with soft subword tokenization",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--seed", type=_seed, help="override the config seed")
    common.add_argument("--out", help="override the output directory")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pretrain", parents=[common]).set_defaults(fn=cmd_pretrain)
    sub.add_parser("finetune", parents=[common]).set_defaults(fn=cmd_finetune)

    viz = sub.add_parser("score-viz", parents=[common])
    viz.add_argument("--checkpoint", help="model checkpoint to load")
    viz.add_argument("--text", help="UTF-8 text to visualize")
    viz.set_defaults(fn=cmd_score_viz)

    gc = sub.add_parser("gradcheck", parents=[common])
    gc.add_argument("--corrupt", help="negative control: corrupt this op's backward rule")
    gc.set_defaults(fn=cmd_gradcheck)

    prof = sub.add_parser("profile", parents=[common])
    prof.add_argument("--no-bench", action="store_true", help="analytic counts only")
    prof.add_argument("--bench-steps", type=int, default=10,
                      help="timed steps per row (needs exclusive CPU access)")
    prof.set_defaults(fn=cmd_profile)

    ot = sub.add_parser("oracle-test", parents=[common])
    ot.add_argument("--instances", type=int, default=1000)
    ot.set_defaults(fn=cmd_oracle_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ShapeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TrainingAborted as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
