"""The benchmark's workloads: set-up, closed timed loop and output checks.

Every workload is a closed loop of one caller in one process: the next
training step (or decoded example) starts when the previous one returns.
Inputs come from the bundled corpus and the ``--seed``; the model is always
initialised with seed 0.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

import gbst
from gbst import model as M
from gbst import tensor as T
from gbst import train as TR
from gbst.bytes_data import ByteSequence, load_corpus
from gbst.cli import bundled_corpus_path
from gbst.errors import NonFiniteError
from gbst.flops import count_flops, default_target_len
from gbst.model import ModelState, StackConfig
from gbst.subword import GbstConfig
from gbst.tensor import no_grad

from tracing import STAGE_FLOP_TERM, Tracer, per_layer_units

# end-to-end metric -> unit; BENCHMARK.json lists the same names
E2E_UNITS = {
    "setup_s": "s",
    "iter_ms_p50": "ms",
    "iter_ms_tail": "ms",
    "bytes_per_s": "B/s",
    "nats_per_byte": "nat/B",
    "peak_mb": "MB",
}
# the name each end-to-end metric has on a training or a decoding workload
TRAIN_NAMES = {
    "iter_ms_p50": "step_ms_p50",
    "iter_ms_tail": "step_ms_tail",
    "bytes_per_s": "train_bytes_per_s",
    "nats_per_byte": "train_nats_per_byte",
}
DECODE_NAMES = {
    "iter_ms_p50": "decode_example_ms_p50",
    "iter_ms_tail": "decode_example_ms_tail",
    "bytes_per_s": "decode_bytes_per_s",
    "nats_per_byte": "decode_nats_per_byte",
}

IMPORT_SAMPLES = 3
SETUP_SAMPLES = 5
# an emitted byte whose teacher-forced logit is this close to the maximum
# counts as the argmax: prefix and full-sequence passes may differ in the
# last bits of a float64 sum
ARGMAX_TIE_TOL = 1e-9
# at seed-0 init the output projection gives near-uniform logits. The loss
# at init is the quality metric because the first training steps at this lr
# swing between 4 and 30 nats, so a mean over them would mostly be seed noise
INIT_LOSS = math.log(256)
INIT_LOSS_TOL = 0.5
NEWLINE = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    decode: bool  # greedy decoding at init instead of training
    stack: StackConfig
    gbst: GbstConfig | None
    batch_size: int
    window_len: int
    joined: bool  # windows are cut from the corpus joined into one stream


DESK_GBST = GbstConfig(embedding_dim=64)  # M=4, d_s=2, conv 5, no offsets or calibration

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_pretrain",
            "desk config, batch 8 of 128-byte windows: many tiny ops, the per-head "
            "attention loop and the decoder dominate; GBST is about 15% of a step",
            False, StackConfig(), DESK_GBST, 8, 128, False,
        ),
        Workload(
            "long_gbst",
            "1024-byte windows, GBST d_s=4 with offsets and calibration (10 streams), "
            "batch 1: the frontend is about 45% of a step",
            False,
            StackConfig(max_positions=512),
            GbstConfig(embedding_dim=64, downsample_rate=4, enable_offsets=True, enable_calibration=True),
            1, 1024, True,
        ),
        Workload(
            "long_bytes",
            "1024-byte windows through the identity frontend, batch 1: the byte-level "
            "baseline of the paper's speed claim; full-length encoder attention dominates",
            False, StackConfig(frontend="identity", max_positions=1024), None, 1, 1024, True,
        ),
        Workload(
            "greedy_decode",
            "desk model at init greedily decodes span-corrupted 512-byte windows to the "
            "target length: the inference path, no tape, the decoder is about 96%",
            True, StackConfig(), DESK_GBST, 1, 512, True,
        ),
    )
}


@dataclass
class Prepared:
    state: ModelState
    cfg: TR.TrainConfig
    docs: list[ByteSequence]
    opt: object


def prepare(w: Workload, seed: int) -> Prepared:
    """Corpus load and model init: the work that ``setup_s`` measures."""
    docs = load_corpus(bundled_corpus_path())
    if w.joined:
        ids: list[int] = []
        for doc in docs:
            if ids:
                ids.append(NEWLINE)
            ids.extend(doc.ids)
        docs = [ByteSequence(ids)]
    # Adam with inverse-sqrt lr 0.1 are the TrainConfig defaults
    cfg = TR.TrainConfig(batch_size=w.batch_size, window_len=w.window_len, seed=seed)
    return Prepared(ModelState(w.stack, w.gbst, seed=0), cfg, docs, TR.make_optimizer(cfg))


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gbst.__file__)))
    code = "import time; t = time.perf_counter(); import gbst.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.split()[-1])


def measure_setup(w: Workload, seed: int) -> dict[str, float]:
    imports = statistics.median(import_seconds() for _ in range(IMPORT_SAMPLES))
    builds = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        prepare(w, seed)
        builds.append(time.perf_counter() - t0)
    build = statistics.median(builds)
    return {"setup_s": imports + build, "import_s": imports, "build_s": build}


def window_bytes(ex) -> int:
    """Length of the uncorrupted window an example was cut from."""
    return len(ex.encoder_input.ids) + len(ex.decoder_target.ids) - 2 * ex.span_count - 1


def decode_mismatches(state: ModelState, memory, emitted: list[int]) -> int:
    """Positions where one teacher-forced pass over ``emitted`` does not pick
    the emitted byte as its argmax."""
    with no_grad():
        logits = M.decode_stack(state, memory, [M.BOS_ID] + list(emitted[:-1])).data
    chosen = logits[np.arange(len(emitted)), emitted]
    return int(np.count_nonzero(chosen < logits.max(axis=1) - ARGMAX_TIE_TOL))


class Runner:
    """One closed-loop caller; counts attempted and failed items."""

    def __init__(self, w: Workload, p: Prepared, seed: int):
        self.w, self.p = w, p
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.losses: list[float] = []  # training loss of each successful step
        self.decoded: list[tuple] = []  # (memory, emitted ids, target ids)
        self.problems: list[str] = []

    def item(self) -> int:
        """Run one step or example; returns the bytes it processed (0 if it failed)."""
        self.attempted += 1
        p = self.p
        batch = TR.make_batch(p.docs, p.cfg, self.rng)
        if self.w.decode:
            (ex,) = batch
            target = ex.decoder_target.ids
            try:
                with no_grad():
                    memory, _ = M.encode_input(p.state, ex.encoder_input.ids)
                emitted = M.greedy_decode(p.state, memory, len(target), stop_after_spans=None).ids
            except NonFiniteError:
                self.failed += 1
                return 0
            self.decoded.append((memory, emitted, target))
            return len(emitted)
        try:
            loss = TR.train_step(p.state, batch, p.cfg, p.opt)
        except TR.TrainingAborted:
            self.failed += 1
            return 0
        if not math.isfinite(loss):
            self.failed += 1
            return 0
        self.losses.append(loss)
        return sum(window_bytes(ex) for ex in batch)

    def check(self) -> float:
        """Check the outputs; returns the nats per target byte of the first
        item, which the model computed at its seed-0 init."""
        nats = math.nan
        if self.w.decode:
            state = self.p.state
            for memory, emitted, target in self.decoded:
                if len(emitted) != len(target) or decode_mismatches(state, memory, emitted):
                    self.failed += 1
            if self.decoded:
                memory, _, target = self.decoded[0]
                with no_grad():
                    logits = M.decode_stack(state, memory, [M.BOS_ID] + list(target[:-1]))
                    nats = float(T.cross_entropy_with_logits(logits, target).data)
        elif self.losses:
            nats = self.losses[0]
        if not abs(nats - INIT_LOSS) <= INIT_LOSS_TOL:
            self.problems.append(f"nats per byte at init {nats:.4f} is not near ln 256")
        return nats


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    xs = sorted(samples)
    i = max(len(xs) - 11, len(xs) // 2)
    return xs[i], 100.0 * (i + 1) / len(xs)


def timed_loop(runner: Runner, seconds: float):
    durations: list[float] = []
    processed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while not durations or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        processed += runner.item()
        durations.append(time.perf_counter() - t0)
    return durations, processed, time.perf_counter() - start


def peak_mb(runner: Runner) -> float:
    """tracemalloc peak of one item, traced apart from the timed loop."""
    tracemalloc.start()
    try:
        runner.item()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


@dataclass
class Result:
    workload: Workload
    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    units: dict[str, str]
    notes: dict[str, object]

    def names(self) -> dict[str, str]:
        """Metric name -> the name it has on this kind of workload."""
        renames = DECODE_NAMES if self.workload.decode else TRAIN_NAMES
        return {m: renames.get(m, m) for m in self.metrics}


def run(w: Workload, seed: int, seconds: float, trace: bool) -> Result:
    setup = None if trace else measure_setup(w, seed)
    p = prepare(w, seed)
    runner = Runner(w, p, seed)
    runner.item()  # warm-up: first-call costs are not timed
    if trace:
        metrics, units, notes = _traced(runner, seconds)
    else:
        metrics, units, notes = _untraced(runner, seconds, setup)
    nats = runner.check()
    if not trace:
        metrics["nats_per_byte"] = nats
    bad = [m for m, v in metrics.items() if not math.isfinite(v)]
    if bad:
        runner.problems.append(f"non-finite metrics: {', '.join(bad)}")
    notes["problems"] = runner.problems
    correct = runner.failed == 0 and not runner.problems
    return Result(w, runner.attempted, runner.failed, correct, metrics, units, notes)


def _untraced(runner: Runner, seconds: float, setup: dict[str, float]):
    # the second item of the run, so the traced input depends on the seed only
    peak = peak_mb(runner)
    durations, processed, wall = timed_loop(runner, seconds)
    ms = [d * 1e3 for d in durations]
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "setup_s": setup["setup_s"],
        "iter_ms_p50": statistics.median(ms),
        "iter_ms_tail": tail_ms,
        "bytes_per_s": processed / wall,
        "peak_mb": peak,
    }
    notes = {"samples": len(ms), "tail_percentile": tail_pct, **setup}
    return metrics, dict(E2E_UNITS), notes


def _traced(runner: Runner, seconds: float):
    """Alternate untraced and traced items so both see the same machine load."""
    w = runner.w
    tracer = Tracer(w.stack, w.gbst)
    plain: list[float] = []
    traced: list[float] = []
    decoded = 0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        runner.item()
        plain.append((time.perf_counter() - t0) * 1e3)
        with tracer.installed(runner.p.opt), tracer.item():
            t0 = time.perf_counter()
            got = runner.item()
            traced.append((time.perf_counter() - t0) * 1e3)
        decoded += got if w.decode else 0
    metrics = tracer.metrics(decoded, statistics.median(plain), statistics.median(traced))
    return metrics, per_layer_units(), {"traced_items": len(traced), "untraced_items": len(plain)}


def environment() -> dict[str, object]:
    """Cores, BLAS build and thread count, numpy and Python versions."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def paper_claim(results: dict[str, Result]) -> list[str]:
    """The paper's speed claim as measured and analytic ratios (not gated)."""
    gbst_run, bytes_run = results["long_gbst"], results["long_bytes"]
    g_ms, b_ms = gbst_run.metrics["iter_ms_p50"], bytes_run.metrics["iter_ms_p50"]
    w_g, w_b = gbst_run.workload, bytes_run.workload
    target = default_target_len(w_g.window_len)
    flops_g = count_flops(w_g.stack, w_g.gbst, w_g.window_len, target)
    flops_b = count_flops(w_b.stack, w_b.gbst, w_b.window_len, target)
    stage_terms = ", ".join(f"{stage}={term}" for stage, term in STAGE_FLOP_TERM.items() if term)
    return [
        "paper claim (byte-level baseline over GBST, same L=1024 and batch 1; not gated)",
        f"  measured step_ms_p50 ratio  {b_ms / g_ms:.3f}  = long_bytes {b_ms:.2f} ms / long_gbst {g_ms:.2f} ms",
        f"  count_flops forward ratio   {flops_b.flops_forward / flops_g.flops_forward:.3f}"
        f"  = {flops_b.flops_forward} / {flops_g.flops_forward} FLOP at L=1024, target {target}",
        f"  GBST stages in count_flops: {stage_terms}; downsample has no term",
    ]
