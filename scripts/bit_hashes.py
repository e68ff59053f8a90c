"""Print the bits that a refactor must keep: initialization, training and
cached decoding.

Run from anywhere: ``python3 scripts/bit_hashes.py``. The script imports the
``gbst`` package of the checkout it sits in, which sets BLAS to one thread
at import. Diff its output against the same script run in a copy of another
commit (a ``git archive`` of the parent, say) to show that a change keeps the
bits. Run it both unrestricted and under ``taskset -c 0``: the package hands
attention work to a second thread only where the process may use two CPUs,
and the hashes must not depend on that. A commit older than the import's
BLAS pin needs ``OPENBLAS_NUM_THREADS=1`` in the environment.

Lines printed:

- ``env cpus=<n> lane=<yes|no> blas_threads=<n> blas_core=<name>
  simd=<list>``: the CPUs the process may use, whether the package runs
  attention work on a second thread, the BLAS thread count its import pin
  read back (``None`` where it found no setter, or where the package has no
  pin), the CPU core whose kernels numpy's OpenBLAS selected (``None`` where
  it reports none, or where the package has no OpenBLAS lookup) and the SIMD
  extensions numpy found on the CPU and dispatches to. The last two choose
  the kernels, so hashes from two hosts agree only where both read the
  same. This line may differ between runs, the rest must not;
- ``init <name> sha256=<...>``: the SHA-256 over every parameter's name and
  float64 bytes of ``init_gbst_params`` at ``default_rng(0)``, the GBST-only
  init of the oracle suite, for a small config with and without a conv;
- ``train <config> sha256=<...> loss_sha256=<...> records=<...>``: the
  SHA-256 over every parameter's name and float64 bytes after
  ``train_loop``, the SHA-256 over the float64 bytes of the loss each step
  returned, in step order (what ``metrics.log`` reports), and the tape
  records of each step (one number when all steps record the same count),
  for the benchmark's three training configs and for the desk config at
  batch 1 and 32 too;
- ``decode seed=<s> sha256=<...> max_dev=<...>``: the SHA-256 of the logits
  of 100 one-byte cached greedy ``decode_stack`` steps, and their largest
  absolute deviation from one teacher-forced pass over the same prefix;
- ``decode ops_per_byte=<n>``: the ops (calls of ``tensor._record``) that
  each of those steps runs for seed 0, one number when all steps but the
  first run the same count (the first also projects the memory's keys and
  values), else each step's count.
"""

import ctypes
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from gbst import tensor as T  # noqa: E402
from gbst.bytes_data import ByteSequence, load_corpus  # noqa: E402
from gbst.cli import bundled_corpus_path  # noqa: E402
from gbst.model import BOS_ID, KVCache, ModelState, StackConfig, decode_stack, encode_input  # noqa: E402
from gbst.subword import GbstConfig, init_gbst_params  # noqa: E402
from gbst.train import TrainConfig, train_loop  # noqa: E402

DESK_GBST = GbstConfig(embedding_dim=64)
INIT = {
    "conv5": GbstConfig(embedding_dim=8),
    "no_conv": GbstConfig(embedding_dim=8, conv_kernel_size=None),
}
# name -> (stack, gbst, batch size, window length, steps)
TRAINING = {
    "desk": (StackConfig(), DESK_GBST, 8, 128, 20),
    "desk_batch1": (StackConfig(), DESK_GBST, 1, 128, 20),
    "desk_batch32": (StackConfig(), DESK_GBST, 32, 128, 6),
    "long_gbst": (
        StackConfig(),
        GbstConfig(embedding_dim=64, downsample_rate=4, enable_offsets=True, enable_calibration=True),
        1, 1024, 6,
    ),
    "long_bytes": (StackConfig(frontend="identity", max_positions=1024), None, 1, 1024, 6),
}
DECODE_STEPS = 100
DECODE_SEEDS = (0, 1, 2)
DECODE_WINDOW = 256


def joined_corpus() -> list[ByteSequence]:
    """The bundled corpus as one stream, documents separated by a newline."""
    ids: list[int] = []
    for doc in load_corpus(bundled_corpus_path()):
        ids.extend(([10] if ids else []) + doc.ids)
    return [ByteSequence(ids)]


def parameter_hash(params: dict) -> str:
    h = hashlib.sha256()
    for name, p in params.items():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def init_line(name: str) -> str:
    params = init_gbst_params(INIT[name], np.random.default_rng(0))
    return f"init {name} sha256={parameter_hash(params)}"


def train_line(name: str, docs: list[ByteSequence]) -> str:
    stack, gbst, batch, window, steps = TRAINING[name]
    state = ModelState(stack, gbst, seed=0)
    cfg = TrainConfig(batch_size=batch, window_len=window, steps=steps, seed=0)
    records: list[int] = []
    history = train_loop(state, docs, cfg, log_fn=lambda _: records.append(len(T.active_tape())))
    losses = hashlib.sha256(np.array([rec.loss for rec in history], dtype=np.float64).tobytes()).hexdigest()
    counts = sorted(set(records))
    shown = str(counts[0]) if len(counts) == 1 else ",".join(map(str, records))
    return f"train {name} sha256={parameter_hash(state.params)} loss_sha256={losses} records={shown}"


def cached_decode(seed: int, docs: list[ByteSequence]):
    """The model, the encoder memory of seed's window, the logits of
    ``DECODE_STEPS`` cached greedy steps and the ``tensor._record`` calls of
    each step."""
    state = ModelState(StackConfig(), DESK_GBST, seed=0)
    ids = docs[0].ids
    start = int(np.random.default_rng(seed).integers(len(ids) - DECODE_WINDOW))
    record, ops = T._record, []

    def counted(*args, **kwargs):
        ops[-1] += 1
        return record(*args, **kwargs)

    with T.no_grad():
        memory, _ = encode_input(state, ids[start : start + DECODE_WINDOW])
        cache, steps, nxt = KVCache(), [], BOS_ID
        T._record = counted
        try:
            for _ in range(DECODE_STEPS):
                ops.append(0)
                steps.append(decode_stack(state, memory, [nxt], cache=cache).data)
                nxt = int(np.argmax(steps[-1][-1]))
        finally:
            T._record = record
    return state, memory, np.concatenate(steps), ops


def decode_line(seed: int, docs: list[ByteSequence]) -> str:
    state, memory, cached, _ = cached_decode(seed, docs)
    with T.no_grad():
        prefix = [BOS_ID] + [int(np.argmax(row)) for row in cached[:-1]]
        full = decode_stack(state, memory, prefix).data
    digest = hashlib.sha256(cached.tobytes()).hexdigest()
    return f"decode seed={seed} sha256={digest} max_dev={np.abs(cached - full).max():.3e}"


def decode_ops_line(docs: list[ByteSequence]) -> str:
    *_, ops = cached_decode(DECODE_SEEDS[0], docs)
    shown = str(ops[1]) if len(set(ops[1:])) == 1 else ",".join(map(str, ops))
    return f"decode ops_per_byte={shown}"


def blas_core() -> str | None:
    """The core name that numpy's OpenBLAS reports, found by the library
    lookup of ``tensor``'s thread pin; None where it reports none."""
    getter, = getattr(T, "_openblas_functions", lambda *stems: [None])("get_corename")
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_char_p
    return getter().decode()


def env_line() -> str:
    lane = getattr(T, "_get_lane", lambda: None)() is not None
    simd = ",".join(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    return (
        f"env cpus={T._usable_cpus()} lane={'yes' if lane else 'no'}"
        f" blas_threads={getattr(T, 'BLAS_THREADS', None)} blas_core={blas_core()} simd={simd}"
    )


def main() -> None:
    print(env_line(), flush=True)
    for name in INIT:
        print(init_line(name), flush=True)
    docs = joined_corpus()
    for name in TRAINING:
        print(train_line(name, docs), flush=True)
    for seed in DECODE_SEEDS:
        print(decode_line(seed, docs), flush=True)
    print(decode_ops_line(docs), flush=True)


if __name__ == "__main__":
    main()
