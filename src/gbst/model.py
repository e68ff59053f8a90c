"""Encoder-decoder transformer over downsampled latent subwords.

Pre-norm residual blocks with GELU feed-forward layers and learned absolute
positional embeddings. Each residual feed-forward block, residual sum
included, is one ``tensor.ffn`` op, which keeps the bits of the chain of
six ops it replaces; an attention block's residual sum is inside its output
projection, a ``matmul`` with a residual, which keeps the bits of the
product and an add. The byte embedding table is shared between the encoder
frontend and the decoder input; the output projection is separate. The
frontend is either the soft tokenization layer ("gbst") or a plain byte
embedding ("identity", the undownsampled baseline).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .bytes_data import VOCAB_SIZE, ByteSequence, SpanCorruptionExample, is_sentinel, sentinel_id
from .errors import ConfigError, ShapeError, TapeError, check_int_fields
from .subword import GbstConfig, GbstOutput, draw_parameter, gbst_forward, gbst_parameter_specs
from .tensor import Parameter, Tensor, no_grad

BOS_ID = sentinel_id(0)  # 255 doubles as the decoder start token
ATTN_MASK_VALUE = -1e9  # large finite negative; exp() underflows to exactly 0.0

CHECKPOINT_MAGIC = b"GBSTCKPT1\n"
CHECKPOINT_VERSION = 1


@dataclass
class StackConfig:
    encoder_layers: int = 2
    decoder_layers: int = 2
    d_model: int = 64
    heads: int = 4
    head_dim: int = 16
    ffn_dim: int = 256
    frontend: str = "gbst"
    max_positions: int = 512

    def __post_init__(self):
        check_int_fields(self)
        if self.frontend not in ("gbst", "identity"):
            raise ConfigError(f"frontend must be 'gbst' or 'identity', got {self.frontend!r}")
        for name in ("d_model", "heads", "head_dim", "ffn_dim", "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.encoder_layers < 0 or self.decoder_layers < 0:
            raise ConfigError("layer counts must be >= 0")


def parameter_specs(
    stack: StackConfig, gbst: GbstConfig | None
) -> dict[str, tuple[tuple[int, ...], float, float]]:
    """Name -> (shape, init std, fill) of every parameter, in creation order:
    the only place a parameter's shape and initial value are declared. A
    nonzero std draws N(0, std), 2-D weights with std = fan_in ** -0.5; a
    zero std fills with ``fill``. The GBST entries are
    ``subword.gbst_parameter_specs``. ``ModelState`` and ``load_checkpoint``
    call it before allocating anything, so it also refuses the GBST sizes
    that no input the model takes can use, which no parameter shape bounds."""
    d, h, hd, f = stack.d_model, stack.heads, stack.head_dim, stack.ffn_dim
    specs: dict[str, tuple[tuple[int, ...], float, float]] = {}
    specs["embedding"] = ((VOCAB_SIZE, d), 1.0, 0.0)
    specs["pos_enc"] = ((stack.max_positions, d), 0.02, 0.0)
    specs["pos_dec"] = ((stack.max_positions, d), 0.02, 0.0)
    if stack.frontend == "gbst":
        if gbst is None:
            raise ConfigError("gbst frontend needs a GbstConfig")
        if gbst.embedding_dim != d:
            raise ConfigError(
                f"gbst embedding_dim {gbst.embedding_dim} must equal d_model {d}"
            )
        # no input the model takes is longer than max_positions * downsample_rate
        # bytes, and a forward pass lists max_block_size streams of blocks
        if gbst.downsample_rate > stack.max_positions:
            raise ConfigError(
                f"gbst downsample_rate {gbst.downsample_rate} exceeds max_positions {stack.max_positions}"
            )
        if gbst.max_block_size > stack.max_positions * gbst.downsample_rate:
            raise ConfigError(
                f"gbst max_block_size {gbst.max_block_size} exceeds max_positions * downsample_rate"
                f" = {stack.max_positions * gbst.downsample_rate}"
            )
        specs.update(gbst_parameter_specs(gbst))

    def attn(prefix: str):
        for w in ("wq", "wk", "wv"):
            specs[f"{prefix}.{w}"] = ((d, h * hd), d ** -0.5, 0.0)
        specs[f"{prefix}.wo"] = ((h * hd, d), (h * hd) ** -0.5, 0.0)

    def ln(prefix: str):
        specs[f"{prefix}.gain"] = ((d,), 0.0, 1.0)
        specs[f"{prefix}.bias"] = ((d,), 0.0, 0.0)

    def ffn(prefix: str):
        specs[f"{prefix}.w1"] = ((d, f), d ** -0.5, 0.0)
        specs[f"{prefix}.b1"] = ((f,), 0.0, 0.0)
        specs[f"{prefix}.w2"] = ((f, d), f ** -0.5, 0.0)
        specs[f"{prefix}.b2"] = ((d,), 0.0, 0.0)

    for i in range(stack.encoder_layers):
        ln(f"enc{i}.ln1")
        attn(f"enc{i}.attn")
        ln(f"enc{i}.ln2")
        ffn(f"enc{i}.ffn")
    for i in range(stack.decoder_layers):
        ln(f"dec{i}.ln1")
        attn(f"dec{i}.self")
        ln(f"dec{i}.ln2")
        attn(f"dec{i}.cross")
        ln(f"dec{i}.ln3")
        ffn(f"dec{i}.ffn")
    # near-uniform logits at init: untrained loss sits at ln(vocab)
    specs["out_proj"] = ((d, VOCAB_SIZE), 0.01, 0.0)
    return specs


class ModelState:
    """All parameters plus the step counter."""

    def __init__(
        self, stack: StackConfig, gbst: GbstConfig | None = None, seed: int = 0, arrays: dict | None = None
    ):
        """Each parameter of ``parameter_specs`` drawn from ``default_rng(seed)``,
        or, with no draw, taken from ``arrays``, name -> array (a checkpoint's)."""
        self.stack = stack
        self.gbst = gbst
        self.step = 0
        rng = np.random.default_rng(seed)
        self.params: dict[str, Parameter] = {
            name: draw_parameter(name, *spec, rng) if arrays is None else Parameter(name, arrays[name])
            for name, spec in parameter_specs(stack, gbst).items()
        }

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def __getitem__(self, name: str) -> Parameter:
        return self.params[name]

    def gbst_parameters(self) -> list[Parameter]:
        return [p for n, p in self.params.items() if n.startswith("gbst.")]

    def transformer_parameters(self) -> list[Parameter]:
        return [p for n, p in self.params.items() if not n.startswith("gbst.")]

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.grad = None


class KVCache:
    """Keys and values that earlier ``decode_stack`` calls projected, as the
    (rows, heads*hd) arrays the K/V projections return.

    ``kv`` maps each attention prefix to its keys and values. Self-attention
    holds them in two (capacity, heads*hd) row buffers and writes the K/V of
    each call's new positions at rows ``length`` onward. When they do not
    fit, both buffers are reallocated at twice their capacity, or at the rows
    needed if that is more, and the filled rows are copied once: a decoded
    position copies O(1) rows on average, and a buffer never holds more than
    twice the positions decoded. Cross-attention keeps the memory's K/V as
    the first call projected them. ``length`` counts the decoded positions.
    The cache serves inference: its arrays carry no gradient.
    """

    def __init__(self):
        self.length = 0
        self.memory: Tensor | None = None
        self.kv: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def write(self, prefix: str, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Store the rows ``k`` and ``v`` at rows ``length`` onward of
        ``prefix``'s buffers, growing them if needed; returns views of the
        keys and values of every position so far."""
        start, (n, width) = self.length, k.shape
        stop = start + n
        keys, values = self.kv.get(prefix, (k[:0], v[:0]))
        if len(keys) < stop:
            capacity = max(stop, 2 * len(keys))
            grown = np.empty((capacity, width)), np.empty((capacity, width))
            grown[0][:start], grown[1][:start] = keys[:start], values[:start]
            keys, values = self.kv[prefix] = grown
        keys[start:stop], values[start:stop] = k, v
        return keys[:stop], values[:stop]


def _attention(
    x_q: Tensor,
    x_kv: Tensor,
    state: ModelState,
    prefix: str,
    residual: Tensor,
    mask: np.ndarray | None = None,
    cache: KVCache | None = None,
) -> Tensor:
    """``residual`` plus the multi-head attention of ``x_q`` over ``x_kv``;
    the sum is the output projection's ``matmul``. With a cache it runs
    ``cached_attention``: self-attention (``x_kv is x_q``) first writes the
    K/V of the new rows into the cache, and cross-attention projects the
    memory's K/V on its first call only and keeps them in the cache."""
    q = T.matmul(x_q, state[f"{prefix}.wq"])
    wo, heads = state[f"{prefix}.wo"], state.stack.heads
    if cache is not None and x_kv is not x_q and prefix in cache.kv:
        k, v = cache.kv[prefix]
    else:
        k = T.matmul(x_kv, state[f"{prefix}.wk"])
        v = T.matmul(x_kv, state[f"{prefix}.wv"])
        if cache is None:
            return T.matmul(T.multi_head_attention(q, k, v, heads, mask), wo, residual)
        if x_kv is x_q:
            k, v = cache.write(prefix, k.data, v.data)
        else:
            k, v = cache.kv[prefix] = k.data, v.data
    return T.matmul(T.cached_attention(q, k, v, heads, mask), wo, residual)


def _ffn(x: Tensor, state: ModelState, prefix: str, ln: str) -> Tensor:
    """``x`` plus the feed-forward block ``prefix`` of its layer norm ``ln``."""
    weights = (state[f"{prefix}.{name}"] for name in ("w1", "b1", "w2", "b2"))
    return T.ffn(_ln(x, state, ln), *weights, x)


def _ln(x: Tensor, state: ModelState, prefix: str) -> Tensor:
    return T.layer_norm(x, state[f"{prefix}.gain"], state[f"{prefix}.bias"])


def causal_mask(n: int, cached: int) -> np.ndarray:
    """Additive mask of ``n`` new positions over ``cached`` earlier ones plus
    themselves: position ``cached + r`` sees keys 0..cached + r."""
    return np.triu(np.full((n, cached + n), ATTN_MASK_VALUE), k=cached + 1)


def encode_stack(state: ModelState, x: Tensor) -> Tensor:
    """Self-attention + FFN stack over an already-embedded sequence, or over
    the packed rows of several (see ``teacher_forced_pass``): each segment
    takes positions from 0 and attends within itself, and the output keeps
    the offsets of ``x``. A zero-layer stack reduces to input plus
    positional embedding."""
    if len(x) < 1:
        raise ShapeError("encoder input must be non-empty")
    x = T.add_positions(x, state["pos_enc"])
    for i in range(state.stack.encoder_layers):
        normed = _ln(x, state, f"enc{i}.ln1")
        x = _attention(normed, normed, state, f"enc{i}.attn", x)
        x = _ffn(x, state, f"enc{i}.ffn", f"enc{i}.ln2")
    return x


def run_frontend(state: ModelState, ids: list[int]) -> tuple[Tensor, GbstOutput | None]:
    """Embed encoder bytes and apply the configured frontend."""
    if not ids:
        raise ShapeError("encoder byte sequence is empty")
    x = T.embedding_gather(state["embedding"], ids)
    if state.stack.frontend == "identity":
        return x, None
    out = gbst_forward(x, state.gbst, state.params)
    return out.downsampled, out


def encode_input(state: ModelState, ids: list[int]) -> tuple[Tensor, GbstOutput | None]:
    """Frontend plus encoder stack; returns (memory, frontend diagnostics)."""
    x, front = run_frontend(state, ids)
    return encode_stack(state, x), front


def decode_stack(
    state: ModelState, memory: Tensor, dec_input_ids: list[int] | Tensor, cache: KVCache | None = None
) -> Tensor:
    """Decoder: causal self-attention, cross-attention to the encoder memory,
    FFN; returns logits over all 256 byte ids for each position of
    ``dec_input_ids``.

    Without a cache this is the teacher-forced pass over a whole prefix.
    ``dec_input_ids`` may then also be the packed, already embedded rows of
    several prefixes (see ``teacher_forced_pass``) over a ``memory`` packed
    with as many segments: segment i takes positions from 0, attends
    causally within itself and to memory segment i, and the logits keep its
    offsets.

    With a ``KVCache`` it is incremental: ``dec_input_ids`` are the next
    positions after the ``cache.length`` already decoded. Their K/V rows
    join the cached self-attention rows, they attend to those and to the
    memory's K/V, projected on the first call, and ``cache.length`` grows by
    them. A cache needs ``no_grad``, one segment and the same ``memory`` on
    every call.
    """
    if not dec_input_ids:
        raise ShapeError("decoder prefix must be non-empty")
    if memory.shape[0] < 1:
        raise ShapeError("decoder requires a non-empty encoder memory")
    t = 0
    if cache is not None:
        if T.grad_enabled():
            raise TapeError("a K/V cache carries no gradient; decode under no_grad()")
        if cache.memory is None:
            cache.memory = memory
        elif cache.memory is not memory:
            raise ConfigError("the K/V cache holds the keys of another encoder memory")
        t = cache.length
    x = dec_input_ids
    if not isinstance(x, Tensor):
        x = T.embedding_gather(state["embedding"], x)
    x = T.add_positions(x, state["pos_dec"], t)
    n = max(stop - start for start, stop in T.segments(x))
    mask = causal_mask(n, t) if n > 1 else None  # one row sees every key
    for i in range(state.stack.decoder_layers):
        normed = _ln(x, state, f"dec{i}.ln1")
        x = _attention(normed, normed, state, f"dec{i}.self", x, mask, cache)
        normed = _ln(x, state, f"dec{i}.ln2")
        x = _attention(normed, memory, state, f"dec{i}.cross", x, None, cache)
        x = _ffn(x, state, f"dec{i}.ffn", f"dec{i}.ln3")
    if cache is not None:
        cache.length = t + n
    return T.matmul(x, state["out_proj"])


def teacher_forced_pass(
    state: ModelState, batch: list[SpanCorruptionExample]
) -> tuple[Tensor, Tensor, list[int]]:
    """One teacher-forced pass over a batch of examples, packed: returns the
    encoder memory and the decoder logits, each with a segment per example,
    and the targets of all examples in order.

    A prelude first runs, example by example, the frontend on the encoder
    bytes and the embedding gather of the decoder input, BOS and then the
    target shifted right. ``pack`` stacks the results, so that the encoder
    and decoder stacks each run once over all rows. The prelude's order
    keeps the bits of the shared byte embedding's gradient, which the tape
    then adds decoder last to encoder first, as it would example by example.
    One example is the unpacked, one-segment case of the same code.
    """
    if not batch:
        raise ShapeError("batch must be non-empty")
    enc, dec, targets = [], [], []
    for ex in batch:
        target = ex.decoder_target.ids
        if not target:
            raise ShapeError("target must be non-empty")
        enc.append(run_frontend(state, ex.encoder_input.ids)[0])
        dec.append(T.embedding_gather(state["embedding"], [BOS_ID, *target[:-1]]))
        targets.extend(target)
    memory = encode_stack(state, T.pack(enc))
    return memory, decode_stack(state, memory, T.pack(dec)), targets


def example_loss(state: ModelState, example: SpanCorruptionExample) -> Tensor:
    """Teacher-forced mean cross entropy of the example's decoder target given
    its encoder input: the decoder reads BOS and then the target shifted right."""
    _, logits, target = teacher_forced_pass(state, [example])
    return T.cross_entropy_with_logits(logits, target)


def greedy_decode(
    state: ModelState,
    memory: Tensor,
    max_len: int,
    stop_after_spans: int | None = None,
) -> ByteSequence:
    """Argmax decoding from the BOS sentinel.

    Decoding is incremental: each step runs ``decode_stack`` on the one byte
    emitted last, against a ``KVCache`` of the earlier positions, so a step
    costs one decoder position: its attention reads the cached keys and
    values in place, and it copies only its own K/V rows into the cache
    (plus, amortized, O(1) rows when a buffer doubles). Its logits equal
    those of a teacher-forced pass over the emitted prefix up to float64
    rounding.

    The terminal sentinel is structurally indistinguishable from a span
    delimiter, so when the caller knows the span count the decode stops at
    the (span_count + 1)-th sentinel emitted; otherwise it runs to max_len.
    """
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    out: list[int] = []
    sentinels_seen = 0
    cache = KVCache()
    with no_grad():
        nxt = BOS_ID
        for _ in range(max_len):
            logits = decode_stack(state, memory, [nxt], cache)
            nxt = int(np.argmax(logits.data[-1]))
            out.append(nxt)
            if is_sentinel(nxt):
                sentinels_seen += 1
                if stop_after_spans is not None and sentinels_seen >= stop_after_spans + 1:
                    break
    return ByteSequence(out)


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------


def save_checkpoint(state: ModelState, path: str) -> None:
    """Self-describing container: magic line, JSON header with configs and
    parameter shapes, then raw little-endian float64 blobs in header order.
    Written whole beside ``path``, synced, then moved over it: a failed or
    killed save leaves the old file, and a failure removes the partial one."""
    header = {
        "version": CHECKPOINT_VERSION,
        "step": state.step,
        "stack": asdict(state.stack),
        "gbst": asdict(state.gbst) if state.gbst is not None else None,
        "params": [
            {"name": n, "shape": list(p.data.shape)} for n, p in state.params.items()
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    partial = f"{path}.partial"
    try:
        with open(partial, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(f"{len(blob)}\n".encode("ascii"))
            fh.write(blob)
            for p in state.params.values():
                fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise


def load_checkpoint(path: str) -> ModelState:
    """Read a checkpoint; before any allocation, its header must list exactly
    ``parameter_specs`` of its configs, in order, and the file their bytes."""
    try:
        fh = open(path, "rb")
    except OSError as err:
        raise ConfigError(f"cannot read checkpoint {path}: {err}")
    with fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path} is not a checkpoint (bad magic)")
        try:
            size = int(fh.readline())
            left = os.fstat(fh.fileno()).st_size - fh.tell() - size  # the parameters' bytes
            if size < 0 or left < 0:
                raise ValueError(f"header length {size} exceeds the file")
            header = json.loads(fh.read(size).decode("utf-8"))
            version = header.get("version")
        except (AttributeError, ValueError) as err:  # ValueError covers JSON and UTF-8 too
            raise ConfigError(f"{path} has a malformed header: {err}")
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"{path} has checkpoint version {version!r}, expected {CHECKPOINT_VERSION}")
        try:
            stack = StackConfig(**header["stack"])
            gbst = None
            if header["gbst"] is not None:
                gbst_fields = dict(header["gbst"])
                # files from before GbstConfig lost its pooling field carry "pooling": "mean"
                pooling = gbst_fields.pop("pooling", "mean")
                if pooling != "mean":
                    raise ValueError(f"unsupported GBST pooling {pooling!r}")
                gbst = GbstConfig(**gbst_fields)
            step = header["step"]
            if type(step) is not int or step < 0:  # the rule of check_int_fields, and >= 0
                raise ValueError(f"step must be a non-negative integer, got {step!r}")
            metas = [(m["name"], m["shape"]) for m in header["params"]]
            if stack.encoder_layers + stack.decoder_layers > len(metas):  # a layer has parameters
                raise ValueError("more layers than listed parameters")
            specs = parameter_specs(stack, gbst)
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{path} has a malformed header: {type(err).__name__}: {err}")
        if metas != [(name, list(shape)) for name, (shape, _, _) in specs.items()]:
            raise ConfigError(f"{path} lists other parameters than its model has")
        if 8 * sum(math.prod(shape) for shape, _, _ in specs.values()) != left:
            raise ConfigError(f"{path} does not hold the parameter bytes its header lists")
        arrays = {
            name: np.frombuffer(fh.read(8 * math.prod(shape)), "<f8").astype(np.float64).reshape(shape)
            for name, (shape, _, _) in specs.items()
        }
    state = ModelState(stack, gbst, arrays=arrays)
    state.step = step
    return state
