"""Per-layer tracing of gbst from outside the package.

``Tracer.installed()`` replaces module attributes of ``gbst`` with timing
wrappers and restores them on exit, so untraced runs execute the original
code. Three things are recorded:

- forward spans around the layer functions (frontend, encoder, decoder), the
  GBST layer and its stages, and every op in ``gbst.tensor``;
- the tape length before and after each span, which assigns every tape
  record to the innermost layer and stage that produced it;
- backward time per record: just before ``backward`` runs, each record's
  backward callable is wrapped with a timer keyed by its op, layer and stage.

All values are summed over the traced items (training steps or decoded
examples) and reported as means per item, so that they add up.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from gbst import model as M
from gbst import subword as S
from gbst import tensor as T
from gbst import train as TR
from gbst.flops import count_flops

# every op in gbst.tensor that appends a tape record
OPS = (
    "matmul", "transpose_2d", "add", "mul", "sum_all", "pad_rows", "slice_rows",
    "slice_cols", "concat_last_axis", "repeat_upsample", "mean_pool_1d",
    "conv1d_same", "softmax_last_axis", "embedding_gather", "layer_norm", "gelu",
    "cross_entropy_with_logits",
)
LAYERS = ("frontend", "encoder", "decoder")
STAGES = ("conv", "enumerate", "score", "calibrate", "mix", "downsample")
# count_flops term of each GBST stage; count_flops has no downsample term
STAGE_FLOP_TERM = {
    "conv": "gbst.conv",
    "enumerate": "gbst.pooling",
    "score": "gbst.scoring",
    "calibrate": "gbst.calibration",
    "mix": "gbst.mixing",
    "downsample": None,
}
FLOP_TERMS = (
    "gbst.conv", "gbst.pooling", "gbst.scoring", "gbst.mixing", "gbst.calibration",
    "encoder.attention_linear", "encoder.attention_quadratic", "encoder.ffn",
    "decoder.self_attention", "decoder.cross_attention", "decoder.ffn",
)

# (module, attribute, span key). The conv stage has no function of its own:
# it is the self time of gbst_forward, whose only direct op is conv1d_same.
_SPANS = (
    (M, "run_frontend", "frontend"),
    (M, "encode_stack", "encoder"),
    (M, "decode_stack", "decoder"),
    (M, "gbst_forward", "gbst"),
    (S, "enumerate_blocks", "enumerate"),
    (S, "score_blocks", "score"),
    (S, "calibrate_scores", "calibrate"),
    (S, "form_latent", "mix"),
    (S, "downsample", "downsample"),
)
# span key -> (layer, GBST stage) of the tape records it produces
_OWNER = {
    **{layer: (layer, None) for layer in LAYERS},
    "gbst": ("frontend", "conv"),
    **{stage: ("frontend", stage) for stage in STAGES if stage != "conv"},
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {"tensor.records_per_step": "count"}
    for op in OPS:
        units[f"tensor.calls.{op}"] = "count"
        units[f"tensor.fwd_ms.{op}"] = "ms"
        units[f"tensor.bwd_ms.{op}"] = "ms"
    for stage in STAGES:
        units[f"subword.{stage}_fwd_ms"] = "ms"
        units[f"subword.{stage}_bwd_ms"] = "ms"
        units[f"subword.{stage}_records"] = "count"
    for part in LAYERS + ("loss",):
        units[f"model.{part}_fwd_ms"] = "ms"
        units[f"model.{part}_bwd_ms"] = "ms"
        units[f"model.{part}_records"] = "count"
    units["model.decode_positions_per_byte"] = "pos/B"
    units["model.decode_stack_calls_per_byte"] = "calls/B"
    for name in ("forward", "backward", "clip", "optimizer"):
        units[f"train.{name}_ms"] = "ms"
    units["train.forward_unattributed_ms"] = "ms"
    units["train.backward_unattributed_ms"] = "ms"
    units["bytes_data.batch_ms"] = "ms"
    for term in FLOP_TERMS:
        units[f"flops.{term}"] = "FLOP"
    units["flops.total"] = "FLOP"
    units["subword.fwd_gflops"] = "GFLOP/s"
    units["model.encoder_fwd_gflops"] = "GFLOP/s"
    units["model.decoder_fwd_gflops"] = "GFLOP/s"
    units["trace.untraced_iter_ms_p50"] = "ms"
    units["trace.traced_iter_ms_p50"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Collects per-layer sums over traced items of one model configuration."""

    def __init__(self, stack, gbst_cfg):
        self.stack, self.gbst = stack, gbst_cfg
        self.sums: dict[str, float] = defaultdict(float)
        self.items = 0
        self._open: list[str] = []  # keys of the spans now running, outermost first
        self._spans: list[list] = []  # [key, first record, end record] in entry order
        self._step_start = 0.0
        self._enc_bytes = 0
        self._flop_calls: list[tuple[str, int, int]] = []  # ("enc"|"dec", bytes, target)

    @contextlib.contextmanager
    def installed(self, opt):
        """Wrap the traced callables for the duration of the block."""
        patches = [(T, op, self._op(op, getattr(T, op))) for op in OPS if hasattr(T, op)]
        patches += [(mod, attr, self._span(key, getattr(mod, attr))) for mod, attr, key in _SPANS]
        patches += [
            (TR, "train_step", self._train_step(TR.train_step)),
            (TR, "backward", self._backward(TR.backward)),
            (TR, "clip_gradients", self._timed("train.clip_ms", TR.clip_gradients)),
            (TR, "make_batch", self._timed("bytes_data.batch_ms", TR.make_batch)),
            (opt, "step", self._timed("train.optimizer_ms", opt.step)),
        ]
        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, wrapped in patches:
                setattr(obj, attr, wrapped)
            yield self
        finally:
            for obj, attr, original in originals:
                setattr(obj, attr, original)

    @contextlib.contextmanager
    def item(self):
        """Delimit one traced training step or decoded example."""
        self._spans = []
        yield
        self.items += 1

    def _timed(self, key, fn):
        sums = self.sums

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            sums[key] += (time.perf_counter() - t0) * 1e3
            return out

        return wrapped

    def _op(self, name, fn):
        sums, is_open = self.sums, self._open
        calls, fwd = f"tensor.calls.{name}", f"tensor.fwd_ms.{name}"

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            ms = (time.perf_counter() - t0) * 1e3
            sums[calls] += 1
            sums[fwd] += ms
            if not is_open:
                sums["model.loss_fwd_ms"] += ms  # the loss and the batch sum run outside every layer
            return out

        return wrapped

    def _span(self, key, fn):
        sums, is_open = self.sums, self._open
        fwd = f"span_ms.{key}"

        def wrapped(*args, **kwargs):
            if key == "frontend":
                self._enc_bytes = len(args[1])
                self._flop_calls.append(("enc", self._enc_bytes, 1))
            elif key == "decoder":
                n = len(args[2])
                sums["decoder.calls"] += 1
                sums["decoder.positions"] += n
                self._flop_calls.append(("dec", self._enc_bytes, n))
            tape = T.active_tape()
            span = [key, len(tape.records), None]
            self._spans.append(span)
            is_open.append(key)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sums[fwd] += (time.perf_counter() - t0) * 1e3
                is_open.pop()
                span[2] = len(T.active_tape().records)

        return wrapped

    def _train_step(self, fn):
        def wrapped(*args, **kwargs):
            self._spans = []
            self._step_start = time.perf_counter()
            return fn(*args, **kwargs)

        return wrapped

    def _backward(self, fn):
        sums = self.sums

        def timed_record(record_fn, keys):
            def run(g):
                t0 = time.perf_counter()
                record_fn(g)
                ms = (time.perf_counter() - t0) * 1e3
                for key in keys:
                    sums[key] += ms

            return run

        def wrapped(loss):
            sums["train.forward_ms"] += (time.perf_counter() - self._step_start) * 1e3
            records = T.active_tape().records
            owner = [None] * len(records)
            for key, first, end in self._spans:  # inner spans overwrite outer ones
                owner[first:end] = [key] * (end - first)
            sums["tensor.records_per_step"] += len(records)
            for i, (out, record_fn, name) in enumerate(records):
                layer, stage = _OWNER[owner[i]] if owner[i] is not None else ("loss", None)
                keys = [f"tensor.bwd_ms.{name}", f"model.{layer}_bwd_ms", "bwd_ms.attributed"]
                sums[f"model.{layer}_records"] += 1
                if stage is not None:
                    keys.append(f"subword.{stage}_bwd_ms")
                    sums[f"subword.{stage}_records"] += 1
                records[i] = (out, timed_record(record_fn, tuple(keys)), name)
            t0 = time.perf_counter()
            try:
                return fn(loss)
            finally:
                sums["train.backward_ms"] += (time.perf_counter() - t0) * 1e3

        return wrapped

    def _flops(self) -> dict[str, float]:
        """Analytic forward FLOPs of the observed calls, summed by term."""
        totals: dict[str, float] = defaultdict(float)
        cache: dict[tuple[int, int], dict[str, int]] = {}
        for kind, enc_bytes, target in self._flop_calls:
            if (enc_bytes, target) not in cache:
                cache[enc_bytes, target] = count_flops(self.stack, self.gbst, enc_bytes, target).breakdown
            for term, flops in cache[enc_bytes, target].items():
                if term.startswith("decoder.") == (kind == "dec"):
                    totals[term] += flops
        return totals

    def metrics(self, decoded_bytes: int, untraced_p50: float, traced_p50: float) -> dict[str, float]:
        """Per-item means of every per-layer metric.

        ``decoded_bytes`` is the number of bytes greedy decoding emitted in
        the traced items (0 for training); the two iteration medians give
        the tracing overhead.
        """
        n = max(self.items, 1)
        s = self.sums
        stage_sum = sum(s[f"span_ms.{st}"] for st in STAGES if st != "conv")
        s["subword.conv_fwd_ms"] = s["span_ms.gbst"] - stage_sum
        for stage in STAGES[1:]:
            s[f"subword.{stage}_fwd_ms"] = s[f"span_ms.{stage}"]
        for layer in LAYERS:
            s[f"model.{layer}_fwd_ms"] = s[f"span_ms.{layer}"]
        if s["train.forward_ms"]:
            layer_fwd = sum(s[f"model.{part}_fwd_ms"] for part in LAYERS + ("loss",))
            s["train.forward_unattributed_ms"] = s["train.forward_ms"] - layer_fwd
            s["train.backward_unattributed_ms"] = s["train.backward_ms"] - s["bwd_ms.attributed"]
        flops = self._flops()
        out = {}
        for name in per_layer_units():
            if name.startswith("flops."):
                term = name[len("flops."):]
                total = sum(flops.values()) if term == "total" else flops.get(term, 0.0)
                out[name] = total / n
            else:
                out[name] = s.get(name, 0.0) / n
        if decoded_bytes:
            out["model.decode_positions_per_byte"] = s["decoder.positions"] / decoded_bytes
            out["model.decode_stack_calls_per_byte"] = s["decoder.calls"] / decoded_bytes
        else:
            out["model.decode_positions_per_byte"] = 0.0
            out["model.decode_stack_calls_per_byte"] = 0.0

        def gflops(prefix, ms):
            return sum(v for k, v in flops.items() if k.startswith(prefix)) / (ms * 1e6) if ms else 0.0

        out["subword.fwd_gflops"] = gflops("gbst.", s["span_ms.gbst"])
        out["model.encoder_fwd_gflops"] = gflops("encoder.", s["span_ms.encoder"])
        out["model.decoder_fwd_gflops"] = gflops("decoder.", s["span_ms.decoder"])
        out["trace.untraced_iter_ms_p50"] = untraced_p50
        out["trace.traced_iter_ms_p50"] = traced_p50
        out["trace.overhead_ratio"] = traced_p50 / untraced_p50
        return out
