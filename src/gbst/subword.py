"""Gradient-based soft subword tokenization over byte embeddings.

The layer enumerates candidate blocks of every size up to a maximum, pools
each block to one embedding, scores candidates position-wise with a bias-free
linear map, mixes them under a per-position softmax, optionally lets the
score distributions attend to each other, and mean-pools the result down by
a fixed rate. Everything is differentiable end to end.

Each (block size b, offset o) pair is one candidate stream: drop the first o
rows, zero-fill to a multiple of b, and take the mean of every block of b
rows. ``BlockCandidates`` stacks the block means of all streams in one table,
which three tape ops use: ``block_means`` builds it, ``block_scores`` scores
every block with the linear scorer (scoring a block equals scoring each of its
positions) and takes the softmax across streams at each position, and
``block_mix`` mixes the blocks that cover each position. Each op derives the
table's layout from the streams' (b, o) keys and the length. Trailing
positions whose block holds zero fill keep that block's value and take part
in the softmax like any other candidate.

Downsampling is the same mean pool without overlap: by a rate r, it is the
``block_means`` of the one stream (r, 0) over the latent's whole blocks.

Calibration, softmax(P P^T) P over the (L, C) score matrix P, is the
one-head, unit-scale case of ``multi_head_attention`` with q = k = v = P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError, check_int_fields
from .tensor import Parameter, Tensor


@dataclass
class GbstConfig:
    """Hyperparameters of the soft tokenization layer."""

    embedding_dim: int
    max_block_size: int = 4
    downsample_rate: int = 2
    conv_kernel_size: int | None = 5
    enable_offsets: bool = False
    enable_calibration: bool = False

    def __post_init__(self):
        check_int_fields(self)
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        if self.max_block_size < 1:
            raise ConfigError("max_block_size must be >= 1")
        if self.downsample_rate < 1:
            raise ConfigError("downsample_rate must be >= 1")
        if self.conv_kernel_size is not None:
            if self.conv_kernel_size < 1 or self.conv_kernel_size % 2 == 0:
                raise ConfigError(
                    f"conv_kernel_size must be odd and >= 1, got {self.conv_kernel_size}"
                )

    def stream_keys(self) -> list[tuple[int, int]]:
        """(block size, offset) pairs in candidate order."""
        keys = []
        for b in range(1, self.max_block_size + 1):
            offsets = range(b) if self.enable_offsets else (0,)
            for o in offsets:
                keys.append((b, o))
        return keys


def _label(b: int, o: int) -> str:
    return f"b={b}" if o == 0 else f"b={b},o={o}"


@dataclass
class BlockCandidateSet:
    """One stream read out as constants: block means, and their value at each position."""

    block_size: int
    offset: int
    pooled: Tensor
    realigned: Tensor


@dataclass
class BlockCandidates:
    """Every stream's block means in one (P, d) table: stream c, with block size b
    and offset o, ``keys[c] = (b, o)``, holds its ceil(L/b) blocks in the rows
    that ``tensor.stream_spans`` gives; ``length`` is L."""

    table: Tensor
    keys: list[tuple[int, int]]
    length: int

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, c: int) -> BlockCandidateSet:
        b, o, start, stop = T.stream_spans(self.keys, self.length)[c]
        pooled = self.table.data[start:stop]
        realigned = T._realign(pooled, b, self.length)
        return BlockCandidateSet(b, o, Tensor(pooled.copy()), Tensor(realigned))


@dataclass
class ScoreMatrix:
    """Pre-softmax scores (untaped), softmax weights, and (optionally) calibrated weights."""

    raw: Tensor
    weights: Tensor
    labels: list[str]
    calibrated: Tensor | None = None

    def mixing_weights(self) -> Tensor:
        return self.calibrated if self.calibrated is not None else self.weights


@dataclass
class GbstOutput:
    latent: Tensor
    downsampled: Tensor
    scores: ScoreMatrix


def gbst_parameter_specs(cfg: GbstConfig) -> dict[str, tuple[tuple[int, ...], float, float]]:
    """Name -> (shape, init std, fill) of every parameter of the layer, in
    parameter order, under the model's ``gbst.`` names: the entry format of
    ``model.parameter_specs``, which lists these as they are. Weights are
    drawn from N(0, 1/fan_in); the conv bias has std 0 and fill 0, so zeros."""
    d = cfg.embedding_dim
    specs = {}
    if cfg.conv_kernel_size is not None:
        k = cfg.conv_kernel_size
        specs["gbst.conv_filters"] = ((k, d, d), (k * d) ** -0.5, 0.0)
        specs["gbst.conv_bias"] = ((d,), 0.0, 0.0)
    specs["gbst.scorer"] = ((d, 1), d ** -0.5, 0.0)
    return specs


def draw_parameter(
    name: str, shape: tuple[int, ...], std: float, fill: float, rng: np.random.Generator
) -> Parameter:
    """The one init rule: N(0, std) for a nonzero std; a zero std fills the
    array with ``fill`` and takes no draw."""
    return Parameter(name, rng.normal(0.0, std, size=shape) if std else np.full(shape, fill))


def init_gbst_params(cfg: GbstConfig, rng: np.random.Generator) -> dict[str, Parameter]:
    """Name -> ``Parameter`` of the layer, drawn in parameter order."""
    return {
        name: draw_parameter(name, *spec, rng) for name, spec in gbst_parameter_specs(cfg).items()
    }


def enumerate_blocks(x: Tensor, cfg: GbstConfig) -> BlockCandidates:
    """Pool every candidate stream for block sizes 1..M (and offsets if enabled)
    into one table of block means. Each (b, o) pair is an independent
    candidate; an offset at or beyond the length gives an all-zero stream."""
    n = x.shape[0]
    if n < 1:
        raise ShapeError("input must have at least one row")
    keys = cfg.stream_keys()
    return BlockCandidates(T.block_means(x, keys), keys, n)


def score_blocks(candidates: BlockCandidates, scorer: Tensor) -> ScoreMatrix:
    """Score every candidate stream and softmax across streams per position."""
    raw, weights = T.block_scores(candidates.table, scorer, candidates.keys, candidates.length)
    labels = [_label(b, o) for b, o in candidates.keys]
    return ScoreMatrix(raw=Tensor(raw), weights=weights, labels=labels)


def calibrate_scores(weights: Tensor) -> Tensor:
    """Let positions' block distributions inform each other:
    projection-free self-attention over the score rows, softmax(P P^T) P,
    which is one-head attention with q = k = v = P and unit scale."""
    rows = weights.data.sum(axis=-1)
    if rows.size and np.abs(rows - 1.0).max() > 1e-6:
        raise ShapeError("calibration input rows must sum to 1")
    return T.multi_head_attention(weights, weights, weights, 1, scale=1.0)


def form_latent(candidates: BlockCandidates, weights: Tensor) -> Tensor:
    """Per-position convex mixture of the realigned candidate embeddings."""
    return T.block_mix(weights, candidates.table, candidates.keys)


def downsample(latent: Tensor, rate: int) -> Tensor:
    """Fixed mean-pool by ``rate``: the block mean of the one stream
    (rate, 0) over the latent's whole blocks. Trailing remainder rows are
    dropped, and get a zero gradient."""
    if rate < 1:
        raise ConfigError(f"window must be >= 1, got {rate}")
    n = len(latent)
    if n < rate:
        raise ShapeError(f"input rows {n} < window {rate}; pad first")
    return T.block_means(latent, [(rate, 0)], n - n % rate)


def gbst_forward(x: Tensor, cfg: GbstConfig, params: dict[str, Tensor]) -> GbstOutput:
    """Full layer: optional conv, enumerate, score, optional calibration,
    mix, downsample. Retains the score matrix for visualization.

    ``params`` maps the names of ``gbst_parameter_specs`` to tensors:
    ``gbst.scorer``, plus ``gbst.conv_filters`` and ``gbst.conv_bias`` when
    there is a conv. A model's whole parameter table serves as it is."""
    n, d = x.shape
    if d != cfg.embedding_dim:
        raise ShapeError(f"input dim {d} != configured embedding_dim {cfg.embedding_dim}")
    if n < cfg.downsample_rate:
        raise ShapeError(f"sequence length {n} < downsample rate {cfg.downsample_rate}")
    if cfg.conv_kernel_size is not None:
        x = T.conv1d_same(x, params["gbst.conv_filters"], params["gbst.conv_bias"])
    candidates = enumerate_blocks(x, cfg)
    scores = score_blocks(candidates, params["gbst.scorer"])
    if cfg.enable_calibration:
        scores.calibrated = calibrate_scores(scores.weights)
    latent = form_latent(candidates, scores.mixing_weights())
    return GbstOutput(latent=latent, downsampled=downsample(latent, cfg.downsample_rate), scores=scores)


def serialize_scores(scores: ScoreMatrix) -> str:
    """Tab-separated matrix, one row per candidate stream ("b=<size>[,o=<offset>]"),
    one column per byte position, each weight to 6 decimals."""
    w = scores.mixing_weights().data
    lines = []
    for c, label in enumerate(scores.labels):
        cells = "\t".join(f"{w[i, c]:.6f}" for i in range(w.shape[0]))
        lines.append(f"{label}\t{cells}")
    return "\n".join(lines) + "\n"
