"""Byte-level text ingestion, sentinel conventions, and span corruption.

Text is handled as raw UTF-8 bytes, giving a fixed vocabulary of 256 ids.
The final 100 ids double as sentinel tokens: sentinel k is id 255 - k, used
in descending order within one example. Raw text bytes that happen to fall
in the sentinel range are kept as-is during encoding and only interpreted
as sentinels inside corruption targets; the (rare) collision between a high
raw byte and a sentinel id actually used by an example is an accepted,
documented risk of reusing the byte vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

VOCAB_SIZE = 256
SENTINEL_COUNT = 100
FIRST_SENTINEL_ID = VOCAB_SIZE - SENTINEL_COUNT  # 156


def sentinel_id(k: int) -> int:
    """Id of the k-th sentinel (k = 0 is 255, descending from there)."""
    if not 0 <= k < SENTINEL_COUNT:
        raise ConfigError(f"sentinel index {k} outside 0..{SENTINEL_COUNT - 1}")
    return VOCAB_SIZE - 1 - k


def is_sentinel(byte_id: int) -> bool:
    return byte_id >= FIRST_SENTINEL_ID


@dataclass
class ByteSequence:
    ids: list[int]

    def __post_init__(self):
        for i in self.ids:
            if not 0 <= i < VOCAB_SIZE:
                raise ValueError(f"byte id {i} out of range 0..{VOCAB_SIZE - 1}")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class SpanCorruptionExample:
    encoder_input: ByteSequence
    decoder_target: ByteSequence
    span_count: int


def encode(text: str) -> ByteSequence:
    """UTF-8 bytes of ``text`` as ids. Python str is valid UTF-8 by construction;
    byte streams from files are decoded strictly before reaching here."""
    return ByteSequence(list(text.encode("utf-8")))


def decode(seq: ByteSequence | list[int]) -> str:
    """Inverse of encode; raises UnicodeDecodeError on an illegal byte sequence."""
    ids = seq.ids if isinstance(seq, ByteSequence) else seq
    return bytes(ids).decode("utf-8")


def _clipped_geometric_rate(mean_span: float, clip: int) -> float:
    """Success rate p such that E[min(Geometric(p), clip)] == mean_span.

    Clipping a geometric at 2x its mean pulls the mean down by ~13%, so the
    raw rate 1/mean would undershoot the requested mean span length.
    E[min(X, c)] = (1 - (1-p)^c) / p, monotone decreasing in p.
    """
    if mean_span <= 1.0:
        return 1.0
    lo, hi = 1e-9, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = (1.0 - (1.0 - mid) ** clip) / mid
        if val > mean_span:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def corrupt_spans(
    seq: ByteSequence,
    corruption_rate: float = 0.15,
    mean_span: float = 20.0,
    rng_seed: int = 0,
) -> SpanCorruptionExample:
    """Replace random non-overlapping byte spans with sentinels.

    The corrupted byte count is round(rate * len), at least 1. Span lengths
    are geometric with the rate calibrated so that after clipping to
    [1, 2 * mean_span] their expectation is ``mean_span``; the last span is
    truncated to land exactly on the byte budget. The target lists each
    sentinel followed by the span it replaced, closed by one extra sentinel.
    Deterministic given the seed.
    """
    if not 0.0 < corruption_rate < 1.0:
        raise ConfigError("corruption_rate must be in (0, 1)")
    if mean_span < 1.0:
        raise ConfigError("mean_span must be >= 1")
    n = len(seq.ids)
    if n < 1:
        raise ShapeError("cannot corrupt an empty sequence")
    rng = np.random.default_rng(rng_seed)
    budget = min(max(1, int(round(corruption_rate * n))), n)
    clip = max(1, int(round(2 * mean_span)))
    p = _clipped_geometric_rate(mean_span, clip)

    lengths: list[int] = []
    remaining = budget
    while remaining > 0:
        length = min(int(rng.geometric(p)), clip, remaining)
        lengths.append(length)
        remaining -= length
    # ensure at least one gap byte between spans; degenerate fallback merges
    # spans (single-span fallback for sequences shorter than one span)
    while len(lengths) > 1 and budget + len(lengths) - 1 > n:
        lengths[-2] += lengths.pop()
    if len(lengths) == 1:
        lengths[0] = min(lengths[0], n)
    k = len(lengths)
    if k + 1 > SENTINEL_COUNT:
        raise ConfigError(
            f"{k} spans need {k + 1} sentinels but only {SENTINEL_COUNT} exist; "
            "shorten the sequence or raise mean_span"
        )

    slack = n - sum(lengths) - (k - 1)
    shares = rng.multinomial(slack, np.full(k + 1, 1.0 / (k + 1)))
    starts = []
    cursor = int(shares[0])
    for j, length in enumerate(lengths):
        starts.append(cursor)
        cursor += length
        if j < k - 1:
            cursor += 1 + int(shares[j + 1])

    enc: list[int] = []
    tgt: list[int] = []
    pos = 0
    for j, (start, length) in enumerate(zip(starts, lengths)):
        enc.extend(seq.ids[pos:start])
        enc.append(sentinel_id(j))
        tgt.append(sentinel_id(j))
        tgt.extend(seq.ids[start : start + length])
        pos = start + length
    enc.extend(seq.ids[pos:])
    tgt.append(sentinel_id(k))
    return SpanCorruptionExample(
        encoder_input=ByteSequence(enc),
        decoder_target=ByteSequence(tgt),
        span_count=k,
    )


def reconstruct(example: SpanCorruptionExample) -> ByteSequence:
    """Splice the target's spans back into the input; inverse of corrupt_spans."""
    spans: dict[int, list[int]] = {}
    current: list[int] | None = None
    for t in example.decoder_target.ids:
        if is_sentinel(t):
            current = []
            spans[t] = current
        else:
            if current is None:
                raise ValueError("target does not start with a sentinel")
            current.append(t)
    out: list[int] = []
    for t in example.encoder_input.ids:
        if is_sentinel(t) and t in spans:
            out.extend(spans[t])
        else:
            out.append(t)
    return ByteSequence(out)


def load_corpus(path: str) -> list[ByteSequence]:
    """Newline-delimited documents from a UTF-8 text file. A file that is not
    valid UTF-8 is rejected (strict decode), blank lines skipped."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")  # strict: illegal sequences are an error
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read corpus {path}: {err}")
    docs = [line for line in text.split("\n") if line.strip()]
    if not docs:
        raise ConfigError(f"corpus {path} contains no documents")
    return [encode(line) for line in docs]


def format_example(example: SpanCorruptionExample) -> str:
    """`input_ids<TAB>target_ids`, ids space-separated decimals."""
    left = " ".join(str(i) for i in example.encoder_input.ids)
    right = " ".join(str(i) for i in example.decoder_target.ids)
    return f"{left}\t{right}"

