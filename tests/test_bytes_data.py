import numpy as np
import numpy.testing as npt
import pytest

from gbst import tensor as T
from gbst.bytes_data import (
    FIRST_SENTINEL_ID,
    SENTINEL_COUNT,
    ByteSequence,
    SpanCorruptionExample,
    corrupt_spans,
    decode,
    encode,
    format_example,
    is_sentinel,
    reconstruct,
    sentinel_id,
)
from gbst.errors import ConfigError
from gbst.tensor import Tensor


# --- vocab and encoding -------------------------------------------------------


def test_encode_ascii():
    assert encode("abc").ids == [97, 98, 99]


def test_encode_empty():
    assert encode("").ids == []


def test_figure_input_has_23_positions():
    assert len(encode("on subword tokenization")) == 23


def test_round_trip_including_multibyte():
    for s in ("hello world", "héllo — ✓ über", "日本語テキスト", ""):
        assert decode(encode(s)) == s


def test_sentinel_mapping():
    assert sentinel_id(0) == 255
    assert sentinel_id(99) == 156
    assert FIRST_SENTINEL_ID == 156
    with pytest.raises(ConfigError):
        sentinel_id(100)
    assert is_sentinel(156) and is_sentinel(255) and not is_sentinel(155)


def test_byte_sequence_range_checked():
    with pytest.raises(ValueError):
        ByteSequence([256])


def test_decode_rejects_illegal_utf8():
    with pytest.raises(UnicodeDecodeError):
        decode([0xC3])  # dangling continuation lead byte


# --- span corruption ------------------------------------------------------------


def test_minimal_corruption():
    seq = ByteSequence((list(range(97, 123)) * 4)[:100])
    ex = corrupt_spans(seq, corruption_rate=0.005, mean_span=1.0, rng_seed=0)
    assert len(ex.encoder_input) == 100  # one byte swapped for one sentinel
    assert len(ex.decoder_target) == 3  # sentinel, byte, terminal sentinel
    assert ex.decoder_target.ids[0] == 255
    assert ex.decoder_target.ids[2] == 254


def test_corruption_deterministic():
    seq = encode("the quick brown fox jumps over the lazy dog " * 4)
    a = corrupt_spans(seq, rng_seed=42)
    b = corrupt_spans(seq, rng_seed=42)
    assert a.encoder_input.ids == b.encoder_input.ids
    assert a.decoder_target.ids == b.decoder_target.ids
    c = corrupt_spans(seq, rng_seed=43)
    assert c.encoder_input.ids != a.encoder_input.ids


def test_corruption_statistics():
    # aggregate over many seeds on a 10,000-byte input
    rng = np.random.default_rng(0)
    base = ByteSequence(list(rng.integers(32, 127, size=10_000)))
    total_spans = 0
    total_corrupted = 0
    for seed in range(60):
        ex = corrupt_spans(base, corruption_rate=0.15, mean_span=20.0, rng_seed=seed)
        total_spans += ex.span_count
        corrupted = sum(1 for t in ex.decoder_target.ids if not is_sentinel(t))
        total_corrupted += corrupted
        assert abs(corrupted - 1500) <= 1  # exact count = round(rate * len)
    mean_span = total_corrupted / total_spans
    assert abs(mean_span - 20.0) / 20.0 < 0.10
    fraction = total_corrupted / (60 * 10_000)
    assert abs(fraction - 0.15) / 0.15 < 0.10


def test_corruption_lossless_many_seeds():
    text = (
        "it is a truth universally acknowledged that a single man in possession "
        "of a good fortune must be in want of a wife."
    )
    seq = encode(text * 3)
    for seed in range(1000):
        ex = corrupt_spans(seq, rng_seed=seed)
        assert reconstruct(ex).ids == seq.ids


def test_sentinels_strictly_descending():
    seq = encode("a wandering minstrel I, a thing of shreds and patches " * 8)
    for seed in range(50):
        ex = corrupt_spans(seq, corruption_rate=0.3, mean_span=5.0, rng_seed=seed)
        for ids in (ex.encoder_input.ids, ex.decoder_target.ids):
            sentinels = [t for t in ids if is_sentinel(t)]
            assert sentinels == sorted(sentinels, reverse=True)
            assert len(set(sentinels)) == len(sentinels)


def test_single_span_fallback_short_sequence():
    ex = corrupt_spans(ByteSequence([97, 98]), corruption_rate=0.9, mean_span=20.0, rng_seed=1)
    assert ex.span_count == 1
    assert reconstruct(ex).ids == [97, 98]


def test_corruption_rate_validated():
    with pytest.raises(ConfigError):
        corrupt_spans(encode("abcdef"), corruption_rate=0.0)
    with pytest.raises(ConfigError):
        corrupt_spans(encode("abcdef"), corruption_rate=1.5)


# --- embedding --------------------------------------------------------------------


def test_embed_repeated_ids_identical_rows():
    table = Tensor(np.random.default_rng(1).normal(size=(256, 8)))
    out = T.embedding_gather(table, encode("aa").ids)
    npt.assert_array_equal(out.data[0], out.data[1])


# --- export format ------------------------------------------------------------------


def test_example_line_round_trip():
    ex = corrupt_spans(encode("span corruption keeps the decoder busy " * 3), rng_seed=5)
    line = format_example(ex)
    left, right = line.split("\t")
    assert left == " ".join(map(str, ex.encoder_input.ids))
    assert right == " ".join(map(str, ex.decoder_target.ids))
