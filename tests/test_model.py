import ctypes
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbst import tensor as T
from gbst.bytes_data import ByteSequence, corrupt_spans, encode
from gbst.cli import main
from gbst.errors import ConfigError, ShapeError, TapeError
from gbst.gradcheck import DEFAULT_TOLERANCE, REQUIRED_GROUPS, run_suite
from gbst.model import (
    BOS_ID,
    CHECKPOINT_MAGIC,
    KVCache,
    ModelState,
    StackConfig,
    decode_stack,
    encode_input,
    encode_stack,
    greedy_decode,
    load_checkpoint,
    parameter_specs,
    save_checkpoint,
)
from gbst.subword import GbstConfig, gbst_parameter_specs
from gbst.tensor import Tensor, no_grad, reset_tape
from gbst.train import TrainConfig, evaluate, make_optimizer, train_step

DESK = StackConfig()
DESK_GBST = GbstConfig(embedding_dim=DESK.d_model)


def desk_state(seed=0, frontend="gbst"):
    stack = StackConfig(frontend=frontend)
    gbst = GbstConfig(embedding_dim=stack.d_model) if frontend == "gbst" else None
    return ModelState(stack, gbst, seed=seed)


@pytest.fixture(autouse=True)
def clean_tape():
    reset_tape()
    yield
    reset_tape()


def test_zero_layer_encoder_is_identity_plus_positions():
    stack = StackConfig(encoder_layers=0, decoder_layers=0, frontend="identity")
    state = ModelState(stack, None, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(5, stack.d_model)))
    with no_grad():
        out = encode_stack(state, x)
    expected = x.data + state["pos_enc"].data[:5]
    npt.assert_array_equal(out.data, expected)


def test_decoder_causality_bit_identical():
    state = desk_state()
    prefix = [BOS_ID] + encode("causal mask").ids
    with no_grad():
        memory, _ = encode_input(state, encode("some encoder context here").ids)
        base = decode_stack(state, memory, prefix)
        changed = list(prefix)
        j = 5
        changed[j + 1] = ord("X")
        perturbed = decode_stack(state, memory, changed)
    assert (base.data[: j + 1] == perturbed.data[: j + 1]).all()
    assert (base.data[j + 1 :] != perturbed.data[j + 1 :]).any()


def test_decoder_rejects_empty_inputs():
    state = desk_state()
    with no_grad():
        memory, _ = encode_input(state, encode("context").ids)
        with pytest.raises(ShapeError):
            decode_stack(state, memory, [])
        with pytest.raises(ShapeError):
            decode_stack(state, Tensor(np.zeros((0, DESK.d_model))), [BOS_ID])


def test_frontend_swap_lengths():
    ids = encode("0123456789abcdef" * 2).ids  # 32 bytes
    gbst_state = desk_state(frontend="gbst")
    id_state = desk_state(frontend="identity")
    with no_grad():
        mem_g, front = encode_input(gbst_state, ids)
        mem_i, none_front = encode_input(id_state, ids)
    assert mem_g.shape[0] == len(ids) // DESK_GBST.downsample_rate
    assert mem_i.shape[0] == len(ids)
    assert front is not None and none_front is None


def test_max_positions_enforced():
    stack = StackConfig(frontend="identity", max_positions=8)
    state = ModelState(stack, None, seed=0)
    with no_grad():
        with pytest.raises(ShapeError):
            encode_input(state, list(range(97, 97 + 9)))


def test_greedy_decode_max_len_one_and_determinism():
    state = desk_state()
    with no_grad():
        memory, _ = encode_input(state, encode("greedy decoding context").ids)
    a = greedy_decode(state, memory, max_len=1)
    assert len(a.ids) == 1
    b = greedy_decode(state, memory, max_len=12)
    c = greedy_decode(state, memory, max_len=12)
    assert b.ids == c.ids


def test_cached_greedy_decode_matches_teacher_forced_pass():
    state = desk_state()
    with no_grad():
        memory, _ = encode_input(state, encode("incremental decoding keeps the logits").ids)
    emitted = greedy_decode(state, memory, max_len=40).ids
    prefix = [BOS_ID] + emitted[:-1]
    with no_grad():
        full = decode_stack(state, memory, prefix).data
        # one position per call, and several past a cache; with 40 positions
        # the appends cross several capacity doublings of the cache buffers
        for chunk in (1, 3, 7, 16):
            cache, parts = KVCache(), []
            for start in range(0, len(prefix), chunk):
                parts.append(decode_stack(state, memory, prefix[start : start + chunk], cache).data)
            incremental = np.concatenate(parts)
            assert cache.length == len(prefix)
            assert np.abs(incremental - full).max() <= 1e-10
            assert list(incremental.argmax(axis=1)) == emitted
    assert list(full.argmax(axis=1)) == emitted


def test_cached_decode_step_does_not_copy_the_memory_keys():
    # cross-attention reads the memory's K/V as the first call split them, so
    # a later one-byte step allocates far less than one (memory rows, width) array
    state = desk_state()
    rows, width = 1024, DESK.heads * DESK.head_dim
    memory = Tensor(np.random.default_rng(3).normal(size=(rows, DESK.d_model)))
    cache = KVCache()
    with no_grad():
        decode_stack(state, memory, [BOS_ID], cache)
        tracemalloc.start()
        try:
            decode_stack(state, memory, [65], cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < rows * width * 8


FAULTS_PER_PASS = """
import resource, sys
from gbst.model import ModelState, StackConfig, encode_input
from gbst.subword import GbstConfig
from gbst.tensor import no_grad
stack = StackConfig()
state = ModelState(stack, GbstConfig(embedding_dim=stack.d_model), seed=0)
ids = [32 + i % 95 for i in range(512)]
with no_grad():
    for _ in range(3):
        encode_input(state, ids)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        encode_input(state, ids)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs glibc's mallopt")
def test_repeated_encoder_pass_faults_in_no_fresh_pages():
    # a pass frees arrays of up to 1 MB; the next one must reuse their pages,
    # where glibc's default thresholds fault in about 380 fresh ones per pass.
    # A fresh interpreter, since the thresholds depend on all earlier frees
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_PASS], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert float(proc.stdout) < 10


def test_greedy_decode_max_positions_limit_unchanged():
    stack = StackConfig(frontend="identity", max_positions=8)
    state = ModelState(stack, None, seed=0)
    with no_grad():
        memory, _ = encode_input(state, encode("ctx").ids)
    assert len(greedy_decode(state, memory, max_len=8).ids) == 8
    with pytest.raises(ShapeError):
        greedy_decode(state, memory, max_len=9)


def test_kv_cache_rejects_gradients_and_a_different_memory():
    state = desk_state()
    with no_grad():
        memory, _ = encode_input(state, encode("one memory").ids)
        other, _ = encode_input(state, encode("another memory").ids)
    with pytest.raises(TapeError):
        decode_stack(state, memory, [BOS_ID], KVCache())
    cache = KVCache()
    with no_grad():
        decode_stack(state, memory, [BOS_ID], cache)
        with pytest.raises(ConfigError):
            decode_stack(state, other, [BOS_ID], cache)


def test_gbst_parameters_follow_their_declaration():
    state = desk_state(seed=2)
    specs = gbst_parameter_specs(state.gbst)
    assert [p.name for p in state.gbst_parameters()] == list(specs)
    assert [p.data.shape for p in state.gbst_parameters()] == [shape for shape, _, _ in specs.values()]
    assert not state["gbst.conv_bias"].data.any()  # a std of 0 is a zero init


@pytest.mark.parametrize("frontend", ["gbst", "identity"])
def test_parameters_follow_their_declaration(frontend):
    state = desk_state(seed=1, frontend=frontend)
    specs = parameter_specs(state.stack, state.gbst)
    assert [(p.name, p.data.shape) for p in state.parameters()] == [
        (name, shape) for name, (shape, _, _) in specs.items()
    ]
    for p, (_, std, fill) in zip(state.parameters(), specs.values()):
        if std == 0:
            assert (p.data == fill).all(), p.name
    gains = [p for p in state.parameters() if p.name.endswith(".gain")]
    biases = [p for p in state.parameters() if p.name.endswith((".bias", ".b1", ".b2"))]
    assert gains and all((p.data == 1.0).all() for p in gains)
    assert biases and not any(p.data.any() for p in biases)
    if frontend == "gbst":
        assert not state["gbst.conv_bias"].data.any()


def test_checkpoint_round_trip_bit_identical():
    state = desk_state(seed=3)
    state.step = 17
    ids = encode("checkpoint round trip").ids
    with no_grad():
        memory, _ = encode_input(state, ids)
        logits = decode_stack(state, memory, [BOS_ID, 102, 111])
    path = "/tmp/gbst_test_ck.gbst"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.step == 17
    for p in loaded.parameters():  # a native float64 copy that training can update in place
        assert p.data.dtype == np.float64 and p.data.dtype.isnative and p.data.flags.writeable
    assert sum(p.data.size for p in loaded.parameters()) == sum(p.data.size for p in state.parameters())
    with no_grad():
        memory2, _ = encode_input(loaded, ids)
        logits2 = decode_stack(loaded, memory2, [BOS_ID, 102, 111])
    assert (logits.data == logits2.data).all()


class NoDrawGenerator(np.random.Generator):
    def normal(self, *args, **kwargs):
        raise AssertionError("a checkpoint load drew a random init")


def test_checkpoint_load_draws_no_random_init(tmp_path, monkeypatch):
    state = desk_state(seed=5)
    path = str(tmp_path / "ck.gbst")
    save_checkpoint(state, path)
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDrawGenerator(np.random.PCG64(seed)))
    with pytest.raises(AssertionError):
        desk_state(seed=5)  # the patch bites wherever a model is drawn
    loaded = load_checkpoint(path)
    assert list(loaded.params) == list(state.params)
    for name, p in state.params.items():
        assert loaded[name].data.tobytes() == p.data.tobytes()


def test_failed_save_leaves_the_old_checkpoint_whole(tmp_path):
    path = tmp_path / "checkpoint.gbst"
    save_checkpoint(desk_state(seed=1), str(path))
    good = path.read_bytes()
    state = desk_state(seed=2)
    last = state.parameters()[-1]
    last.data = np.full(last.data.shape, "x")  # its blob, written after the header, is no float64
    with pytest.raises(ValueError):
        save_checkpoint(state, str(path))
    assert path.read_bytes() == good
    assert os.listdir(tmp_path) == ["checkpoint.gbst"]


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.gbst"
    p.write_bytes(b"not a checkpoint")
    with pytest.raises(ConfigError):
        load_checkpoint(str(p))


def rewrite_checkpoint(src, dst, header_update, drop=None, tail=b""):
    """Copy a checkpoint with ``header_update`` applied to its JSON header,
    parameter ``drop`` removed from header and blobs, and ``tail`` appended."""
    rest = src.read_bytes()[len(CHECKPOINT_MAGIC) :]
    size_line, rest = rest.split(b"\n", 1)
    header_len = int(size_line)
    header = json.loads(rest[:header_len])
    kept, off = [], header_len
    for meta in header["params"]:
        size = 8 * int(np.prod(meta["shape"]))
        if meta["name"] != drop:
            kept.append((meta, rest[off : off + size]))
        off += size
    header["params"] = [meta for meta, _ in kept]
    header.update(header_update)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    blobs = b"".join(blob for _, blob in kept)
    dst.write_bytes(CHECKPOINT_MAGIC + f"{len(text)}\n".encode("ascii") + text + blobs + tail)


@pytest.mark.parametrize(
    "header_update, drop, tail",
    [
        ({}, None, b"\x00"),  # trailing bytes after the last blob
        ({"version": 2}, None, b""),  # a version this loader does not know
        ({}, "out_proj", b""),  # a parameter the header omits
    ],
    ids=["trailing_bytes", "unknown_version", "omitted_parameter"],
)
def test_checkpoint_rejects_malformed_files(tmp_path, header_update, drop, tail):
    good, bad = tmp_path / "good.gbst", tmp_path / "bad.gbst"
    save_checkpoint(desk_state(seed=1), str(good))
    rewrite_checkpoint(good, good, {})
    load_checkpoint(str(good))  # the rewrite itself keeps a checkpoint valid
    rewrite_checkpoint(good, bad, header_update, drop, tail)
    with pytest.raises(ConfigError):
        load_checkpoint(str(bad))


def split_checkpoint(path):
    """(JSON header, parameter bytes) of a checkpoint file."""
    size_line, rest = path.read_bytes()[len(CHECKPOINT_MAGIC) :].split(b"\n", 1)
    return json.loads(rest[: int(size_line)]), rest[int(size_line) :]


def framed(header):
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return f"{len(text)}\n".encode("ascii") + text


def with_field(section, key, value):
    """The defect of one config field set to ``value``."""
    return lambda header, blobs: framed({**header, section: {**header[section], key: value}}) + blobs


def with_step(value):
    """The defect of the step counter set to ``value``."""
    return lambda header, blobs: framed({**header, "step": value}) + blobs


def with_shape(name, shape):
    """The defect of one parameter's listed shape set to ``shape``."""
    return lambda header, blobs: framed(
        {**header, "params": [{**m, "shape": shape} if m["name"] == name else m for m in header["params"]]}
    ) + blobs


# header defects: (header, parameter blobs) -> the file after the magic line
HEADER_DEFECTS = {
    "length_not_a_number": lambda header, blobs: b"abc\n" + framed(header).split(b"\n", 1)[1] + blobs,
    "truncated_json": lambda header, blobs: framed(header)[:60],
    "unknown_stack_key": lambda header, blobs: framed(
        {**header, "stack": {**header["stack"], "bogus": 1}}
    ) + blobs,
    "missing_params_key": lambda header, blobs: framed(
        {k: v for k, v in header.items() if k != "params"}
    ) + blobs,
    # a header-length line larger than the file
    "huge_header_length": lambda header, blobs: f"{10**12}\n".encode("ascii")
    + framed(header).split(b"\n", 1)[1] + blobs,
    # parameter lists other than the model's, with the file's bytes unchanged
    "negative_dimension": with_shape("embedding", [-1, 64]),
    "fractional_dimension": with_shape("embedding", [256.5, 64]),
    "permuted_parameters": lambda header, blobs: framed(
        {**header, "params": [header["params"][i] for i in (0, 2, 1, *range(3, len(header["params"])))]}
    ) + blobs,
    # numpy refuses a table of 2**40 positions at once, so a check that comes
    # too late fails with MemoryError rather than filling the memory
    "huge_max_positions": with_field("stack", "max_positions", 2**40),
    # sizes that are not ints
    "fractional_heads": with_field("stack", "heads", 2.5),
    "float_conv_kernel_size": with_field("gbst", "conv_kernel_size", 5.0),
    "fractional_max_block_size": with_field("gbst", "max_block_size", 2.5),
    "float_downsample_rate": with_field("gbst", "downsample_rate", 2.0),
    # sizes no parameter shape bounds; a forward pass would list 2**40 streams
    "huge_max_block_size": with_field("gbst", "max_block_size", 2**40),
    "huge_downsample_rate": with_field("gbst", "downsample_rate", 2**40),
    # a step that is not a non-negative int
    "fractional_step": with_step(2.5),
    "bool_step": with_step(True),
    "string_step": with_step("7"),
    "negative_step": with_step(-1),
}


@pytest.mark.parametrize("defect", HEADER_DEFECTS.values(), ids=HEADER_DEFECTS.keys())
def test_checkpoint_header_defects_are_config_errors(tmp_path, capsys, defect):
    good, bad = tmp_path / "good.gbst", tmp_path / "bad.gbst"
    save_checkpoint(desk_state(seed=1), str(good))
    bad.write_bytes(CHECKPOINT_MAGIC + defect(*split_checkpoint(good)))
    with pytest.raises(ConfigError, match="bad.gbst"):
        load_checkpoint(str(bad))
    argv = ["score-viz", "--checkpoint", str(bad), "--text", "hi", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "bad.gbst" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("max_block_size", 17), ("max_block_size", 2**40), ("downsample_rate", 9), ("downsample_rate", 2**40)],
)
def test_gbst_sizes_beyond_every_input_are_config_errors(key, value):
    # max_positions 8 at downsample rate 2 takes at most 16 bytes
    stack = StackConfig(max_positions=8)
    for fits in ({"max_block_size": 16}, {"downsample_rate": 8, "max_block_size": 4}):
        ModelState(stack, GbstConfig(embedding_dim=stack.d_model, **fits))
    with pytest.raises(ConfigError, match=key):
        ModelState(stack, GbstConfig(embedding_dim=stack.d_model, **{key: value}))


# every numeric field of a desk checkpoint's header
NUMERIC_FIELDS = (
    [("version",), ("step",), ("params", 0, "shape", 0)]
    + [("stack", k) for k, v in asdict(DESK).items() if type(v) is int]
    + [("gbst", k) for k, v in asdict(DESK_GBST).items() if type(v) is int]
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    field=st.sampled_from(NUMERIC_FIELDS),
    value=st.sampled_from([-1, 0, 2.5, 2**40, True, "x", None]),
)
def test_numeric_header_edits_load_or_raise_config_error(field, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.gbst"
        save_checkpoint(ModelState(DESK, DESK_GBST, seed=1), str(path))
        header, blobs = split_checkpoint(path)
        node = header
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        path.write_bytes(CHECKPOINT_MAGIC + framed(header) + blobs)
        try:
            load_checkpoint(str(path))
        except ConfigError as err:
            assert "edited.gbst" in str(err)


@pytest.mark.parametrize("pooling, code", [("mean", 0), ("max", 2)])
def test_checkpoint_gbst_pooling_key(tmp_path, capsys, pooling, code):
    # files written while GbstConfig had a pooling field carry "pooling": "mean"
    state = desk_state(seed=1)
    path = tmp_path / "ck.gbst"
    save_checkpoint(state, str(path))
    rewrite_checkpoint(path, path, {"gbst": {**asdict(state.gbst), "pooling": pooling}})
    argv = ["score-viz", "--checkpoint", str(path), "--text", "hi", "--out", str(tmp_path)]
    assert main(argv) == code
    if code == 0:
        assert load_checkpoint(str(path)).gbst == state.gbst
    else:
        assert "pooling 'max'" in capsys.readouterr().err


def test_checkpoint_ignores_a_run_config_key(tmp_path):
    # files written before checkpoints stopped copying the run config carry one
    state = desk_state(seed=1)
    path = tmp_path / "ck.gbst"
    save_checkpoint(state, str(path))
    rewrite_checkpoint(path, path, {"run_config": {"out_dir": "elsewhere", "seed": 9}})
    loaded = load_checkpoint(str(path))
    assert not hasattr(loaded, "run_config")
    for name, p in state.params.items():
        assert p.data.tobytes() == loaded[name].data.tobytes(), name


def test_gradcheck_both_frontends():
    for frontend in ("gbst", "identity"):
        report, ok = run_suite(seeds=[0], frontend=frontend)
        assert ok, report
        if frontend == "gbst":
            for group in REQUIRED_GROUPS:
                assert group in report


def test_gradcheck_negative_control():
    report, ok = run_suite(seeds=[0], corrupt_op="ffn")
    assert not ok
    assert max(report.values()) > DEFAULT_TOLERANCE


def test_memorization_overfit_and_exact_decode():
    # one-example dataset: teacher-forced loss drops below 0.01 nats/byte and
    # greedy decoding reproduces the memorized target exactly
    text = "the quick brown fox jumps over the lazy dog near the river bank today"
    ex = corrupt_spans(encode(text), corruption_rate=0.6, mean_span=25.0, rng_seed=3)
    assert len(ex.decoder_target.ids) >= 40
    state = desk_state(seed=0)
    cfg = TrainConfig(
        batch_size=1, steps=1, learning_rate=3e-3, schedule="constant", grad_clip=1.0
    )
    opt = make_optimizer(cfg)
    loss = None
    for _ in range(1200):
        loss = train_step(state, [ex], cfg, opt)
        if loss < 0.005:
            break
    assert loss is not None and loss < 0.01
    metrics = evaluate(state, [ex])
    assert metrics["nats_per_byte"] < 0.01
    assert metrics["exact_span_match_rate"] == 1.0
    with no_grad():
        memory, _ = encode_input(state, ex.encoder_input.ids)
    decoded = greedy_decode(
        state, memory, max_len=len(ex.decoder_target.ids) + 8, stop_after_spans=ex.span_count
    )
    assert decoded.ids == ex.decoder_target.ids
