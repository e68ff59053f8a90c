import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbst import tensor as T
from gbst.errors import ConfigError, ShapeError
from gbst.reference import gbst_forward_reference, run_oracle_suite
from gbst.subword import (
    BlockCandidateSet,
    GbstConfig,
    calibrate_scores,
    downsample,
    enumerate_blocks,
    form_latent,
    gbst_forward,
    init_gbst_params,
    score_blocks,
    serialize_scores,
)
from gbst.tensor import Parameter, Tensor, backward, no_grad, reset_tape

from chain_ops import add, mul, softmax_last_axis, sum_all, transpose_2d


def make_cfg(d=4, **kw):
    kw.setdefault("conv_kernel_size", None)
    return GbstConfig(embedding_dim=d, **kw)


def random_params(cfg, seed=0):
    return init_gbst_params(cfg, np.random.default_rng(seed))


@pytest.fixture(autouse=True)
def clean_tape():
    reset_tape()
    yield
    reset_tape()


# --- enumerate_blocks ---------------------------------------------------------


def test_block_size_one_is_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 3)))
    sets = enumerate_blocks(x, make_cfg(d=3, max_block_size=2))
    npt.assert_array_equal(sets[0].pooled.data, x.data)
    npt.assert_array_equal(sets[0].realigned.data, x.data)


def test_pairs_mean_and_replication():
    x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
    sets = enumerate_blocks(x, make_cfg(d=1, max_block_size=2))
    b2 = sets[1]
    npt.assert_array_equal(b2.pooled.data, [[1.5], [3.5]])
    npt.assert_array_equal(b2.realigned.data, [[1.5], [1.5], [3.5], [3.5]])


def test_enumerate_matches_brute_force():
    # explicit per-position block arithmetic, independent of the pipeline
    rng = np.random.default_rng(1)
    x = rng.normal(size=(7, 3))
    cfg = make_cfg(d=3, max_block_size=4)
    sets = enumerate_blocks(Tensor(x), cfg)
    for cand in sets:
        b = cand.block_size
        padded = np.zeros((-(-7 // b) * b, 3))
        padded[:7] = x
        for i in range(7):
            j = i // b
            expected = padded[j * b : (j + 1) * b].mean(axis=0)
            npt.assert_allclose(cand.realigned.data[i], expected, atol=0)


def test_offsets_stream_count_and_shift():
    cfg = make_cfg(d=2, max_block_size=3, enable_offsets=True)
    assert len(cfg.stream_keys()) == 1 + 2 + 3  # sum of b over 1..M
    x = np.random.default_rng(2).normal(size=(6, 2))
    sets = enumerate_blocks(Tensor(x), cfg)
    by_key = {(s.block_size, s.offset): s for s in sets}
    # offset-1 stream of size 2 pools pairs of the left-shifted sequence
    s21 = by_key[(2, 1)]
    npt.assert_allclose(s21.pooled.data[0], x[1:3].mean(axis=0), atol=0)
    npt.assert_allclose(s21.pooled.data[1], x[3:5].mean(axis=0), atol=0)


# --- score_blocks -------------------------------------------------------------


def test_zero_scorer_gives_uniform_weights():
    cfg = make_cfg(d=3, max_block_size=4)
    x = Tensor(np.random.default_rng(3).normal(size=(9, 3)))
    sets = enumerate_blocks(x, cfg)
    scores = score_blocks(sets, Parameter("s", np.zeros((3, 1))))
    npt.assert_allclose(scores.weights.data, 0.25, atol=1e-15)


def test_single_stream_weights_are_one():
    cfg = make_cfg(d=2, max_block_size=1)
    x = Tensor(np.random.default_rng(4).normal(size=(5, 2)))
    scores = score_blocks(enumerate_blocks(x, cfg), Parameter("s", np.ones((2, 1))))
    npt.assert_allclose(scores.weights.data, 1.0, atol=0)


def test_weight_rows_sum_to_one():
    cfg = make_cfg(d=4, max_block_size=4, enable_offsets=True)
    x = Tensor(np.random.default_rng(5).normal(size=(11, 4)))
    scores = score_blocks(enumerate_blocks(x, cfg), random_params(cfg)["gbst.scorer"])
    npt.assert_allclose(scores.weights.data.sum(axis=1), 1.0, atol=1e-9)


def test_scorer_shape_checked():
    cfg = make_cfg(d=3)
    sets = enumerate_blocks(Tensor(np.zeros((4, 3))), cfg)
    with pytest.raises(ShapeError):
        score_blocks(sets, Parameter("s", np.zeros((2, 1))))


def test_scores_match_scoring_after_replication():
    # linear scorer: score-then-replicate == replicate-then-score
    cfg = make_cfg(d=3, max_block_size=3)
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(8, 3)))
    scorer = rng.normal(size=(3, 1))
    sets = enumerate_blocks(x, cfg)
    scores = score_blocks(sets, Parameter("s", scorer))
    for c, cand in enumerate(sets):
        npt.assert_allclose(
            scores.raw.data[:, c], (cand.realigned.data @ scorer)[:, 0], atol=1e-12
        )


# --- calibrate_scores ---------------------------------------------------------


def test_calibration_fixed_point_identical_rows():
    p = Tensor(np.tile([[0.5, 0.3, 0.2]], (4, 1)))
    out = calibrate_scores(p)
    npt.assert_allclose(out.data, p.data, atol=1e-12)


def test_calibration_single_row_identity():
    p = Tensor(np.array([[0.25, 0.75]]))
    out = calibrate_scores(p)
    npt.assert_allclose(out.data, p.data, atol=0)


def test_calibration_matches_loop_oracle():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(5, 4))
    p = np.exp(raw) / np.exp(raw).sum(axis=1, keepdims=True)
    out = calibrate_scores(Tensor(p))
    sim = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            sim[i, j] = sum(p[i, c] * p[j, c] for c in range(4))
    attn = np.zeros((5, 5))
    for i in range(5):
        e = np.exp(sim[i] - sim[i].max())
        attn[i] = e / e.sum()
    ref = attn @ p
    assert np.abs(out.data - ref).max() < 1e-12
    npt.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


def test_calibration_rejects_unnormalized_rows():
    with pytest.raises(ShapeError):
        calibrate_scores(Tensor(np.ones((3, 2))))


def calibration_chain(p):
    """softmax(P P^T) P as the chain of ops that calibrate_scores replaced."""
    return T.matmul(softmax_last_axis(T.matmul(p, transpose_2d(p))), p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 300), c=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
@example(n=700, c=10, seed=7)  # the (700, 700) softmax in 93-row blocks
def test_calibration_bit_identical_to_chain(n, c, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(scale=3.0, size=(n, c))
    w_out, w_p = Tensor(rng.normal(size=(n, c))), Tensor(rng.normal(size=(n, c)))
    results = []
    for calibrate in (calibration_chain, calibrate_scores):
        reset_tape()
        logits = Tensor(raw.copy(), requires_grad=True)
        p = softmax_last_axis(logits)
        out = calibrate(p)
        # P's gradient holds a second term before calibration's, so the order
        # in which calibration adds its three terms shows in the bits
        backward(add(sum_all(mul(out, w_out)), sum_all(mul(p, w_p))))
        results.append([out.data, p.grad, logits.grad])
    for fused, chain in zip(results[1], results[0]):
        assert fused.tobytes() == chain.tobytes()


def test_calibration_is_one_tape_record():
    p = Tensor(np.full((4, 2), 0.5), requires_grad=True)
    calibrate_scores(p)
    assert [name for _, _, name in T.active_tape().records] == ["multi_head_attention"]


# --- form_latent ---------------------------------------------------------------


def test_one_hot_selection():
    cfg = make_cfg(d=2, max_block_size=3)
    x = Tensor(np.random.default_rng(8).normal(size=(6, 2)))
    sets = enumerate_blocks(x, cfg)
    w = np.zeros((6, 3))
    w[:, 1] = 1.0
    out = form_latent(sets, Tensor(w))
    npt.assert_array_equal(out.data, sets[1].realigned.data)


def test_uniform_weights_constant_input():
    cfg = make_cfg(d=2, max_block_size=2)
    x = Tensor(np.full((6, 2), 3.0))  # length divisible by every b: no pad rows
    sets = enumerate_blocks(x, cfg)
    w = np.full((6, 2), 0.5)
    out = form_latent(sets, Tensor(w))
    npt.assert_allclose(out.data, 3.0, atol=1e-12)


def test_form_latent_matches_sum_loop():
    cfg = make_cfg(d=3, max_block_size=4)
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(7, 3)))
    sets = enumerate_blocks(x, cfg)
    raw = rng.normal(size=(7, 4))
    w = np.exp(raw) / np.exp(raw).sum(axis=1, keepdims=True)
    out = form_latent(sets, Tensor(w))
    ref = np.zeros((7, 3))
    for i in range(7):
        for c in range(4):
            ref[i] += w[i, c] * sets[c].realigned.data[i]
    assert np.abs(out.data - ref).max() < 1e-12


def test_form_latent_stream_mismatch():
    cfg = make_cfg(d=2, max_block_size=2)
    sets = enumerate_blocks(Tensor(np.zeros((4, 2))), cfg)
    with pytest.raises(ShapeError):
        form_latent(sets, Tensor(np.ones((4, 3)) / 3))


# --- downsample -----------------------------------------------------------------


def test_downsample_rate_one_identity():
    x = Tensor(np.random.default_rng(10).normal(size=(5, 2)))
    npt.assert_array_equal(downsample(x, 1).data, x.data)


def test_downsample_length():
    assert downsample(Tensor(np.zeros((10, 3))), 2).shape == (5, 3)
    assert downsample(Tensor(np.zeros((11, 3))), 2).shape == (5, 3)  # remainder dropped


def test_downsample_identical_adjacent_rows():
    row = np.array([1.0, -2.0, 0.5])
    x = Tensor(np.stack([row, row, 2 * row, 2 * row]))
    out = downsample(x, 2)
    npt.assert_allclose(out.data, np.stack([row, 2 * row]), atol=0)


def test_downsample_too_short():
    with pytest.raises(ShapeError):
        downsample(Tensor(np.zeros((1, 2))), 2)


# --- gbst_forward ----------------------------------------------------------------


def test_identity_path():
    cfg = make_cfg(d=3, max_block_size=1, downsample_rate=1)
    x = Tensor(np.random.default_rng(11).normal(size=(6, 3)))
    out = gbst_forward(x, cfg, random_params(cfg))
    npt.assert_allclose(out.downsampled.data, x.data, atol=0)


def test_default_shape_halves_1024():
    cfg = GbstConfig(embedding_dim=8)  # default M=4, d_s=2, k=5
    x = Tensor(np.random.default_rng(12).normal(size=(1024, 8)))
    with no_grad():
        out = gbst_forward(x, cfg, random_params(cfg))
    assert out.downsampled.shape == (512, 8)
    assert out.latent.shape == (1024, 8)


def test_forward_matches_reference():
    rng = np.random.default_rng(13)
    cfg = GbstConfig(embedding_dim=8, max_block_size=4, downsample_rate=2, conv_kernel_size=5)
    params = random_params(cfg, seed=13)
    x = rng.normal(size=(16, 8))
    with no_grad():
        out = gbst_forward(Tensor(x), cfg, params)
    arrays = {name: p.data for name, p in params.items()}
    ref = gbst_forward_reference(
        x, cfg, arrays["gbst.scorer"], arrays["gbst.conv_filters"], arrays["gbst.conv_bias"]
    )
    assert np.abs(out.downsampled.data - ref["downsampled"]).max() < 1e-10


def test_oracle_suite_all_toggle_combinations():
    worst, failures = run_oracle_suite(n_instances=64, seed=99)
    assert failures == 0
    assert worst < 1e-10


# --- invariants -------------------------------------------------------------------


def test_normalization_invariant_with_calibration():
    cfg = make_cfg(d=4, max_block_size=3, enable_calibration=True, conv_kernel_size=3)
    params = random_params(cfg, seed=14)
    x = Tensor(np.random.default_rng(14).normal(size=(10, 4)))
    out = gbst_forward(x, cfg, params)
    npt.assert_allclose(out.scores.weights.data.sum(axis=1), 1.0, atol=1e-9)
    npt.assert_allclose(out.scores.calibrated.data.sum(axis=1), 1.0, atol=1e-9)


def test_replication_constancy():
    # per-stream realigned embeddings and raw scores are exact copies within
    # every fully covered block
    cfg = make_cfg(d=3, max_block_size=4)
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(14, 3)))
    sets = enumerate_blocks(x, cfg)
    scores = score_blocks(sets, Parameter("s", rng.normal(size=(3, 1))))
    for c, cand in enumerate(sets):
        b = cand.block_size
        for j in range(14 // b):
            rows = cand.realigned.data[j * b : (j + 1) * b]
            assert (rows == rows[0]).all()
            vals = scores.raw.data[j * b : (j + 1) * b, c]
            assert (vals == vals[0]).all()


def test_length_law():
    for rate in (1, 2, 3, 4):
        cfg = make_cfg(d=2, max_block_size=2, downsample_rate=rate)
        params = random_params(cfg, seed=16)
        for n in range(rate, 65):
            x = Tensor(np.random.default_rng(n).normal(size=(n, 2)))
            with no_grad():
                out = gbst_forward(x, cfg, params)
            assert out.downsampled.shape[0] == n // rate


def test_intra_block_permutation_invariance_without_conv():
    cfg = make_cfg(d=4, max_block_size=4)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(12, 4))
    b = 4
    # transposing the first two rows of an aligned block leaves the pooled row
    # bit-identical (IEEE addition is commutative, and the summation chain is
    # otherwise unchanged)
    swap = x.copy()
    swap[[0, 1]] = swap[[1, 0]]
    sets_a = enumerate_blocks(Tensor(x), cfg)
    sets_b = enumerate_blocks(Tensor(swap), cfg)
    a = next(s for s in sets_a if s.block_size == b)
    bb = next(s for s in sets_b if s.block_size == b)
    assert np.abs(a.pooled.data[0] - bb.pooled.data[0]).max() == 0.0
    # an arbitrary permutation reorders the summation, so invariance holds
    # mathematically but only to rounding noise
    perm = x.copy()
    perm[0:b] = perm[[2, 0, 3, 1]]
    sets_c = enumerate_blocks(Tensor(perm), cfg)
    cc = next(s for s in sets_c if s.block_size == b)
    assert np.abs(a.pooled.data[0] - cc.pooled.data[0]).max() < 1e-12


def test_intra_block_permutation_sensitivity_with_conv():
    cfg = make_cfg(d=4, max_block_size=4, conv_kernel_size=5, downsample_rate=2)
    rng = np.random.default_rng(18)
    params = random_params(cfg, seed=18)
    hits = 0
    for trial in range(100):
        x = rng.normal(size=(12, 4))
        j = int(rng.integers(0, 3))  # aligned block of size 4
        perm = x.copy()
        i = 4 * j
        perm[[i, i + 1]] = perm[[i + 1, i]]  # transposition inside the block
        with no_grad():
            out_a = gbst_forward(Tensor(x), cfg, params)
            out_b = gbst_forward(Tensor(perm), cfg, params)
        if np.abs(out_a.downsampled.data - out_b.downsampled.data).max() > 1e-6:
            hits += 1
            break
    assert hits >= 1


def test_gradient_flow_scorer_and_conv():
    cfg = make_cfg(d=3, max_block_size=3, conv_kernel_size=3, downsample_rate=2, enable_calibration=True)
    params = random_params(cfg, seed=19)
    x = Tensor(np.random.default_rng(19).normal(size=(9, 3)))

    def loss_value():
        with no_grad():
            out = gbst_forward(x, cfg, params)
            return float((out.downsampled.data ** 2).sum())

    reset_tape()
    out = gbst_forward(x, cfg, params)
    backward(sum_all(mul(out.downsampled, out.downsampled)))
    h = 1e-5
    for p in params.values():
        flat = p.data.ravel()
        gflat = p.grad.ravel()
        idx = int(np.abs(gflat).argmax())
        old = flat[idx]
        flat[idx] = old + h
        up = loss_value()
        flat[idx] = old - h
        down = loss_value()
        flat[idx] = old
        fd = (up - down) / (2 * h)
        assert abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-6) < 1e-4, p.name


# --- serialization -----------------------------------------------------------------


def test_serialize_scores_format():
    cfg = make_cfg(d=3, max_block_size=4)
    x = Tensor(np.random.default_rng(20).normal(size=(5, 3)))
    scores = score_blocks(enumerate_blocks(x, cfg), random_params(cfg, seed=20)["gbst.scorer"])
    text = serialize_scores(scores)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("b=1\t")
    for line in lines:
        cells = line.split("\t")
        assert len(cells) == 1 + 5
        for cell in cells[1:]:
            assert len(cell.split(".")[1]) == 6


def test_serialize_labels_with_offsets():
    cfg = make_cfg(d=2, max_block_size=2, enable_offsets=True)
    x = Tensor(np.random.default_rng(21).normal(size=(5, 2)))
    scores = score_blocks(enumerate_blocks(x, cfg), random_params(cfg, seed=21)["gbst.scorer"])
    lines = serialize_scores(scores).strip().split("\n")
    assert [line.split("\t")[0] for line in lines] == ["b=1", "b=2", "b=2,o=1"]


def test_config_validation():
    with pytest.raises(ConfigError):
        GbstConfig(embedding_dim=4, conv_kernel_size=4)
    with pytest.raises(ConfigError):
        GbstConfig(embedding_dim=4, max_block_size=0)
