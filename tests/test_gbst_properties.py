"""Properties of the whole soft tokenization layer over shapes and toggles."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbst import tensor as T
from gbst.reference import gbst_forward_reference
from gbst.subword import GbstConfig, gbst_forward, init_gbst_params
from gbst.tensor import Tensor, no_grad, reset_tape


@pytest.fixture(autouse=True)
def clean_tape():
    reset_tape()
    yield
    reset_tape()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.data(),
    n=st.integers(1, 200),
    d=st.integers(1, 4),
    max_block=st.integers(1, 4),
    offsets=st.booleans(),
    calibration=st.booleans(),
    conv=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_matches_reference_and_rows_sum_to_one(
    data, n, d, max_block, offsets, calibration, conv, seed
):
    rate = data.draw(st.integers(1, min(4, n)), label="downsample_rate")
    cfg = GbstConfig(
        embedding_dim=d,
        max_block_size=max_block,
        downsample_rate=rate,
        conv_kernel_size=5 if conv else None,
        enable_offsets=offsets,
        enable_calibration=calibration,
    )
    rng = np.random.default_rng(seed)
    params = init_gbst_params(cfg, rng)
    x = rng.normal(size=(n, d))
    with no_grad():
        out = gbst_forward(Tensor(x), cfg, params)
    filters = params["gbst.conv_filters"].data if conv else None
    bias = params["gbst.conv_bias"].data if conv else None
    ref = gbst_forward_reference(x, cfg, params["gbst.scorer"].data, filters, bias)
    for name, got in (
        ("raw", out.scores.raw),
        ("weights", out.scores.weights),
        ("calibrated", out.scores.calibrated),
        ("latent", out.latent),
        ("downsampled", out.downsampled),
    ):
        if got is None:
            assert ref[name] is None
            continue
        assert np.abs(got.data - ref[name]).max() <= 1e-10, name
    npt.assert_allclose(out.scores.mixing_weights().data.sum(axis=1), 1.0, atol=1e-10)
    npt.assert_allclose(out.scores.weights.data.sum(axis=1), 1.0, atol=1e-10)


def test_record_count_does_not_grow_with_length():
    cfg = GbstConfig(embedding_dim=4, max_block_size=4, enable_offsets=True, enable_calibration=True)
    params = init_gbst_params(cfg, np.random.default_rng(0))
    counts = []
    for n in (5, 1024):
        reset_tape()
        gbst_forward(Tensor(np.random.default_rng(n).normal(size=(n, 4))), cfg, params)
        counts.append(len(T.active_tape()))
    assert counts[0] == counts[1]
