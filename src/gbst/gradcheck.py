"""Finite-difference verification of every parameter group's gradients.

For each parameter the analytic gradient from one backward pass is compared
against central differences (f64, h = 1e-5) along a random direction plus at
the two entries with the largest analytic gradient. Errors are aggregated per
named group; the suite passes when every group's max relative error is below
the tolerance.
"""

from __future__ import annotations

import numpy as np

from .bytes_data import ByteSequence, corrupt_spans, encode
from .errors import ConfigError
from .model import ModelState, StackConfig, example_loss
from .subword import GbstConfig
from .tensor import Parameter, active_tape, backward, no_grad, reset_tape

REQUIRED_GROUPS = ("embedding", "conv", "scorer", "attention", "ffn")
DEFAULT_TOLERANCE = 1e-4
FD_EPSILON = 1e-5

_PROBE_TEXT = "gradient checks keep the whole pipeline honest."


def parameter_group(name: str) -> str:
    if name.startswith("gbst.conv"):
        return "conv"
    if name == "gbst.scorer":
        return "scorer"
    if name == "embedding":
        return "embedding"
    if name.startswith("pos_"):
        return "positional"
    if ".attn." in name or ".self." in name or ".cross." in name:
        return "attention"
    if ".ffn." in name:
        return "ffn"
    if ".ln" in name:
        return "layer_norm"
    if name == "out_proj":
        return "output"
    return "other"


def build_probe(seed: int = 0, frontend: str = "gbst") -> tuple[ModelState, object]:
    """Desk-shaped 2-layer model and one short corruption example."""
    stack = StackConfig(frontend=frontend)
    gbst = (
        GbstConfig(embedding_dim=stack.d_model, max_block_size=4, downsample_rate=2)
        if frontend == "gbst"
        else None
    )
    state = ModelState(stack, gbst, seed=seed)
    seq = encode(_PROBE_TEXT)
    example = corrupt_spans(
        ByteSequence(seq.ids[:24]), corruption_rate=0.2, mean_span=4.0, rng_seed=seed
    )
    return state, example


def _loss_value(state: ModelState, example) -> float:
    with no_grad():
        return float(example_loss(state, example).data)


def _central_difference(state, example, param: Parameter, direction: np.ndarray) -> float:
    param.data += FD_EPSILON * direction
    up = _loss_value(state, example)
    param.data -= 2 * FD_EPSILON * direction
    down = _loss_value(state, example)
    param.data += FD_EPSILON * direction
    return (up - down) / (2 * FD_EPSILON)


def _relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def _corrupt_backward(op: str) -> None:
    """Scale by 1.05 the upstream gradient that each tape record of ``op``
    passes to its backward rule."""
    records = active_tape().records
    if all(name != op for _, _, name in records):
        raise ConfigError(f"cannot corrupt op {op!r}: the model's loss records no such op")
    records[:] = [
        (out, (lambda g, fn=fn: fn(g * 1.05)) if name == op else fn, name) for out, fn, name in records
    ]


def check_model_gradients(
    state: ModelState, example, seed: int = 0, corrupt_op: str | None = None
) -> dict[str, float]:
    """Max relative analytic-vs-FD error per parameter group. ``corrupt_op``
    corrupts that op's backward rule for the analytic pass (negative control)."""
    rng = np.random.default_rng(seed)
    reset_tape()
    state.zero_grads()
    loss = example_loss(state, example)
    if corrupt_op is not None:
        _corrupt_backward(corrupt_op)
    backward(loss)
    report: dict[str, float] = {}
    for p in state.parameters():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        group = parameter_group(p.name)
        worst = report.get(group, 0.0)

        direction = rng.normal(size=p.data.shape)
        direction /= max(np.linalg.norm(direction), 1e-12)
        fd = _central_difference(state, example, p, direction)
        analytic = float((grad * direction).sum())
        worst = max(worst, _relative_error(fd, analytic))

        flat = np.abs(grad).ravel()
        order = np.argsort(flat)[::-1][:2]
        for idx in order:
            if flat[idx] == 0.0:
                continue
            e = np.zeros_like(grad)
            e.ravel()[idx] = 1.0
            fd = _central_difference(state, example, p, e)
            worst = max(worst, _relative_error(fd, float(grad.ravel()[idx])))
        report[group] = worst
    reset_tape()
    return report


def run_suite(
    seeds=range(3),
    tolerance: float = DEFAULT_TOLERANCE,
    corrupt_op: str | None = None,
    frontend: str = "gbst",
) -> tuple[dict[str, float], bool]:
    """Aggregate group report over several seeded models; True iff all pass.

    ``corrupt_op`` injects a deliberate fault into that op's backward rule
    (negative control: the suite must then fail); an op the loss does not
    record is a ``ConfigError``.
    """
    merged: dict[str, float] = {}
    for seed in seeds:
        state, example = build_probe(seed=seed, frontend=frontend)
        report = check_model_gradients(state, example, seed=seed, corrupt_op=corrupt_op)
        for group, err in report.items():
            merged[group] = max(merged.get(group, 0.0), err)
    ok = all(err < tolerance for err in merged.values())
    return merged, ok
