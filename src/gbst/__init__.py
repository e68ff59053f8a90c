"""Byte-level encoder-decoder with a gradient-based soft subword tokenization
frontend, built on a minimal float64 autodiff tensor core."""

from .bytes_data import ByteSequence, SpanCorruptionExample, corrupt_spans, decode, encode
from .errors import ConfigError, NonFiniteError, ShapeError, TapeError
from .model import ModelState, StackConfig, load_checkpoint, save_checkpoint
from .subword import GbstConfig, GbstOutput, gbst_forward, init_gbst_params
from .tensor import Parameter, Tape, Tensor, backward, no_grad, reset_tape
from .train import TrainConfig, evaluate, train_loop, train_step

__all__ = [
    "ByteSequence",
    "ConfigError",
    "GbstConfig",
    "GbstOutput",
    "ModelState",
    "NonFiniteError",
    "Parameter",
    "ShapeError",
    "SpanCorruptionExample",
    "StackConfig",
    "Tape",
    "TapeError",
    "Tensor",
    "TrainConfig",
    "backward",
    "corrupt_spans",
    "decode",
    "encode",
    "evaluate",
    "gbst_forward",
    "init_gbst_params",
    "load_checkpoint",
    "no_grad",
    "reset_tape",
    "save_checkpoint",
    "train_loop",
    "train_step",
]
