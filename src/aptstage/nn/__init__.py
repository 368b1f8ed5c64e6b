from .tensor import (
    Tensor,
    add,
    as_tensor,
    div,
    exp,
    gather_rows,
    log,
    matmul,
    mul,
    no_grad,
    sub,
    transpose,
    tsum,
)
from .params import ParamStore, init_params
from .optim import AdamState, adam_step, clip_gradients
from .check import finite_diff_check
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "AdamState",
    "ParamStore",
    "Tensor",
    "adam_step",
    "add",
    "as_tensor",
    "clip_gradients",
    "div",
    "exp",
    "finite_diff_check",
    "gather_rows",
    "init_params",
    "load_checkpoint",
    "log",
    "matmul",
    "mul",
    "no_grad",
    "save_checkpoint",
    "sub",
    "transpose",
    "tsum",
]
