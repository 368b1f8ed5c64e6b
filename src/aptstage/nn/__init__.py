from .tensor import Tensor, as_tensor, gather_rows, linear, no_grad, weighted_sum
from .params import ParamStore, init_params
from .optim import AdamState, adam_step, clip_gradients
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "AdamState",
    "ParamStore",
    "Tensor",
    "adam_step",
    "as_tensor",
    "clip_gradients",
    "gather_rows",
    "init_params",
    "linear",
    "load_checkpoint",
    "no_grad",
    "save_checkpoint",
    "weighted_sum",
]
