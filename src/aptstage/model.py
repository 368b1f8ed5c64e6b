"""End-to-end model wiring: one ParamStore holding projection, encoder and
estimator parameters, plus forward helpers shared by training and inference."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .encoder import LAYERS, encode_packed, encoder_param_spec, pack_graphs
from .estimator import apply_forget_bias, classify, estimator_param_spec, recurrent_forward
from .errors import InputError, ValidationError
from .features import FeaturizerConfig
from .nn import ParamStore, as_tensor, init_params, no_grad
from .telemetry.records import NUM_STAGES


@dataclass(frozen=True)
class ModelConfig:
    featurizer: FeaturizerConfig = field(default_factory=FeaturizerConfig)
    d_h: int = 64
    d_g: int = 64
    gnn_layers: int = LAYERS
    hidden: int = 128
    lstm_layers: int = 2
    dropout: float = 0.3
    num_classes: int = NUM_STAGES
    seed: int = 0

    def __post_init__(self):
        for name in ("d_h", "d_g", "gnn_layers", "hidden", "lstm_layers"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if not 0 <= self.dropout < 1:
            raise ValidationError("dropout must be in [0, 1)")
        if self.num_classes != NUM_STAGES:
            raise ValidationError(f"num_classes must be {NUM_STAGES}: labels and decisions "
                                  f"use stages 0..{NUM_STAGES - 1}")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


# parameter-name prefixes frozen in fine-tuning phase 1 (the encoder's, optionally, in pretraining)
FREEZE_LOWER_RECURRENT = ("lstm.L0.",)
FREEZE_ENCODER = ("enc.", "proj.")


def build_param_store(cfg: ModelConfig) -> ParamStore:
    spec = {}
    spec.update(encoder_param_spec(cfg.featurizer.node_dim, cfg.featurizer.edge_dim,
                                   cfg.d_h, cfg.d_g, cfg.gnn_layers))
    spec.update(estimator_param_spec(cfg))
    store = init_params(spec, seed=cfg.seed)
    apply_forget_bias(store, cfg)
    return store


def encode_windows(window_feats, store: ParamStore, cfg: ModelConfig):
    """Encode a list of (X, Z, graph) windows into one (n, d_g) embedding
    tensor (row order follows the input order); no windows give zero rows."""
    packed = pack_graphs(window_feats)
    if not window_feats:  # no window to take the feature widths from
        packed = replace(packed, X=sp.csr_array((0, cfg.featurizer.node_dim)),
                         Zbar=np.zeros((0, cfg.featurizer.edge_dim)))
    return encode_packed(packed, store, layers=cfg.gnn_layers)


def stage_probabilities(g, store: ParamStore, cfg: ModelConfig) -> np.ndarray:
    """Eval-mode stage probabilities from one time-ordered sequence of window
    embeddings g, (T, d_g). Raises InputError if any probability is
    non-finite."""
    g = as_tensor(g)
    if not g.data.shape[0]:
        return np.zeros((0, cfg.num_classes))
    with no_grad():
        h = recurrent_forward(g, store, cfg, mode="eval", batch=1)
        p = classify(h, store)
    if not np.isfinite(p.data).all():
        raise InputError("non-finite stage probability; check the checkpoint weights")
    return p.data.copy()


def infer_probabilities(window_feats, store: ParamStore, cfg: ModelConfig) -> np.ndarray:
    """Eval-mode stage probabilities for one time-ordered window sequence:
    encode the windows, then `stage_probabilities`."""
    with no_grad():
        g = encode_windows(window_feats, store, cfg).g
    return stage_probabilities(g, store, cfg)
