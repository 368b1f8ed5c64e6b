"""End-to-end model wiring: one ParamStore holding projection, encoder and
estimator parameters, plus forward helpers shared by training and inference."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import LAYERS, encode_packed, encoder_param_spec, pack_graphs
from .estimator import (
    EstimatorConfig,
    apply_forget_bias,
    classify,
    estimator_param_spec,
    recurrent_forward,
)
from .features import FeaturizerConfig
from .nn import ParamStore, init_params, no_grad


@dataclass(frozen=True)
class ModelConfig:
    featurizer: FeaturizerConfig = field(default_factory=FeaturizerConfig)
    d_h: int = 64
    d_g: int = 64
    gnn_layers: int = LAYERS
    hidden: int = 128
    lstm_layers: int = 2
    dropout: float = 0.3
    num_classes: int = 7
    seed: int = 0

    @property
    def estimator(self) -> EstimatorConfig:
        return EstimatorConfig(
            d_g=self.d_g,
            hidden=self.hidden,
            layers=self.lstm_layers,
            dropout=self.dropout,
            num_classes=self.num_classes,
        )

    @staticmethod
    def from_dict(doc: dict) -> "ModelConfig":
        doc = dict(doc)
        fz = doc.pop("featurizer", {})
        return ModelConfig(featurizer=FeaturizerConfig(**fz), **doc)


# parameter-name prefixes frozen in fine-tuning phase 1
FREEZE_LOWER_RECURRENT = ("lstm.L0.",)
FREEZE_ENCODER = ("enc.", "proj.")


def frozen_names(store: ParamStore, prefixes) -> frozenset:
    return frozenset(n for n in store.names() if n.startswith(tuple(prefixes)))


def build_param_store(cfg: ModelConfig) -> ParamStore:
    spec = {}
    spec.update(encoder_param_spec(cfg.featurizer.node_dim, cfg.featurizer.edge_dim,
                                   cfg.d_h, cfg.d_g, cfg.gnn_layers))
    spec.update(estimator_param_spec(cfg.estimator))
    store = init_params(spec, seed=cfg.seed)
    apply_forget_bias(store, cfg.estimator)
    return store


def encode_windows(window_feats, store: ParamStore, cfg: ModelConfig):
    """Encode a list of (X, Z, graph) windows into one (n, d_g) embedding
    tensor (row order follows the input order)."""
    packed = pack_graphs(window_feats)
    return encode_packed(packed, store, layers=cfg.gnn_layers)


def infer_probabilities(window_feats, store: ParamStore, cfg: ModelConfig) -> np.ndarray:
    """Eval-mode stage probabilities for one time-ordered window sequence."""
    if not window_feats:
        return np.zeros((0, cfg.num_classes))
    with no_grad():
        batch_enc = encode_windows(window_feats, store, cfg)
        h = recurrent_forward(batch_enc.g, store, cfg.estimator, mode="eval", batch=1)
        p = classify(h, store)
    return p.data.copy()
