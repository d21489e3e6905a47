"""Feature scaling: z-score standardization and [0, pi] angle rescaling.

The angle scaler exists because unbounded standardized values alias under
2*pi-periodic rotation gates; it min-max maps each feature onto [0, pi] and
clamps out-of-range values at transform time.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique

import numpy as np

from ..errors import UsageError

ANGLE_RANGE = np.pi


@unique
class ScalerKind(Enum):
    ZSCORE = "zscore"
    ANGLE = "angle"


@dataclass(frozen=True)
class ScalerState:
    """Per-feature offsets/scales fitted on a training split.

    ``degenerate`` marks constant features: they map to 0 under ZSCORE and
    to pi/2 (mid-range) under ANGLE.
    """

    kind: ScalerKind
    offset: np.ndarray
    scale: np.ndarray
    degenerate: np.ndarray

    @property
    def n_features(self) -> int:
        return self.offset.shape[0]


def fit_scaler(kind: ScalerKind, X: np.ndarray) -> ScalerState:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise UsageError("X must be a non-empty 2-D matrix")
    if kind is ScalerKind.ZSCORE:
        offset = X.mean(axis=0)
        scale = X.std(axis=0)
    elif kind is ScalerKind.ANGLE:
        offset = X.min(axis=0)
        scale = X.max(axis=0) - offset
    else:
        raise UsageError(f"unknown scaler kind {kind!r}")
    degenerate = scale == 0.0
    safe_scale = np.where(degenerate, 1.0, scale)
    for arr in (offset, safe_scale, degenerate):
        arr.setflags(write=False)
    return ScalerState(kind=kind, offset=offset, scale=safe_scale, degenerate=degenerate)


def apply_scaler(state: ScalerState, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != state.n_features:
        raise UsageError(f"expected {state.n_features} features, got {X.shape}")
    return scale_rows(state, X)


def scale_rows(state: ScalerState, X: np.ndarray) -> np.ndarray:
    """``apply_scaler`` without its checks: X is already a float matrix of
    ``state.n_features`` columns."""
    out = (X - state.offset) / state.scale
    if state.kind is ScalerKind.ANGLE:
        # a clip (the method np.clip dispatches to), not a maximum/minimum
        # pair, which would turn -0.0 into +0.0
        out = out.clip(0.0, 1.0) * ANGLE_RANGE
    if np.logical_or.reduce(state.degenerate):
        fill = 0.0 if state.kind is ScalerKind.ZSCORE else ANGLE_RANGE / 2.0
        out = np.where(state.degenerate, fill, out)
    return out
