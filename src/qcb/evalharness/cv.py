"""Stratified splits and the two evaluation plans: repeated CV and holdout.

A plan turns the labels and the master seed into the report's ``plan``
block and its list of splits.  Each split is ``(seed_index, seed, fold,
train_idx, test_idx)``; the runner fits every model once per split.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import UsageError


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 32-bit seed from the master seed and a mixed part list."""
    entropy = [int(master_seed) & 0xFFFFFFFF]
    for part in parts:
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode("utf-8")))
        else:
            entropy.append(int(part) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class CvPlan:
    """Fold count and the list of shuffling seeds (one CV round per seed)."""

    n_folds: int = 5
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self) -> None:
        if self.n_folds < 2:
            raise UsageError("n_folds must be >= 2")
        if not self.seeds:
            raise UsageError("at least one seed required")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    def splits(self, y, master_seed: int) -> tuple[dict, list[tuple]]:
        """Report plan block and the stratified folds of every seed round."""
        fold_seeds = [derive_seed(master_seed, "folds", i) for i in range(len(self.seeds))]
        block = {
            "mode": "cross_validation",
            "n_folds": self.n_folds,
            "seeds": list(self.seeds),
            "fold_seeds": fold_seeds,
            "stratified": True,
        }
        splits = []
        for seed_index, (seed, fold_seed) in enumerate(zip(self.seeds, fold_seeds)):
            folds = stratified_folds(y, self.n_folds, fold_seed)
            for fold in range(self.n_folds):
                splits.append(
                    (seed_index, seed, fold, np.nonzero(folds != fold)[0], np.nonzero(folds == fold)[0])
                )
        return block, splits


@dataclass(frozen=True)
class HoldoutPlan:
    """One stratified train/test split (the preliminary-style protocol)."""

    test_fraction: float = 0.2

    def splits(self, y, master_seed: int) -> tuple[dict, list[tuple]]:
        """Report plan block and the single split, recorded as seed round 0, fold 0."""
        train_idx, test_idx = holdout_split(
            y, self.test_fraction, derive_seed(master_seed, "holdout")
        )
        block = {
            "mode": "holdout",
            "test_fraction": self.test_fraction,
            "n_train": int(len(train_idx)),
            "n_test": int(len(test_idx)),
        }
        return block, [(0, master_seed, 0, train_idx, test_idx)]


def stratified_folds(y, n_folds: int, seed: int) -> np.ndarray:
    """Assign each sample to a fold, preserving class proportions.

    Within each class the indices are shuffled and dealt round-robin, so
    per-class fold sizes differ by at most one.  Classes smaller than the
    fold count are an error (named in the message).
    """
    y = np.asarray(y)
    if y.ndim != 1 or len(y) == 0:
        raise UsageError("y must be a non-empty vector")
    if n_folds < 2:
        raise UsageError("n_folds must be >= 2")
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=int)
    for label in np.unique(y):
        members = np.nonzero(y == label)[0]
        if len(members) < n_folds:
            raise UsageError(
                f"class {label.item()!r} has {len(members)} members, fewer than "
                f"{n_folds} folds"
            )
        shuffled = rng.permutation(members)
        assignment[shuffled] = np.arange(len(members)) % n_folds
    return assignment


def holdout_split(y, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test split; returns (train_idx, test_idx)."""
    y = np.asarray(y)
    if not 0.0 < test_fraction < 1.0:
        raise UsageError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label in np.unique(y):
        members = rng.permutation(np.nonzero(y == label)[0])
        n_test = max(1, int(round(len(members) * test_fraction)))
        if n_test >= len(members):
            raise UsageError(f"class {label!r} too small for the requested split")
        test.extend(members[:n_test])
        train.extend(members[n_test:])
    return np.sort(np.array(train)), np.sort(np.array(test))
