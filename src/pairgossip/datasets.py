"""Dataset loading and synthetic generation.

No downloads happen here: each loader takes a local path, to the UCI
breast-cancer file in its original layout (sample id, 9 integer attributes,
class in {2, 4}) or to an .npz file.  Synthetic data generation is fully
determined by the supplied seeded generator.
"""

from __future__ import annotations

import numpy as np

from .losses import Dataset

BREAST_CANCER_COLUMNS = 11  # id + 9 attributes + class


def load_breast_cancer(path) -> Dataset:
    """Parse the Breast Cancer Wisconsin (Original) file into a Dataset.

    Missing attribute markers '?' are imputed with the column mean over
    non-missing rows.  Features are the 9 attributes, an intercept column of
    ones, and one zero-padding column, giving the conventional d = 11 (the
    raw file's column count; whether that count includes the id column is
    ambiguous, so the padding keeps the dimension explicit).
    Class 4 (malignant) maps to +1, class 2 to -1.
    """
    raw = []
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != BREAST_CANCER_COLUMNS:
                raise ValueError(f"line {lineno}: expected {BREAST_CANCER_COLUMNS} "
                                 f"columns, got {len(parts)}")
            cls = parts[-1]
            if cls not in ("2", "4"):
                raise ValueError(f"line {lineno}: class must be 2 or 4, got {cls!r}")
            labels.append(1 if cls == "4" else -1)
            row = []
            for cell in parts[1:-1]:
                row.append(np.nan if cell == "?" else float(cell))
            raw.append(row)
    if not raw:
        raise ValueError("empty dataset file")
    attrs = np.array(raw)
    col_means = np.nanmean(attrs, axis=0)
    nan_pos = np.isnan(attrs)
    attrs[nan_pos] = np.take(col_means, np.nonzero(nan_pos)[1])
    n = attrs.shape[0]
    features = np.hstack([attrs, np.ones((n, 1)), np.zeros((n, 1))])
    return Dataset(features=features, labels=np.array(labels))


def load_npz(path) -> Dataset:
    """An .npz file with a `features` and a `labels` array."""
    with np.load(path) as doc:
        return Dataset(features=doc["features"], labels=doc["labels"])


def gen_gaussian_mixture(rng: np.random.Generator, n: int = 1000, ambient_dim: int = 40,
                         classes: int = 10, subspace_dim: int = 5,
                         variance_factor: float = 0.25) -> Dataset:
    """Balanced mixture with class means in a random linear subspace.

    The defaults are the simulation setup: 1000 points from 10 Gaussians in
    R^40, means in a 5-d subspace.  Binary labels follow class-index parity:
    even classes are +1, odd -1.  The shared isotropic covariance is
    (variance_factor)^2 I with unit-scale means; moderate factors overlap the classes.
    """
    if n < classes or classes < 2:
        raise ValueError("need n >= classes >= 2")
    if not (1 <= subspace_dim <= ambient_dim):
        raise ValueError("subspace_dim must be in [1, ambient_dim]")
    if variance_factor < 0:
        raise ValueError("variance factor must be non-negative")
    basis, _ = np.linalg.qr(rng.standard_normal((ambient_dim, subspace_dim)))
    means = rng.standard_normal((classes, subspace_dim)) @ basis.T
    counts = np.full(classes, n // classes)
    counts[: n % classes] += 1
    features = []
    labels = []
    for c in range(classes):
        noise = variance_factor * rng.standard_normal((counts[c], ambient_dim))
        features.append(means[c] + noise)
        labels.extend([1 if c % 2 == 0 else -1] * counts[c])
    return Dataset(features=np.vstack(features), labels=np.array(labels))


def gen_two_class_gaussians(n: int, d: int, rng: np.random.Generator,
                            separation: float = 1.0) -> Dataset:
    """Small two-class Gaussian toy set for AUC experiments."""
    mu = rng.standard_normal(d)
    mu *= separation / np.linalg.norm(mu)
    n_pos = n // 2
    x_pos = mu + rng.standard_normal((n_pos, d))
    x_neg = -mu + rng.standard_normal((n - n_pos, d))
    return Dataset(features=np.vstack([x_pos, x_neg]),
                   labels=np.array([1] * n_pos + [-1] * (n - n_pos)))
