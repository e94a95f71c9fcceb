"""Synthetic CIFAR-10-like image dataset.

CIFAR-10 itself is not available offline, so the deep-learning
experiments run on a seeded synthetic substitute: a 10-class,
3-channel image set where each class is defined by a superposition of
oriented sinusoidal gratings plus a colour bias, and every sample is a
randomly translated, contrast-jittered, noisy realization of its class
template.

Why this preserves the behaviour the paper measures:

- classes are separable by *spatial structure*, so convolutional
  features genuinely help and the networks train away from chance;
- per-sample noise and limited sample counts let a CNN **overfit** the
  training split, which is the phenomenon regularization exists to fix
  — the no-reg / L2 / GM accuracy ordering of Table VI is measurable;
- layer weights develop non-trivial distributions, so the per-layer GMs
  of Tables IV/V learn distinct (pi, lambda).

Image tensors have the ``(N, C, H, W)`` shape throughout the ``nn``
package.  Datasets (and ``augment``) hand out ordinary C-contiguous,
channel-first arrays; the image layers store their own activations
channel-last in memory behind that same shape, and the first
convolution reads a channel-first batch through a strided view
(DESIGN.md §4j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ImageDataset", "make_cifar_like"]


@dataclass(frozen=True)
class ImageDataset:
    """Train/test image classification splits in ``(N, C, H, W)`` layout."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        for name, x, y in (
            ("train", self.x_train, self.y_train),
            ("test", self.x_test, self.y_test),
        ):
            if x.ndim != 4:
                raise ValueError(f"x_{name} must be (N, C, H, W), got {x.shape}")
            if x.shape[0] != y.shape[0]:
                raise ValueError(
                    f"{name} split: {x.shape[0]} images vs {y.shape[0]} labels"
                )

    @property
    def image_shape(self) -> tuple:
        """``(C, H, W)`` of a single image."""
        return tuple(self.x_train.shape[1:])


def _class_templates(
    n_classes: int, channels: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """One spatial template per class: oriented gratings + colour bias."""
    yy, xx = np.meshgrid(
        np.linspace(0.0, 1.0, size), np.linspace(0.0, 1.0, size), indexing="ij"
    )
    templates = np.zeros((n_classes, channels, size, size), dtype=np.float64)
    for cls in range(n_classes):
        colour = rng.normal(0.0, 0.5, size=channels)
        for _ in range(3):  # superpose a few gratings
            theta = rng.uniform(0.0, np.pi)
            freq = rng.uniform(1.5, 4.5)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            grating = np.sin(
                2.0 * np.pi * freq * (np.cos(theta) * xx + np.sin(theta) * yy)
                + phase
            )
            weights = rng.normal(0.0, 1.0, size=channels)
            templates[cls] += weights[:, None, None] * grating[None, :, :]
        templates[cls] += colour[:, None, None]
        templates[cls] /= max(np.abs(templates[cls]).max(), 1e-12)
    return templates


def _render(
    templates: np.ndarray,
    labels: np.ndarray,
    noise: float,
    max_shift: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Noisy, shifted, contrast-jittered realizations of class templates."""
    n = labels.shape[0]
    _, channels, size, _ = templates.shape
    images = np.empty((n, channels, size, size), dtype=np.float64)
    contrasts = rng.uniform(0.6, 1.4, size=n)
    shifts_y = rng.integers(-max_shift, max_shift + 1, size=n)
    shifts_x = rng.integers(-max_shift, max_shift + 1, size=n)
    for i in range(n):
        img = contrasts[i] * templates[labels[i]]
        img = np.roll(img, (int(shifts_y[i]), int(shifts_x[i])), axis=(1, 2))
        images[i] = img
    images += rng.normal(0.0, noise, size=images.shape)
    return images.astype(np.float32)


def make_cifar_like(
    n_train: int = 2000,
    n_test: int = 500,
    image_size: int = 32,
    n_classes: int = 10,
    channels: int = 3,
    noise: float = 0.5,
    seed: int = 0,
) -> ImageDataset:
    """Generate the CIFAR-10 substitute.

    Parameters
    ----------
    n_train, n_test:
        Split sizes (class-balanced up to rounding).  The real CIFAR-10
        is 50000/10000; the benchmarks default to laptop-scale counts.
    image_size:
        Height = width in pixels (CIFAR: 32; benches may use 16).
    n_classes, channels:
        Defaults match CIFAR-10 (10 classes, RGB).
    noise:
        Per-pixel Gaussian noise std; higher = harder + more overfitting
        headroom.
    seed:
        Controls templates and realizations; the same seed always yields
        the identical dataset.
    """
    if min(n_train, n_test) < 1:
        raise ValueError("n_train and n_test must be >= 1")
    if image_size < 4:
        raise ValueError(f"image_size must be >= 4, got {image_size}")
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 777]))
    templates = _class_templates(n_classes, channels, image_size, rng)
    max_shift = max(1, image_size // 8)

    y_train = np.arange(n_train, dtype=np.int64) % n_classes
    rng.shuffle(y_train)
    y_test = np.arange(n_test, dtype=np.int64) % n_classes
    rng.shuffle(y_test)
    x_train = _render(templates, y_train, noise, max_shift, rng)
    x_test = _render(templates, y_test, noise, max_shift, rng)

    # Per-pixel mean subtraction, as in the paper's ResNet preprocessing.
    mean = x_train.mean(axis=0, keepdims=True)
    x_train = x_train - mean
    x_test = x_test - mean
    return ImageDataset(
        x_train=x_train,
        y_train=y_train,
        x_test=x_test,
        y_test=y_test,
        n_classes=n_classes,
    )
