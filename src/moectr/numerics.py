"""Dense float64 matrix primitives shared by every model component.

Matrices are plain 2-D ``numpy.ndarray`` objects in double precision. The
gradient checker here is the verification oracle for every hand-written
backward pass in the package. ``one_of``, ``at_least``, ``finite`` and
``finite_positive`` are its checks of a value against a vocabulary, a
named lower bound, the finite numbers and the finite numbers above 0, and
``first_non_finite`` its one walk of named arrays for NaN and inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

GRADCHECK_H, GRADCHECK_TOL = 1e-5, 1e-4  # the gradient checker's step and pass tolerance


def one_of(value: str, choices: tuple[str, ...]) -> str:
    """``value``, raising unless it is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
    return value


def at_least(name: str, value, least):
    """``value``, raising unless it is at least ``least``."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return value


def finite(name: str, value) -> float:
    """``value`` as a float, raising unless it is a finite number."""
    number = float(value)
    if not -np.inf < number < np.inf:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


def finite_positive(value) -> float:
    """``value`` as a float, raising unless it is a finite number > 0; the
    message shows ``value`` as given (a config's text, or a number)."""
    number = float(value)
    if not 0.0 < number < np.inf:
        raise ValueError(f"must be a finite number > 0, got {value!r}")
    return number


def first_non_finite(items: Iterable[tuple[str, np.ndarray]]) -> str | None:
    """The name of the first ``(name, array)`` pair whose array holds NaN
    or inf, or None when every one is finite."""
    for name, arr in items:
        if not np.isfinite(arr).all():
            return name
    return None


def as_matrix(x) -> np.ndarray:
    """Coerce input to a 2-D float64 array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected 2-D array, got shape {a.shape}")
    return a


def row_softmax(logits) -> np.ndarray:
    """Softmax along axis 1, shifted by the row max so exp never overflows."""
    x = as_matrix(logits)
    if x.size == 0:
        raise ValueError("empty input")
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(weights: np.ndarray, d_weights: np.ndarray) -> np.ndarray:
    """Adjoint of row_softmax: d_logits = w * (dw - sum(dw * w))."""
    inner = (d_weights * weights).sum(axis=1, keepdims=True)
    return weights * (d_weights - inner)


def standardize_columns(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center each column and scale to unbiased (ddof=1) std 1.

    Returns ``(z, mean, std)`` with mean/std of shape (1, d). Columns whose
    entries are all identical map to all-zero columns and report std 0
    instead of dividing by (numerically noisy) zero.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if n < 2:
        raise ValueError("insufficient rows for std")
    constant = (x == x[0:1]).all(axis=0)
    mean = x.mean(axis=0, keepdims=True)
    std = x.std(axis=0, ddof=1, keepdims=True)
    std[0, constant] = 0.0
    safe = np.where(std > 0.0, std, 1.0)
    z = (x - mean) / safe
    z[:, constant] = 0.0
    return z, mean, std


def standardize_backward(d_z: np.ndarray, z: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Adjoint of standardize_columns with respect to its input.

    Per column with upstream g = dL/dz:
        dL/dx = (g - mean(g) - z * sum(g * z) / (n - 1)) / std
    Constant columns (std 0) get zero gradient by convention.
    """
    n = z.shape[0]
    safe = np.where(std > 0.0, std, 1.0)
    w = (d_z * z).sum(axis=0, keepdims=True) / (n - 1.0)
    d_x = (d_z - d_z.mean(axis=0, keepdims=True) - z * w) / safe
    d_x[:, (std == 0.0).ravel()] = 0.0
    return d_x


def cross_gram(
    mats: Sequence[np.ndarray], standardize: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Cross Gram of matrices that share a row count N.

    Stacks the inputs column-wise into Z (N, sum of widths), standardized
    per column (unbiased std, as standardize_columns) or only centered, and
    forms G = Z^T Z with one GEMM; the block of G at inputs (p, q) is the
    cross matrix Z_p^T Z_q. Returns ``(z, std, g)`` with std None for the
    centered form.
    """
    mats = [as_matrix(a) for a in mats]
    if any(a.shape[0] != mats[0].shape[0] for a in mats):
        raise ValueError("cross-Gram inputs must share the row count")
    x = np.hstack(mats)
    if standardize:
        z, _, std = standardize_columns(x)
    else:
        z, std = x - x.mean(axis=0, keepdims=True), None
    return z, std, z.T @ z


def gram_blocks(g: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """The cross Gram of M same-shape (N, d) matrices viewed as (M, M, d, d):
    ``blocks[p, q]`` is block (p, q)."""
    if any(np.shape(a) != np.shape(mats[0]) for a in mats):
        raise ValueError("cross-Gram inputs must share one shape")
    m, d = len(mats), g.shape[0] // len(mats)
    return g.reshape(m, d, m, d).swapaxes(1, 2)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class GradCheckReport:
    """Outcome of a central-difference comparison; ``worst`` is the
    (block name, flat index) of the largest error."""

    max_relative_error: float
    worst: tuple[str, int] | None
    passed: bool


def central_diff_gradcheck(
    f: Callable[[], float],
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    h: float = GRADCHECK_H,
    tol: float = GRADCHECK_TOL,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar f against central differences.

    ``params`` names the live float64 arrays that ``f`` (no arguments)
    reads, e.g. a module's ``params``; ``grads`` holds each one's gradient
    under its name, as ``backward`` returns them. For every entry k:
        fd  = (f(p + h e_k) - f(p - h e_k)) / (2 h)
        err = |fd - g_k| / max(1, |fd|, |g_k|)
    Each entry is moved in place and its original written back before the
    next, also when f raises, so every array ends byte-identical.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if params.keys() != grads.keys():
        raise ValueError(f"gradient and parameter blocks differ: {sorted(params.keys() ^ grads.keys())}")
    errs, where = [], []
    for name, arr in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if arr.dtype != np.float64 or g.shape != arr.shape:
            raise ValueError(f"block {name!r}: expected float64 of shape {g.shape}, got {arr.dtype} {arr.shape}")
        for k, g_k in enumerate(g.flat):
            orig = arr.flat[k]
            try:
                arr.flat[k] = orig + h
                f_plus = float(f())
                arr.flat[k] = orig - h
                f_minus = float(f())
            finally:
                arr.flat[k] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError(f"objective not finite at block {name!r} entry {k}")
            fd = (f_plus - f_minus) / (2.0 * h)
            errs.append(float(abs(fd - g_k) / max(1.0, abs(fd), abs(g_k))))
            where.append((name, k))
    if not errs:
        return GradCheckReport(0.0, None, True)
    worst = int(np.argmax(errs))  # the first max; a NaN wins
    return GradCheckReport(errs[worst], where[worst], errs[worst] < tol)
