"""Adam with bias correction, shared step counter, and lazy row updates for
embedding tables (rows that received no gradient are left bit-identical,
moments included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    """First/second-moment accumulators for one parameter array."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def like(cls, param: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(param), np.zeros_like(param))


@dataclass
class Adam:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    slots: dict[str, AdamState] = field(default_factory=dict)

    def begin_step(self) -> None:
        """Advance the shared step counter; call once per optimizer step."""
        self.t += 1

    def _slot(self, key: str, param: np.ndarray) -> AdamState:
        state = self.slots.get(key)
        if state is None:
            state = AdamState.like(param)
            self.slots[key] = state
        return state

    def update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        """Dense in-place update: p -= lr * m_hat / (sqrt(v_hat) + eps)."""
        if not np.isfinite(grad).all():
            raise ValueError("non-finite gradient")
        state = self._slot(key, param)
        scratch = self._accumulate(state.m, state.v, grad)
        m_hat = np.divide(state.m, 1.0 - self.beta1**self.t, out=scratch)
        v_hat = state.v / (1.0 - self.beta2**self.t)
        param -= self._direction(m_hat, v_hat)

    def update_rows(
        self, key: str, param: np.ndarray, rows: np.ndarray, grad_rows: np.ndarray
    ) -> None:
        """Lazy sparse update: only the given rows move (or decay moments).

        ``rows`` must not repeat; the gathered moment rows are updated in
        place, written back, then reused for the step.
        """
        if not np.isfinite(grad_rows).all():
            raise ValueError("non-finite gradient")
        state = self._slot(key, param)
        m = state.m[rows]
        v = state.v[rows]
        self._accumulate(m, v, grad_rows)
        state.m[rows] = m
        state.v[rows] = v
        m /= 1.0 - self.beta1**self.t
        v /= 1.0 - self.beta2**self.t
        param[rows] -= self._direction(m, v)

    def _accumulate(self, m: np.ndarray, v: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g^2, in place, with the
        operations in that order; returns the scratch buffer it used."""
        m *= self.beta1
        scratch = np.multiply(1.0 - self.beta1, grad)
        m += scratch
        v *= self.beta2
        np.square(grad, out=scratch)
        scratch *= 1.0 - self.beta2
        v += scratch
        return scratch

    def _direction(self, m_hat: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
        """lr * m_hat / (sqrt(v_hat) + eps), overwriting both inputs."""
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        m_hat *= self.lr
        m_hat /= v_hat
        return m_hat
