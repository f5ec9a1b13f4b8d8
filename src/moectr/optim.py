"""Adam with bias correction, shared step counter, and lazy row updates for
embedding tables (rows that received no gradient are left bit-identical,
moments included). A table's row-wise moments are held only for the rows
that have had a gradient, so they cost memory in proportion to the rows a
run touches, not to the table.
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


ROW_SLOTS_MIN = 1024  # a row-wise slot's first capacity, unless the table is smaller


@dataclass
class RowAdamState:
    """Row-wise moments of one table, for the rows that have had a gradient.

    ``slot_of[r]`` is table row r's slot, its row in ``m`` and ``v``, or -1
    for a row that has had none. Slots are handed out in first-touch order;
    the first ``used`` rows of ``m`` and ``v`` hold moments, the rest of their
    capacity is zero. Capacity grows by doubling, never past the table's
    row count.
    """

    slot_of: np.ndarray  # (table rows,) int32, or int64 past int32's range
    m: np.ndarray  # (capacity, d)
    v: np.ndarray
    used: int = 0

    @classmethod
    def like(cls, param: np.ndarray) -> "RowAdamState":
        rows = param.shape[0]
        index = np.int32 if rows <= np.iinfo(np.int32).max else np.int64
        empty = np.zeros((0, *param.shape[1:]))
        return cls(np.full(rows, -1, dtype=index), empty, empty.copy())

    def slots_for(self, rows: np.ndarray) -> np.ndarray:
        """The slots of ``rows`` (distinct table rows); a row without one
        gets the next free slot, whose moments are 0.0, as a dense array's
        untouched row."""
        slots = self.slot_of[rows]
        new = slots < 0
        fresh = int(np.count_nonzero(new))
        if fresh:
            self._reserve(self.used + fresh)
            slots[new] = np.arange(self.used, self.used + fresh)
            self.slot_of[rows[new]] = slots[new]
            self.used += fresh
        return slots

    def _reserve(self, size: int) -> None:
        capacity = self.m.shape[0]
        if size <= capacity:
            return
        capacity = min(self.slot_of.size, max(size, 2 * capacity, ROW_SLOTS_MIN))
        for name in ("m", "v"):
            old = getattr(self, name)
            grown = np.zeros((capacity, *old.shape[1:]))
            grown[: self.used] = old[: self.used]
            setattr(self, name, grown)


@dataclass
class Adam:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    slots: dict[str, AdamState | RowAdamState] = field(default_factory=dict)

    def begin_step(self) -> None:
        """Advance the shared step counter; call once per optimizer step."""
        self.t += 1

    def _slot(self, key: str, param: np.ndarray, kind: type) -> AdamState | RowAdamState:
        state = self.slots.get(key)
        if state is None:
            state = kind.like(param)
            self.slots[key] = state
        elif not isinstance(state, kind):
            raise ValueError(f"Adam slot {key!r} is updated both densely and by rows")
        return state

    def update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        """Dense in-place update: p -= lr * m_hat / (sqrt(v_hat) + eps)."""
        state = self._slot(key, param, AdamState)
        scratch = self._accumulate(state.m, state.v, grad)
        m_hat = np.divide(state.m, 1.0 - self.beta1**self.t, out=scratch)
        v_hat = state.v / (1.0 - self.beta2**self.t)
        param -= self._direction(m_hat, v_hat)

    def update_rows(
        self, key: str, param: np.ndarray, rows: np.ndarray, grad_rows: np.ndarray
    ) -> None:
        """Lazy sparse update: only the given rows move (or decay moments).

        ``rows`` must be distinct rows of ``param`` and ``grad_rows`` finite
        (``trainer.apply_grads`` checks every gradient before any update); the
        gathered moment rows are updated in place, written back, then
        reused for the step. The moments live in a ``RowAdamState``.
        Rows are gathered with ``take`` (the bytes of ``arr[rows]``, copied
        row by row rather than element by element) and scattered back by
        index, so the parameter step is the one ``param[rows] -= step`` makes.
        """
        state = self._slot(key, param, RowAdamState)
        slots = state.slots_for(rows)
        m = state.m.take(slots, axis=0)
        v = state.v.take(slots, axis=0)
        self._accumulate(m, v, grad_rows)
        state.m[slots] = m
        state.v[slots] = v
        m /= 1.0 - self.beta1**self.t
        v /= 1.0 - self.beta2**self.t
        upd = param.take(rows, axis=0)
        upd -= self._direction(m, v)
        param[rows] = upd

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
