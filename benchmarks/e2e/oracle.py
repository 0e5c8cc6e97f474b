"""ndarray replica that answers every operation independently of ``repro``."""

from __future__ import annotations

import numpy as np


class Oracle:
    """A plain copy of the cube, kept in step with ``np.add.at``."""

    def __init__(self, values: np.ndarray):
        self.values = values.copy()
        self.names = tuple(f"d{i}" for i in range(values.ndim))
        self.checked = 0
        self.mismatches = 0

    def apply(self, coords: np.ndarray, deltas: np.ndarray) -> None:
        np.add.at(self.values, tuple(coords.T), deltas)

    def view(self, retained) -> np.ndarray:
        axes = tuple(i for i, n in enumerate(self.names) if n not in retained)
        return self.values.sum(axis=axes, keepdims=True)

    def rollup(self, levels) -> np.ndarray:
        out = self.values
        for axis, k in enumerate(levels):
            if k:
                shape = list(out.shape)
                shape[axis : axis + 1] = [shape[axis] >> k, 1 << k]
                out = out.reshape(shape).sum(axis=axis + 1)
        return out

    def range_sum(self, bounds) -> float:
        return float(self.values[tuple(slice(lo, hi) for lo, hi in bounds)].sum())

    def expected(self, kind: str, payload):
        if kind == "view":
            return [self.view(payload)]
        if kind == "query_batch":
            return [self.view(p) for p in payload]
        if kind == "rollup_batch":
            return [self.rollup(p) for p in payload]
        return [self.range_sum(payload)]

    def check(self, kind: str, payload, result) -> bool:
        """Compare one served answer; counts and returns whether it matched."""
        got = result if kind in ("query_batch", "rollup_batch") else [result]
        want = self.expected(kind, payload)
        # The server keeps aggregated axes with extent 1; compare by content.
        ok = len(got) == len(want) and all(
            np.size(g) == np.size(w) and np.array_equal(np.reshape(g, np.shape(w)), w)
            for g, w in zip(got, want)
        )
        self.checked += 1
        if not ok:
            self.mismatches += 1
        return ok
