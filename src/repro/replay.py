"""One trace, one replica, one replay: the gates' shared mechanism.

The paper's perfect-reconstruction law makes "every serving feature is
indistinguishable from recompute-from-scratch" a single property, so the
gates (``python -m repro update | chaos | recover | soak --check | diag``)
share a single way of stating it:

- :func:`seeded_cube` — the one seeded integer-valued cube.  Integer
  values are exact in float64, so every comparison below is on *bytes*.
- :class:`Replica` — the expected answer: a plain ndarray kept in step
  with ``np.add.at``.  An aggregated view is a group-by sum over the
  dropped axes and a roll-up is a blocked sum, so the replica needs none
  of the view-element machinery it checks (this module imports nothing
  from the element algebra).
- one JSON op vocabulary, written and read by :func:`save_trace` /
  :func:`load_trace`.  A trace is a list of objects keyed by ``"op"``::

      {"op": "view", "dims": ["d0"]}
      {"op": "query_batch", "requests": [[], ["d0", "d1"]]}
      {"op": "rollup", "levels": {"d0": 1}}
      {"op": "rollup_batch", "levels_list": [{"d0": 1}, {"d1": 2}]}
      {"op": "range", "ranges": [[0, 4], [2, 7]]}
      {"op": "cell", "coords": [3, 1]}
      {"op": "update", "coords": [3, 1], "delta": -4}
      {"op": "update_many", "coords": [[3, 1], [0, 0]], "deltas": [2, 5]}
      {"op": "reconfigure"}
      {"op": "drift", "phase": 1}

  Dimensions are named ``d0, d1, …``; ``coords`` are positional;
  ``drift`` is a marker (phase boundary of a drifting trace) and executes
  nothing.  :mod:`repro.workloads.traces` generates the two trace shapes
  the gates replay.
- :func:`replay` — the one dispatch over op kinds.  Gate-specific
  bookkeeping is a loop body around it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

__all__ = [
    "MUTATIONS",
    "Replica",
    "load_trace",
    "replay",
    "save_trace",
    "seeded_cube",
    "step",
    "sweep",
]

#: The op kinds that change the cube (each is one WAL record).
MUTATIONS = ("update", "update_many")


def seeded_cube(seed: int, sizes):
    """The seeded integer-valued ``DataCube`` every gate and bench serves."""
    # Imported here: the serving stack imports the packages that import
    # this module.
    from .cube.datacube import DataCube
    from .cube.dimensions import Dimension

    rng = np.random.default_rng(seed)
    values = rng.integers(0, 100, size=sizes).astype(np.float64)
    dims = [Dimension(f"d{i}", list(range(n))) for i, n in enumerate(sizes)]
    return DataCube(values, dims, measure="amount")


class Replica:
    """A private copy of the cube's cells that answers every op itself.

    Also the gates' one tally: :meth:`check` counts each compared answer
    and records the trace index of each mismatch.
    """

    def __init__(self, values: np.ndarray):
        self.values = np.array(values, dtype=np.float64)
        self.names = tuple(f"d{i}" for i in range(self.values.ndim))
        self.compared = 0
        self.mismatches: list[int] = []

    def apply(self, ops) -> None:
        """Mirror ``update`` / ``update_many`` ops into the array."""
        for op in ops:
            point = op["op"] == "update"
            coords = np.asarray(
                [op["coords"]] if point else op["coords"], dtype=np.int64
            )
            deltas = [op["delta"]] if point else op["deltas"]
            np.add.at(
                self.values,
                tuple(coords.T),
                np.asarray(deltas, dtype=np.float64),
            )

    def view(self, retained) -> np.ndarray:
        """Group-by SUM retaining the named dimensions."""
        retained = set(retained)
        axes = tuple(i for i, n in enumerate(self.names) if n not in retained)
        return self.values.sum(axis=axes, keepdims=True)

    def rollup(self, levels) -> np.ndarray:
        """Level ``k`` on a dimension sums blocks of ``2**k`` neighbours."""
        out = self.values
        for axis, name in enumerate(self.names):
            k = int(levels.get(name, 0))
            if k:
                shape = list(out.shape)
                shape[axis : axis + 1] = [shape[axis] >> k, 1 << k]
                out = out.reshape(shape).sum(axis=axis + 1)
        return out

    def range_sum(self, bounds) -> float:
        return float(self.values[tuple(slice(lo, hi) for lo, hi in bounds)].sum())

    def cell(self, coords) -> float:
        return float(self.values[tuple(coords)])

    def check(self, index: int, got: bytes, want: bytes) -> None:
        self.compared += 1
        if got != want:
            self.mismatches.append(index)


def save_trace(trace: list[dict], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(trace, indent=2) + "\n")
    return path


def load_trace(path: str | Path) -> list[dict]:
    trace = json.loads(Path(path).read_text())
    if not isinstance(trace, list):
        raise ValueError(f"trace file {path} must hold a JSON list of ops")
    return trace


def _bytes(answers) -> tuple[bytes, ...]:
    # float64 throughout, so a scalar and a 1-cell array compare alike.
    return tuple(np.asarray(a, dtype=np.float64).tobytes() for a in answers)


def step(server, op: dict, replica: Replica | None = None, workers=None, index=0):
    """Execute one op; returns ``(answer_bytes, wall_ms)``.

    ``wall_ms`` times the server call alone.  With a ``replica``,
    mutations are mirrored into it and every answer is byte-compared
    (mismatches land in ``replica.mismatches`` as ``index``).
    """
    kind = op["op"]
    names = server.cube.dimensions.names
    want = list  # only queries have answers to compare
    if kind == "view":
        call = lambda: [server.view(list(op["dims"]))]
        want = lambda: [replica.view(op["dims"])]
    elif kind == "query_batch":
        call = lambda: server.query_batch(
            [list(r) for r in op["requests"]], max_workers=workers
        )
        want = lambda: [replica.view(r) for r in op["requests"]]
    elif kind == "rollup":
        call = lambda: [server.rollup(dict(op["levels"]))]
        want = lambda: [replica.rollup(op["levels"])]
    elif kind == "rollup_batch":
        call = lambda: server.rollup_batch(
            [dict(levels) for levels in op["levels_list"]], max_workers=workers
        )
        want = lambda: [replica.rollup(levels) for levels in op["levels_list"]]
    elif kind == "range":
        call = lambda: [
            server.range_sum(tuple((lo, hi) for lo, hi in op["ranges"]))
        ]
        want = lambda: [replica.range_sum(op["ranges"])]
    elif kind == "cell":
        call = lambda: [server.cell(**dict(zip(names, op["coords"])))]
        want = lambda: [replica.cell(op["coords"])]
    elif kind == "update":
        call = lambda: server.update(
            float(op["delta"]), **dict(zip(names, op["coords"]))
        )
    elif kind == "update_many":
        call = lambda: server.update_many(
            np.asarray(op["coords"], dtype=np.int64),
            np.asarray(op["deltas"], dtype=np.float64),
        )
    elif kind == "reconfigure":
        call = server.reconfigure
    elif kind == "drift":
        call = list
    else:
        raise ValueError(f"unknown trace op {kind!r} at index {index}")

    start = time.perf_counter()
    result = call()
    wall_ms = (time.perf_counter() - start) * 1e3
    answers = _bytes(result) if isinstance(result, list) else ()
    if replica is not None:
        if kind in MUTATIONS:
            replica.apply([op])
        for got, expected in zip(answers, _bytes(want())):
            replica.check(index, got, expected)
    return answers, wall_ms


def sweep(server, replica: Replica, index: int) -> None:
    """The final quiescent sweep: the server against the replica, at rest.

    The cube's cells, four aggregated views, a roll-up, and a full and an
    interior range sum — all recomputed from scratch on the replica.
    """
    names = list(replica.names)
    sizes = replica.values.shape
    replica.check(index, server.cube.values.tobytes(), replica.values.tobytes())
    ops = [
        {"op": "view", "dims": dims}
        for dims in ([], names[:1], names[:2], names)
    ]
    ops.append({"op": "rollup", "levels": {names[0]: 1}})
    ops.append({"op": "range", "ranges": [[0, n] for n in sizes]})
    ops.append({"op": "range", "ranges": [[n // 4, 3 * n // 4] for n in sizes]})
    for op in ops:
        step(server, op, replica, index=index)


def replay(server, trace: list[dict], replica: Replica | None = None, workers=None):
    """Drive ``server`` through ``trace``; yields one tuple per op.

    Each step yields ``(index, op, answer_bytes, wall_ms)`` *after* the op
    returned — so a caller's loop body runs between ops (acknowledge a
    mutation, time a batch, watch a shard epoch).  With a ``replica`` the
    replay is differential (see :func:`step`) and, once the trace is
    exhausted, ends with :func:`sweep`.
    """
    for index, op in enumerate(trace):
        answers, wall_ms = step(server, op, replica, workers, index)
        yield index, op, answers, wall_ms
    if replica is not None:
        sweep(server, replica, len(trace))
