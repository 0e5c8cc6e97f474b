"""Atomic snapshots of serving state, named by the WAL position they cover.

A snapshot is one directory under the durability root::

    snapshots/
      CURRENT                      # points at the newest complete snapshot
      snap-<last_seq>-<epoch>/
        cube.npz                   # the base cube (repro.io.save_cube)
        set.npz                    # monolithic: the materialized set
        shard-<s>.npz              # sharded: one local set per shard
        MANIFEST.json              # layout, selection, epoch, last_seq

and the write protocol makes a half-written snapshot impossible to
observe: everything lands in a ``.staging-…`` sibling first (the manifest
written last, fsynced), the staging directory is renamed into place, and
only then is ``CURRENT`` swapped — itself via a temp sibling and
:func:`os.replace`.  A crash at any point leaves either the previous
snapshot current, or the new one; staging debris is ignorable and swept
by the next :func:`write_snapshot`.

``MANIFEST.json`` records the serving layout — shard count and axis,
per-shard epochs, the *global* selection as element node lists — plus the
selection epoch and ``last_seq``, the highest WAL sequence number the
snapshot's arrays already contain.  Restore loads the newest complete
snapshot and replays only WAL records after ``last_seq``; WAL segments at
or below it are prunable.

The ``snapshot.write`` fault site fires before each file in the staging
directory, so the recovery gate can ``SIGKILL`` a snapshot mid-write and
prove the previous snapshot still restores.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from ..core.element import ElementId
from ..core.materialize import MaterializedSet
from ..cube.datacube import DataCube
from ..errors import IntegrityError
from ..io import load_cube, load_materialized_set, save_cube, save_materialized_set
from ..resilience.faults import fault_point

__all__ = [
    "write_snapshot",
    "latest_snapshot",
    "load_snapshot",
    "list_snapshots",
]

_MANIFEST_FORMAT = 1
_MANIFEST = "MANIFEST.json"
_CURRENT = "CURRENT"
_STAGING_PREFIX = ".staging-"


def _snapshot_name(last_seq: int, epoch: int) -> str:
    return f"snap-{int(last_seq):020d}-{int(epoch):08d}"


def list_snapshots(directory: str | Path) -> list[Path]:
    """Complete snapshot directories (manifest present), oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        p
        for p in directory.iterdir()
        if p.is_dir()
        and p.name.startswith("snap-")
        and (p / _MANIFEST).is_file()
    )


def latest_snapshot(directory: str | Path) -> Path | None:
    """The newest complete snapshot, preferring the ``CURRENT`` pointer.

    A dangling or missing pointer (a crash between the directory rename
    and the pointer swap) falls back to the newest complete snapshot on
    disk — which is exactly the directory the pointer was about to name.
    """
    directory = Path(directory)
    pointer = directory / _CURRENT
    if pointer.is_file():
        named = directory / pointer.read_text().strip()
        if named.is_dir() and (named / _MANIFEST).is_file():
            return named
    snapshots = list_snapshots(directory)
    return snapshots[-1] if snapshots else None


def write_snapshot(
    directory: str | Path,
    *,
    cube: DataCube,
    materialized,
    partition,
    epoch: int,
    last_seq: int,
    retain: int = 2,
) -> Path:
    """Persist one consistent serving state; returns the snapshot path.

    The caller holds the server's reconfigure lock, so ``cube`` /
    ``materialized`` / ``epoch`` / ``last_seq`` are one consistent cut:
    the arrays contain every WAL record up to and including ``last_seq``
    and nothing after it.

    ``materialized`` is a :class:`~repro.core.materialize.MaterializedSet`
    (``partition is None``) or a :class:`~repro.shard.sets.ShardedSet`
    (saved as one local set per shard).  After the swap, snapshots beyond
    the newest ``retain`` are deleted, along with any staging debris left
    by a crashed writer.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = _snapshot_name(last_seq, epoch)
    staging = directory / f"{_STAGING_PREFIX}{name}"
    final = directory / name
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        fault_point("snapshot.write", file="cube")
        save_cube(cube, staging / "cube")
        selection = list(materialized.elements)
        if partition is None:
            files = ["set.npz"]
            shard_epochs = None
            fault_point("snapshot.write", file="set")
            save_materialized_set(materialized, staging / "set")
        else:
            local_sets = materialized.local_sets()
            files = [f"shard-{s}.npz" for s in range(len(local_sets))]
            shard_epochs = list(materialized.epochs)
            for s, local in enumerate(local_sets):
                fault_point("snapshot.write", file=f"shard-{s}")
                save_materialized_set(local, staging / f"shard-{s}")
        manifest = {
            "format": _MANIFEST_FORMAT,
            "last_seq": int(last_seq),
            "epoch": int(epoch),
            "shards": 1 if partition is None else partition.num_shards,
            "shard_axis": None if partition is None else partition.axis,
            "shard_epochs": shard_epochs,
            "sizes": list(cube.shape_id.sizes),
            "selection": [
                [list(node) for node in element.nodes] for element in selection
            ],
            "files": ["cube.npz"] + files,
        }
        fault_point("snapshot.write", file="manifest")
        manifest_path = staging / _MANIFEST
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        with open(manifest_path, "rb") as fh:
            os.fsync(fh.fileno())
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if final.exists():  # same (seq, epoch) re-snapshotted: replace it
        shutil.rmtree(final)
    os.replace(staging, final)
    _swap_pointer(directory, name)
    _prune(directory, keep=final, retain=retain)
    return final


def _swap_pointer(directory: Path, name: str) -> None:
    tmp = directory / (_CURRENT + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(name + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, directory / _CURRENT)


def _prune(directory: Path, *, keep: Path, retain: int) -> None:
    """Drop all but the newest ``retain`` snapshots and any staging debris."""
    for debris in directory.iterdir():
        if debris.is_dir() and debris.name.startswith(_STAGING_PREFIX):
            shutil.rmtree(debris, ignore_errors=True)
    snapshots = list_snapshots(directory)
    for stale in snapshots[: -max(1, int(retain))]:
        if stale != keep:
            shutil.rmtree(stale, ignore_errors=True)


def load_snapshot(path: str | Path) -> dict:
    """Load one snapshot directory into memory.

    Returns ``{"manifest": dict, "cube": DataCube, "sets":
    [MaterializedSet, …], "elements": [ElementId, …]}`` — one set for a
    monolithic snapshot, one per shard (in shard order) for a sharded one.
    ``elements`` is the global selection rebuilt against the cube's shape.
    Damage (missing files, checksum mismatches) raises
    :class:`~repro.errors.IntegrityError` from the underlying loaders.
    """
    path = Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise IntegrityError(
            f"{path} is not a complete snapshot",
            detail=f"missing {_MANIFEST}",
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise IntegrityError(
            f"{path} has an unreadable manifest", detail=str(exc)
        ) from exc
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise ValueError(
            f"unsupported snapshot format {manifest.get('format')!r}"
        )
    cube = load_cube(path / "cube")
    if list(cube.shape_id.sizes) != list(manifest["sizes"]):
        raise IntegrityError(
            f"{path}: cube shape {cube.shape_id.sizes} does not match "
            f"manifest sizes {manifest['sizes']}",
            detail="snapshot internally inconsistent",
        )
    sets: list[MaterializedSet] = []
    for filename in manifest["files"]:
        if filename == "cube.npz":
            continue
        sets.append(load_materialized_set(path / filename))
    elements = [
        ElementId(cube.shape_id, tuple((int(k), int(j)) for k, j in nodes))
        for nodes in manifest["selection"]
    ]
    return {
        "manifest": manifest,
        "cube": cube,
        "sets": sets,
        "elements": elements,
    }
