"""Persistence for cubes and materialized element sets (.npz archives).

A downstream deployment wants to select and materialize once, then reload
the element set on restart without touching the base data.  These helpers
round-trip :class:`~repro.cube.datacube.DataCube` and
:class:`~repro.core.materialize.MaterializedSet` through single-file numpy
archives with a small JSON header.

Robustness guarantees:

- **One path in, one path out.**  ``np.savez_compressed("foo")`` writes
  ``foo.npz``; both save and load normalize the suffix, so the path you
  saved with is always the path you load with (``save_cube(c, "foo")`` →
  ``load_cube("foo")`` works, as does ``"foo.npz"`` for either side).
- **Atomic saves.**  Archives are written to a temporary sibling file and
  moved into place with :func:`os.replace`, so a crash mid-write leaves
  either the old file or the new one — never a truncated archive.
- **Checked loads.**  A missing/corrupt ``header``, a missing ``values`` or
  ``element_{i}`` array, or a checksum mismatch raises
  :class:`~repro.errors.IntegrityError` naming the damage, instead of a
  bare ``KeyError`` from deep inside numpy.  Element arrays are sealed with
  a CRC-32 in the header and verified on load.

Formats are versioned; loading rejects unknown versions rather than
guessing.  (Checksums are an optional header field, so archives written by
older versions still load — they just skip verification.)
"""

from __future__ import annotations

import itertools
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .core.element import CubeShape, ElementId
from .core.materialize import MaterializedSet, element_checksum
from .cube.datacube import DataCube
from .cube.dimensions import Dimension
from .errors import IntegrityError
from .resilience.faults import fault_point

__all__ = [
    "save_cube",
    "load_cube",
    "save_materialized_set",
    "load_materialized_set",
]

_CUBE_FORMAT = 1
_SET_FORMAT = 1


def _normalize_path(path: str | Path) -> Path:
    """The on-disk path of an archive: always with the ``.npz`` suffix."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


#: Distinguishes concurrent in-process writers of the same destination.
_TMP_COUNTER = itertools.count()


def _atomic_savez(path: Path, **arrays) -> None:
    """Write a compressed archive atomically (temp sibling + rename).

    The temporary file lives in the destination directory so the final
    :func:`os.replace` is a same-filesystem rename — atomic on POSIX.
    Writing to an open file object also stops numpy appending a second
    suffix of its own.

    The temp name is unique per call (pid + in-process counter), so
    concurrent saves of the same destination never clobber each other's
    half-written bytes — last rename wins with a complete archive either
    way — and a failed save always unlinks *its own* debris, even when
    another writer has already renamed its temp into place.  (A save
    killed outright can still orphan one ``*.tmp`` sibling; sweep them
    freely, no reader ever opens one.)
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
    )
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load_archive(path: str | Path, expected_format: int, what: str):
    """Open an archive and return its parsed, version-checked header."""
    path = _normalize_path(path)
    fault_point("io.load", path=str(path))
    try:
        archive = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        raise IntegrityError(
            f"{path} is not a readable {what} archive",
            detail=f"{type(exc).__name__}: {exc} (truncated or foreign file?)",
        ) from exc
    try:
        if "header" not in archive.files:
            raise IntegrityError(
                f"{path} is not a {what} archive",
                detail="missing 'header' array (truncated or foreign file?)",
            )
        try:
            header = json.loads(
                bytes(archive["header"].tobytes()).decode("utf-8")
            )
        except (ValueError, UnicodeDecodeError) as exc:
            raise IntegrityError(
                f"{path} has an unreadable header", detail=str(exc)
            ) from exc
        if header.get("format") != expected_format:
            raise ValueError(
                f"unsupported {what} format {header.get('format')!r}"
            )
    except BaseException:
        archive.close()
        raise
    return archive, header


def save_cube(cube: DataCube, path: str | Path) -> None:
    """Write a :class:`DataCube` (values + dimension metadata) to ``path``."""
    header = {
        "format": _CUBE_FORMAT,
        "measure": cube.measure,
        "dimensions": [
            {
                "name": dim.name,
                "values": list(dim.values),
                "size": dim.size,
            }
            for dim in cube.dimensions
        ],
        "checksum": element_checksum(cube.values),
    }
    _atomic_savez(
        _normalize_path(path),
        header=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
        values=cube.values,
    )


def load_cube(path: str | Path) -> DataCube:
    """Load a cube written by :func:`save_cube`.

    Raises :class:`IntegrityError` when the archive is truncated (missing
    ``header``/``values``) or the stored checksum does not match.
    """
    archive, header = _load_archive(path, _CUBE_FORMAT, "cube")
    with archive:
        if "values" not in archive.files:
            raise IntegrityError(
                f"{_normalize_path(path)} is missing its 'values' array",
                detail="truncated archive",
            )
        values = archive["values"]
    expected = header.get("checksum")
    if expected is not None and element_checksum(values) != expected:
        raise IntegrityError(
            f"{_normalize_path(path)}: cube values failed verification",
            detail="checksum mismatch",
        )
    dims = []
    for spec in header["dimensions"]:
        dim = Dimension(spec["name"], spec["values"])
        if dim.size != spec["size"]:
            raise ValueError(
                f"dimension {spec['name']!r}: stored size {spec['size']} "
                f"does not match rebuilt size {dim.size}"
            )
        dims.append(dim)
    return DataCube(values, dims, measure=header["measure"])


def save_materialized_set(ms: MaterializedSet, path: str | Path) -> None:
    """Write a :class:`MaterializedSet` (elements + arrays) to ``path``.

    Only healthy storage is written: an element whose seal no longer
    matches is quarantined here, as on any other first use, instead of
    failing the save or persisting the damage.
    """
    healthy = ms.arrays_snapshot()
    arrays = {
        f"element_{i}": values for i, values in enumerate(healthy.values())
    }
    header = {
        "format": _SET_FORMAT,
        "sizes": list(ms.shape.sizes),
        "elements": [
            [list(node) for node in element.nodes] for element in healthy
        ],
        "checksums": [element_checksum(values) for values in arrays.values()],
    }
    _atomic_savez(
        _normalize_path(path),
        header=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
        **arrays,
    )


def load_materialized_set(path: str | Path) -> MaterializedSet:
    """Load a set written by :func:`save_materialized_set`.

    Raises :class:`IntegrityError` when the archive is truncated (missing
    ``header`` or any ``element_{i}`` array) or a stored element fails its
    checksum.
    """
    archive, header = _load_archive(path, _SET_FORMAT, "element-set")
    with archive:
        shape = CubeShape(tuple(header["sizes"]))
        ms = MaterializedSet(shape)
        checksums = header.get("checksums")
        for i, nodes in enumerate(header["elements"]):
            element = ElementId(
                shape, tuple((int(k), int(j)) for k, j in nodes)
            )
            name = f"element_{i}"
            if name not in archive.files:
                raise IntegrityError(
                    f"{_normalize_path(path)} is missing array {name!r} "
                    f"for element {element.describe()}",
                    detail="truncated archive",
                )
            values = archive[name]
            if (
                checksums is not None
                and i < len(checksums)
                and element_checksum(values) != checksums[i]
            ):
                raise IntegrityError(
                    f"{_normalize_path(path)}: element {element.describe()} "
                    "failed verification",
                    detail="checksum mismatch",
                )
            ms.store(element, values)
    return ms
