"""Model persistence: save/load trained models.

A checkpoint is one compressed ``.npz`` archive: every parameter, the
item features of feature-hungry models, and a JSON header (model class,
format version, config dataclass fields, vocabulary sizes).  It is
written to a temporary file and renamed into place, so a crash mid-save
leaves the previous checkpoint readable.
Loading streams one parameter at a time and *adopts* each decompressed
array (``load_state_dict(assign=True)``), so cold-start peak RSS is one
model plus one parameter, not the historical ~2× artifact size.

Which classes have a checkpoint format, which item features they carry
and which config their header loads are rows of
:data:`repro.lineup.CLASSES`; the serving registry
(:mod:`repro.serve.registry`) loads checkpoints through this module.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import zipfile
import zlib
from typing import BinaryIO, Callable, Dict, Iterator, Mapping, Tuple, Union

import numpy as np

from .lineup import CLASSES, ModelClass, checkpoint_classes

PathLike = Union[str, pathlib.Path]

#: Bumped whenever the archive layout changes incompatibly.  Version 1
#: introduced the explicit header field; unversioned archives predate it.
FORMAT_VERSION = 1


def _write_atomic(path: PathLike, write: Callable[[BinaryIO], None]) -> None:
    """Write ``path`` through a temporary file that ``os.replace`` renames.

    The temporary file sits next to ``path``, so the rename is atomic: a
    reader (or a crash) sees the previous file or the whole new one,
    never a torn write.  The temporary file is removed on failure.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _npz_path(path: PathLike) -> pathlib.Path:
    """Where ``np.savez_compressed(path)`` writes: ``.npz`` is appended."""
    text = os.fspath(path)
    return pathlib.Path(text if text.endswith(".npz") else text + ".npz")


def _parse_header(path: PathLike, raw: bytes,
                  kind: str = "checkpoint") -> Dict[str, object]:
    """Decode a JSON header; a torn or non-object one raises a
    :class:`ValueError` naming ``path``."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: unreadable {kind} header: "
                         f"{exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: {kind} header is not a JSON object "
                         f"(found {type(header).__name__})")
    return header


#: What reading a truncated or bit-damaged npz archive raises.
_CORRUPT_ARCHIVE = (EOFError, zipfile.BadZipFile, zlib.error)


def _corrupt_archive(path: PathLike, exc: BaseException) -> ValueError:
    return ValueError(f"{path}: truncated or corrupt checkpoint archive: "
                      f"{exc}")


def _model_header(model) -> Tuple[Dict[str, object], ModelClass]:
    class_name = type(model).__name__
    entry = CLASSES.get(class_name)
    if entry is None or entry.config is None:
        raise TypeError(f"cannot serialize {class_name}; supported: "
                        f"{checkpoint_classes()}")
    return {
        "class": class_name,
        "format_version": FORMAT_VERSION,
        "num_users": model.num_users,
        "num_items": model.num_items,
        "config": dataclasses.asdict(model.config),
    }, entry


def save_model(model, path: PathLike) -> None:
    """Serialize a trained model (parameters + config) to ``path``.

    Writes one compressed ``.npz`` archive (``.npz`` is appended when
    missing).  Supported classes: Causer and every baseline in
    :mod:`repro.models`.  The archive goes through a temporary file and
    ``os.replace``, so a crash mid-save leaves the previous checkpoint
    readable.
    """
    header, entry = _model_header(model)
    features = None if entry.features is None else entry.features(model)
    arrays = {f"param::{name}": values
              for name, values in model.state_dict().items()}
    if features is not None:
        arrays["features"] = features
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)
    _write_atomic(_npz_path(path),
                  lambda fh: np.savez_compressed(fh, **arrays))


class _NpzState(Mapping):
    """Lazy parameter mapping over an open npz archive.

    ``load_state_dict`` pulls one value at a time, so only a single
    decompressed parameter is ever in flight (the archive members are
    decompressed on ``__getitem__``, not up front).
    """

    def __init__(self, archive) -> None:
        self._archive = archive
        self._names = [key[len("param::"):] for key in archive.files
                       if key.startswith("param::")]

    def __getitem__(self, name: str) -> np.ndarray:
        return self._archive["param::" + name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def _check_header(path: PathLike, header: Dict[str, object]):
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint format_version {version!r} "
            f"(this build reads version {FORMAT_VERSION}); re-save the "
            f"model with the current repro.io.save_model")
    class_name = header["class"]
    entry = CLASSES.get(class_name)
    if entry is None or entry.config is None:
        raise ValueError(
            f"{path}: unknown model class {class_name!r} in archive "
            f"header; registered classes: {checkpoint_classes()}")
    extra = header.get("extra", {})
    if extra and extra != entry.legacy_extra:
        raise ValueError(f"{path}: unsupported constructor arguments "
                         f"{extra!r} for {class_name} in archive header")
    config_fields = {f.name for f in dataclasses.fields(entry.config)}
    config = entry.config(**{k: v for k, v in header["config"].items()
                             if k in config_fields})
    return entry, config


# ----------------------------------------------------------------------
# Generic versioned JSON headers (shared by on-disk stores outside model
# checkpoints, e.g. the columnar event log in ``repro.data.eventlog``).
# ----------------------------------------------------------------------
def write_json_header(path: PathLike, format_name: str, version: int,
                      payload: Mapping) -> None:
    """Write ``header.json``-style metadata with format name + version.

    The ``format``/``format_version`` keys come first so a hand-inspected
    header identifies itself; ``payload`` keys must not collide with
    them.  The JSON goes to a temporary file in the same directory that
    ``os.replace`` then moves into place, so a reader (or a check that
    the header exists) sees the previous state or the whole new header,
    never a torn write.
    """
    header = {"format": format_name, "format_version": int(version)}
    for key in payload:
        if key in header:
            raise ValueError(f"payload key {key!r} collides with the "
                             f"reserved header fields")
    header.update(payload)
    _write_atomic(path, lambda fh: fh.write(
        json.dumps(header, indent=1).encode("utf-8")))


def read_json_header(path: PathLike, format_name: str,
                     version: int) -> Dict[str, object]:
    """Read and validate a header written by :func:`write_json_header`.

    Raises :class:`ValueError` naming the file when the JSON is
    unparsable or not an object, or when the format name or version does
    not match — the same contract model checkpoints follow, so torn or
    stale on-disk stores fail loudly instead of being misparsed.
    """
    header = _parse_header(path, pathlib.Path(path).read_bytes(),
                           format_name)
    found = header.get("format")
    if found != format_name:
        raise ValueError(f"{path}: expected format {format_name!r}, "
                         f"found {found!r}")
    found_version = header.get("format_version")
    if found_version != version:
        raise ValueError(
            f"{path}: unsupported {format_name} format_version "
            f"{found_version!r} (this build reads version {version})")
    return header


def load_model(path: PathLike):
    """Restore a model saved with :func:`save_model`.

    Parameters stream out of the archive one decompressed array at a time
    and are adopted without copying; every loaded array is writable, so
    the model can be trained further.

    Raises :class:`ValueError` (naming the path) when ``path`` is a
    directory, when the archive declares an unknown model class, an
    unreadable format version or constructor arguments this build does
    not take, and when the archive is truncated or corrupt.
    """
    if pathlib.Path(path).is_dir():
        raise ValueError(f"{path}: is a directory; a checkpoint is one "
                         f".npz archive written by save_model")
    try:
        # A prefix too short to carry the zip magic sends np.load down
        # its pickle branch, which refuses with a ValueError.
        archive = np.load(str(path))
    except (ValueError, *_CORRUPT_ARCHIVE) as exc:
        raise _corrupt_archive(path, exc) from exc
    try:
        with archive:
            header = _parse_header(path, bytes(archive["header"]))
            entry, config = _check_header(path, header)
            features = (archive["features"]
                        if entry.features is not None else None)
            model = entry.build(header["num_users"], header["num_items"],
                                features, config)
            model.load_state_dict(_NpzState(archive), assign=True)
    except _CORRUPT_ARCHIVE as exc:
        raise _corrupt_archive(path, exc) from exc
    model.eval()
    return model
