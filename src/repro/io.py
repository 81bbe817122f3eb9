"""Model persistence: save/load trained models.

A checkpoint is one compressed ``.npz`` archive: every parameter, the
item features of feature-hungry models, and a JSON header (model class,
format version, config dataclass fields, vocabulary sizes, extra
constructor arguments).  It is written to a temporary file and renamed
into place, so a crash mid-save leaves the previous checkpoint readable.
Loading streams one parameter at a time and *adopts* each decompressed
array (``load_state_dict(assign=True)``), so cold-start peak RSS is one
model plus one parameter, not the historical ~2× artifact size.

Every class in :mod:`repro.models` (and the Causer core) is registered
here; the serving registry (:mod:`repro.serve.registry`) loads
checkpoints through this module.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import zipfile
import zlib
from typing import BinaryIO, Callable, Dict, Iterator, Mapping, Union

import numpy as np

from .core import Causer, CauserConfig
from .models import (BPR, GRU4Rec, MMSARec, NARM, NCF, SASRec, STAMP,
                     TrainConfig, VTRNN)

PathLike = Union[str, pathlib.Path]

#: Bumped whenever the archive layout changes incompatibly.  Version 1
#: introduced the explicit header field; unversioned archives predate it.
FORMAT_VERSION = 1

_MODEL_CLASSES = {
    "Causer": Causer,
    "BPR": BPR,
    "GRU4Rec": GRU4Rec,
    "MMSARec": MMSARec,
    "NARM": NARM,
    "NCF": NCF,
    "SASRec": SASRec,
    "STAMP": STAMP,
    "VTRNN": VTRNN,
}
_NEEDS_FEATURES = {"Causer", "VTRNN", "MMSARec"}

#: Constructor arguments beyond (num_users, num_items[, features], config)
#: that shape the parameter tree and therefore must round-trip.
_EXTRA_KWARGS: Dict[str, Callable[[object], Dict[str, object]]] = {
    "SASRec": lambda m: {"num_blocks": len(m.blocks),
                         "num_heads": m.blocks[0].attn.num_heads},
    "MMSARec": lambda m: {"num_blocks": len(m.blocks),
                          "num_heads": m.blocks[0].attn.num_heads},
}


def registered_model_classes() -> Dict[str, type]:
    """Copy of the class registry (name -> class)."""
    return dict(_MODEL_CLASSES)


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


def _model_header(model) -> Dict[str, object]:
    class_name = type(model).__name__
    if class_name not in _MODEL_CLASSES:
        raise TypeError(f"cannot serialize {class_name}; supported: "
                        f"{sorted(_MODEL_CLASSES)}")
    return {
        "class": class_name,
        "format_version": FORMAT_VERSION,
        "num_users": model.num_users,
        "num_items": model.num_items,
        "config": dataclasses.asdict(model.config),
        "extra": _EXTRA_KWARGS.get(class_name, lambda m: {})(model),
    }


def _model_features(model):
    class_name = type(model).__name__
    if class_name == "Causer":
        return model.clusters.raw_features
    if class_name in _NEEDS_FEATURES:
        return model.item_features
    return None


def save_model(model, path: PathLike) -> None:
    """Serialize a trained model (parameters + config) to ``path``.

    Writes one compressed ``.npz`` archive (``.npz`` is appended when
    missing).  Supported classes: Causer and every baseline in
    :mod:`repro.models`.  The archive goes through a temporary file and
    ``os.replace``, so a crash mid-save leaves the previous checkpoint
    readable.
    """
    header = _model_header(model)
    features = _model_features(model)
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

    def __init__(self, archive, prefix: str = "param::") -> None:
        self._archive = archive
        self._prefix = prefix
        self._names = [key[len(prefix):] for key in archive.files
                       if key.startswith(prefix)]

    def __getitem__(self, name: str) -> np.ndarray:
        return self._archive[self._prefix + name]

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
    if class_name not in _MODEL_CLASSES:
        raise ValueError(
            f"{path}: unknown model class {class_name!r} in archive "
            f"header; registered classes: {sorted(_MODEL_CLASSES)}")
    config_cls = CauserConfig if class_name == "Causer" else TrainConfig
    config_fields = {f.name for f in dataclasses.fields(config_cls)}
    config = config_cls(**{k: v for k, v in header["config"].items()
                           if k in config_fields})
    return _MODEL_CLASSES[class_name], class_name, config


def _construct(cls, class_name: str, header, config, features):
    extra = header.get("extra", {})
    if class_name in _NEEDS_FEATURES:
        return cls(header["num_users"], header["num_items"], features,
                   config, **extra)
    return cls(header["num_users"], header["num_items"], config, **extra)


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


#: Bumped whenever the optimizer-state archive layout changes.
OPTIMIZER_STATE_VERSION = 1

#: Per-optimizer state tables (``Dict[int, ndarray]`` keyed by the stable
#: parameter index, each entry shaped like its parameter) that must
#: survive a restart.
_OPTIMIZER_STATE_SLOTS = ("_velocity", "_m", "_v", "_accum")


def save_optimizer_state(optimizer, path: PathLike) -> None:
    """Serialize an optimizer's state tables (velocity, moments,
    accumulators) and global step to a ``.npz`` archive.

    Together with :func:`save_model` this lets a training loop — the
    online shadow trainer in particular — restart *warm*: reloading both
    archives and continuing produces bit-for-bit the update a
    never-interrupted run would have applied, because an optimizer's
    state is exactly these tables plus the step counter.  Like
    :func:`save_model`, the archive is written to a temporary file and
    renamed into place.
    """
    header = {
        "format_version": OPTIMIZER_STATE_VERSION,
        "optimizer": type(optimizer).__name__,
        "lr": float(optimizer.lr),
        "num_params": len(optimizer.params),
        "step": int(getattr(optimizer, "_t", 0)),
    }
    arrays: Dict[str, np.ndarray] = {}
    for slot in _OPTIMIZER_STATE_SLOTS:
        table = getattr(optimizer, slot, None)
        if not table:
            continue
        for index, value in table.items():
            arrays[f"state::{slot}::{index}"] = value
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)
    _write_atomic(_npz_path(path),
                  lambda fh: np.savez_compressed(fh, **arrays))


def load_optimizer_state(optimizer, path: PathLike):
    """Restore state written by :func:`save_optimizer_state` in place.

    The optimizer must already be constructed over the *same parameter
    list* (same order, same shapes) it was saved with — state is keyed by
    the stable parameter index.  Raises :class:`ValueError` (naming the
    file) on version, class, or parameter-count mismatch, and (naming the
    file and the key) on a state slot the optimizer does not hold or an
    entry whose shape differs from its parameter's.
    """
    with np.load(str(path)) as archive:
        header = json.loads(bytes(archive["header"]).decode("utf-8"))
        version = header.get("format_version")
        if version != OPTIMIZER_STATE_VERSION:
            raise ValueError(
                f"{path}: unsupported optimizer-state format_version "
                f"{version!r} (this build reads version "
                f"{OPTIMIZER_STATE_VERSION})")
        saved_class = header.get("optimizer")
        if saved_class != type(optimizer).__name__:
            raise ValueError(
                f"{path}: optimizer state was saved from {saved_class!r} "
                f"but is being loaded into {type(optimizer).__name__}")
        if header.get("num_params") != len(optimizer.params):
            raise ValueError(
                f"{path}: optimizer state covers "
                f"{header.get('num_params')} parameters, the target "
                f"optimizer holds {len(optimizer.params)}")
        entries = []
        for key in archive.files:
            if not key.startswith("state::"):
                continue
            _, slot, index = key.split("::")
            table = (getattr(optimizer, slot, None)
                     if slot in _OPTIMIZER_STATE_SLOTS else None)
            if table is None:
                raise ValueError(
                    f"{path}: state slot {slot!r} does not exist on "
                    f"{type(optimizer).__name__}")
            value = archive[key]
            row = int(index)
            if not 0 <= row < len(optimizer.params):
                raise ValueError(f"{path}: state entry {key!r} indexes "
                                 f"outside the parameter list")
            expected = optimizer.params[row].data.shape
            if value.shape != expected:
                raise ValueError(
                    f"{path}: state entry {key!r} has shape {value.shape}, "
                    f"its parameter has shape {expected}")
            entries.append((table, row, value))
    # Only a fully validated archive touches the optimizer.
    if hasattr(optimizer, "_t"):
        optimizer._t = int(header.get("step", 0))
    for slot in _OPTIMIZER_STATE_SLOTS:
        table = getattr(optimizer, slot, None)
        if table is not None:
            table.clear()
    for table, row, value in entries:
        table[row] = value
    return optimizer


def load_model(path: PathLike):
    """Restore a model saved with :func:`save_model`.

    Parameters stream out of the archive one decompressed array at a time
    and are adopted without copying; every loaded array is writable, so
    the model can be trained further.

    Raises :class:`ValueError` (naming the path) when ``path`` is a
    directory, when the archive declares an unknown model class or an
    unreadable format version, and when the archive is truncated or
    corrupt.
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
            cls, class_name, config = _check_header(path, header)
            features = (archive["features"]
                        if class_name in _NEEDS_FEATURES else None)
            model = _construct(cls, class_name, header, config, features)
            model.load_state_dict(_NpzState(archive), assign=True)
    except _CORRUPT_ARCHIVE as exc:
        raise _corrupt_archive(path, exc) from exc
    model.eval()
    return model
