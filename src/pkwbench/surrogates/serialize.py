"""One binary container for every fitted surrogate.

Layout: a fixed header (magic ``WNSM``, format version, model kind byte),
a JSON block carrying hyperparameters and array shapes, then the raw
little-endian array payload in the order the JSON block declares.  Arrays
round-trip bit for bit, so a reloaded model predicts identically.

There are two kinds: a tree ensemble (a single tree, a forest or boosting,
which share one packed layout) and the point network.  A tree ensemble
stores 12 bytes per node: its feature and value arrays in level order,
from which the child links follow; an internal node's value is its
threshold.  Version 2 gave the three tree models that one kind, version 3
dropped the two stored link arrays, and version 4 dropped internal nodes'
means.  Older tree files are not read: a tree is cheap to refit, so
``load_model`` asks for ``pkwbench train --force`` instead of keeping a
second reader.  Version 3 network files, stored alike, still load.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..atomic import _atomic_write
from ..errors import MalformedModel
from .pointnet import PointNetConfig, PointNetMini
from .trees import TreeEnsemble, TreeParams

__all__ = ["save_model", "load_model"]

_MAGIC = b"WNSM"
_VERSION = 4
_PREFIX = struct.Struct("<4sHBI")  # magic, version, kind, header length

_KIND_TREE = 1
_KIND_POINTNET = 4

_TREE_FIELDS = (("feature", "<i4"), ("value", "<f8"))


def _params_to_json(params: TreeParams) -> dict:
    return {
        "max_depth": params.max_depth,
        "min_samples_leaf": params.min_samples_leaf,
        "min_samples_split": params.min_samples_split,
    }


def _params_from_json(obj) -> TreeParams:
    try:
        return TreeParams(
            max_depth=obj["max_depth"],
            min_samples_leaf=obj["min_samples_leaf"],
            min_samples_split=obj["min_samples_split"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedModel(f"bad tree hyperparameter block: {exc}") from exc


class _PayloadReader:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, count, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        nbytes = int(count) * dt.itemsize
        end = self.pos + nbytes
        if end > len(self.buf):
            raise MalformedModel("model payload is truncated")
        out = np.frombuffer(self.buf[self.pos : end], dtype=dt).copy()
        self.pos = end
        return out

    def finish(self):
        if self.pos != len(self.buf):
            raise MalformedModel(
                f"{len(self.buf) - self.pos} unexpected trailing payload bytes"
            )


def _describe(model):
    if isinstance(model, TreeEnsemble):
        header = {
            "n_features": model.n_features,
            "offsets": model.offsets.tolist(),
            "base": model.base,
            "rate": model.rate,
            "average": model.average,
            "info": {**model.info, "params": _params_to_json(model.info["params"])},
        }
        blobs = [
            np.ascontiguousarray(getattr(model, name), dtype=dtype)
            for name, dtype in _TREE_FIELDS
        ]
        return _KIND_TREE, header, blobs
    if isinstance(model, PointNetMini):
        keys = model._key_order()
        header = {
            "weights": [[k, list(model.params[k].shape)] for k in keys],
            "config": {
                f.name: getattr(model.config, f.name)
                for f in model.config.__dataclass_fields__.values()
            },
            "history": _history_to_json(model.history),
        }
        blobs = [np.ascontiguousarray(model.params[k], dtype="<f8") for k in keys]
        return _KIND_POINTNET, header, blobs
    raise TypeError(f"cannot serialize {type(model).__name__}")


def _history_to_json(history):
    out = {}
    for key, val in history.items():
        out[key] = list(val) if isinstance(val, tuple) else val
    return out


def _tuples_from_json(obj):
    out = {}
    for key, val in obj.items():
        out[key] = tuple(val) if isinstance(val, list) else val
    return out


def save_model(path, model):
    """Write any fitted surrogate to ``path``."""
    kind, header, blobs = _describe(model)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with _atomic_write(path, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _VERSION, kind, len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            # the array's own buffer: tobytes() would copy it first
            fh.write(memoryview(blob))


def load_model(path):
    """Read a model container back; the kind byte selects the class."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _PREFIX.size:
        raise MalformedModel(f"file is only {len(raw)} bytes")
    magic, version, kind, header_len = _PREFIX.unpack_from(raw)
    if magic != _MAGIC:
        raise MalformedModel(f"bad magic {magic!r}")
    # a point network's bytes are the same at version 3
    reads = (3, _VERSION) if kind == _KIND_POINTNET else (_VERSION,)
    if version not in reads:
        raise MalformedModel(
            f"unsupported container version {version}; this build reads version "
            f"{' or '.join(map(str, reads))} only, so rerun `pkwbench train --force` "
            "to refit the model"
        )
    header_end = _PREFIX.size + header_len
    if len(raw) < header_end:
        raise MalformedModel("header is truncated")
    try:
        header = json.loads(raw[_PREFIX.size : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedModel(f"unreadable header: {exc}") from exc
    reader = _PayloadReader(raw[header_end:])
    try:
        if kind == _KIND_TREE:
            model = _load_trees(header, reader)
        elif kind == _KIND_POINTNET:
            model = _load_pointnet(header, reader)
        else:
            raise MalformedModel(f"unknown model kind {kind}")
    except KeyError as exc:
        raise MalformedModel(f"header is missing field {exc}") from exc
    reader.finish()
    return model


def _load_trees(header, reader):
    try:
        offsets = np.array(header["offsets"], dtype=np.int64)
        fields = {name: reader.take(offsets[-1], dtype) for name, dtype in _TREE_FIELDS}
        info = _tuples_from_json(header["info"])
        info["params"] = _params_from_json(info["params"])
        # construction checks that every member's node count fits its splits
        # and every split names a known feature, so predict cannot overrun
        return TreeEnsemble(
            **fields,
            offsets=offsets,
            n_features=header["n_features"],
            base=float(header["base"]),
            rate=float(header["rate"]),
            average=bool(header["average"]),
            info=info,
        )
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedModel(f"inconsistent tree arrays: {exc}") from exc


def _load_pointnet(header, reader):
    params = {}
    for key, shape in header["weights"]:
        flat = reader.take(int(np.prod(shape)), "<f8")
        params[key] = flat.reshape(shape)
    try:
        config = PointNetConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise MalformedModel(f"bad network config block: {exc}") from exc
    try:
        return PointNetMini(
            params, config=config, history=_tuples_from_json(header["history"])
        )
    except Exception as exc:
        raise MalformedModel(f"inconsistent network weights: {exc}") from exc
