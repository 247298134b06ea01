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
means.  A point network file is at version 5, since the network's
discharge joins after the pool and its first and fourth weight shapes
changed.  Files of any other version are not read: a model is cheap to
refit, so ``load_model`` asks for ``pkwbench train --force`` instead of
keeping a second reader.

``load_model`` reads the fixed header and the JSON block, and derives from
the block each payload array's name, dtype and shape: a tree ensemble's
``feature`` and ``value`` hold ``offsets[-1]`` entries each, and a
network's arrays are listed under ``weights``.  The file's size must equal
the header, the block and those arrays' bytes, so a file cut anywhere or
carrying extra bytes raises ``MalformedModel`` before any array is
allocated.  Each array is then read from the file straight into its own
buffer, so loading holds no second copy of the payload.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct

import numpy as np

from ..atomic import _atomic_write
from ..errors import MalformedModel
from .pointnet import PointNetConfig, PointNetMini
from .trees import TreeEnsemble, TreeParams

__all__ = ["save_model", "load_model"]

_MAGIC = b"WNSM"
_PREFIX = struct.Struct("<4sHBI")  # magic, version, kind, header length

_KIND_TREE = 1
_KIND_POINTNET = 4
# the one container version each kind is written and read at
_VERSIONS = {_KIND_TREE: 4, _KIND_POINTNET: 5}

_TREE_FIELDS = (("feature", "<i4"), ("value", "<f8"))


def _params_from_json(obj) -> TreeParams:
    try:
        return TreeParams(
            max_depth=obj["max_depth"],
            min_samples_leaf=obj["min_samples_leaf"],
            min_samples_split=obj["min_samples_split"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedModel(f"bad tree hyperparameter block: {exc}") from exc


def _describe(model):
    if isinstance(model, TreeEnsemble):
        header = {
            "n_features": model.n_features,
            "offsets": model.offsets.tolist(),
            "base": model.base,
            "rate": model.rate,
            "average": model.average,
            "info": {**model.info, "params": dataclasses.asdict(model.info["params"])},
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
            "config": dataclasses.asdict(model.config),
            "history": model.history,
        }
        blobs = [np.ascontiguousarray(model.params[k], dtype="<f8") for k in keys]
        return _KIND_POINTNET, header, blobs
    raise TypeError(f"cannot serialize {type(model).__name__}")


def _tuples_from_json(obj):
    return {key: tuple(val) if isinstance(val, list) else val for key, val in obj.items()}


def save_model(path, model):
    """Write any fitted surrogate to ``path``."""
    kind, header, blobs = _describe(model)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with _atomic_write(path, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _VERSIONS[kind], kind, len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            # the array's own buffer: tobytes() would copy it first
            fh.write(memoryview(blob))


def load_model(path):
    """Read a model container back; the kind byte selects the class."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise MalformedModel(f"file is only {size} bytes")
        magic, version, kind, header_len = _PREFIX.unpack(prefix)
        if magic != _MAGIC:
            raise MalformedModel(f"bad magic {magic!r}")
        if kind not in _VERSIONS:
            raise MalformedModel(f"unknown model kind {kind}")
        if version != _VERSIONS[kind]:
            raise MalformedModel(
                f"unsupported container version {version}; this build reads version "
                f"{_VERSIONS[kind]} only, so rerun `pkwbench train --force` "
                "to refit the model"
            )
        if size < _PREFIX.size + header_len:
            raise MalformedModel("header is truncated")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedModel(f"unreadable header: {exc}") from exc
        arrays = _declared_arrays(kind, header)
        payload = sum(math.prod(shape) * np.dtype(dtype).itemsize
                      for _, dtype, shape in arrays)
        if size != _PREFIX.size + header_len + payload:
            raise MalformedModel(f"payload holds {size - _PREFIX.size - header_len} "
                                 f"bytes, the header declares {payload}")
        fields = {name: _read_array(fh, dtype, shape) for name, dtype, shape in arrays}
    try:
        if kind == _KIND_TREE:
            return _load_trees(header, fields)
        return _load_pointnet(header, fields)
    except KeyError as exc:
        raise MalformedModel(f"header is missing field {exc}") from exc


def _declared_arrays(kind, header):
    """The ``(name, dtype, shape)`` of each payload array ``header``
    declares, in file order."""
    try:
        if kind == _KIND_TREE:
            count = int(np.array(header["offsets"], dtype=np.int64)[-1])
            arrays = [(name, dtype, [count]) for name, dtype in _TREE_FIELDS]
        else:
            arrays = [(key, "<f8", shape) for key, shape in header["weights"]]
    except KeyError as exc:
        raise MalformedModel(f"header is missing field {exc}") from exc
    except (IndexError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedModel(f"bad array declarations: {exc}") from exc
    for name, _, shape in arrays:
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise MalformedModel(f"array {name!r} declares shape {shape!r}, "
                                 "not a list of non-negative integers")
    if len({name for name, _, _ in arrays}) != len(arrays):
        raise MalformedModel("an array name is declared twice")
    return arrays


def _read_array(fh, dtype, shape):
    # flat, then shaped: a reader that casts its buffer to bytes, as the
    # pure-Python raw file does, fails on a view with a zero in its shape
    out = np.empty(math.prod(shape), dtype=dtype)
    if fh.readinto(out) != out.nbytes:
        raise MalformedModel("model payload is truncated")
    return out.reshape(shape)


def _load_trees(header, fields):
    try:
        info = _tuples_from_json(header["info"])
        info["params"] = _params_from_json(info["params"])
        # construction checks that every member's node count fits its splits
        # and every split names a known feature, so predict cannot overrun
        return TreeEnsemble(
            **fields,
            offsets=np.array(header["offsets"], dtype=np.int64),
            n_features=header["n_features"],
            base=float(header["base"]),
            rate=float(header["rate"]),
            average=bool(header["average"]),
            info=info,
        )
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedModel(f"inconsistent tree arrays: {exc}") from exc


def _load_pointnet(header, params):
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
