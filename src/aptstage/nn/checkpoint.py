"""Versioned checkpoint container with bit-exact parameter round-trip."""
from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

from ..errors import CompatibilityError, ParamRegistryError
from .params import ParamStore

FORMAT_VERSION = 1

# what np.load, the archive lookups and ParamStore.set_values raise on a file
# that is not a whole checkpoint of the store: not a zip, truncated, missing
# an entry or a metadata field, or holding a parameter of another shape
_UNREADABLE = (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError, ParamRegistryError)


def save_checkpoint(path, store: ParamStore, metadata: dict) -> None:
    """Write all (name, shape, values) triples plus metadata to an .npz file.
    Binary float storage keeps the round-trip bit-exact. The file is written
    under a temporary name and then renamed over `path`, so a reader never
    sees it half written."""
    meta = dict(metadata)
    meta["format_version"] = FORMAT_VERSION
    arrays = {f"param/{name}": store.tensor(name).data for name in store.names()}
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path, store: ParamStore) -> dict:
    """Load the checkpoint's values of the parameters that `store` names
    into it, and return the checkpoint's metadata. A file that cannot be
    read as one, or lacks one of those parameters or holds it in another
    shape, raises CompatibilityError naming the path."""
    try:
        with open(path, "rb") as fh, np.load(fh) as npz:
            meta = json.loads(bytes(npz["__meta__"]).decode("utf-8"))
            if not isinstance(meta, dict):
                raise ValueError("metadata is not a JSON object")
            if meta.get("format_version") != FORMAT_VERSION:
                raise CompatibilityError(
                    f"unsupported checkpoint format version: {meta.get('format_version')}"
                )
            store.set_values({name: npz[f"param/{name}"] for name in store.names()})
    except _UNREADABLE as exc:
        raise CompatibilityError(
            f"checkpoint {str(path)!r} is unreadable: {type(exc).__name__}: {exc}") from None
    return meta
