"""Versioned JSON save/load for named parameter sets.

The on-disk document maps parameter names to shape plus a flat value array.
Floats round-trip bit-exactly (json emits shortest-repr doubles), so a
load(save(P)) reproduces every value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


class ParamsError(ValueError):
    """Problems with a parameter document."""


class ParamsParseError(ParamsError):
    """Malformed file; message includes the byte offset when known."""


class ParamsVersionError(ParamsError):
    """Document version not understood by this code."""


def save_params(path, params: dict, meta: dict | None = None) -> None:
    """Write a name -> array mapping as a version-tagged JSON document."""
    doc = {
        "format_version": FORMAT_VERSION,
        "meta": meta or {},
        "params": {
            name: {
                "shape": list(np.asarray(arr).shape),
                "values": [float(v) for v in np.asarray(arr, dtype=np.float64).ravel()],
            }
            for name, arr in params.items()
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")


def load_params(path, scenario: str | None = None, template: dict | None = None) -> dict:
    """Read a parameter document back into a name -> float64 array mapping.

    With ``scenario``, a document whose ``meta.scenario`` names another
    scenario is refused.  With ``template`` (name -> array), the document
    must hold exactly those names, each with the template array's shape.
    ``params`` must be a JSON object whose entries hold their ``values`` as
    a flat list of JSON numbers and their ``shape`` as a list of
    non-negative integers whose product is the number of values; anything
    else is a ParamsParseError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParamsParseError(f"{path}: malformed parameter file at byte offset "
                               f"{err.start}: not UTF-8 text") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        offset = len(text[:err.pos].encode("utf-8"))
        raise ParamsParseError(
            f"{path}: malformed parameter file at byte offset {offset}: {err.msg}"
        ) from err
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ParamsParseError(f"{path}: not a parameter document (missing format_version)")
    version = doc["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:  # json's true and 1.0 equal 1
        raise ParamsVersionError(
            f"{path}: unsupported format_version {version!r}, "
            f"expected {FORMAT_VERSION}")
    meta = doc.get("meta")
    found = meta.get("scenario") if isinstance(meta, dict) else None
    if scenario is not None and found is not None and found != scenario:
        raise ParamsError(f"{path}: parameters are for scenario {found!r}, "
                          f"not {scenario!r}")
    if "params" not in doc:
        raise ParamsParseError(f"{path}: not a parameter document (missing params)")
    entries = doc["params"]
    if not isinstance(entries, dict):
        raise ParamsParseError(f"{path}: 'params' must be a JSON object, "
                               f"not {type(entries).__name__}")
    out = {}
    try:
        for name, entry in entries.items():
            values = entry["values"]
            # json reads numbers as int or float; bool is an int subclass
            if not (isinstance(values, list)
                    and all(type(v) in (int, float) for v in values)):
                raise ParamsParseError(f"{path}: parameter {name!r} values must be "
                                       f"a list of JSON numbers")
            shape = entry["shape"]
            if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
                    and math.prod(shape) == len(values)):
                raise ParamsParseError(f"{path}: parameter {name!r} shape must be a list of "
                                       f"non-negative integers whose product is its "
                                       f"{len(values)} values, got {shape!r}")
            out[name] = np.array(values, dtype=np.float64).reshape(shape)
    except ParamsError:  # a ValueError, with its own message
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ParamsParseError(f"{path}: bad parameter entry: {err}") from err
    for name, arr in out.items():
        if not np.isfinite(arr).all():  # json reads NaN, Infinity and 1e999
            raise ParamsError(f"{path}: parameter {name!r} holds a non-finite value")
    if template is not None:
        missing = sorted(set(template) - set(out))
        unexpected = sorted(set(out) - set(template))
        if missing or unexpected:
            raise ParamsError(f"{path}: parameter names do not match: "
                              f"missing {missing}, unexpected {unexpected}")
        for name, arr in template.items():
            if out[name].shape != np.shape(arr):
                raise ParamsError(f"{path}: parameter {name!r} has shape "
                                  f"{out[name].shape}, expected {np.shape(arr)}")
    return out
