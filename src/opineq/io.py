"""Text formats (JSON syntax) for matrices, maps, bounds, and instances.

A square matrix is ``{"n": n, "re": [[...]], "im": [[...]]}`` with `im`
optional (default all-zero); rectangular payloads carry explicit "rows" /
"cols".  Floats are written with `repr`, which round-trips doubles exactly
(17 significant digits suffice), so load(dump(x)) == x bit-for-bit.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .constants import SandwichBounds
from .errors import DimensionMismatch, MalformedSpec
from .maps import MapSpec
from .sampler import Instance


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline.

    The bytes of json.dumps(obj, sort_keys=True, indent=1, separators=(",",
    ": ")) + "\\n", written directly, since an indent makes the json module
    fall back to its pure-Python encoder.  Strings go through json's own
    escaper and floats through float.__repr__ (NaN and the infinities as
    json spells them); anything but a str, float, int, bool, None, list,
    tuple or string-keyed dict is json.dumps's text.  A container that
    holds itself raises RecursionError, where json.dumps raises ValueError.
    """
    return _text(obj, "\n") + "\n"


def _text(obj, nl: str) -> str:
    """obj's JSON text; nl is the newline and indent obj sits at."""
    cls = type(obj)
    if cls is float:
        text = float.__repr__(obj)
        return _FLOAT_WORDS.get(text, text)
    if cls is str:
        return encode_basestring_ascii(obj)
    if cls is dict and obj:
        inner = nl + " "
        items = []
        for key, value in sorted(obj.items()):
            if type(key) is not str:
                return _json_text(obj, nl)
            items.append(encode_basestring_ascii(key) + ": " + _text(value, inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if (cls is list or cls is tuple) and obj:
        inner = nl + " "
        return "[" + inner + ("," + inner).join([_text(item, inner) for item in obj]) + nl + "]"
    if cls is int:
        return int.__repr__(obj)
    if cls is bool or obj is None:
        return _CONSTANTS[obj]
    return _json_text(obj, nl)


def _json_text(obj, nl: str) -> str:
    """json.dumps's text for the empty containers, keys that are not
    strings and subclasses, re-indented: a newline inside a string is
    escaped, so every newline is layout."""
    return json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": ")).replace("\n", nl)


def _grid(values: np.ndarray) -> list:
    return [[float(x) for x in row] for row in values]


def _array_to_obj(A: np.ndarray, shape_keys: tuple[str, ...]) -> dict:
    M = np.asarray(A, dtype=np.complex128)
    square = shape_keys == ("n",)
    if M.ndim != 2 or (square and M.shape[0] != M.shape[1]):
        raise MalformedSpec(f"expected a {'square ' if square else ''}matrix, got shape {M.shape}")
    obj = {key: int(size) for key, size in zip(shape_keys, M.shape)}
    obj["re"] = _grid(M.real)
    if np.any(M.imag != 0.0):
        obj["im"] = _grid(M.imag)
    return obj


def matrix_to_obj(A: np.ndarray) -> dict:
    return _array_to_obj(A, ("n",))


# What a malformed JSON payload makes numpy and the builtins raise.
_BAD_PAYLOAD = (KeyError, IndexError, TypeError, ValueError, OverflowError, AttributeError)


def _int(value) -> int:
    """A payload integer: an int, not a bool, float or string."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _real(value) -> float:
    """A payload real: an int or float, not a bool or string."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _only(obj: dict, keys: tuple[str, ...]) -> None:
    """Reject a key the matching writer does not emit."""
    stray = [k for k in obj if k not in keys]
    if stray:
        raise MalformedSpec(f"unexpected payload keys {stray!r}")


def _grid_of(rows) -> np.ndarray:
    """A payload grid: rows of reals (see _real)."""
    return np.array([[_real(x) for x in row] for row in rows])


def _obj_to_array(obj: dict, shape_keys: tuple[str, ...]) -> np.ndarray:
    try:
        _only(obj, shape_keys + ("re", "im"))
        shape = tuple(_int(obj[k]) for k in shape_keys)
        re = _grid_of(obj["re"])
        im = _grid_of(obj["im"]) if "im" in obj else np.zeros(re.shape)
    except _BAD_PAYLOAD as exc:
        raise MalformedSpec(f"bad matrix payload: {exc!r}") from exc
    for name, part in (("re", re), ("im", im)):
        if part.shape != shape:
            raise MalformedSpec(f"{name} field has shape {part.shape}, expected {shape}")
        if not np.all(np.isfinite(part)):
            raise MalformedSpec(f"{name} field has a non-finite or missing entry")
    return re + 1j * im


def obj_to_matrix(obj: dict) -> np.ndarray:
    return _obj_to_array(obj, ("n", "n"))


def rect_to_obj(V: np.ndarray) -> dict:
    return _array_to_obj(V, ("rows", "cols"))


def obj_to_rect(obj: dict) -> np.ndarray:
    return _obj_to_array(obj, ("rows", "cols"))


def map_to_obj(phi: MapSpec) -> dict:
    obj = {"kind": phi.kind, "n": phi.n}
    if phi.kind == "compression":
        obj["V"] = rect_to_obj(phi.payload)
    elif phi.kind == "pinching":
        obj["blocks"] = [list(b) for b in phi.payload]
    elif phi.kind == "unitary_mixture":
        obj["terms"] = [
            {"weight": float(w), "U": matrix_to_obj(U)} for w, U in phi.payload
        ]
    return obj


# The key each map kind's payload sits under, beside "kind" and "n".
_PAYLOAD_KEYS = {"compression": ("V",), "pinching": ("blocks",), "unitary_mixture": ("terms",)}


def obj_to_map(obj: dict) -> MapSpec:
    try:
        kind = obj["kind"]
        n = _int(obj["n"])
        _only(obj, ("kind", "n") + _PAYLOAD_KEYS.get(kind, ()))
        if kind == "compression":
            return MapSpec(kind, n, obj_to_rect(obj["V"]))
        if kind == "pinching":
            return MapSpec(kind, n, tuple(tuple(_int(i) for i in b) for b in obj["blocks"]))
        if kind == "unitary_mixture":
            return MapSpec(kind, n, tuple(_obj_to_term(t) for t in obj["terms"]))
        return MapSpec(kind, n)
    except _BAD_PAYLOAD as exc:
        raise MalformedSpec(f"bad map payload: {exc!r}") from exc


def _obj_to_term(obj: dict) -> tuple[float, np.ndarray]:
    _only(obj, ("weight", "U"))
    return _real(obj["weight"]), obj_to_matrix(obj["U"])


def instance_to_obj(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "seed": inst.seed,
        "bounds": inst.bounds.to_dict(),
        "A": matrix_to_obj(inst.A),
        "B": matrix_to_obj(inst.B),
    }


def obj_to_instance(obj: dict) -> Instance:
    try:
        _only(obj, ("n", "seed", "bounds", "A", "B"))
        return Instance(
            A=obj_to_matrix(obj["A"]),
            B=obj_to_matrix(obj["B"]),
            bounds=SandwichBounds.from_dict(obj["bounds"]),
            seed=_int(obj["seed"]),
            n=_int(obj["n"]),
        )
    except _BAD_PAYLOAD + (DimensionMismatch,) as exc:
        raise MalformedSpec(f"bad instance payload: {exc!r}") from exc
