"""Text formats (JSON syntax) for matrices, maps, bounds, and instances.

A square matrix is ``{"n": n, "re": [[...]], "im": [[...]]}`` with `im`
optional (default all-zero); rectangular payloads carry explicit "rows" /
"cols".  Floats are written with `repr`, which round-trips doubles exactly
(17 significant digits suffice), so load(dump(x)) == x bit-for-bit.
"""

from __future__ import annotations

import json

import numpy as np

from .constants import SandwichBounds
from .errors import DimensionMismatch, MalformedSpec
from .maps import MapSpec
from .sampler import Instance


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"


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


def _obj_to_array(obj: dict, shape_keys: tuple[str, ...]) -> np.ndarray:
    try:
        shape = tuple(int(obj[k]) for k in shape_keys)
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float) if "im" in obj else np.zeros(re.shape)
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


def obj_to_map(obj: dict) -> MapSpec:
    try:
        kind = obj["kind"]
        n = int(obj["n"])
        if kind == "compression":
            return MapSpec(kind, n, obj_to_rect(obj["V"]))
        if kind == "pinching":
            return MapSpec(kind, n, tuple(tuple(int(i) for i in b) for b in obj["blocks"]))
        if kind == "unitary_mixture":
            terms = tuple(
                (float(t["weight"]), obj_to_matrix(t["U"])) for t in obj["terms"]
            )
            return MapSpec(kind, n, terms)
        return MapSpec(kind, n)
    except _BAD_PAYLOAD as exc:
        raise MalformedSpec(f"bad map payload: {exc!r}") from exc


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
        return Instance(
            A=obj_to_matrix(obj["A"]),
            B=obj_to_matrix(obj["B"]),
            bounds=SandwichBounds.from_dict(obj["bounds"]),
            seed=int(obj["seed"]),
            n=int(obj["n"]),
        )
    except _BAD_PAYLOAD + (DimensionMismatch,) as exc:
        raise MalformedSpec(f"bad instance payload: {exc!r}") from exc


def save_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
