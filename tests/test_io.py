"""Serialization round-trips for matrices, maps, and instances."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq.constants import BOUND_KINDS, SandwichBounds
from opineq.errors import MalformedSpec, OpineqError
from opineq.io import (
    dumps_canonical,
    instance_to_obj,
    map_to_obj,
    matrix_to_obj,
    obj_to_instance,
    obj_to_map,
    obj_to_matrix,
    obj_to_rect,
    rect_to_obj,
)
from opineq.maps import MAP_KINDS, apply_map, random_map
from opineq.sampler import sample_instance


def test_matrix_roundtrip_complex():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = obj_to_matrix(matrix_to_obj(A))
    np.testing.assert_array_equal(A.astype(np.complex128), back)


def test_matrix_roundtrip_real_drops_imaginary_block():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    obj = matrix_to_obj(A)
    assert "im" not in obj
    np.testing.assert_array_equal(obj_to_matrix(obj), A.astype(np.complex128))


def test_matrix_roundtrip_through_json_text():
    """Float fields survive the text representation exactly."""
    A = np.array([[np.pi, 1.0 / 3.0], [1e-17, 123456789.123456789]])
    text = dumps_canonical(matrix_to_obj(A))
    back = obj_to_matrix(json.loads(text))
    np.testing.assert_array_equal(back, A.astype(np.complex128))


def test_matrix_bad_shapes():
    with pytest.raises(MalformedSpec):
        obj_to_matrix({"n": 2, "re": [[1.0, 2.0]]})
    with pytest.raises(MalformedSpec):
        obj_to_matrix({"re": [[1.0]]})


def test_loaders_reject_nonfinite_and_overflowing_entries():
    """A null or infinite entry, or one whose square overflows in the
    unitarity residual, is a MalformedSpec rather than a numpy warning."""
    for entry in (None, float("inf"), float("nan")):
        with pytest.raises(MalformedSpec):
            obj_to_matrix({"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [entry, 0.0]]})
    huge = {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 1.5e154]]}
    with pytest.raises(MalformedSpec):
        obj_to_map({"kind": "unitary_mixture", "n": 2, "terms": [{"weight": 1.0, "U": huge}]})
    with pytest.raises(MalformedSpec):
        obj_to_map({"kind": "compression", "n": 2, "V": dict(huge, rows=2, cols=2)})


def test_rect_roundtrip():
    V = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) / np.sqrt(2)
    back = obj_to_rect(rect_to_obj(V.astype(np.complex128)))
    np.testing.assert_array_equal(back, V.astype(np.complex128))


def test_map_roundtrip_all_kinds():
    for kind in MAP_KINDS:
        phi = random_map(3, kind, seed=17)
        back = obj_to_map(map_to_obj(phi))
        assert back.kind == phi.kind and back.n == phi.n
        A = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
        np.testing.assert_array_equal(apply_map(phi, A), apply_map(back, A))


def test_instance_roundtrip():
    inst = sample_instance(SandwichBounds.sandwich_A_low(1.0, 1.5, 2.0, 4.0), 3, seed=5)
    back = obj_to_instance(instance_to_obj(inst))
    np.testing.assert_array_equal(back.A, inst.A)
    np.testing.assert_array_equal(back.B, inst.B)
    assert back.bounds == inst.bounds
    assert back.seed == inst.seed and back.n == inst.n


def test_canonical_dumps_is_sorted_and_stable():
    a = dumps_canonical({"b": 1, "a": [1.5, {"z": 0, "y": 1}]})
    b = dumps_canonical({"a": [1.5, {"y": 1, "z": 0}], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert a.endswith("\n")


def _json_reference(obj) -> str:
    """The text dumps_canonical must write, from the json module."""
    return json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"


class _Tag(str):
    pass


_WRITER_CORPUS = [
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-310, 1.7976931348623157e308, 0.1],
    {}, [], (), {"a": {}, "b": [[]], "c": [{}], "d": [[], {}, ()]},
    {"s": ["é", "☃", "\U0001F600", "\x00\x1f\x7f", "tab\t", 'quote"', "back\\slash",
           "line\nbreak", "\ud800", ""]},
    {"é key": 1, "\n": 2, "": 3},
    [True, 1, False, 0, None, 1.0], {"t": True, "one": 1, "f": False, "zero": 0, "none": None},
    [2 ** 63, 2 ** 64 + 5, -(2 ** 70), 2 ** 63 - 1],
    (1, (2.5, "x", ()), [(3,)]), {"tuple": (1, 2), "nested": ({"k": (None,)},)},
    [np.float64(0.1), np.float64("nan"), {"x": np.float64(-0.0)}],
    [_Tag("sub"), {"k": _Tag("v")}],
    {2: "a", 1: "b"}, {1.5: "x", 0.5: "y"}, {True: 1, False: 0}, {None: 1},
    {"outer": {"x": {3: [1, {}, {"deep": {4: "y"}}]}, "y": [{10: 2, 9: [1]}]}},
    1.5, "top", 7, None, True,
]


@pytest.mark.parametrize("obj", _WRITER_CORPUS, ids=range(len(_WRITER_CORPUS)))
def test_dumps_canonical_writes_the_json_modules_bytes(obj):
    assert dumps_canonical(obj) == _json_reference(obj)


@pytest.mark.parametrize("obj", [
    {1: "a", "b": 2}, [{"x": {None: 1, 2: 3}}], [object()], {"k": np.int64(3)}, {(1, 2): 3},
])
def test_dumps_canonical_refuses_what_the_json_module_refuses(obj):
    with pytest.raises(TypeError):
        _json_reference(obj)
    with pytest.raises(TypeError):
        dumps_canonical(obj)


def test_dumps_canonical_on_reports_records_and_config_payloads():
    import math
    from dataclasses import asdict

    from opineq.suite import SearchRecord, SuiteConfig, run_suite

    cfg = SuiteConfig(ids=("amgm", "thm3.4", "thm1.1-phi-inside", "lin"), dims=(2, 3), trials=6,
                      seed=11, mutate={"amgm": 0.5})
    report = run_suite(cfg)
    assert any(not row["holds"] for row in report.cases)  # rows with replay payloads
    assert report.to_json() == _json_reference(report.to_obj())
    record = SearchRecord("thm3.4", 0, math.inf, math.inf, False, {})
    assert dumps_canonical(asdict(record)) == _json_reference(asdict(record))
    fixed = SuiteConfig(ids=("lin",), dims=(2,), trials=1, p_grid=(1.0, 2.5), nu_grid=(0.5,),
                        fixed_bounds=SandwichBounds.common(1.0, 4.0))
    for c in (cfg, fixed):
        assert dumps_canonical(c.hash_payload()) == _json_reference(c.hash_payload())


_U2 = {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}
_U3 = {"n": 3, "re": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
_BOUNDS = SandwichBounds.common(0.5, 2.0).to_dict()
_TERM = {"weight": 1.0, "U": _U2}


@pytest.mark.parametrize(
    "loader, payload",
    [
        (obj_to_map, {"kind": "pinching", "n": 2}),
        (obj_to_map, {"kind": "unitary_mixture", "n": 2, "terms": [{"U": _U2}]}),
        (obj_to_map, {"kind": "compression", "n": 2}),
        (obj_to_instance, {"n": 2, "seed": 0, "bounds": [], "A": _U2, "B": _U2}),
        (obj_to_instance, {"n": 7, "seed": 0, "bounds": _BOUNDS, "A": _U2, "B": _U2}),
        (obj_to_instance, {"n": 2, "seed": 0, "bounds": _BOUNDS, "A": _U2, "B": _U3}),
        (obj_to_map, {"kind": "identity", "n": 2.7}),
        (obj_to_map, {"kind": "pinching", "n": 2, "blocks": [[0, True]]}),
        (obj_to_instance, {"n": 2, "seed": 1.9, "bounds": _BOUNDS, "A": _U2, "B": _U2}),
        (obj_to_instance, {"n": "2", "seed": 0, "bounds": _BOUNDS, "A": _U2, "B": _U2}),
        (obj_to_rect, {"rows": 2.9, "cols": True, "re": [[1.0], [0.0]]}),
        (obj_to_instance, {"n": 2, "seed": 0, "bounds": {**_BOUNDS, "Mx": 5.0}, "A": _U2, "B": _U2}),
        (obj_to_instance, {"n": 2, "seed": 0, "bounds": {**_BOUNDS, "m": True}, "A": _U2, "B": _U2}),
        (obj_to_matrix, {"n": 2, "re": [["1", False], [False, True]]}),
        (obj_to_matrix, {"n": 2, "re": [[1.0, True], [0.0, 1.0]]}),
        (obj_to_matrix, {"n": 1, "re": [[1.0]], "im": [["0"]]}),
        (obj_to_map, {"kind": "unitary_mixture", "n": 2, "terms": [{**_TERM, "weight": True}]}),
        (obj_to_map, {"kind": "unitary_mixture", "n": 2, "terms": [{**_TERM, "weight": "1"}]}),
        (obj_to_map, {"kind": "identity", "n": 2, "V": 5}),
        (obj_to_map, {"kind": "unitary_mixture", "n": 2, "terms": [{**_TERM, "x": 0}]}),
        (obj_to_matrix, {"n": 1, "re": [[1.0]], "junk": 3}),
        (obj_to_rect, {"rows": 1, "cols": 1, "re": [[1.0]], "n": 1}),
        (obj_to_instance, {"n": 2, "seed": 0, "bounds": _BOUNDS, "A": _U2, "B": _U2, "zzz": 0}),
    ],
    ids=["pinching-without-blocks", "term-without-weight", "compression-without-V",
         "bounds-not-an-object", "n-disagrees-with-matrices", "A-and-B-differ-in-size",
         "map-n-a-float", "pinching-index-a-bool", "seed-a-float", "n-a-string",
         "rows-and-cols-not-integers", "bounds-unknown-key", "bound-a-bool",
         "entries-strings-and-bools", "entry-a-bool", "im-entry-a-string",
         "weight-a-bool", "weight-a-string", "map-stray-key", "term-stray-key",
         "matrix-stray-key", "rect-stray-key", "instance-stray-key"],
)
def test_loaders_reject_malformed_payloads(loader, payload):
    with pytest.raises(MalformedSpec):
        loader(payload)


_json_like = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.integers() | st.floats()
    | st.sampled_from(MAP_KINDS + BOUND_KINDS) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


def _valid_payloads():
    inst = instance_to_obj(sample_instance(SandwichBounds.common(1.0, 2.0), 2, seed=1))
    rect = rect_to_obj(random_map(3, "compression", seed=1).payload)
    maps = [map_to_obj(random_map(3, kind, seed=1)) for kind in MAP_KINDS]
    return ([(obj_to_map, m) for m in maps]
            + [(obj_to_instance, inst), (obj_to_matrix, inst["A"]), (obj_to_rect, rect)])


_VALID = _valid_payloads()


def _slots(obj):
    """Every (container, key) pair inside a JSON-like object."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        items = []
    for key, value in items:
        yield obj, key
        yield from _slots(value)


@st.composite
def _corrupted(draw):
    """A valid payload with one to three fields deleted or replaced by junk."""
    loader, valid = draw(st.sampled_from(_VALID))
    obj = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(obj))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_json_like)
    return loader, obj


@settings(max_examples=300, deadline=None)
@given(_corrupted() | st.tuples(st.sampled_from([loader for loader, _ in _VALID]),
                                st.dictionaries(st.text(max_size=5), _json_like)))
def test_loaders_load_or_raise_opineq_error(loader_and_payload):
    """Any JSON-like payload either loads or raises an OpineqError."""
    loader, payload = loader_and_payload
    try:
        loader(payload)
    except OpineqError:
        pass
