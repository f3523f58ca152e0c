"""Round trips and error reporting for the JSON file formats."""

import copy
import itertools
import json
import struct
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmetrics import fileio
from kmetrics.coboundary import ChainMatrix
from kmetrics.fileio import (
    InputError,
    read_any,
    read_chain,
    read_chain_matrix,
    read_cloud,
    read_complex,
    read_kmetric,
    write_chain,
    write_chain_matrix,
    write_cloud,
    write_complex,
    write_kmetric,
)
from kmetrics.metric import KMetric
from kmetrics.simplicial import Chain, Record, WeightedComplex, enumerate_simplices
from kmetrics.volume import PointCloud
from oracles import json_load_read


def _write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# --- round trips ------------------------------------------------------------


def test_kmetric_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    d = KMetric(n=6, k=3, values=rng.uniform(0.1, 9.0, 20))
    path = str(tmp_path / "d.json")
    write_kmetric(d, path)
    back = read_kmetric(path)
    assert back.n == 6 and back.k == 3
    assert np.array_equal(back.values, d.values)


def test_chain_matrix_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    F = ChainMatrix(n=5, k=3, data=rng.standard_normal((10, 4)))
    path = str(tmp_path / "F.json")
    write_chain_matrix(F, path)
    back = read_chain_matrix(path)
    assert (back.n, back.k, back.m) == (5, 3, 4)
    assert np.array_equal(back.data, F.data)


def test_complex_round_trip_is_bit_exact(tmp_path):
    K = WeightedComplex(
        n=5,
        k=3,
        facets=((0, 1, 2), (0, 2, 3), (1, 3, 4)),
        weights=np.array([1.5, 0.25, 3.0]),
    )
    path = str(tmp_path / "K.json")
    write_complex(K, path)
    back = read_complex(path)
    assert back.facets == K.facets
    assert np.array_equal(back.weights, K.weights)


def test_cloud_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    cloud = PointCloud(points=rng.standard_normal((6, 3)))
    path = str(tmp_path / "P.json")
    write_cloud(cloud, path)
    back = read_cloud(path)
    assert np.array_equal(back.points, cloud.points)


def test_chain_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    chain = Chain(n=6, dim=2, coeffs=rng.standard_normal(20))
    path = str(tmp_path / "c.json")
    write_chain(chain, path)
    back = read_chain(path)
    assert (back.n, back.dim) == (6, 2)
    assert np.array_equal(back.coeffs, chain.coeffs)


def test_writes_are_compact_single_line_json(tmp_path):
    path = tmp_path / "d.json"
    write_kmetric(KMetric(n=3, k=2, values=[0.5, 1.0, 2.0]), str(path))
    text = path.read_text(encoding="utf-8")
    assert text == (
        '{"n":3,"k":2,"values":[{"s":[0,1],"d":0.5},'
        '{"s":[0,2],"d":1.0},{"s":[1,2],"d":2.0}]}\n'
    )


# --- blocked writes ----------------------------------------------------------


def _write_cases():
    """kind -> (payload, writer, reader, the whole object, back -> equal to payload)."""
    rng = np.random.default_rng(12)
    d = KMetric(n=6, k=3, values=rng.uniform(0.1, 9.0, 20))
    F = ChainMatrix(n=5, k=3, data=rng.standard_normal((10, 3)))
    K = WeightedComplex(
        n=5,
        k=3,
        facets=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)),
        weights=rng.uniform(0.5, 2.0, 6),
    )
    cloud = PointCloud(points=rng.standard_normal((9, 2)))
    chain = Chain(n=6, dim=2, coeffs=rng.standard_normal(20))
    values = [{"s": list(s), "d": v} for s, v in zip(d.simplices(), d.values.tolist())]
    facets = [{"s": list(f), "w": w} for f, w in zip(K.facets, K.weights.tolist())]
    return {
        "kmetric": (d, write_kmetric, read_kmetric, {"n": 6, "k": 3, "values": values},
                    lambda back: np.array_equal(back.values, d.values)),
        "chain_matrix": (F, write_chain_matrix, read_chain_matrix,
                         {"n": 5, "k": 3, "m": 3, "data": F.data.reshape(-1).tolist()},
                         lambda back: np.array_equal(back.data, F.data)),
        "complex": (K, write_complex, read_complex, {"n": 5, "k": 3, "facets": facets},
                    lambda back: back.facets == K.facets
                    and np.array_equal(back.weights, K.weights)),
        "cloud": (cloud, write_cloud, read_cloud, {"m": 2, "points": cloud.points.tolist()},
                  lambda back: np.array_equal(back.points, cloud.points)),
        "chain": (chain, write_chain, read_chain,
                  {"n": 6, "dim": 2, "coeffs": chain.coeffs.tolist()},
                  lambda back: np.array_equal(back.coeffs, chain.coeffs)),
    }


# lists of 20, 30, 6, 9 and 20 items: blocks of 3 and 4 each end both full and short
@pytest.mark.parametrize("block", [1, 3, 4, 2**20])
@pytest.mark.parametrize("kind", ["kmetric", "chain_matrix", "complex", "cloud", "chain"])
def test_blocked_writes_equal_the_whole_object_dump(tmp_path, monkeypatch, kind, block):
    monkeypatch.setattr(fileio, "_WRITE_BLOCK", block)
    payload, write, read, whole, same = _write_cases()[kind]
    path = tmp_path / "out.json"
    write(payload, str(path))
    assert path.read_bytes() == (json.dumps(whole, separators=(",", ":")) + "\n").encode()
    assert same(read(str(path)))


@pytest.mark.parametrize("write, payload, limit_mb", [
    (write_chain_matrix,
     lambda rng: ChainMatrix(n=400, k=2, data=rng.standard_normal((400, 1000))), 2),
    (write_kmetric,
     lambda rng: KMetric(n=120, k=3, values=rng.uniform(0.5, 2.0, comb(120, 3))), 16),
])
def test_writes_hold_one_block_at_a_time(tmp_path, write, payload, limit_mb):
    obj = payload(np.random.default_rng(13))
    tracemalloc.start()
    try:
        write(obj, str(tmp_path / "out.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20


# --- blocked reads -----------------------------------------------------------

_KINDS = ["kmetric", "chain_matrix", "complex", "cloud", "chain"]
_READ_BLOCKS = [1, 3, 4, 2**20]  # characters; the first three cut inside numbers and keys
# the default block, and one that puts a bad entry in a later block than the first
_ERROR_BLOCKS = [2**16, 4]


def _layout(whole: dict, key: str, layout: str) -> str:
    """whole as text: indented, its large list whole[key] first, or both repeated.

    "repeated" opens with a bogus large list and ends by restating the first
    key, so the last list and the last value of each key must win.
    """
    if layout == "indent":
        return json.dumps(whole, indent=1)
    if layout == "list_first":
        return json.dumps({key: whole[key], **whole})
    first = next(iter(whole))
    body = json.dumps(whole)[1:-1]
    return f'{{"{key}": [0], {body}, "{first}": {json.dumps(whole[first])}}}'


@pytest.mark.parametrize("layout", ["writer", "indent", "list_first", "repeated"])
@pytest.mark.parametrize("block", _READ_BLOCKS)
@pytest.mark.parametrize("kind", _KINDS)
def test_blocked_reads_equal_the_whole_object(tmp_path, monkeypatch, kind, block, layout):
    monkeypatch.setattr(fileio, "_READ_BLOCK", block)
    payload, write, read, whole, same = _write_cases()[kind]
    path = tmp_path / "in.json"
    if layout == "writer":
        write(payload, str(path))
    else:
        path.write_text(_layout(whole, list(whole)[-1], layout), encoding="utf-8")
    assert same(read(str(path)))
    if kind != "chain":
        found, back = read_any(str(path))
        assert found == kind and same(back)


@pytest.mark.parametrize("layout, whole", [("writer", False), ("dump", False), ("indent", False),
                                           ("list_first", True), ("repeated", True)])
@pytest.mark.parametrize("kind", _KINDS)
def test_only_other_layouts_are_read_whole(tmp_path, monkeypatch, kind, layout, whole):
    payload, write, read, obj, same = _write_cases()[kind]
    path = tmp_path / "in.json"
    if layout == "writer":
        write(payload, str(path))
    elif layout == "dump":  # json.dump with default separators, as a script writes a file
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    else:
        path.write_text(_layout(obj, list(obj)[-1], layout), encoding="utf-8")
    loads = []
    load = json.load
    monkeypatch.setattr(fileio.json, "load", lambda fh: loads.append(fh) or load(fh))
    assert same(read(str(path)))
    if kind != "chain":
        found, back = read_any(str(path))
        assert found == kind and same(back)
    assert bool(loads) == whole


@pytest.mark.parametrize("write, read, payload, limit_mb", [
    (write_chain_matrix, read_chain_matrix,
     lambda rng: ChainMatrix(n=400, k=2, data=rng.standard_normal((400, 1000))), 8),
    (write_kmetric, read_kmetric,
     lambda rng: KMetric(n=120, k=3, values=rng.uniform(0.5, 2.0, comb(120, 3))), 32),
])
def test_reads_hold_one_block_at_a_time(tmp_path, write, read, payload, limit_mb):
    path = str(tmp_path / "in.json")
    write(payload(np.random.default_rng(13)), path)
    tracemalloc.start()
    try:
        read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20


def _state(x):
    """Everything a read returns, arrays as their bits."""
    if isinstance(x, tuple):
        return tuple(map(_state, x))
    if isinstance(x, np.ndarray):
        return x.shape, x.tobytes()
    if isinstance(x, Record):
        return type(x).__name__, tuple(_state(getattr(x, f)) for f in x.__slots__)
    return x


def _outcome(read, path):
    try:
        return "ok", _state(read(path))
    except InputError as exc:
        return "InputError", exc.message, exc.field, exc.line
    except ValueError as exc:
        return type(exc).__name__, str(exc)


_HEADER_VALUES = [0, 1, 2, 3, 5, 9, -1, 10**30, True, None, "3", 1.5, [3]]
_ITEM_VALUES = [0, 1, -1, 2**70, 10**400, 1.5, -0.0, 1e308, float("nan"), float("inf"), True,
                None, "x", [], [0, 1], [1, 0], [0, 1, 2], [0.5, 1.5], {}, {"s": [0, 1]},
                {"s": [0, 1], "d": 1.0}, {"s": [0, 2], "w": 2.0}]


@st.composite
def _mutated_files(draw):
    """(read kind, text): a valid file, a few edits of its object, a layout, a text edit."""

    def value(pool):  # a copy: later edits may change it in place
        return copy.deepcopy(draw(st.sampled_from(pool)))

    base = draw(st.sampled_from(_KINDS))
    whole = copy.deepcopy(_write_cases()[base][3])
    key = list(whole)[-1]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["set", "del", "item", "field", "dup", "drop"]))
        items, i = whole.get(key), draw(st.integers(0, 40))
        if op == "set":
            whole[draw(st.sampled_from([*whole, "x"]))] = value(_HEADER_VALUES)
        elif op == "del" and whole:
            whole.pop(draw(st.sampled_from(list(whole))), None)
        elif isinstance(items, list) and items:
            i %= len(items)
            if op == "item":
                items[i] = value(_ITEM_VALUES)
            elif op == "field" and isinstance(items[i], dict):
                field = draw(st.sampled_from(["s", "d", "w"]))
                items[i][field] = value(_ITEM_VALUES)
            elif op == "dup":
                items.insert(draw(st.integers(0, len(items))), copy.deepcopy(items[i]))
            elif op == "drop":
                del items[i]
    layouts = ["writer", "indent"] + (["list_first", "repeated"] if key in whole else [])
    layout = draw(st.sampled_from(layouts))
    if layout == "writer":
        text = json.dumps(whole, separators=(",", ":")) + "\n"
    else:
        text = _layout(whole, key, layout)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(' ,:[]{}"0123456789.-eENtfx\n\\'))
        cut = draw(st.sampled_from([0, 1]))  # insert, or replace the character at `at`
        text = text[:at] + char + text[at + cut:]
    kind = draw(st.sampled_from([base, "any"]))
    return kind, text


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mutated_files(), st.sampled_from([1, 3, 4, 16, 2**16]))
def test_blocked_reads_match_a_json_load_reader(tmp_path_factory, case, block):
    kind, text = case
    path = tmp_path_factory.mktemp("mutated") / "in.json"
    path.write_text(text, encoding="utf-8")
    read = read_any if kind == "any" else globals()[f"read_{kind}"]
    with mock.patch.object(fileio, "_READ_BLOCK", block):
        got = _outcome(read, str(path))
    assert got == _outcome(lambda p: json_load_read(p, kind), str(path))


@pytest.mark.parametrize("kind, obj", [
    ("cloud", {"m": 10**30, "points": []}),
    ("cloud", {"m": 9 * 10**18, "points": []}),
    ("cloud", {"m": 10**30, "points": [[1.0]]}),
    ("chain", {"n": 10**30, "dim": 2, "coeffs": [1.0]}),
    ("chain_matrix", {"n": 10**30, "k": 3, "m": 10**30, "data": [1.0, 2.0]}),
    ("kmetric", {"n": 10**30, "k": 2, "values": [{"s": [0, 1], "d": 1.0}, {"s": [1, 0], "d": 1}]}),
    ("kmetric", {"n": 10**30, "k": 2, "values": [{"s": [0, 1], "d": 1.0}, {"s": [0, 1], "d": 1}]}),
    ("complex", {"n": 10**30, "k": 2, "facets": [{"s": [0, 5], "w": 1.0}]}),
])
def test_huge_header_counts_read_like_a_json_load_reader(tmp_path, monkeypatch, kind, obj):
    path = _write_json(tmp_path / "in.json", obj)
    want = _outcome(lambda p: json_load_read(p, kind), path)
    for block in _ERROR_BLOCKS:
        monkeypatch.setattr(fileio, "_READ_BLOCK", block)
        assert _outcome(globals()[f"read_{kind}"], path) == want


def test_undecodable_text_fails_like_a_json_load_reader(tmp_path, monkeypatch):
    path = tmp_path / "in.json"  # a byte that is not UTF-8, after a bad entry
    path.write_bytes(json.dumps(_matrix(0.0, "x", *range(40))).encode()[:-12] + b"\xff, 1]}")
    want = _outcome(lambda p: json_load_read(p, "chain_matrix"), str(path))
    assert want[0] == "InputError" and want[1].startswith("not UTF-8 text: ")
    for block in _ERROR_BLOCKS:
        monkeypatch.setattr(fileio, "_READ_BLOCK", block)
        assert _outcome(read_chain_matrix, str(path)) == want


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]
_NUMBERS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**1000), 2**1000),  # JSON integers, most of them above 2**53
)


def _bits(values):
    return [struct.pack("<d", float(v)) for v in values]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_NUMBERS, min_size=3, max_size=45))
def test_reads_match_float_bit_for_bit(tmp_path_factory, numbers):
    tmp = tmp_path_factory.mktemp("bits")
    data = numbers[: len(numbers) // 3 * 3]
    path = _write_json(tmp / "F.json", {"n": 3, "k": 2, "m": len(data) // 3, "data": data})
    F = read_chain_matrix(path)
    assert _bits(F.data.reshape(-1)) == _bits(data)
    write_chain_matrix(F, str(tmp / "G.json"))
    assert _bits(read_chain_matrix(str(tmp / "G.json")).data.reshape(-1)) == _bits(data)
    d = [abs(v) for v in numbers[:3]]
    entries = [{"s": list(s), "d": v} for s, v in zip([(0, 1), (0, 2), (1, 2)], d)]
    path = _write_json(tmp / "d.json", {"n": 3, "k": 2, "values": entries})
    assert _bits(read_kmetric(path).values) == _bits(d)


def test_valid_files_skip_the_per_entry_validators(tmp_path, monkeypatch):
    rng = np.random.default_rng(12)
    d = KMetric(n=12, k=3, values=rng.uniform(0.5, 2.0, comb(12, 3)))
    F = ChainMatrix(n=12, k=3, data=rng.standard_normal((comb(12, 2), 4)))
    K = WeightedComplex(n=5, k=3, facets=((0, 1, 2), (1, 3, 4)), weights=np.array([1.0, 2.0]))
    cloud = PointCloud(points=rng.standard_normal((9, 3)))
    chain = Chain(n=6, dim=2, coeffs=rng.standard_normal(20))
    for write, obj, name in [(write_kmetric, d, "d"), (write_chain_matrix, F, "F"),
                             (write_complex, K, "K"), (write_cloud, cloud, "P"),
                             (write_chain, chain, "c")]:
        write(obj, str(tmp_path / f"{name}.json"))

    def refuse(*args):
        raise AssertionError("per-entry validator on a valid file")

    monkeypatch.setattr(fileio, "_as_number", refuse)
    monkeypatch.setattr(fileio, "_read_simplex", refuse)
    assert np.array_equal(read_kmetric(str(tmp_path / "d.json")).values, d.values)
    assert np.array_equal(read_chain_matrix(str(tmp_path / "F.json")).data, F.data)
    assert read_complex(str(tmp_path / "K.json")).facets == K.facets
    assert np.array_equal(read_cloud(str(tmp_path / "P.json")).points, cloud.points)
    assert np.array_equal(read_chain(str(tmp_path / "c.json")).coeffs, chain.coeffs)


# --- file-level errors ------------------------------------------------------


def test_missing_file_names_the_path(tmp_path):
    path = str(tmp_path / "absent.json")
    with pytest.raises(InputError) as info:
        read_kmetric(path)
    assert info.value.path == path
    assert "cannot read file" in info.value.message
    assert info.value.line is None


def test_malformed_json_reports_the_line(tmp_path, monkeypatch):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 4,\n "k": }\n', encoding="utf-8")
    deep = tmp_path / "deep.json"  # a bad number, data[17], on line 23
    deep.write_text(json.dumps(_matrix(*range(30)), indent=1).replace("17", "1.7.", 1))
    for block in _ERROR_BLOCKS:
        monkeypatch.setattr(fileio, "_READ_BLOCK", block)
        with pytest.raises(InputError) as info:
            read_kmetric(str(path))
        assert "invalid JSON" in info.value.message
        assert info.value.line == 2
        assert ":2:" in str(info.value) or str(info.value).count(":2") >= 1
        with pytest.raises(InputError) as info:
            read_chain_matrix(str(deep))
        assert info.value.message == "invalid JSON: Expecting ',' delimiter"
        assert info.value.line == 23


def test_top_level_array_is_rejected(tmp_path):
    path = _write_json(tmp_path / "arr.json", [1, 2, 3])
    with pytest.raises(InputError, match="expected a JSON object, got list"):
        read_cloud(path)


# --- kmetric field errors ---------------------------------------------------


def test_kmetric_missing_field_named(tmp_path):
    path = _write_json(tmp_path / "d.json", {"n": 4, "values": []})
    with pytest.raises(InputError) as info:
        read_kmetric(path)
    assert info.value.field == "k"
    assert "missing required field" in info.value.message


def test_kmetric_bool_is_not_an_integer(tmp_path):
    path = _write_json(tmp_path / "d.json", {"n": True, "k": 2, "values": []})
    with pytest.raises(InputError, match="expected an integer"):
        read_kmetric(path)


def test_kmetric_needs_n_at_least_k(tmp_path):
    path = _write_json(tmp_path / "d.json", {"n": 2, "k": 3, "values": []})
    with pytest.raises(InputError) as info:
        read_kmetric(path)
    assert info.value.field == "n"
    assert "need n >= k" in info.value.message


def test_kmetric_duplicate_entry_named(tmp_path, monkeypatch):
    entries = [{"s": [0, 1], "d": 1.0}, {"s": [0, 1], "d": 2.0},
               {"s": [0, 2], "d": 1.0}, {"s": [1, 2], "d": 1.0}]
    path = _write_json(tmp_path / "d.json", {"n": 3, "k": 2, "values": entries})
    for block in _ERROR_BLOCKS:
        monkeypatch.setattr(fileio, "_READ_BLOCK", block)
        with pytest.raises(InputError) as info:
            read_kmetric(path)
        assert info.value.field == "values[1].s"
        assert "duplicate entry for (0, 1)" in info.value.message


def test_kmetric_missing_tuples_counted(tmp_path):
    entries = [{"s": [0, 1], "d": 1.0}, {"s": [1, 2], "d": 1.0}]
    path = _write_json(tmp_path / "d.json", {"n": 4, "k": 2, "values": entries})
    with pytest.raises(InputError) as info:
        read_kmetric(path)
    assert info.value.field == "values"
    assert "4 of 6 tuples missing, first (0, 2)" in info.value.message


def test_kmetric_missing_tuple_named_without_enumerating(tmp_path):
    entries = [{"s": list(s), "d": 1.0} for s in itertools.combinations(range(30), 3)]
    del entries[1000]
    path = _write_json(tmp_path / "d.json", {"n": 30, "k": 3, "values": entries})
    enumerate_simplices.cache_clear()
    with pytest.raises(InputError) as info:
        read_kmetric(path)
    assert enumerate_simplices.cache_info().currsize == 0
    assert info.value.message == f"1 of 4060 tuples missing, first {enumerate_simplices(30, 2)[1000]}"


def test_kmetric_entry_must_have_s_and_d(tmp_path):
    path = _write_json(
        tmp_path / "d.json", {"n": 2, "k": 2, "values": [{"s": [0, 1]}]}
    )
    with pytest.raises(InputError, match="expected an object with s and d"):
        read_kmetric(path)


def test_kmetric_rejects_unsorted_tuple(tmp_path):
    path = _write_json(
        tmp_path / "d.json", {"n": 3, "k": 2, "values": [{"s": [1, 0], "d": 1.0}]}
    )
    with pytest.raises(InputError, match="strictly increasing"):
        read_kmetric(path)


def test_kmetric_rejects_out_of_range_vertex(tmp_path):
    path = _write_json(
        tmp_path / "d.json", {"n": 3, "k": 2, "values": [{"s": [0, 3], "d": 1.0}]}
    )
    with pytest.raises(InputError, match="range 0..2"):
        read_kmetric(path)


def test_kmetric_rejects_non_integer_vertex(tmp_path):
    for s in ([0, 1.0], [0, 1.5], [False, 1], ["0", 1]):
        path = _write_json(
            tmp_path / "d.json", {"n": 3, "k": 2, "values": [{"s": s, "d": 1.0}]}
        )
        with pytest.raises(InputError) as info:
            read_kmetric(path)
        assert info.value.field == "values[0].s"
        assert "integer" in info.value.message


def test_kmetric_value_must_be_numeric(tmp_path):
    path = _write_json(
        tmp_path / "d.json", {"n": 2, "k": 2, "values": [{"s": [0, 1], "d": "x"}]}
    )
    with pytest.raises(InputError) as info:
        read_kmetric(path)
    assert info.value.field == "values[0].d"
    assert "expected a number" in info.value.message


def test_number_too_large_for_a_float_is_an_input_error(tmp_path, monkeypatch):
    huge = 10**400  # json reads it as an int that float() cannot hold
    path = _write_json(
        tmp_path / "d.json", {"n": 2, "k": 2, "values": [{"s": [0, 1], "d": huge}]}
    )
    matrix = _write_json(
        tmp_path / "F.json", {"n": 3, "k": 2, "m": 1, "data": [0.0, huge, 1.0]}
    )
    for block in _ERROR_BLOCKS:
        monkeypatch.setattr(fileio, "_READ_BLOCK", block)
        with pytest.raises(InputError) as info:
            read_kmetric(path)
        assert info.value.field == "values[0].d"
        with pytest.raises(InputError) as info:
            read_chain_matrix(matrix)
        assert info.value.field == "data[1]"


def test_kmetric_negative_value_wrapped_as_input_error(tmp_path):
    path = _write_json(
        tmp_path / "d.json", {"n": 2, "k": 2, "values": [{"s": [0, 1], "d": -1.0}]}
    )
    with pytest.raises(InputError, match="nonnegative"):
        read_kmetric(path)


def _table(i, key, value):
    entries = [{"s": [0, 1], "d": 1.0}, {"s": [0, 2], "d": 1.0}, {"s": [1, 2], "d": 1.0}]
    entries[i][key] = value
    return {"n": 3, "k": 2, "values": entries}


def _matrix(*data):
    return {"n": 3, "k": 2, "m": 1, "data": list(data)}


@pytest.mark.parametrize(
    "read, obj, field, message",
    [
        (read_chain_matrix, _matrix(0.0, True, 1.0), "data[1]", "expected a number, got True"),
        (read_chain_matrix, _matrix(0.0, 1.0, "1.5"), "data[2]", "expected a number, got '1.5'"),
        (read_chain_matrix, _matrix([[1]], 0.0, 1.0), "data[0]", "expected a number, got [[1]]"),
        (read_chain_matrix, _matrix(0.0, 1.0, 10**400), "data[2]", "number too large for a float"),
        (read_kmetric, _table(1, "d", True), "values[1].d", "expected a number, got True"),
        (read_kmetric, _table(2, "d", 10**400), "values[2].d", "number too large for a float"),
        (read_kmetric, _table(1, "s", [True, 2]), "values[1].s",
         "vertices must be integers, got (True, 2)"),
        (read_kmetric, _table(2, "s", [1.0, 2]), "values[2].s",
         "vertices must be integers, got (1.0, 2)"),
        (read_kmetric, _table(1, "s", [0, 2**70]), "values[1].s",
         f"vertex out of range 0..2: (0, {2**70})"),
        (read_kmetric, _table(1, "s", [0, 1, 2]), "values[1].s", "expected a list of 2 vertices"),
        (read_cloud, {"m": 2, "points": [[0.0, 1.0], [True, 2.0]]}, "points[1]",
         "expected a number, got True"),
    ],
)
def test_whole_list_reads_refuse_like_the_per_entry_check(tmp_path, monkeypatch, read, obj,
                                                          field, message):
    path = _write_json(tmp_path / "x.json", obj)
    for block in _ERROR_BLOCKS:
        monkeypatch.setattr(fileio, "_READ_BLOCK", block)
        with pytest.raises(InputError) as info:
            read(path)
        assert (info.value.field, info.value.line, info.value.message) == (field, None, message)


def test_first_bad_entry_wins_across_fields(tmp_path, monkeypatch):
    obj = _table(2, "s", [2, 1])
    obj["values"][1]["d"] = "x"  # an earlier bad value beats a later bad simplex
    table = _write_json(tmp_path / "d.json", obj)
    cloud = {"m": 2, "points": [[0.0, None], [1.0]]}  # a bad coordinate before a short row
    cloud = _write_json(tmp_path / "P.json", cloud)
    obj = _table(2, "d", "x")
    obj["values"][1]["s"] = [0, 1]  # a bad value after a duplicate: entries come first
    again = _write_json(tmp_path / "dup.json", obj)
    short = _write_json(tmp_path / "F.json", _matrix(0.0, "x"))  # the length comes first
    for block in _ERROR_BLOCKS:
        monkeypatch.setattr(fileio, "_READ_BLOCK", block)
        with pytest.raises(InputError) as info:
            read_kmetric(table)
        assert info.value.field == "values[1].d"
        with pytest.raises(InputError) as info:
            read_kmetric(again)
        assert info.value.field == "values[2].d"
        with pytest.raises(InputError) as info:
            read_chain_matrix(short)
        assert info.value.message == "expected 3 x 1 = 3 numbers, got 2"
        with pytest.raises(InputError) as info:
            read_cloud(cloud)
        assert info.value.field == "points[0]"
        assert info.value.message == "expected a number, got None"


# --- chain matrix, complex, cloud, chain errors -----------------------------


def test_chain_matrix_length_mismatch(tmp_path):
    path = _write_json(
        tmp_path / "F.json", {"n": 4, "k": 3, "m": 2, "data": [0.0] * 7}
    )
    with pytest.raises(InputError) as info:
        read_chain_matrix(path)
    assert info.value.field == "data"
    assert "expected 6 x 2 = 12 numbers, got 7" in info.value.message


def test_chain_matrix_rejects_non_numeric_cell(tmp_path):
    path = _write_json(
        tmp_path / "F.json", {"n": 3, "k": 2, "m": 1, "data": [0.0, None, 1.0]}
    )
    with pytest.raises(InputError) as info:
        read_chain_matrix(path)
    assert info.value.field == "data[1]"


def test_complex_negative_weight_wrapped(tmp_path):
    path = _write_json(
        tmp_path / "K.json",
        {"n": 3, "k": 2, "facets": [{"s": [0, 1], "w": -2.0}]},
    )
    with pytest.raises(InputError) as info:
        read_complex(path)
    assert info.value.field == "facets"
    assert "positive" in info.value.message


def test_complex_duplicate_facet_wrapped(tmp_path):
    path = _write_json(
        tmp_path / "K.json",
        {"n": 3, "k": 2, "facets": [{"s": [0, 1], "w": 1.0},
                                    {"s": [0, 1], "w": 2.0}]},
    )
    with pytest.raises(InputError, match="duplicate facet"):
        read_complex(path)


def test_cloud_rows_must_be_rectangular(tmp_path):
    path = _write_json(
        tmp_path / "P.json", {"m": 2, "points": [[0.0, 1.0], [2.0]]}
    )
    with pytest.raises(InputError) as info:
        read_cloud(path)
    assert info.value.field == "points[1]"
    assert "expected a list of 2 coordinates" in info.value.message


def test_chain_matrix_float_past_the_range_is_not_finite(tmp_path, monkeypatch):
    # json reads the literal 1e400 as inf, where the integer 10**400 is too large
    path = tmp_path / "F.json"
    path.write_text('{"n": 3, "k": 2, "m": 1, "data": [0.0, 1e400, 1.0]}', encoding="utf-8")
    for block in _ERROR_BLOCKS:
        monkeypatch.setattr(fileio, "_READ_BLOCK", block)
        with pytest.raises(InputError) as info:
            read_chain_matrix(str(path))
        assert (info.value.field, info.value.message) == ("data", "chain entries must be finite")


def test_chain_coeffs_must_be_finite(tmp_path):
    # Python's json reads NaN and Infinity
    path = _write_json(
        tmp_path / "c.json", {"n": 3, "dim": 1, "coeffs": [float("nan"), 1.0, 2.0]}
    )
    with pytest.raises(InputError) as info:
        read_chain(path)
    assert info.value.field == "coeffs"
    assert "finite" in info.value.message


def test_chain_coeff_count_must_match(tmp_path):
    path = _write_json(
        tmp_path / "c.json", {"n": 4, "dim": 1, "coeffs": [1.0, 2.0]}
    )
    with pytest.raises(InputError) as info:
        read_chain(path)
    assert info.value.field == "coeffs"


# --- autodetection ----------------------------------------------------------


def test_read_any_detects_all_four_kinds(tmp_path):
    rng = np.random.default_rng(11)
    d = KMetric(n=4, k=2, values=rng.uniform(0.5, 2.0, 6))
    F = ChainMatrix(n=4, k=2, data=rng.standard_normal((4, 3)))
    K = WeightedComplex(n=3, k=2, facets=((0, 1), (1, 2)),
                        weights=np.array([1.0, 1.0]))
    cloud = PointCloud(points=rng.standard_normal((4, 2)))
    write_kmetric(d, str(tmp_path / "a.json"))
    write_chain_matrix(F, str(tmp_path / "b.json"))
    write_complex(K, str(tmp_path / "c.json"))
    write_cloud(cloud, str(tmp_path / "e.json"))
    assert read_any(str(tmp_path / "a.json"))[0] == "kmetric"
    assert read_any(str(tmp_path / "b.json"))[0] == "chain_matrix"
    assert read_any(str(tmp_path / "c.json"))[0] == "complex"
    assert read_any(str(tmp_path / "e.json"))[0] == "cloud"
    kind, obj = read_any(str(tmp_path / "a.json"))
    assert np.array_equal(obj.values, d.values)


def test_read_any_parses_the_file_once(tmp_path, monkeypatch):
    path = str(tmp_path / "F.json")
    write_chain_matrix(ChainMatrix(n=4, k=2, data=np.ones((4, 2))), path)
    calls = []
    monkeypatch.setattr(fileio, "open", lambda p, *a, **kw: calls.append(p) or open(p, *a, **kw),
                        raising=False)
    assert read_any(path)[0] == "chain_matrix"
    assert calls == [path]


def test_read_any_builds_by_the_first_key_even_when_a_later_one_holds_the_list(
        tmp_path, monkeypatch):
    # the blocked read meets "data": [ first, but "values" decides the builder
    path = _write_json(tmp_path / "x.json", {"values": 5, **_matrix(0.0, 1.0, 2.0)})
    for block in _ERROR_BLOCKS:
        monkeypatch.setattr(fileio, "_READ_BLOCK", block)
        with pytest.raises(InputError) as info:
            read_any(path)
        assert (info.value.field, info.value.message) == ("values", "expected a list")


def test_read_any_rejects_unknown_payload(tmp_path):
    path = _write_json(tmp_path / "x.json", {"n": 3, "k": 2})
    with pytest.raises(InputError, match="unrecognised payload"):
        read_any(path)


def test_error_string_carries_path_line_and_field():
    err = InputError("in.json", "boom", field="values[2].s", line=9)
    assert str(err) == "in.json:9 (field values[2].s): boom"
