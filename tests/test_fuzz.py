"""Fuzzing of the parsers: any input gives a ValueError or a valid object.

Each test feeds either arbitrary input or a valid input with one part
mutated, and checks that the parser rejects it with a ValueError or
returns an object whose serialized form parses back to an equal object.
"""

import json
import warnings

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from strategies import parent_vectors

from seed_archeology.experiment import config_from_dict
from seed_archeology.rng import RngHandle
from seed_archeology.trees import (
    ArrivalTree,
    SeedSpec,
    ShapeView,
    _read_rows,
    build_seed,
    scramble,
)

#: Characters that tree text is made of, plus a few that it must reject.
_TREE_CHARS = st.sampled_from(list("0123456789 nl=\n\t\r+-#x.") + ["\xa0", "١"])
_tree_like_text = st.text(_TREE_CHARS, max_size=60)
#: Small labels, and integers either side of the int64 bounds.
_fields = st.one_of(
    st.integers(-2, 15),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]),
    st.integers(-(2**70), 2**70),
)
_any_line = st.one_of(
    _tree_like_text,
    st.text(max_size=20),
    st.tuples(_fields, _fields).map(lambda pair: f"{pair[0]} {pair[1]}"),
)


def _valid_lines(kind: str, parents) -> list[str]:
    tree = build_seed(SeedSpec.custom(parents), RngHandle(0))
    if kind == "arrival":
        return tree.to_text().splitlines()
    return scramble(tree, RngHandle(1)).to_text().splitlines()


@st.composite
def _mutated_text(draw, kind: str) -> str:
    lines = _valid_lines(kind, draw(parent_vectors(min_n=2, max_n=12)))
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["replace", "delete", "duplicate", "insert"]))
    if action == "replace":
        lines[i] = draw(_any_line)
    elif action == "delete":
        del lines[i]
    elif action == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines.insert(i, draw(_any_line))
    return "\n".join(lines) + "\n"


def _parse(parse, text):
    """`parse(text)`, or None on a ValueError; a warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse(text)
        except ValueError:
            return None


def _check_arrival(text: str) -> None:
    tree = _parse(ArrivalTree.from_text, text)
    if tree is not None:
        assert ArrivalTree.from_text(tree.to_text()) == tree


def _check_shape(text: str) -> None:
    view = _parse(ShapeView.from_text, text)
    if view is None:
        return
    back = ShapeView.from_text(view.to_text())
    assert back.n == view.n
    assert oracles.edge_list(back) == oracles.edge_list(view)


class TestArrivalTreeText:
    @given(text=st.one_of(_tree_like_text, st.text()))
    def test_arbitrary_text(self, text):
        _check_arrival(text)

    @given(text=_tree_like_text.map(lambda body: "n=4 l=2\n" + body))
    def test_arbitrary_rows(self, text):
        _check_arrival(text)

    @given(text=_mutated_text("arrival"))
    def test_one_line_mutated(self, text):
        _check_arrival(text)


class TestShapeViewText:
    @given(text=st.one_of(_tree_like_text, st.text()))
    def test_arbitrary_text(self, text):
        _check_shape(text)

    @given(text=_tree_like_text.map(lambda body: "n=4\n" + body))
    def test_arbitrary_rows(self, text):
        _check_shape(text)

    @given(text=_mutated_text("shape"))
    def test_one_line_mutated(self, text):
        _check_shape(text)


# ---------------------------------------------------------------------------
# the row reader against the reader it replaced

#: Whitespace by str.isspace that is not ASCII blank, newline or tab.
_ODD_SPACES = list("\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003")
_READER_CHARS = st.one_of(_TREE_CHARS, st.sampled_from(_ODD_SPACES))
_blanks = [" ", "\t"] + _ODD_SPACES
_spaces = st.text(st.sampled_from(["\n", "\r"] + _blanks), max_size=3)
_gap = st.text(st.sampled_from(_blanks), min_size=1, max_size=3)


@st.composite
def _spaced_table(draw) -> str:
    """A header and rows of small fields, every gap a random whitespace
    run: mostly valid tree text, in every spacing the reader must take."""
    n = draw(st.integers(1, 5))
    row_count = max(0, n - 1 + draw(st.integers(-1, 1)))
    field = st.one_of(
        st.integers(-3, 9).map(str), st.sampled_from(["+1", "07", "1.0", "x"])
    )
    parts = [draw(_spaces), f"n={n}", draw(_spaces), "\n"]
    for _ in range(row_count):
        fields = draw(st.lists(field, min_size=1, max_size=3))
        line = fields[0] + "".join(draw(_gap) + f for f in fields[1:])
        parts += [draw(_spaces), line, draw(_spaces), "\n"]
    return "".join(parts) + draw(_spaces)


def _read_or_error(read, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read(text)
        except ValueError:
            return ValueError


class TestReadRowsAgainstReference:
    @given(
        text=st.one_of(
            st.text(_READER_CHARS, max_size=80),
            st.text(_READER_CHARS, max_size=60).map(lambda body: "n=3\n" + body),
            _spaced_table(),
            _mutated_text("arrival"),
            _mutated_text("shape"),
        )
    )
    @example(text="n=3\n1 2\n2 3\n\x1c\x85\u2003")
    @example(text="\x0b n=1 \n\xa0\n")
    @example(text="n=2\x1f\n1\xa02\x85\n")
    def test_same_language(self, text):
        got = _read_or_error(_read_rows, text)
        want = _read_or_error(oracles.read_rows_reference, text)
        if want is ValueError or got is ValueError:
            assert got is want
        else:
            assert got[:2] == want[:2]
            assert got[2].dtype == want[2].dtype
            assert np.array_equal(got[2], want[2])


# ---------------------------------------------------------------------------
# config_from_dict

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([float("nan"), float("inf")])
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _valid_config(custom: bool) -> dict:
    seed = (
        {"kind": "custom", "parents": [1, 1, 2, 3]}
        if custom
        else {"kind": "star", "l": 5}
    )
    return {
        "schema_version": 1,
        "seed_spec": seed,
        "n": 40,
        "finder": "star",
        "params": {"gamma": 0.5, "epsilon": 0.1, "jog_loh_c": 1.0},
        "trials": 3,
        "master_seed": 7,
        "parallelism": 1,
        "output_path": "trials.csv",
    }


@st.composite
def _mutated_config(draw) -> dict:
    raw = _valid_config(custom=draw(st.booleans()))
    section = draw(st.sampled_from(["top", "seed_spec", "params"]))
    target = raw if section == "top" else raw[section]
    key = draw(st.sampled_from(sorted(target) + ["extra"]))
    if key in target and draw(st.booleans()):
        del target[key]
    elif key == "parents" and draw(st.booleans()):
        parents = target["parents"]
        parents[draw(st.integers(0, len(parents) - 1))] = draw(_json_values)
    else:
        target[key] = draw(_json_values)
    return raw


def _check_config(raw: dict) -> None:
    config = _parse(config_from_dict, raw)
    if config is None:
        return
    again = config_from_dict(json.loads(json.dumps(config.to_dict())))
    assert again == config


class TestConfigFromDict:
    @given(raw=st.dictionaries(st.text(max_size=12), _json_values, max_size=6))
    def test_arbitrary_dict(self, raw):
        _check_config(raw)

    @given(raw=_mutated_config())
    def test_one_field_mutated(self, raw):
        _check_config(raw)
