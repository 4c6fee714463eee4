"""Input contract of the JSON loaders: every document either loads or raises InputError."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillgaps import InputError, Potential, make_weight, potential_from_dict
from hillgaps.sequence_spaces import WEIGHT_KINDS, Weight

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1", "2.5", "-3", "1e400", "nan", "inf", "x"])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
NUMBERS = st.integers(-50, 50) | st.floats() | JSON

COEFF = st.fixed_dictionaries({"k": st.integers(-2, 40)}, optional={"re": NUMBERS, "im": NUMBERS}) | (
    st.fixed_dictionaries({}, optional={"k": JSON, "re": NUMBERS, "im": NUMBERS})
)
POTENTIALS = (
    st.fixed_dictionaries({"coeffs": st.lists(COEFF, max_size=4)}, optional={"mean": NUMBERS})
    | st.fixed_dictionaries(
        {}, optional={"mean": NUMBERS, "coeffs": st.lists(COEFF | JSON, max_size=4) | JSON}
    )
    | JSON
)

TABLE_KEYS = st.integers(-1, 6).map(str) | st.text(max_size=3)
WEIGHTS = (
    st.fixed_dictionaries(
        {"kind": st.sampled_from(WEIGHT_KINDS)},
        optional={
            "s": NUMBERS,
            "r": st.lists(NUMBERS, max_size=5) | NUMBERS,
            "values": st.lists(NUMBERS, max_size=5) | st.dictionaries(TABLE_KEYS, NUMBERS, max_size=5) | JSON,
        },
    )
    | st.fixed_dictionaries({}, optional={"kind": JSON, "s": NUMBERS, "values": JSON})
    | JSON
)


@settings(max_examples=300, deadline=None)
@given(POTENTIALS)
def test_potential_from_dict_loads_or_raises_input_error(doc):
    try:
        assert isinstance(potential_from_dict(doc), Potential)
    except InputError:
        pass


@settings(max_examples=300, deadline=None)
@given(WEIGHTS)
def test_make_weight_loads_or_raises_input_error(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a table value at k=0 warns and is dropped
        try:
            assert isinstance(make_weight(spec), Weight)
        except InputError:
            pass


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"coeffs": [{"k": "x"}]}, "'k' must be an integer"),
        ({"coeffs": [{"k": 1.5, "re": 0.1}]}, "'k' must be an integer"),
        ({"coeffs": [{"k": True, "re": 0.1}]}, "'k' must be an integer"),
        ({"coeffs": [{"k": 1, "re": None}]}, "'re' must be a number"),
        ({"coeffs": [{"k": 1, "im": "abc"}]}, "'im' must be a number"),
        ({"mean": 10**400}, "mean must be a number"),
    ],
)
def test_potential_from_dict_rejections(doc, match):
    with pytest.raises(InputError, match=match):
        potential_from_dict(doc)


def test_potential_from_dict_accepts_integral_k():
    assert potential_from_dict({"coeffs": [{"k": 2.0, "re": 0.1}]}) == potential_from_dict(
        {"coeffs": [{"k": 2, "re": 0.1}]}
    )


@pytest.mark.parametrize(
    "spec, match",
    [
        ({"kind": "power", "s": "abc"}, "s must be a number"),
        ({"kind": "power", "s": None}, "s must be a number"),
        ({"kind": "log_power", "s": 1.0, "r": [2.0, "x"]}, "exponent must be a number"),
        ({"kind": "log_power", "s": 1.0, "r": {"a": 1}}, "exponent must be a number"),
        ({"kind": "table", "values": [1.0, None]}, "value at k=2 must be a number"),
        ({"kind": "table", "values": {"x": 1.0}}, "index must be an integer"),
        ({"kind": "table", "values": 5}, "nonempty 'values' list"),
    ],
)
def test_make_weight_rejections(spec, match):
    with pytest.raises(InputError, match=match):
        make_weight(spec)


def test_table_weight_from_array():
    assert make_weight({"kind": "table", "values": np.array([2.0, 3.0])}).table == (2.0, 3.0)


def test_table_weight_mapping_with_string_keys():
    with pytest.warns(UserWarning, match="k=0"):
        w = make_weight({"kind": "table", "values": {"0": 9.0, "2": 3.0, "1": 2.0}})
    assert w.table == (2.0, 3.0)
