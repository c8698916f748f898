"""Config dataclasses: each int or float setting is checked for its type and
declared range, and `load_run_config` either returns or raises ConfigError."""

import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikegrow import (
    ConfigError,
    GeneratorConfig,
    GrowthConfig,
    LifParams,
    PruningConfig,
    SplitConfig,
)
from spikegrow.cli import RunConfig, load_run_config

# Config section -> (dataclass, one int field, one float field).
_CLASSES = {
    "generator": (GeneratorConfig, "d", "base_rate"),
    "growth": (GrowthConfig, "max_hidden", "target_train_accuracy"),
    "pruning": (PruningConfig, "pool_size", "weight_scale"),
    "lif": (LifParams, None, "theta"),
    "split": (SplitConfig, "seed", "test_fraction"),
}
_NOT_FINITE = [math.nan, math.inf, -math.inf]


def _field_cases(position, values):
    """(class, section, key, value) for the int (position 0) or float (1)
    field of each config class, for each value."""
    return [pytest.param(cls, section, keys[position], value,
                         id=f"{section}.{keys[position]}={value!r}")
            for section, (cls, *keys) in _CLASSES.items() if keys[position]
            for value in values]


class TestDeclaredSettings:
    @pytest.mark.parametrize("cls, section, key, value", _field_cases(
        0, [True, False, 2.5, 3.0, "3", None, *_NOT_FINITE]))
    def test_int_setting_rejects(self, cls, section, key, value):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} "):
            cls(**{key: value})

    @pytest.mark.parametrize("cls, section, key, value", _field_cases(
        1, [True, "0.5", None, *_NOT_FINITE]))
    def test_float_setting_rejects(self, cls, section, key, value):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} "):
            cls(**{key: value})

    @pytest.mark.parametrize("cls, key, value", [
        (GeneratorConfig, "jitter", 1),
        (GrowthConfig, "target_train_accuracy", 1),
        (PruningConfig, "weight_scale", 2),
        (LifParams, "theta", 2),
    ])
    def test_float_setting_keeps_an_int(self, cls, key, value):
        got = getattr(cls(**{key: value}), key)
        assert got == value and type(got) is int

    def test_huge_int_is_not_a_finite_number(self):
        with pytest.raises(ConfigError, match=r"^lif\.dt "):
            LifParams(dt=10**400)

    @pytest.mark.parametrize("cls, key", [
        (GrowthConfig, "rng_seed"), (GeneratorConfig, "rng_seed"),
        (SplitConfig, "seed")])
    def test_seeds_are_non_negative(self, cls, key):
        assert getattr(cls(**{key: 0}), key) == 0
        with pytest.raises(ConfigError, match=r">= 0"):
            cls(**{key: -1})

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            GrowthConfig(max_hidden=0)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([0, -1, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4))


@st.composite
def _configs(draw):
    """A config document with up to two valid keys per section, each holding
    its default or any JSON scalar (the generator's `stages` also a list of
    them)."""
    doc = {}
    for section, (cls, *_) in _CLASSES.items():
        defaults = {f.name: f.default for f in fields(cls)
                    if f.name not in _CLASSES}
        if section == "generator":
            defaults["stages"] = [5, 10, 15, 20]
        keys = draw(st.lists(st.sampled_from(sorted(defaults)), unique=True,
                             max_size=2))
        doc[section] = {key: draw(st.one_of(
            st.just(defaults[key]), _SCALARS,
            st.lists(_SCALARS, max_size=3) if key == "stages" else _SCALARS))
            for key in keys}
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=_configs())
def test_config_values_load_or_raise_config_error(tmp_path_factory, doc):
    """Any value for any valid key: the config loads, holding exactly the
    values given, or is rejected with ConfigError."""
    p = tmp_path_factory.getbasetemp() / "config.json"
    p.write_text(json.dumps(doc))
    try:
        run = load_run_config(str(p))
    except ConfigError:
        return
    assert isinstance(run, RunConfig)
    loaded = {"generator": run.generator, "growth": run.growth,
              "pruning": run.growth.pruning, "lif": run.growth.lif,
              "split": run.split}
    for section, values in doc.items():
        for key, value in values.items():
            got = run.stages if key == "stages" else \
                getattr(loaded[section], key)
            assert got == value and type(got) is type(value)
