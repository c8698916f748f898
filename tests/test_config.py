"""Config dataclasses: each int or float setting is checked for its type and
declared range, and `load_run_config` either returns or raises ConfigError."""

import json
import math
import re
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

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
from spikegrow._util import SIZE_MAX
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

    @pytest.mark.parametrize("cls, key", [
        (GeneratorConfig, "d"), (GeneratorConfig, "T"),
        (GeneratorConfig, "categories"),
        (GeneratorConfig, "samples_per_category"),
        (GrowthConfig, "max_hidden"), (GrowthConfig, "patience"),
        (GrowthConfig, "eval_every"), (PruningConfig, "pool_size")])
    def test_sizes_stop_at_size_max(self, cls, key):
        assert getattr(cls(**{key: SIZE_MAX}), key) == SIZE_MAX
        for value in (SIZE_MAX + 1, 10**30):
            with pytest.raises(ConfigError, match=rf"<= {SIZE_MAX}, got"):
                cls(**{key: value})

    @pytest.mark.parametrize("cls, key", [
        (GrowthConfig, "rng_seed"), (GeneratorConfig, "rng_seed"),
        (SplitConfig, "seed")])
    def test_seeds_have_no_upper_bound(self, cls, key):
        assert getattr(cls(**{key: 10**30}), key) == 10**30

    def test_weight_range_stays_finite(self):
        """weight_scale stops at half the largest float, so the range
        2 * weight_scale that a pool is drawn over is finite."""
        top = sys.float_info.max / 2
        assert PruningConfig(weight_scale=top).weight_scale == top
        for value in (math.nextafter(top, math.inf), 10**308):
            with pytest.raises(ConfigError, match=r"^pruning\.weight_scale .* "
                               + re.escape(f"<= {top}, ")):
                PruningConfig(weight_scale=value)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            GrowthConfig(max_hidden=0)

    @pytest.mark.parametrize("section", list(_CLASSES))
    def test_settings_are_frozen_after_the_check(self, section):
        """A checked config cannot be given an unchecked value later."""
        cls, key, float_key = _CLASSES[section]
        config = cls()
        with pytest.raises(FrozenInstanceError):
            setattr(config, key or float_key, -5)
        assert getattr(config, key or float_key) == getattr(cls(), key or float_key)


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


def test_readme_config_block_matches_the_dataclasses():
    """The defaults block under README's "Config file" holds exactly each
    section's settings (the generator's also `stages`) at their defaults,
    and each of them has a row in the ranges table below it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
    block = json.loads(re.search(r"```json\n(.*?)```", section, re.S)[1])
    rows = {(name, key) for name, keys in
            re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, re.M)
            for key in re.findall(r"`(\w+)`", keys)}
    assert block.keys() == _CLASSES.keys()
    for name, (cls, *_) in _CLASSES.items():
        defaults = {f.name: f.default for f in fields(cls)
                    if f.name not in _CLASSES}
        if name == "generator":
            defaults["stages"] = load_run_config(None).stages
        assert block[name] == defaults, name
        assert {(name, key) for key in defaults} <= rows, name
