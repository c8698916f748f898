import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from spikegrow import (
    GeneratorConfig,
    GrowthConfig,
    LabeledDataset,
    PruningConfig,
    generate_family,
    split_train_test,
    train_fresh,
)

# A failing property prints a blob that `@reproduce_failure` replays; every
# other setting, max_examples included, stays hypothesis's default.
settings.register_profile("spikegrow", print_blob=True)
settings.load_profile("spikegrow")


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Import hypothesis's failing-example patch writer before its plugin
    does, with DeprecationWarning ignored: the import (libcst, then
    mypy_extensions) warns, and under `filterwarnings = error` the plugin's
    report of a failing property became an INTERNALERROR that ended the
    session before the failure and its blob were printed."""
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass


def failed_reuse_run():
    """A fresh run to 20 units on pools of 10, on the `capacity` benchmark's
    narrow, short trains. Its tight sigma0 leaves one kept pool certifying
    none, so step 6 draws a fresh pool right after step 5 drew one.
    Returns (net, trace)."""
    gen = GeneratorConfig(d=32, T=10, categories=5, samples_per_category=40,
                          separation=0.05, rng_seed=1)
    (ds,) = generate_family(gen, [5]).stages
    train, test = split_train_test(ds, 0.2, 1)
    cfg = GrowthConfig(target_train_accuracy=1.0, max_hidden=20,
                       patience=1000, rng_seed=1,
                       pruning=PruningConfig(pool_size=10, sigma0=0.995))
    return train_fresh(train, test, cfg)


def float_bits(a):
    """An array's float64 bit patterns, with -0.0 read as +0.0."""
    return (np.asarray(a, dtype=np.float64) + 0.0).view(np.uint64)


def make_dataset(n_per_cat=4, n_cats=3, d=4, T=10, seed=0):
    """Small random dataset for structural tests."""
    rng = np.random.default_rng(seed)
    spikes = (rng.random((n_cats * n_per_cat, d, T)) < 0.3).astype(np.uint8)
    label_index = np.repeat(np.arange(n_cats), n_per_cat)
    return LabeledDataset(spikes, label_index, list(range(n_cats)))


_MUTATION_BYTE = st.one_of(st.sampled_from(list(b'0123456789[], "-.e\n\r')),
                           st.integers(0, 255))


def mutated(data, valid: bytes) -> bytes:
    """`valid` after 1-3 byte edits, insertions, deletions or truncations
    drawn from a hypothesis `data` strategy."""
    blob = bytearray(valid)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["edit", "insert", "delete", "cut"]))
        pos = data.draw(st.integers(0, len(blob)))
        if kind == "edit" and pos < len(blob):
            blob[pos] = data.draw(_MUTATION_BYTE)
        elif kind == "insert":
            blob[pos:pos] = bytes(data.draw(st.lists(_MUTATION_BYTE, min_size=1,
                                                     max_size=4)))
        elif kind == "delete":
            del blob[pos:pos + data.draw(st.integers(1, 4))]
        elif kind == "cut":
            del blob[pos:]
    return bytes(blob)


@pytest.fixture
def tiny_dataset():
    return make_dataset()


@pytest.fixture
def two_class_family():
    """A clearly separable 2-category dataset, one stage."""
    cfg = GeneratorConfig(d=8, T=25, categories=2, samples_per_category=20,
                          base_rate=0.2, separation=0.9, jitter=0.05,
                          rng_seed=1)
    return generate_family(cfg, [2])
