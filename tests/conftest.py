import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from spikegrow import GeneratorConfig, LabeledDataset, generate_family


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
