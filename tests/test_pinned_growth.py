"""Growth decisions pinned on four small runs.

For each run: the units grown (`n_hidden`), the size of the returned
best-test-accuracy snapshot (`best_n`) and the stop status, and per growth
attempt the winner's pool index (None for a saturated attempt), the rounds
it took (0 for a unit taken from the previous winner's kept pool), and the
trace's train and test accuracy. A changed rng draw order, selection score,
tie-break, contraction target, pool reuse or snapshot choice moves a pin.

The pins are decisions, not checkpoint bytes: they survive last-bit BLAS
differences between machines except on near-ties of the certificate. The
benchmark's `outputs` check covers byte identity.
"""

import numpy as np
import pytest

import spikegrow.learner
from spikegrow import (
    GeneratorConfig,
    GrowthConfig,
    PruningConfig,
    encode_targets,
    generate_family,
    split_train_test,
    train_experienced,
    train_fresh,
)
from spikegrow.learner import _CERT_RTOL, STATUS_SATURATED, Network
from spikegrow.readout import fit_output_weights


def _cfg(**kwargs):
    defaults = dict(target_train_accuracy=1.0, max_hidden=40, eval_every=1,
                    patience=4, pruning=PruningConfig(pool_size=30),
                    rng_seed=3)
    defaults.update(kwargs)
    return GrowthConfig(**defaults)


def _splits(stages, seed=11, **generator):
    """(train, test) of each stage of a generated family."""
    cfg = GeneratorConfig(**dict(dict(d=16, T=25, categories=10,
                                      samples_per_category=40, separation=0.7,
                                      rng_seed=seed), **generator))
    return [split_train_test(s, 0.2, seed)
            for s in generate_family(cfg, stages).stages]


def fresh():
    [(train, test)] = _splits([5])
    return train_fresh(train, test, _cfg())


def experienced():
    """A fresh seed on five categories, grown on the enlarged ten."""
    (tr5, te5), (tr10, te10) = _splits([5, 10])
    seed, _ = train_fresh(tr5, te5, _cfg(max_hidden=12, patience=100))
    return train_experienced(seed, tr10, te10, _cfg(max_hidden=30))


def saturating():
    """Two channels of three steps and a demanding sigma0: after two units
    a fresh pool certifies none, and the first pool's winner is tied."""
    [(train, test)] = _splits([4], seed=2, d=2, T=3, categories=4,
                              samples_per_category=10)
    pruning = PruningConfig(pool_size=20, sigma0=0.95)
    return train_fresh(train, test, _cfg(max_hidden=20, patience=100,
                                         pruning=pruning, rng_seed=1))


def repeated_unit(target_train_accuracy=0.9):
    """The seed of TestIncrementalResidual: a grown network plus a repeat
    of its first unit, which adds no direction to the QR factors."""
    (tr5, te5), (tr10, te10) = _splits([5, 10])
    cfg = _cfg(target_train_accuracy=target_train_accuracy, max_hidden=150,
               patience=10, pruning=PruningConfig(pool_size=30))
    grown, _ = train_fresh(tr5, te5, cfg)
    hidden = grown.hidden + [grown.hidden[0]]
    H5 = Network(grown.d, grown.lif, hidden,
                 np.zeros((len(hidden), grown.m)), grown.categories
                 ).features(tr5)
    seed = Network(grown.d, grown.lif, hidden,
                   fit_output_weights(H5, encode_targets(tr5)),
                   grown.categories, lineage=grown.lineage)
    return train_experienced(seed, tr10, te10, cfg)


RUNS = {"fresh": fresh, "experienced": experienced, "saturating": saturating,
        "repeated_unit": repeated_unit}


def decisions(run, monkeypatch) -> dict:
    """The pinned decisions of a run's last growth (a seed's own growth is
    not pinned): a step is (pool_index, rounds_used, train_accuracy,
    test_accuracy); a saturated attempt ends the steps as (None, rounds)."""
    attempts = []
    original = spikegrow.learner.grow_one

    def recorded(*args, **kwargs):
        outcome = original(*args, **kwargs)
        attempts.append((None if outcome.saturated
                         else outcome.selection.winner.pool_index,
                         outcome.rounds_used))
        return outcome

    monkeypatch.setattr(spikegrow.learner, "grow_one", recorded)
    net, trace = run()
    # One attempt per record, then a saturated one or none; any earlier
    # attempts grew the seed.
    ours = attempts[len(attempts) - len(trace.records)
                    - (trace.status == STATUS_SATURATED):]
    steps = [(*attempt, rec.train_accuracy, rec.test_accuracy)
             for attempt, rec in zip(ours, trace.records)]
    return {"n_hidden": trace.final_neurons, "best_n": net.n_hidden,
            "status": trace.status, "steps": steps + ours[len(steps):]}


# Recorded when growth began to re-score the winner's kept pool at sigma0
# before drawing another; `saturating` when an attempt came to draw at most
# one pool.
PINS = {
    "fresh": {
        "n_hidden": 7, "best_n": 7, "status": "TargetReached",
        "steps": [
            (2, 1, 0.2, 0.2),
            (10, 0, 0.4, 0.4),
            (25, 1, 0.7, 0.7),
            (28, 0, 0.89375, 0.875),
            (5, 1, 0.925, 0.9),
            (21, 0, 0.975, 0.975),
            (26, 1, 1.0, 1.0),
        ],
    },
    "experienced": {
        "n_hidden": 14, "best_n": 10, "status": "Patience",
        "steps": [
            (24, 1, 0.83125, 0.85),
            (16, 0, 0.871875, 0.875),
            (15, 1, 0.965625, 0.975),
            (26, 0, 0.98125, 0.925),
            (22, 1, 0.978125, 0.9375),
            (11, 0, 0.9875, 0.95),
            (18, 1, 0.996875, 0.9625),
        ],
    },
    "saturating": {
        "n_hidden": 2, "best_n": 1, "status": "Saturated",
        "steps": [
            (8, 1, 0.34375, 0.125),
            (2, 0, 0.4375, 0.125),
            (None, 1),
        ],
    },
    "repeated_unit": {
        "n_hidden": 9, "best_n": 9, "status": "TargetReached",
        "steps": [
            (24, 1, 0.753125, 0.775),
            (12, 0, 0.85, 0.7875),
            (15, 1, 0.934375, 0.9),
        ],
    },
}


@pytest.mark.parametrize("name", RUNS)
def test_growth_decisions_pinned(name, monkeypatch):
    assert decisions(RUNS[name], monkeypatch) == PINS[name]


@pytest.mark.parametrize("name", RUNS)
def test_certificate_is_tight(name, monkeypatch):
    """Growth scores a pool by the gain of the update it applies, so on
    every step of a pinned run the realised gain prev_sq - sq_norm equals
    the winner's certified `error_gain` up to rounding."""
    attempts = []
    original = spikegrow.learner.grow_one

    def recorded(E, *args, **kwargs):
        outcome = original(E, *args, **kwargs)
        attempts.append((float(np.sum(E * E)), outcome))
        return outcome

    monkeypatch.setattr(spikegrow.learner, "grow_one", recorded)
    _, trace = RUNS[name]()
    ours = attempts[len(attempts) - len(trace.records)
                    - (trace.status == STATUS_SATURATED):]
    assert trace.records
    for (prev_sq, outcome), rec in zip(ours, trace.records):
        realised = prev_sq - rec.sq_norm
        assert abs(realised - outcome.selection.error_gain) \
            <= _CERT_RTOL * prev_sq
