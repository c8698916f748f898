"""End-to-end acceptance gate; each test prints a PASS line for its criterion."""

import json
import time

import numpy as np
import pytest

from conftest import make_dataset
from oracles import (
    lif_unroll,
    normal_equations_lstsq,
    single_unit_update_sq_norm,
    spike_count_classifier_accuracy,
)
from spikegrow import (
    GeneratorConfig,
    GrowthConfig,
    LifParams,
    PruningConfig,
    encode_targets,
    evaluate,
    generate_family,
    load_dataset,
    load_network,
    one_loop_adapt,
    save_dataset,
    save_network,
    split_train_test,
    train_experienced,
    train_fresh,
    xi_index,
)
from spikegrow.cli import main as cli_main
from spikegrow.construct import select_best
from spikegrow.dataset import DataFormatError
from spikegrow.errors import ChecksumError
from spikegrow.learner import (
    STATUS_TARGET,
    HiddenNeuron,
    Network,
    network_to_bytes,
)
from spikegrow.lif import simulate_neuron
from spikegrow.readout import fit_output_weights


def report(name, detail=""):
    print(f"ACCEPTANCE PASS: {name} {detail}".rstrip())


def test_criterion_1_lif_oracle_equivalence():
    """1000 random small instances match a step-by-step scalar evaluator."""
    rng = np.random.default_rng(2024)
    params = LifParams(dt=1.0, tau_syn=5.0, tau_mem=10.0, theta=1.0)
    start = time.perf_counter()
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        T = int(rng.integers(1, 33))
        x = (rng.random((d, T)) < 0.4).astype(np.uint8)
        w = rng.uniform(-1, 1, d)
        v = float(rng.uniform(-1, 1))
        got = simulate_neuron(x, w, v, params).bits.tolist()
        expected = lif_unroll(x.tolist(), w.tolist(), v,
                              params.dt, params.tau_syn, params.tau_mem,
                              params.theta)
        assert got == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("1 LIF oracle equivalence", f"({elapsed:.2f}s for 1000 instances)")


def test_criterion_2_residual_monotonicity():
    """Every accepted step shrinks the squared residual within sigma."""
    for seed in range(5):
        cfg = GeneratorConfig(d=16, T=25, categories=5,
                              samples_per_category=30, base_rate=0.2,
                              separation=0.6, jitter=0.1, rng_seed=300 + seed)
        ds = generate_family(cfg, [5]).stages[0]
        train, test = split_train_test(ds, 0.2, seed)
        growth = GrowthConfig(target_train_accuracy=0.98, max_hidden=120,
                              eval_every=1, rng_seed=seed)
        start = time.perf_counter()
        _, trace = train_fresh(train, test, growth)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        prev = float(np.sum(encode_targets(train) ** 2))
        assert trace.records
        for r in trace.records:
            assert r.sq_norm < prev
            assert r.sq_norm <= r.sigma_used * prev * (1 + 1e-9)
            prev = r.sq_norm
    report("2 residual monotonicity", "(5 seeded fresh runs)")


def test_criterion_3_xi_certificate_soundness():
    """xi >= 0 certifies the sigma contraction; rejection implies violation."""
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    for _ in range(500):
        N = int(rng.integers(2, 40))
        m = int(rng.integers(1, 6))
        E = rng.normal(size=(N, m)) * rng.uniform(0.1, 5)
        h = rng.normal(size=N)
        sigma = float(rng.uniform(0.05, 0.999))
        xi = xi_index(E, h, sigma)
        new_sq = single_unit_update_sq_norm(E, h)
        bound = sigma * float(np.sum(E * E))
        if xi >= 0:
            assert new_sq <= bound * (1 + 1e-9) + 1e-12
        else:
            assert new_sq > bound * (1 - 1e-9) - 1e-12
    # Whole-pool rejection: every candidate must individually violate sigma.
    from spikegrow.construct import KeptPool
    for trial in range(50):
        N, m = 6, 2
        E = rng.normal(size=(N, m))
        pool = KeptPool(None, np.arange(8), rng.normal(size=(8, N)), 0)
        sigma = float(rng.uniform(0.05, 0.5))
        if select_best(pool, E, sigma) is None:
            total = float(np.sum(E * E))
            for _, h in pool:
                assert single_unit_update_sq_norm(E, h) > sigma * total * (1 - 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("3 xi-certificate soundness", f"({elapsed:.2f}s)")


def test_criterion_4_least_squares_correctness():
    """Orthogonality and agreement with the normal-equations oracle."""
    rng = np.random.default_rng(4)
    for _ in range(100):
        N = int(rng.integers(2, 51))
        n = int(rng.integers(1, min(N, 20) + 1))
        m = int(rng.integers(1, 5))
        H = rng.normal(size=(N, n))
        F = rng.normal(size=(N, m))
        beta = fit_output_weights(H, F)
        E = F - H @ beta
        for q in range(m):
            for j in range(n):
                bound = 1e-6 * np.linalg.norm(E[:, q]) * np.linalg.norm(H[:, j])
                assert abs(E[:, q] @ H[:, j]) <= max(bound, 1e-10)
        if np.linalg.matrix_rank(H) == n:
            oracle = normal_equations_lstsq(H, F)
            assert np.allclose(beta, oracle, rtol=1e-8, atol=1e-8)
    report("4 least-squares correctness", "(100 random systems)")


def _transfer_stages(seed):
    cfg = GeneratorConfig(d=16, T=25, categories=10, samples_per_category=40,
                          base_rate=0.2, separation=0.7, jitter=0.1,
                          rng_seed=500 + seed)
    s5, s10 = generate_family(cfg, [5, 10]).stages
    return split_train_test(s5, 0.2, seed), split_train_test(s10, 0.2, seed)


def test_criterion_5_knowledge_transfer():
    """One-loop beats 2x chance; experienced growth adds fewer neurons."""
    start = time.perf_counter()
    one_loop_accs = []
    wins = 0
    for seed in range(5):
        (tr5, te5), (tr10, te10) = _transfer_stages(seed)
        # Independent separability check before trusting the threshold.
        assert spike_count_classifier_accuracy(tr10, te10) > 0.5
        growth = GrowthConfig(target_train_accuracy=0.95, max_hidden=200,
                              eval_every=1, rng_seed=seed)
        seed_net, seed_trace = train_fresh(tr5, te5, growth)
        assert seed_trace.status == STATUS_TARGET
        adapted = one_loop_adapt(seed_net, tr10)
        acc = evaluate(adapted, te10).accuracy
        one_loop_accs.append(acc)
        exp_net, exp_trace = train_experienced(seed_net, tr10, te10, growth)
        fresh_net, fresh_trace = train_fresh(tr10, te10, growth)
        assert exp_trace.status == STATUS_TARGET
        assert fresh_trace.status == STATUS_TARGET
        if exp_trace.added_neurons < fresh_trace.added_neurons:
            wins += 1
    elapsed = time.perf_counter() - start
    assert all(a > 0.20 for a in one_loop_accs), one_loop_accs
    assert wins >= 4, f"experienced won only {wins}/5 pairs"
    assert elapsed < 600.0
    report("5 knowledge transfer",
           f"(one-loop accs {['%.2f' % a for a in one_loop_accs]}, "
           f"wins {wins}/5, {elapsed:.1f}s)")


def test_criterion_6_freeze_invariance(tmp_path):
    """Frozen prefix weights stay bit-identical to the seed checkpoint."""
    (tr5, te5), (tr10, te10) = _transfer_stages(7)
    growth = GrowthConfig(target_train_accuracy=0.95, max_hidden=200,
                          eval_every=1, rng_seed=7)
    seed_net, _ = train_fresh(tr5, te5, growth)
    seed_path = tmp_path / "seed.net"
    save_network(seed_net, str(seed_path))
    exp_net, _ = train_experienced(seed_net, tr10, te10, growth)
    reloaded = load_network(str(seed_path))
    assert exp_net.frozen_prefix == reloaded.n_hidden
    for a, b in zip(reloaded.hidden, exp_net.hidden):
        assert a.w.tobytes() == b.w.tobytes()
        assert a.v == b.v
    report("6 freeze invariance")


def test_criterion_7_thread_determinism(tmp_path):
    """--threads 1 and --threads 8 give bit-identical checkpoints/traces."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "generator": {"d": 12, "T": 20, "categories": 3,
                      "samples_per_category": 16, "base_rate": 0.2,
                      "separation": 0.8, "jitter": 0.1, "rng_seed": 2,
                      "stages": [3]},
        "growth": {"target_train_accuracy": 0.95, "max_hidden": 60,
                   "eval_every": 1, "rng_seed": 9},
        "split": {"test_fraction": 0.25, "seed": 4},
    }))
    assert cli_main(["gen-data", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "data")]) == 0
    ds = str(tmp_path / "data" / "stage-3.ds")
    outputs = {}
    for threads in ("1", "8"):
        net = tmp_path / f"t{threads}.net"
        trace = tmp_path / f"t{threads}.trace"
        assert cli_main(["train-fresh", "--config", str(cfg_path),
                         "--dataset", ds, "--threads", threads,
                         "--out-checkpoint", str(net),
                         "--out-trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        for rec in doc["records"]:
            rec.pop("elapsed_seconds")
        outputs[threads] = (net.read_bytes(), doc)
    assert outputs["1"][0] == outputs["8"][0]
    assert outputs["1"][1] == outputs["8"][1]
    report("7 determinism under parallelism")


def test_criterion_8_serialization_round_trips(tmp_path):
    """100 randomized round-trips plus corruption negatives."""
    rng = np.random.default_rng(88)
    for k in range(50):
        ds = make_dataset(n_per_cat=int(rng.integers(1, 4)),
                          n_cats=int(rng.integers(1, 4)),
                          d=int(rng.integers(1, 6)),
                          T=int(rng.integers(1, 12)), seed=k)
        p = tmp_path / f"ds{k}.ds"
        save_dataset(ds, str(p))
        assert load_dataset(str(p)) == ds
    for k in range(50):
        n, d, m = (int(rng.integers(0, 5)), int(rng.integers(1, 6)),
                   int(rng.integers(1, 4)))
        hidden = [HiddenNeuron(rng.normal(size=d), float(rng.normal()))
                  for _ in range(n)]
        net = Network(d, LifParams(), hidden, rng.normal(size=(n, m)),
                      list(range(m)), frozen_prefix=min(n, 1))
        p = tmp_path / f"net{k}.net"
        save_network(net, str(p))
        assert load_network(str(p)) == net
    # Corruption negatives.
    ds = make_dataset()
    dsp = tmp_path / "corrupt.ds"
    save_dataset(ds, str(dsp))
    lines = dsp.read_text().splitlines()
    dsp.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataFormatError):
        load_dataset(str(dsp))
    net = Network(3, LifParams(), [HiddenNeuron(np.ones(3), 0.5)],
                  np.ones((1, 2)), [0, 1])
    netp = tmp_path / "corrupt.net"
    save_network(net, str(netp))
    blob = bytearray(netp.read_bytes())
    blob[-40] ^= 0x01
    netp.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_network(str(netp))
    report("8 serialization round-trips", "(100 instances + negatives)")


def test_criterion_9_adaptivity_trend():
    """Median neurons-to-target is non-decreasing in category count."""
    medians = []
    for n_cats in (5, 10, 15):
        counts = []
        for seed in range(3):
            cfg = GeneratorConfig(d=16, T=25, categories=n_cats,
                                  samples_per_category=20, base_rate=0.2,
                                  separation=0.6, jitter=0.1,
                                  rng_seed=900 + seed)
            ds = generate_family(cfg, [n_cats]).stages[0]
            train, test = split_train_test(ds, 0.2, seed)
            growth = GrowthConfig(target_train_accuracy=0.9, max_hidden=300,
                                  eval_every=1, rng_seed=seed)
            _, trace = train_fresh(train, test, growth)
            counts.append(trace.final_neurons if trace.status == STATUS_TARGET
                          else growth.max_hidden)
        medians.append(float(np.median(counts)))
    assert all(b >= a for a, b in zip(medians, medians[1:])), medians
    report("9 adaptivity trend", f"(medians {medians})")
