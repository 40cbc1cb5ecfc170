"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as they
complete. The directional thresholds in criterion 6 were confirmed on the
frozen corpus below before being pinned (five-seed means: cosine 0.9238,
temporal 0.9075, cosine-without-skip 0.8150).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cogcn import (
    ModelConfig,
    SynthSpec,
    TrainConfig,
    build_cosine_graph,
    cosine_similarity_matrix,
    forward_arrays,
    init_params,
    norm_coefficients,
    loso_cv,
    param_count,
    prepare_graphs,
    synth_dataset,
    train,
    write_metrics_json,
    apply_standardizer,
    fit_standardizer,
)
from cogcn.gradcheck import run_gradcheck

GRADCHECK_SEED = 1
GRADCHECK_TOL = 1e-4
PERMUTATION_TOL = 1e-9
GRAPH_LAW_TRIALS = 200

# -- criterion 6: frozen corpus, protocol, seeds, and margins ---------------
ARM_SEEDS = (0, 1, 2, 3, 4)
COGCN_UA_FLOOR = 0.90


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_gradient_fidelity():
    t0 = time.monotonic()
    report = run_gradcheck(n_instances=20, seed=GRADCHECK_SEED)
    elapsed = time.monotonic() - t0
    ok = (
        report.passed(GRADCHECK_TOL)
        and set(report.graph_kinds) == {"cosine", "temporal"}
        and elapsed < 60.0
    )
    _report(
        "criterion 1 (gradient fidelity)",
        ok,
        f"max rel err {report.max_rel_error:.3e} < 1e-4 over "
        f"{report.n_instances} instances, {elapsed:.1f}s",
    )


def test_criterion_2_permutation_invariance():
    rng = np.random.default_rng(2024)
    cfg = ModelConfig(in_dim=5, hidden_dim=8, num_layers=3, num_classes=4,
                      dtype="float64")
    worst = 0.0
    for trial in range(100):
        params = init_params(cfg, trial % 7)
        n = int(rng.integers(2, 10))
        x = rng.standard_normal((n, 5))
        gamma = float(rng.uniform(0.2, 0.7))
        coeffs = norm_coefficients(build_cosine_graph(x, gamma),
                                   include_self=cfg.self_in_aggregation)
        _, probs, _ = forward_arrays(params, cfg, x[None], coeffs[None], mode="eval")
        perm = rng.permutation(n)
        coeffs_p = norm_coefficients(build_cosine_graph(x[perm], gamma),
                                     include_self=cfg.self_in_aggregation)
        _, probs_p, _ = forward_arrays(params, cfg, x[perm][None], coeffs_p[None], mode="eval")
        worst = max(worst, float(np.max(np.abs(probs[0] - probs_p[0]))))
    _report(
        "criterion 2 (permutation invariance)",
        worst < PERMUTATION_TOL,
        f"max prob deviation {worst:.3e} < 1e-9 over 100 permutations",
    )


def test_criterion_3_graph_laws():
    rng = np.random.default_rng(3030)
    violations = []

    for _ in range(GRAPH_LAW_TRIALS):
        x = rng.standard_normal((int(rng.integers(2, 12)), 4))
        g1, g2 = sorted(rng.uniform(-0.9, 1.0, size=2))
        if not set(build_cosine_graph(x, g2).edges()) <= set(
            build_cosine_graph(x, g1).edges()
        ):
            violations.append("monotonicity")

    for _ in range(GRAPH_LAW_TRIALS):
        x = rng.standard_normal((int(rng.integers(2, 12)), 4))
        gamma = float(rng.uniform(-0.5, 0.9))
        row = int(rng.integers(x.shape[0]))
        scaled = x.copy()
        scaled[row] *= float(rng.uniform(0.05, 20.0))
        if build_cosine_graph(x, gamma).edges() != build_cosine_graph(
            scaled, gamma
        ).edges():
            violations.append("row-scale invariance")

    for _ in range(GRAPH_LAW_TRIALS):
        x = rng.standard_normal((int(rng.integers(1, 12)), 4))
        g = build_cosine_graph(x, float(rng.uniform(-0.5, 1.0)))
        sim = cosine_similarity_matrix(x)
        if not np.array_equal(g.adjacency, g.adjacency.T) or np.any(
            np.diag(g.adjacency)
        ):
            violations.append("adjacency symmetry")
        if not np.array_equal(sim, sim.T):
            violations.append("similarity symmetry")
        if not np.array_equal(g.degree_hat, 1.0 + g.adjacency.sum(axis=1)):
            violations.append("degree_hat consistency")

    _report(
        "criterion 3 (graph-law suite)",
        not violations,
        f"0 violations over {GRAPH_LAW_TRIALS} trials per law"
        if not violations
        else f"violated: {sorted(set(violations))}",
    )


def test_criterion_4_parameter_accounting():
    base = dict(in_dim=88, hidden_dim=128, num_classes=4)
    headline = (
        param_count(ModelConfig(num_layers=2, **base)),
        param_count(ModelConfig(num_layers=3, **base)),
        param_count(ModelConfig(num_layers=3, use_pre=False, **base)),
    )
    ok = headline == (44676, 61060, 44548)

    # the count formula must agree with the entries actually allocated, and
    # the skip flag must never change it
    for k in (1, 2, 3, 4):
        for use_pre in (True, False):
            for z, d, c in ((128, 88, 4), (8, 5, 2), (16, 16, 3)):
                cfg = ModelConfig(in_dim=d, hidden_dim=z, num_layers=k,
                                  num_classes=c, use_pre=use_pre)
                ok = ok and param_count(cfg) == init_params(cfg, 0).flat.size
                ok = ok and param_count(cfg) == param_count(
                    replace(cfg, use_skip=not cfg.use_skip)
                )
    _report(
        "criterion 4 (parameter accounting)",
        ok,
        f"K=2: {headline[0]}, K=3: {headline[1]}, K=3 no-pre: {headline[2]}; "
        "formula == allocated entries; skip delta == 0",
    )


def test_criterion_5_optimization_sanity():
    t0 = time.monotonic()
    spec = SynthSpec(
        n_classes=4, n_speakers=8, utt_per_speaker=20, frames_lo=8,
        frames_hi=16, noise_frac=0.0, d=8, cluster_sep=6.0, seed=0,
    )
    dataset = synth_dataset(spec)
    holdout = dataset.speakers[-1]
    train_ids = [u.id for u in dataset.utterances if u.speaker != holdout]
    std = apply_standardizer(dataset, fit_standardizer(dataset, train_ids))
    ds_train = std.subset_speakers([s for s in std.speakers if s != holdout])
    ds_val = std.subset_speakers([holdout])
    cfg = ModelConfig(in_dim=8, hidden_dim=16, num_layers=2, num_classes=4)
    tc = TrainConfig(model=cfg, lr=1e-3, epochs=50, batch_size=32, seed=0)
    _, history = train(prepare_graphs(ds_train, 0.5, "cosine", cfg),
                       prepare_graphs(ds_val, 0.5, "cosine", cfg), tc)
    min_loss = min(s.train_loss for s in history)
    elapsed = time.monotonic() - t0
    _report(
        "criterion 5 (optimization sanity)",
        min_loss < 0.1 and elapsed < 120.0,
        f"min train loss {min_loss:.4f} < 0.1 within 50 epochs "
        f"(lr 1e-3, batch 32), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criteria 6 and 7 share the heavy LOSO comparison


def _arm_corpus(seed: int):
    return synth_dataset(
        SynthSpec(
            n_classes=4, n_speakers=8, utt_per_speaker=20, frames_lo=16,
            frames_hi=32, noise_frac=0.3, d=8, cluster_sep=3.5, seed=seed,
        )
    )


def _run_arms(out_dir, jobs: int = 1) -> dict:
    """Full LOSO with per-fold (K, gamma) selection for all three arms."""
    results = {}
    for arm, graph_kind, use_skip in (
        ("cosine", "cosine", True),
        ("temporal", "temporal", True),
        ("cosine_noskip", "cosine", False),
    ):
        means = []
        for seed in ARM_SEEDS:
            cfg = ModelConfig(in_dim=8, hidden_dim=16, num_layers=2,
                              num_classes=4, use_skip=use_skip)
            tc = TrainConfig(model=cfg, lr=1e-3, epochs=20, batch_size=32,
                             seed=seed, graph_kind=graph_kind)
            cv = loso_cv(_arm_corpus(seed), tc, jobs=jobs)
            write_metrics_json(cv, out_dir / f"{arm}_seed{seed}.json")
            means.append(cv.mean_ua)
        results[arm] = float(np.mean(means))
    return results


@pytest.fixture(scope="module")
def arm_workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("arms")


@pytest.fixture(scope="module")
def first_pass(arm_workdir):
    out = arm_workdir / "pass1"
    out.mkdir()
    t0 = time.monotonic()
    results = _run_arms(out)
    return results, time.monotonic() - t0, out


def test_criterion_6_directional_reproduction(first_pass):
    results, elapsed, _ = first_pass
    ok = (
        results["cosine"] >= COGCN_UA_FLOOR
        and results["cosine"] >= results["temporal"]
        and results["cosine"] >= results["cosine_noskip"]
        and elapsed < 900.0
    )
    _report(
        "criterion 6 (directional reproduction)",
        ok,
        f"mean UA over {len(ARM_SEEDS)} seeds: cosine {results['cosine']:.4f} "
        f">= max(0.90, temporal {results['temporal']:.4f}) and "
        f">= no-skip {results['cosine_noskip']:.4f}; {elapsed:.0f}s",
    )


def test_criterion_7_determinism(first_pass, arm_workdir):
    _, _, pass1_dir = first_pass
    pass2_dir = arm_workdir / "pass2"
    pass2_dir.mkdir()
    _run_arms(pass2_dir, jobs=2)  # so the rerun also checks parallel against serial
    mismatched = []
    files = sorted(p.name for p in pass1_dir.iterdir())
    for name in files:
        if (pass1_dir / name).read_bytes() != (pass2_dir / name).read_bytes():
            mismatched.append(name)
    _report(
        "criterion 7 (determinism)",
        bool(files) and not mismatched,
        f"{len(files)} metrics files bit-identical across a serial run and a 2-process rerun"
        if not mismatched
        else f"differs: {mismatched}",
    )
