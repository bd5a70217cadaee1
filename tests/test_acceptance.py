"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The heavyweight new-domain benchmark block (criteria 6-9) runs once in a
module fixture and is shared by every test that needs it.
"""

import json
import os
import time

import numpy as np
import pytest
from helpers import assign_one, make_bank, make_records, predict_one

from vmfcl.backbone import BackboneParams, forward_batch, init_params, loss_and_grad
from vmfcl.bench import RunConfig, load_run_config, run_experiment_full
from vmfcl.memory import select_memory
from vmfcl.mixture import ModelBank, log_posteriors
from vmfcl.streams import SynthConfig, generate_synthetic, make_splits
from vmfcl.structure import ReductionConfig, collect_stats, reduce as reduce_bank
from vmfcl.trainer import LossConfig, _e_step_array, train_session
from vmfcl.vmf import normalize, normalize_rows

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def verdict(num: int, name: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# criterion 6 benchmark block, shared by criteria 6-9
# ---------------------------------------------------------------------------

ND_SEEDS = (1, 2, 3)


def nd_config(method: str, seed: int) -> RunConfig:
    return RunConfig(
        method=method,
        split="ND",
        memory_budget=120,
        kappa=16.0,
        seed=seed,
        hidden_dim=0,
        synth=SynthConfig(
            num_classes=4, domains_per_class=3, dim=16, kappa_true=20.0,
            train_per_pair=200, test_per_pair=40, min_angle_deg=90.0,
            max_angle_deg=60.0, seed=42 + seed,
        ),
        loss=LossConfig(epochs=30, batch_size=64, lr=0.05, backbone_lr=0.0),
        reduction=ReductionConfig(min_count=12),
    )


@pytest.fixture(scope="module")
def nd_runs():
    t0 = time.perf_counter()
    reports = {}
    for method in ("domain_aware", "replay_baseline"):
        for seed in ND_SEEDS:
            reports[(method, seed)] = run_experiment_full(nd_config(method, seed)).report
    return reports, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def _fd_worst(params, bank, x, y, zhat, lam, beta, eta, old_lp, h=1e-5):
    def value():
        loss, _, _ = loss_and_grad(params, bank, x, y, zhat, lam=lam, beta=beta, eta=eta,
                                old_log_post=old_lp)
        return loss

    _, grad, _ = loss_and_grad(params, bank, x, y, zhat, lam=lam, beta=beta, eta=eta,
                            old_log_post=old_lp)
    arrays = []
    for li in range(len(params.layers)):
        arrays.append((params.layers[li][0], grad.layers[li][0]))
        arrays.append((params.layers[li][1], grad.layers[li][1]))
    arrays.append((bank.means, grad.means))
    worst = 0.0
    for arr, g in arrays:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = value()
            arr[idx] = orig - h
            down = value()
            arr[idx] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - g[idx]) / max(1e-4, abs(fd), abs(g[idx])))
    return worst


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(1001)
    term_configs = [
        ("inter", 0.0, 0.0, 0.0, False),
        ("intra", 1.0, 0.0, 0.0, False),
        ("distill", 0.0, 1.0, 0.0, True),
        ("reg", 0.0, 0.0, 1.0, False),
        ("combined", 0.1, 1.0, 0.1, True),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    draws = 0
    for round_idx in range(4):
        for name, lam, beta, eta, with_old in term_configs:
            din, d, hidden = 4, 3, 5
            params = init_params(din, d, hidden, rng)
            kappa = float(rng.uniform(4, 24))
            n_classes = int(rng.integers(2, 4))
            mixtures = {}
            for c in range(n_classes):
                k = int(rng.integers(1, 4))
                mixtures[c] = normalize_rows(rng.standard_normal((k, d)))
            bank = make_bank(d, kappa, mixtures)
            n = int(rng.integers(2, 7))
            x = rng.standard_normal((n, din))
            y = rng.integers(0, n_classes, size=n)
            zhat = np.array([int(rng.integers(bank.mixtures[int(c)].num_components)) for c in y])
            old_lp = None
            if with_old:
                feats = forward_batch(params, x)
                old_mixtures = {}
                old_lp = []
                for c in range(min(2, n_classes)):
                    k_old = max(1, bank.mixtures[c].num_components - 1)
                    old_mixtures[c] = bank.mixtures[c].means[:k_old].copy()
                    t = bank.kappa * (feats @ bank.mixtures[c].means[:k_old].T)
                    m = np.max(t, axis=1, keepdims=True)
                    old_lp.append(t - (m + np.log(np.sum(np.exp(t - m), axis=1, keepdims=True))))
                old_lp = (make_bank(d, bank.kappa, old_mixtures), np.hstack(old_lp))
            worst = max(worst, _fd_worst(params, bank, x, y, zhat, lam, beta, eta, old_lp))
            draws += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30.0 and draws >= 20
    verdict(1, "gradient-correctness", ok,
            f"{draws} draws, worst rel err {worst:.3e} <= 1e-4, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------


def _oracle_reduce(means, counts, sums, delta, min_components=1):
    clusters = [
        {"mean": np.array(means[k], float), "count": int(counts[k]), "sum": np.array(sums[k], float)}
        for k in range(len(means))
        if counts[k] > 0
    ]
    if not clusters:
        return [np.array(means[int(np.argmax(counts))], float)]
    while len(clusters) > min_components:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                dist = 1.0 - float(clusters[i]["mean"] @ clusters[j]["mean"])
                if best is None or dist < best[0]:
                    best = (dist, i, j)
        if best is None or best[0] >= delta:
            break
        _, i, j = best
        s = clusters[i]["sum"] + clusters[j]["sum"]
        clusters[i] = {
            "mean": s / np.linalg.norm(s),
            "count": clusters[i]["count"] + clusters[j]["count"],
            "sum": s,
        }
        del clusters[j]
    return [c["mean"] for c in clusters]


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()

    for _ in range(100):  # assign_components_batch on one row against an exhaustive dot scan
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 9))
        bank = make_bank(d, 16.0, {0: normalize_rows(rng.standard_normal((k, d)))})
        v = normalize(rng.standard_normal(d))
        dots = [float(np.sum(m * v)) for m in bank.mixtures[0].means]
        assert assign_one(bank, 0, v) == int(np.argmax(dots))

    for _ in range(100):  # predict_batch on one row against a max-over-all-components scan
        d = int(rng.integers(2, 6))
        mixtures = {}
        for c in range(int(rng.integers(1, 6))):
            k = int(rng.integers(1, 9))
            mixtures[c] = normalize_rows(rng.standard_normal((k, d)))
        bank = make_bank(d, 16.0, mixtures)
        v = normalize(rng.standard_normal(d))
        best_c, best_dot = -1, -np.inf
        for c in bank.class_ids:
            top = float(np.max(np.sum(bank.mixtures[c].means * v, axis=1)))
            if top > best_dot:
                best_c, best_dot = c, top
        assert predict_one(bank, v) == best_c

    for trial in range(100):  # reduce against naive closest-pair agglomeration
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 9))
        means = normalize_rows(rng.standard_normal((k, d)))
        counts = rng.integers(0, 7, size=k)
        if not np.any(counts > 0):
            counts[0] = 1
        sums = [means[i] * counts[i] for i in range(k)]
        delta = float(rng.uniform(0.2, 1.3))
        bank = make_bank(d, 16.0, {0: means})
        got = reduce_bank(bank, counts, np.array(sums), ReductionConfig(delta=delta))[0].mixtures[0].means
        want = _oracle_reduce(means, counts, sums, delta)
        assert got.shape[0] == len(want), trial
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, atol=1e-12)

    checked = 0
    trial = 0
    while checked < 100:  # select_memory against independent quota arithmetic
        trial += 1
        d = 4
        n_classes = int(rng.integers(1, 6))
        mixtures = {}
        xs, ys = [], []
        assigned = []
        supply = {}
        for c in range(n_classes):
            k = int(rng.integers(1, 9))
            mixtures[c] = normalize_rows(rng.standard_normal((k, d)))
            for kk in range(k):
                cnt = int(rng.integers(0, 9))
                supply[(c, kk)] = cnt
                for _ in range(cnt):
                    assigned.append(kk)
                    xs.append(rng.standard_normal(d))
                    ys.append(c)
        if not ys or len(ys) > 200:
            continue
        bank = make_bank(d, 16.0, mixtures)
        records = make_records(np.array(xs), np.array(ys))
        budget = int(rng.integers(n_classes, 40))
        buf = select_memory(bank, records, np.array(assigned), budget, np.random.default_rng(trial))
        base, rem = divmod(budget, n_classes)
        got_class = {int(c): int(n) for c, n in zip(*np.unique(buf.records.y, return_counts=True))}
        for i, c in enumerate(sorted(bank.class_ids)):
            quota = base + (1 if i < rem else 0)
            class_supply = sum(supply[(c, kk)] for kk in range(bank.mixtures[c].num_components))
            assert got_class.get(c, 0) == min(quota, class_supply), trial
        chosen = buf.records.ids.tolist()
        assert len(set(chosen)) == len(chosen)
        assert set(chosen) <= set(records.ids.tolist())
        checked += 1

    elapsed = time.perf_counter() - t0
    verdict(2, "oracle-equivalence", elapsed < 60.0,
            f"4 x 100 randomized instances matched, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 3. posterior normalization
# ---------------------------------------------------------------------------


def test_criterion_3_normalization():
    rng = np.random.default_rng(3003)
    worst = 0.0
    total = 0
    for kappa in (0.0, 1.0, 16.0, 100.0):
        mixtures = {}
        for c in range(4):
            k = int(rng.integers(1, 6))
            mixtures[c] = normalize_rows(rng.standard_normal((k, 6)))
        bank = make_bank(6, kappa, mixtures)
        # the posteriors loss_and_grad trains with: within each class and over classes
        t = kappa * (normalize_rows(rng.standard_normal((2500, 6))) @ bank.means.T)
        log_p, _ = log_posteriors(t, bank)
        comp = np.add.reduceat(np.exp(t), bank.starts, axis=1)  # (2500, 4) class sums
        cls = np.add.reduce(np.exp(log_p), axis=1)
        worst = max(worst, float(np.max(np.abs(comp - 1.0))), float(np.max(np.abs(cls - 1.0))))
        total += t.shape[0]
    verdict(3, "posterior-normalization", worst <= 1e-9,
            f"{total} inputs over kappa in {{0,1,16,100}}, every class's within-class and the "
            f"class posterior, worst |sum-1| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. component purity on a mixed stream
# ---------------------------------------------------------------------------


def test_criterion_4_purity_analogue():
    t0 = time.perf_counter()
    purities = []
    for run_seed, synth_seed in ((2, 1002), (3, 1003), (5, 1005)):
        cfg = RunConfig(
            method="domain_aware", split="NCD", sessions=4, memory_budget=120,
            kappa=16.0, seed=run_seed, hidden_dim=0,
            synth=SynthConfig(4, 3, 16, 50.0, 150, 30, min_angle_deg=60.0, seed=synth_seed),
            loss=LossConfig(epochs=30, batch_size=64, lr=0.05, backbone_lr=0.0),
        )
        rep = run_experiment_full(cfg).report
        purities.append(float(np.mean([p for p in rep.purity_per_session if p is not None])))
    elapsed = time.perf_counter() - t0
    ok = all(p >= 0.95 for p in purities) and elapsed < 300.0
    verdict(4, "purity-analogue", ok,
            f"mean purity per stream {[round(p, 3) for p in purities]} >= 0.95, {elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# 5. reduction sensitivity across the merge threshold
# ---------------------------------------------------------------------------


def test_criterion_5_reduction_sensitivity():
    synth = SynthConfig(4, 3, 16, 50.0, 150, 0, min_angle_deg=60.0, seed=77)
    train_pool, _, _ = generate_synthetic(synth)
    _, rows = make_splits(train_pool, "ND", 3, seed=5)
    params, bank = init_params(16, 16, 0, np.random.default_rng(1)), ModelBank(16, 16.0)
    loss = LossConfig(epochs=25, batch_size=64, lr=0.05, backbone_lr=0.0)
    for t in (0, 1):
        session = train_pool.subset(rows[t])
        params, bank, _ = train_session(
            params, bank, session, np.unique(session.y), m=30, loss=loss, reduction=None, seed=100 + t
        )
    data = train_pool.subset(rows[1])
    z = _e_step_array(bank, forward_batch(params, data.x), data.y)
    feats = forward_batch(params, data.x)
    counts, sums = collect_stats(bank, data.y, z, feats)

    mean_k = []
    for delta in (0.5, 0.6, 0.7, 0.8, 0.9):
        red, _ = reduce_bank(bank, counts, sums, ReductionConfig(delta=delta))
        mean_k.append(float(np.mean([red.mixtures[c].num_components for c in red.class_ids])))
    non_increasing = all(a >= b - 1e-12 for a, b in zip(mean_k, mean_k[1:]))
    strict = mean_k[-1] < mean_k[0]
    verdict(5, "reduction-sensitivity", non_increasing and strict,
            f"mean K over delta 0.5..0.9 = {mean_k}")


# ---------------------------------------------------------------------------
# 6-9. new-domain benchmark block
# ---------------------------------------------------------------------------


def test_criterion_6_nd_gain(nd_runs):
    reports, elapsed = nd_runs
    gains = [
        reports[("domain_aware", s)].avg_inc_acc - reports[("replay_baseline", s)].avg_inc_acc
        for s in ND_SEEDS
    ]
    mean_gain = float(np.mean(gains))
    ok = mean_gain >= 5.0 and elapsed < 600.0
    verdict(6, "nd-gain-analogue", ok,
            f"gain per seed {[round(g, 2) for g in gains]}, mean {mean_gain:.2f} >= 5.0, "
            f"block {elapsed:.1f}s < 600s")


def test_criterion_7_forgetting_analogue(nd_runs):
    reports, _ = nd_runs
    f_da = float(np.mean([reports[("domain_aware", s)].forgetting for s in ND_SEEDS]))
    f_rb = float(np.mean([reports[("replay_baseline", s)].forgetting for s in ND_SEEDS]))
    verdict(7, "forgetting-analogue", f_da > f_rb,
            f"domain_aware F {f_da:.2f} > replay_baseline F {f_rb:.2f}")


def test_criterion_8_memory_balance(nd_runs):
    reports, _ = nd_runs
    checked = 0
    worst_class_spread = 0
    worst_comp_spread = 0
    for rep in reports.values():
        for class_counts in rep.memory_class_counts:
            values = list(class_counts.values())
            worst_class_spread = max(worst_class_spread, max(values) - min(values))
        for comp_counts in rep.memory_component_counts:
            for counts in comp_counts.values():
                worst_comp_spread = max(worst_comp_spread, max(counts) - min(counts))
                checked += 1
    ok = worst_class_spread <= 1 and worst_comp_spread <= 1
    verdict(8, "memory-balance", ok,
            f"{checked} class/session cells; class spread <= {worst_class_spread}, "
            f"component spread <= {worst_comp_spread}")


def test_criterion_9_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_experiment_full(nd_config("domain_aware", 1), out_dir=str(out_a))
    run_experiment_full(nd_config("domain_aware", 1), out_dir=str(out_b))
    bytes_a = (out_a / "report.json").read_bytes()
    bytes_b = (out_b / "report.json").read_bytes()
    verdict(9, "determinism", bytes_a == bytes_b,
            f"two identical-seed runs, report bytes equal ({len(bytes_a)} bytes)")


# ---------------------------------------------------------------------------
# 10. hyperparameter fidelity of the shipped configs
# ---------------------------------------------------------------------------


def test_criterion_10_config_defaults():
    expected = {
        ("train", "beta"): 1.0,
        ("train", "eta"): 0.1,
        ("train", "lambda_max"): 0.1,
        ("train", "lambda_warmup_epochs"): 10,
        ("train", "weight_decay"): 0.0005,
        ("structure", "m"): 30,
        ("structure", "delta"): 0.7,
    }
    problems = []
    for name in ("nd_gain.cfg", "ncd_purity.cfg"):
        echo = load_run_config(os.path.join(CONFIG_DIR, name)).echo()
        for (section, key), want in expected.items():
            got = echo[section][key]
            if got != want:
                problems.append(f"{name}:[{section}]{key}={got}!={want}")
    verdict(10, "hyperparameter-fidelity", not problems,
            "; ".join(problems) if problems else "both shipped configs echo the published defaults")
