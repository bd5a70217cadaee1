"""Per-session evaluation: one scoring pass against per-slice ``accuracy`` oracles.

``seen_accuracies`` forwards and predicts every seen test record once, in
blocks of ``PREDICT_BLOCK_ROWS`` rows, and derives the ``acc_matrix`` row,
the per-session accuracy and the per-(class, domain) table from integer hit
and record counts. The oracle is what the run computed before: ``accuracy``
on each slice of the test pool, with each slice masked out by
``oracles.pair_subset``. The two must agree exactly.
"""

import tracemalloc

import numpy as np
import pytest
from helpers import make_bank, make_records
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pair_subset

import vmfcl.bench as bench
from vmfcl.backbone import init_params
from vmfcl.bench import RunConfig, accuracy, seen_accuracies
from vmfcl.mixture import PREDICT_BLOCK_ROWS
from vmfcl.streams import SynthConfig, pair_index
from vmfcl.structure import ReductionConfig
from vmfcl.trainer import LossConfig
from vmfcl.vmf import normalize_rows

CLASSES = range(6)
DOMAINS = (-1, 0, 1)


@st.composite
def cases(draw):
    """A bank, a backbone, 1-3 sessions of pairs and a test pool where each session has records.

    Labels cover classes the bank lacks and domain -1; some listed pairs
    have no records, a pair may be listed twice in a session or in two
    sessions, and some pools span several ``predict_batch`` blocks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 6))
    ids = sorted(draw(st.sets(st.sampled_from(CLASSES), min_size=1, max_size=4)))
    bank = make_bank(d, 16.0, {
        c: normalize_rows(rng.standard_normal((draw(st.integers(1, 4)), d)))
        for c in ids
    })
    params = init_params(d + 2, d, draw(st.sampled_from([0, 3])), rng)
    pair = st.tuples(st.sampled_from(CLASSES), st.sampled_from(DOMAINS))
    sessions = draw(st.lists(st.lists(pair, min_size=1, max_size=4), min_size=1, max_size=3))
    if len(sessions) > 1 and draw(st.booleans()):
        sessions[-1].append(sessions[0][0])
    n = draw(st.sampled_from([0, 1, 7, 60, PREDICT_BLOCK_ROWS + 5, 2 * PREDICT_BLOCK_ROWS + 3]))
    labelled = draw(st.lists(pair, min_size=1, max_size=8))  # pairs outside it have no records
    picks = [labelled[i] for i in rng.integers(0, len(labelled), size=n)]
    picks += [s[draw(st.integers(0, len(s) - 1))] for s in sessions]  # a record for every session
    y = np.array([c for c, _ in picks], dtype=np.int64)
    domain = np.array([z for _, z in picks], dtype=np.int32)
    m = len(picks)
    pool = make_records(rng.standard_normal((m, d + 2)), y, domain)
    return bank, params, pool, sessions


@settings(max_examples=150, deadline=None, database=None)
@given(cases())
def test_one_pass_tables_equal_per_slice_accuracy(case):
    bank, params, pool, sessions = case
    row, seen_acc, per_pair = seen_accuracies(bank, params, pool, pair_index(pool), sessions)

    assert row == [accuracy(bank, params, pair_subset(pool, s)) for s in sessions]
    seen = [p for s in sessions for p in s]
    assert seen_acc == accuracy(bank, params, pair_subset(pool, seen))
    expected: dict[int, dict[int, float]] = {}
    for c, z in sorted(seen):
        part = pair_subset(pool, [(c, z)])
        if len(part):
            expected.setdefault(c, {})[z] = accuracy(bank, params, part)
    assert per_pair == expected


@pytest.mark.parametrize("hidden_dim", [0, 32])
def test_evaluation_memory_does_not_grow_with_the_seen_set(hidden_dim):
    rng = np.random.default_rng(0)
    n, d = 24_000, 16
    bank = make_bank(d, 16.0, {
        c: normalize_rows(rng.standard_normal((3, d))) for c in range(4)
    })
    params = init_params(d, d, hidden_dim, rng)
    y = rng.integers(0, 4, size=n)
    domain = rng.integers(0, 2, size=n).astype(np.int32)
    pool = make_records(rng.standard_normal((n, d)), y, domain)
    sessions = [[(c, z) for c in classes for z in range(2)] for classes in ((0, 1), (2, 3))]

    tracemalloc.start()
    try:
        seen_accuracies(bank, params, pool, pair_index(pool), sessions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8  # less than one (n_seen, d) float64 array: features are held a block at a time


def test_each_session_predicts_its_seen_test_records_once(monkeypatch):
    events = []
    real_forward, real_predict = bench.forward_batch, bench.predict_batch

    def forward(params, x):
        out = real_forward(params, x)
        events.append(("forward", x, out))
        return out

    def predict(bank, vs):
        events.append(("predict", vs, None))
        return real_predict(bank, vs)

    monkeypatch.setattr(bench, "forward_batch", forward)
    monkeypatch.setattr(bench, "predict_batch", predict)
    for test_per_pair in (10, 400):  # 60 test records, then 2,400: more than two blocks
        events.clear()
        cfg = RunConfig(
            split="NCD", sessions=3, memory_budget=24, seed=3, hidden_dim=0,
            synth=SynthConfig(3, 2, 8, 30.0, 40, test_per_pair, min_angle_deg=60.0, seed=5),
            loss=LossConfig(epochs=2, batch_size=32, lr=0.05, backbone_lr=0.0),
            reduction=ReductionConfig(min_count=6),
        )
        result = bench.run_experiment_full(cfg)

        pool = result.test_pool
        assert len(pool) == 6 * test_per_pair
        at = 0
        for t in range(len(result.plan.sessions)):
            seen = pair_subset(pool, [p for s in result.plan.sessions[: t + 1] for p in s])
            n_blocks = -(-len(seen) // PREDICT_BLOCK_ROWS)
            session = events[at : at + 2 * n_blocks]
            at += 2 * n_blocks
            assert [kind for kind, _, _ in session] == ["forward", "predict"] * n_blocks
            blocks = [x for _, x, _ in session[::2]]
            assert all(len(x) <= PREDICT_BLOCK_ROWS for x in blocks)
            assert np.array_equal(np.concatenate(blocks), seen.x)  # each seen record once, in pool order
            for (_, _, feats), (_, vs, _) in zip(session[::2], session[1::2]):
                assert vs is feats
        assert at == len(events)
        assert len(seen) == len(pool)  # the last session has seen every test record
