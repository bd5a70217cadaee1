import compare

A = {s: v for s, v in enumerate([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0])}


def scaled(doc, factor):
    return {s: v * factor for s, v in doc.items()}


def test_quartiles_and_spread():
    assert compare.quartiles([4.0]) == (4.0, 4.0, 4.0)
    q1, med, q3 = compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (1.5, 3.0, 4.5)
    assert compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0


def test_worse_beyond_bound_lower_is_better():
    assert compare.verdict(A, scaled(A, 1.2), "lower", 0.1) == "worse"


def test_worse_beyond_bound_higher_is_better():
    assert compare.verdict(A, scaled(A, 0.8), "higher", 0.1) == "worse"


def test_better_when_every_pair_wins():
    assert compare.verdict(A, scaled(A, 0.8), "lower", 0.1) == "better"
    assert compare.verdict(A, scaled(A, 1.2), "higher", 0.1) == "better"


def test_within_bound_when_the_change_is_inside_the_noise():
    assert compare.verdict(A, scaled(A, 1.005), "lower", 0.1) == "within bound"
    assert compare.verdict(A, scaled(A, 1.05), "lower", 0.1) == "within bound"


def test_not_better_when_too_few_pairs_win():
    # B's median is lower by more than A's quartile distance, but only six
    # of the ten seed-matched pairs favour B
    b = {s: (9.5 if s < 6 else 10.3) for s in A}
    assert compare.verdict(A, b, "lower", 0.1) == "within bound"


def test_better_without_shared_seeds_uses_the_medians():
    b = {s + 100: v * 0.8 for s, v in A.items()}
    assert compare.verdict(A, b, "lower", 0.1) == "better"


def test_unresolved_when_a_side_spreads_wider_than_the_bound():
    wide = {s: v for s, v in enumerate([5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0])}
    assert compare.verdict(A, wide, "lower", 0.1) == "unresolved"
    assert compare.verdict(wide, A, "lower", 0.1) == "unresolved"


def test_wide_spread_still_resolves_when_every_run_is_on_one_side():
    wide_low = {s: v for s, v in enumerate([1.0, 3.0, 2.0, 2.5, 1.5])}
    assert compare.verdict(A, wide_low, "lower", 0.1) == "better"
    assert compare.verdict(wide_low, A, "lower", 0.1) == "worse"


def doc(sha, workload_values):
    runs = [
        {"workload": w, "seed": s, "trace": 0, "metrics": {"run_s": {"value": v, "unit": "s"}}}
        for w, values in workload_values.items() for s, v in values.items()
    ]
    return {"stamp": {"git_sha": sha}, "runs": runs}


METRICS = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]


def test_compare_table_rows_and_worse_flag():
    text, worse = compare.compare_table(
        doc("a", {"shipped": A, "nd-wide": A}), doc("b", {"shipped": scaled(A, 1.3), "nd-wide": A}), METRICS
    )
    rows = {line.split()[0]: line for line in text.splitlines()[2:]}
    assert worse
    assert rows["shipped"].endswith("worse")
    assert rows["nd-wide"].endswith("within bound")
    assert "10 [9.9, 10.1]" in rows["nd-wide"]


def test_compare_table_without_regression():
    _, worse = compare.compare_table(doc("a", {"shipped": A}), doc("b", {"shipped": scaled(A, 0.7)}), METRICS)
    assert not worse


def test_spread_table_flags_wide_metrics():
    wide = {s: v for s, v in enumerate([5.0, 15.0, 7.0, 13.0, 10.0])}
    text = compare.spread_table(doc("a", {"shipped": A, "nc-eval": wide}), METRICS)
    rows = {line.split()[0]: line for line in text.splitlines()[1:]}
    assert rows["nc-eval"].endswith("WIDE")
    assert not rows["shipped"].endswith("WIDE")
