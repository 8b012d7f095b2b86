"""Tests of the benchmark itself: input determinism, the result check and
the span arithmetic.

    python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import generators as gen  # noqa: E402
from checks import digest, funnel_problems  # noqa: E402
from spans import END, PARENT, START, Tracer, busy, latency, self_times, tail  # noqa: E402


# -- generators ----------------------------------------------------------------


def test_same_seed_gives_byte_identical_inputs():
    assert gen.chunk_order(7, 32) == gen.chunk_order(7, 32)
    assert gen.screen_chunk(3, 50) == gen.screen_chunk(3, 50)
    assert gen.featurize_chunk(3, 50) == gen.featurize_chunk(3, 50)
    first, second = gen.regression(3, 40, 10, 6), gen.regression(3, 40, 10, 6)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


def test_different_seeds_give_different_inputs():
    assert gen.chunk_order(1, 32) != gen.chunk_order(2, 32)
    assert sorted(gen.chunk_order(1, 32)) == list(range(32))
    assert gen.screen_chunk(1, 50) != gen.screen_chunk(2, 50)
    assert gen.family_smiles(1) != gen.family_smiles(2)
    assert gen.regression(1, 40, 10, 6)[0].tobytes() != gen.regression(2, 40, 10, 6)[0].tobytes()


def test_vectorised_draws_match_the_scalar_generator():
    rng = gen.SplitMix64(12345)
    scalar = [(rng.next_u64() >> 11) / float(1 << 53) for _ in range(100)]
    assert gen.uniform_block(12345, 100).tolist() == scalar


def test_regression_has_tied_integer_columns():
    X, y, X_test = gen.regression(0, 200, 50, 24)
    assert X.shape == (200, 24) and y.shape == (200,) and X_test.shape == (50, 24)
    assert np.array_equal(X[:, :12], np.floor(X[:, :12]))
    assert len(np.unique(X[:, 0])) <= 8


def test_screen_chunk_carries_planted_rows_and_matching_tables():
    texts = gen.screen_chunk(5, 30)
    pool = texts["pool.csv"].splitlines()
    assert pool[0] == "smiles" and len(pool) == 1 + 30 + len(gen.PLANTED)
    assert pool[-len(gen.PLANTED):] == list(gen.PLANTED)
    assert len(texts["properties.csv"].splitlines()) == 1 + 30


def test_featurize_chunk_rows_are_distinct_spellings():
    text, symmetric = gen.featurize_chunk(4, 100)
    rows = text.splitlines()[1:]
    assert symmetric == len(gen.FAMILY)
    assert len(rows) == 100 + symmetric == len(set(rows))


def test_family_spellings_cover_every_atom():
    for core, group in gen.FAMILY:
        elements, bonds = gen.family_graph(core, group)
        smiles = gen.write_smiles(elements, bonds, seed=9)
        letters = smiles.replace("Cl", "X")
        assert sum(ch.isalpha() for ch in letters) == len(elements)
        assert letters.count("(") == letters.count(")")


# -- result check --------------------------------------------------------------


def _outcome():
    return {
        "pool_size": 10,
        "parse_failures": 1,
        "merged_duplicates": 1,
        "tiers": [
            ["vocabulary", 10, 8, {"element_not_in_vocabulary": 2}],
            ["scaffold", 8, 6, {"novel_scaffold": 2}],
            ["rank", 6, 1, {"below_rank_cutoff": 5}],
            ["properties", 1, 1, {}],
            ["cas", 1, 1, {}],
        ],
        "final": [["c1ccccc1O", 7.123456789012, "100-10-1"]],
    }


def test_digest_catches_a_change_to_one_value():
    base = digest(_outcome())
    changed = _outcome()
    changed["final"][0][1] = 7.1234568
    assert digest(changed) != base
    counts = _outcome()
    counts["tiers"][2][2] = 2
    assert digest(counts) != base
    matrix = {"ids": ["a", "b"], "values": [[1.0, 2.0], [3.0, 4.0]]}
    edited = {"ids": ["a", "b"], "values": [[1.0, 2.0], [3.0, 4.5]]}
    assert digest(matrix) != digest(edited)


def test_digest_ignores_noise_below_ten_significant_digits():
    noisy = _outcome()
    noisy["final"][0][1] = 7.123456789012 * (1 + 1e-14)
    assert digest(noisy) == digest(_outcome())


def test_funnel_invariants_hold_and_breaks_are_caught():
    planted = {"element_not_in_vocabulary": 2, "novel_scaffold": 2,
               "parse_failures": 1, "merged_duplicates": 1}
    assert funnel_problems(_outcome(), 12, planted, 0.01) == []
    leaky = _outcome()
    leaky["tiers"][1][2] = 5
    assert funnel_problems(leaky, 12, planted, 0.01)
    assert funnel_problems(_outcome(), 13, planted, 0.01)
    missing = _outcome()
    missing["tiers"][0][3] = {"element_not_in_vocabulary": 1}
    missing["tiers"][0][2] = 9
    assert funnel_problems(missing, 12, planted, 0.01)


# -- spans ---------------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, False]


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),   # children cover 3 + 4
        _span("a", 1.0, 4.0, 0),        # child covers 1
        _span("leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("root", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    assert busy(spans, "root") == pytest.approx(11.0)
    assert busy(spans, "leaf") == pytest.approx(1.0)


def test_busy_counts_nested_same_name_spans_once():
    spans = [
        _span("x", 0.0, 5.0, -1),
        _span("y", 1.0, 4.0, 0),
        _span("x", 2.0, 3.0, 1),
    ]
    assert busy(spans, "x") == pytest.approx(5.0)


def test_tracer_records_parents_and_failures():
    tracer = Tracer()

    def inner():
        raise ValueError("bad")

    wrapped = tracer.wrap(inner, "inner")
    with tracer.span("outer"):
        with pytest.raises(ValueError):
            wrapped()
    outer, failed = tracer.spans
    assert failed[PARENT] == 0 and outer[PARENT] == -1
    assert failed[5] is True and outer[5] is False
    assert outer[START] <= failed[START] <= failed[END] <= outer[END]


def test_tail_keeps_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 201)]
    assert tail(values) == (190.0, 95.0)
    assert tail(values[:19]) == (19.0, None)
    stats = latency([0.001] * 30)
    assert stats["samples"] == 30 and stats["tail_pct"] == 50.0


# -- rates ---------------------------------------------------------------------


def test_rate_sums_each_kinds_median_and_scales_by_the_host_loop():
    sys.path.insert(0, str(BENCH.parent / "src"))
    import run
    from hostspeed import REFERENCE_S

    class TwoKinds:
        kinds = ("a", "b")
        host_loop = "python"

    ref = REFERENCE_S

    def op(kind, seconds, loop, problems=()):
        return {"kind": kind, "items": 10, "seconds": seconds, "loop_s": loop,
                "problems": list(problems)}

    ops = [op("a", 1.0, ref), op("a", 3.0, ref), op("a", 2.0, ref),
           op("b", 4.0, 2 * ref), op("b", 9.0, ref, ["digest differs"])]
    # wall medians 2 s and 4 s; b ran while the loop took twice its reference time
    assert run.rate(TwoKinds, ops, "seconds") == pytest.approx(20 / 6.0)
    assert run.rate(TwoKinds, ops, "ref_seconds") == pytest.approx(20 / 4.0)
    assert run.rate(TwoKinds, ops[:3], "seconds") == 0.0


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(BENCH.parent / "src"))
    import run
    from layers import PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] == [
        list(m) for m in PER_LAYER
    ]
