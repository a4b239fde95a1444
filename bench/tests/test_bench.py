"""Tests of the benchmark's own code: input generator, span arithmetic, hooks, metric names."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import UNATTRIBUTED, Hook, Tracer  # noqa: E402
from workloads import ACCEPT_CORPUS, WORKLOADS, generate_corpus  # noqa: E402

import cure.cli  # noqa: E402
import cure.cluster  # noqa: E402
from cure.synth import generate as synth_generate  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bytes(files: dict[str, Path]) -> dict[str, bytes]:
    return {k: p.read_bytes() for k, p in files.items()}


def test_generator_is_deterministic_per_seed(tmp_path):
    a = _bytes(generate_corpus(ACCEPT_CORPUS, 5, tmp_path / "a"))
    b = _bytes(generate_corpus(ACCEPT_CORPUS, 5, tmp_path / "b"))
    c = _bytes(generate_corpus(ACCEPT_CORPUS, 6, tmp_path / "c"))
    assert a == b
    assert a["corpus"] != c["corpus"]


def test_generator_with_builtin_pool_matches_cure_synth(tmp_path):
    ours = generate_corpus(ACCEPT_CORPUS, 13, tmp_path / "ours")
    synth_generate(4, 25, 3, 13, tmp_path / "synth")
    for path in ours.values():
        assert path.read_bytes() == (tmp_path / "synth" / path.name).read_bytes()


def test_generator_goes_past_the_synth_pair_cap(tmp_path):
    bulk = WORKLOADS["bulk"].corpus
    files = generate_corpus(bulk, 3, tmp_path)
    pairs = [tuple(json.loads(line)["pair"]) for line in files["gold"].read_text().splitlines()]
    assert len(pairs) == len(set(pairs)) == bulk.relations * bulk.pairs > 276
    assert len(files["corpus"].read_text().splitlines()) == len(pairs) * bulk.sentences


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.tick(2.0)

    def middle():
        clock.tick(1.0)
        tracer.call("b", leaf)
        clock.tick(2.0)

    def stage():
        clock.tick(1.0)
        tracer.call("a", middle)
        clock.tick(1.0)
        tracer.call("c", leaf)
        tracer.call("a", middle)
        clock.tick(3.0)

    tracer.call_stage("train", stage)
    assert dict(tracer.self_s) == {
        ("train", "b"): 4.0,
        ("train", "a"): 6.0,
        ("train", "c"): 2.0,
        ("train", UNATTRIBUTED): 5.0,
    }
    assert sum(tracer.self_s.values()) == clock.now
    assert tracer.stage == ""


def test_missing_hook_targets_are_reported_absent():
    original_cut = cure.cluster.cut
    tracer = Tracer()
    tracer.install(
        (Hook("cure.model", "no_such_function"), Hook("cure.no_such_module", "f"), Hook("cure.cluster", "cut")),
        node_class=("cure.autodiff", "NoSuchClass"),
    )
    try:
        assert tracer.absent == ["cure.model.no_such_function", "cure.no_such_module.f", "cure.autodiff.NoSuchClass.__init__"]
        assert cure.cluster.cut is not original_cut
    finally:
        tracer.uninstall()
    assert cure.cluster.cut is original_cut


def test_hooks_wrap_callers_and_uninstall_restores_them():
    originals = (cure.cluster.hac, cure.cluster.pairwise_distances, cure.cli.parse_corpus)
    tracer = Tracer()
    tracer.install()
    try:
        assert cure.cli.parse_corpus is not originals[2]  # imported by name into cure.cli
        points = [np.zeros(3), np.zeros(3), np.ones(3)]
        tracer.call_stage("cluster", lambda: cure.cluster.hac(points))
    finally:
        tracer.uninstall()
    assert (cure.cluster.hac, cure.cluster.pairwise_distances, cure.cli.parse_corpus) == originals
    assert set(tracer.self_s) == {("cluster", k) for k in ("cluster.hac_self", "cluster.pairwise_distances", UNATTRIBUTED)}
    assert tracer.counts[("cluster", "cluster.merges")] == 2
    assert tracer.counts[("cluster", "cluster.zero_distance_merges")] == 1
    assert tracer.counts[("cluster", "cluster.pairwise_distances_peak_bytes")] > 0


def test_ticks_split_a_stage_into_steps_and_uninstall_restores_them():
    original_init = cure.cluster.Merge.__init__
    tracer = Tracer()
    tracer.install_ticks((Hook("cure.cluster", "Merge.__init__"), Hook("cure.cluster", "NoSuchClass.__init__")))
    try:
        assert tracer.absent == ["cure.cluster.NoSuchClass.__init__"]
        points = [np.zeros(3), np.zeros(3), np.ones(3), 2 * np.ones(3)]
        tracer.call_stage("cluster", lambda: cure.cluster.hac(points))
        tracer.call_stage("cluster", lambda: cure.cluster.hac(points))
        cure.cluster.hac(points)  # outside any stage: no steps
    finally:
        tracer.uninstall()
    assert cure.cluster.Merge.__init__ is original_init
    steps = tracer.step_times()
    assert list(steps) == ["cluster"]
    assert [len(call) for call in steps["cluster"]] == [4, 4]  # three merges start three steps after the first
    assert all(s >= 0 for call in steps["cluster"] for s in call)


def test_fastest_steps_takes_each_step_at_its_fastest():
    assert run.fastest_steps([[1.0, 5.0, 2.0], [3.0, 1.0, 2.5], [2.0, 2.0, 9.0]]) == 1.0 + 1.0 + 2.0
    assert run.fastest_steps([[4.0]]) == 4.0
    # samples that split differently: the fastest whole sample
    assert run.fastest_steps([[1.0, 5.0], [3.0], [1.0, 1.0, 2.5]]) == 3.0


def test_end_to_end_scales_times_and_rates_to_the_reference_speed():
    reference = [[2 * run.REFERENCE_S]]  # one step, taking twice the reference time
    setups = [{"steps": {"reference": [[3 * run.REFERENCE_S]]}}]  # slower: the fastest reference step counts
    runs = [
        {
            "wall_s": 10.0, "peak_rss_mb": 50.0, "rand_index": 1.0, "macro_f1": 0.9, "loss_final": 2.5,
            "examples_trained": 8, "pairs": 4,
            "steps": {"train": [[1.0, 3.0]], "encode": [[0.5, 1.5]], "cluster": [[2.0]], "reference": reference},
        },
        {
            "wall_s": 12.0, "peak_rss_mb": 52.0, "rand_index": 1.0, "macro_f1": 0.9, "loss_final": 2.5,
            "examples_trained": 8, "pairs": 4,
            "steps": {"train": [[2.0, 2.0]], "encode": [[1.0, 1.0]], "cluster": [[3.0]], "reference": reference},
        },
    ]
    metrics, scaled_from = run.end_to_end(setups, [4.0, 6.0], runs)
    # the host ran at half the reference speed: times halve, rates double
    assert scaled_from["reference_s"] == 2 * run.REFERENCE_S
    # stages at their fastest steps, plus the least time outside them (10 - 8 in the first run)
    assert scaled_from["measured"]["wall_s"] == 3.0 + 1.5 + 2.0 + 2.0
    assert metrics["wall_s"] == scaled_from["measured"]["wall_s"] / 2
    assert metrics["setup_s"] == 2.5
    assert metrics["cluster_s"] == 1.0
    assert metrics["train_examples_per_s"] == 2 * 8 / 3.0
    assert metrics["encode_pairs_per_s"] == 2 * 4 / 1.5
    assert (metrics["peak_rss_mb"], metrics["macro_f1"], metrics["train_loss_final"]) == (51.0, 0.9, 2.5)


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == dict(run.END_TO_END)
    assert per_layer == dict(run.per_layer_names())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in [*end_to_end, *per_layer, *WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert len(set(end_to_end) | set(per_layer)) == len(end_to_end) + len(per_layer)

