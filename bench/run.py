"""cure benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload accept --seed 1 --seconds 45 --trace 0

The set-up (input generation, and for `bulk` the checkpoint's training) runs
five times: once before the timed repetitions, then alternating with the
first four of them. Each set-up and repetition runs in a fresh child process,
one at a time; repetitions run until --seconds have passed and at least three
have run. Every child's outputs are checked, and set-ups or repetitions of
one seed must write byte-identical artifacts. Times are scaled to a reference
speed of the host, measured in the same children. The last stdout line is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, the end-to-end
metrics with --trace 0, or with --trace 1 the per-layer metrics of one more,
traced, repetition. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
BUDGET_S = 150  # no new repetition starts when the last one would end past this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The reference computation's time (its steps at their fastest) on the host the baseline
# was measured on. It only sets the scale of the reported times.
REFERENCE_S = 0.26

STAGES = ("extract-paths", "train", "encode", "cluster", "label", "evaluate")
# Hooked spans reported per stage; with the stage's unattributed time they add up to the stage.
STAGE_SPANS = {
    "extract-paths": ("corpus.parse_corpus", "paths.extract_instances"),
    "train": (
        "cli.read_path_instances", "paths.group_pairs", "vocab.build_vocab",
        "model.encode_blocks", "model.decode_path", "autodiff.softmax_cross_entropy", "autodiff.backward",
        "autodiff.clip_gradients", "autodiff.sgd_step", "autodiff.zero_grad", "autodiff.write_checkpoint",
    ),
    "encode": (
        "autodiff.read_checkpoint", "cli.read_path_instances", "paths.group_pairs",
        "model.infer_relation_vector", "model.encode_blocks",
    ),
    "cluster": ("cluster.pairwise_distances", "cluster.hac_self", "cluster.cut"),
    "label": ("cli.read_path_instances", "vocab.load_pretrained", "labeling.candidate_set", "labeling.wvs_label"),
    "evaluate": ("vocab.load_pretrained", "labeling.match_to_gold", "metrics.rand_index", "metrics.prf1"),
}
COUNT_METRICS = (
    ("autodiff.nodes_per_example", "count"),
    ("autodiff.clip_fraction", "share"),
    ("autodiff.checkpoint_bytes", "bytes"),
    ("model.distinct_path_share", "share"),
    ("cluster.pairwise_distances_peak_bytes", "bytes"),
    ("cluster.zero_distance_merge_share", "share"),
)
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("train_examples_per_s", "1/s"), ("encode_pairs_per_s", "1/s"),
    ("cluster_s", "s"), ("peak_rss_mb", "MB"), ("rand_index", "share"), ("macro_f1", "share"),
    ("train_loss_final", "nats"),
)


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{stage}.{key}_s", "s") for stage in STAGES for key in (*STAGE_SPANS[stage], "unattributed")]
    return names + list(COUNT_METRICS) + [("trace.overhead_s", "s")]


class Bench:
    """One benchmark run: its work directory, child processes and their checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed: set[str] = set()  # labels of children that failed a check
        self.failures: list[str] = []
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(BENCH)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        for var in BLAS_VARS:
            self.env[var] = str(self.nproc)

    def fail(self, label: str, message: str) -> None:
        self.failed.add(label)
        self.failures.append(f"{label}: {message}")

    def child(self, mode: str, args: list[str], label: str, traced: bool) -> tuple[dict | None, float]:
        """Run one child process to completion: its result (None if it failed a check) and wall time."""
        self.attempted += 1
        result_path = self.work / f"{label}.json"
        command = [sys.executable, str(BENCH / "child.py"), mode, self.workload, str(self.seed), *args,
                   str(self.work / label), str(result_path)] + (["--trace"] if traced else [])
        started = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(label, f"timed out after {CHILD_TIMEOUT_S} s")
            return None, time.perf_counter() - started
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.fail(label, f"exit {proc.returncode}: {tail[0]}")
            return None, elapsed
        result = json.loads(result_path.read_text(encoding="utf-8"))
        for problem in result.get("problems", []):
            self.fail(label, problem)
        return (None if result.get("problems") else result), elapsed

    def setup(self, label: str, traced: bool = False) -> tuple[dict | None, float]:
        return self.child("setup", [], label, traced)

    def run(self, setup_dir: Path, label: str, traced: bool = False) -> tuple[dict | None, float]:
        return self.child("run", [str(setup_dir)], label, traced)

    def same_artifacts(self, reference: dict, result: dict, label: str) -> bool:
        """Whether result wrote the reference's artifacts byte for byte, as one seed must."""
        differ = sorted(k for k in reference["hashes"].keys() | result["hashes"].keys()
                        if reference["hashes"].get(k) != result["hashes"].get(k))
        if differ:
            self.fail(label, f"artifacts differ from another run of the same seed: {differ}")
        return not differ


def fastest_steps(samples: list[list[float]]) -> float:
    """A stage's time with each step at its fastest: the sum, over step positions, of the
    shortest time any sample of the stage took for that step. Every run of one seed repeats
    the same steps; if step counts still differ, the fastest whole sample's time."""
    if len({len(sample) for sample in samples}) == 1:
        return sum(min(step) for step in zip(*samples))
    return min(sum(sample) for sample in samples)


def stage_samples(results: list[dict], stage: str) -> list[list[float]]:
    return [sample for r in results for sample in r["steps"].get(stage, [])]


def end_to_end(setups: list[dict], setup_times: list[float], runs: list[dict]) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics, times scaled to the reference speed, and what they were scaled from.

    A stage's time adds up its steps at their fastest over the repetitions (see fastest_steps).
    Every time (and rate) is then scaled by REFERENCE_S over the reference computation's time in
    the same run, which removes how fast the host happened to run while this run lasted.
    """
    trainers = runs if "examples_trained" in runs[0] else setups
    stages = [st for st in STAGES if runs[0]["steps"].get(st)]
    # the timed part's time outside any stage (run_pipeline's manifest, for one)
    outside = min(r["wall_s"] - sum(sum(sample) for st in stages for sample in r["steps"][st]) for r in runs)
    measured = {
        "setup_s": median(setup_times),
        "wall_s": sum(fastest_steps(stage_samples(runs, st)) for st in stages) + outside,
        "train_examples_per_s": trainers[0]["examples_trained"] / fastest_steps(stage_samples(trainers, "train")),
        "encode_pairs_per_s": runs[0]["pairs"] / fastest_steps(stage_samples(runs, "encode")),
        "cluster_s": fastest_steps(stage_samples(runs, "cluster")),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        "rand_index": median(r["rand_index"] for r in runs),
        "macro_f1": median(r["macro_f1"] for r in runs),
        "train_loss_final": median(r["loss_final"] for r in trainers),
    }
    reference_s = fastest_steps(stage_samples(setups + runs, "reference"))
    speed = REFERENCE_S / reference_s
    units = dict(END_TO_END)
    metrics = {
        name: value * speed if units[name] == "s" else value / speed if units[name] == "1/s" else value
        for name, value in measured.items()
    }
    return metrics, {"reference_s": reference_s, "measured": measured}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced_setup: dict | None, traced_run: dict, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run; a stage the timed part skips is read from the traced set-up."""
    by_stage: dict[str, dict] = {}
    for source in filter(None, (traced_setup, traced_run)):
        examples = source.get("examples_trained", 0)
        ran = {st: {"spans": {}, "counts": {}, "examples": examples} for st, _, _ in source["spans"]}
        for st, key, s in source["spans"]:
            ran[st]["spans"][key] = s
        for st, key, c in source["counts"]:
            if st in ran:
                ran[st]["counts"][key] = c
        by_stage.update(ran)

    def span(stage: str, key: str) -> float:
        return by_stage.get(stage, {}).get("spans", {}).get(key, 0.0)

    def count(stage: str, key: str) -> float:
        return by_stage.get(stage, {}).get("counts", {}).get(key, 0.0)

    out = {f"{stage}.{key}_s": span(stage, key) for stage in STAGES for key in (*STAGE_SPANS[stage], "unattributed")}
    out["autodiff.nodes_per_example"] = _ratio(count("train", "autodiff.nodes"), by_stage.get("train", {}).get("examples", 0))
    out["autodiff.clip_fraction"] = _ratio(count("train", "autodiff.clipped"), count("train", "autodiff.clip_calls"))
    out["autodiff.checkpoint_bytes"] = count("train", "autodiff.checkpoint_bytes")
    out["model.distinct_path_share"] = _ratio(count("encode", "model.distinct_paths"), count("encode", "model.paths_encoded"))
    out["cluster.pairwise_distances_peak_bytes"] = count("cluster", "cluster.pairwise_distances_peak_bytes")
    out["cluster.zero_distance_merge_share"] = _ratio(
        count("cluster", "cluster.zero_distance_merges"), count("cluster", "cluster.merges")
    )
    out["trace.overhead_s"] = traced_run["wall_s"] - untraced_wall_s
    return out


def host_facts(nproc: int, env: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": nproc,
        "cpu": cpu,
        "blas_threads": {var: env[var] for var in BLAS_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed repetitions run at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cure" / "__init__.py").is_file():
        print(f"error: the cure sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    started = time.perf_counter()

    setups, setup_times = [], []
    setup_dir = None

    def set_up(i: int) -> None:
        nonlocal setup_dir
        result, elapsed = bench.setup(f"setup-{i}")
        if result is not None and (not setups or bench.same_artifacts(setups[0], result, f"setup-{i}")):
            if not setups:
                setup_dir = work / f"setup-{i}"  # the repetitions read the first good set-up
            setups.append(result)
            setup_times.append(elapsed - sum(map(sum, result["steps"].get("reference", []))))

    # The other set-ups alternate with the first repetitions, so that their times
    # (and on bulk, the training steps) are not all taken in one stretch of the run.
    remaining = iter(range(SETUPS))
    for i in remaining:
        set_up(i)
        if setups:
            break

    runs: list[dict] = []
    traced_setup = traced_run = None
    if setups:
        runs_started = time.perf_counter()
        last = 0.0
        for i in itertools.count():
            if i >= MIN_RUNS and time.perf_counter() - runs_started >= args.seconds:
                break
            if i >= MIN_RUNS and time.perf_counter() - started + last > BUDGET_S:
                break
            if (k := next(remaining, None)) is not None:
                set_up(k)
            result, last = bench.run(setup_dir, f"run-{i}")
            if result is not None and (not runs or bench.same_artifacts(runs[0], result, f"run-{i}")):
                runs.append(result)
        for k in remaining:
            set_up(k)
        if args.trace and runs:
            if WORKLOADS[args.workload].train_corpus is not None:
                traced_setup, _ = bench.setup("setup-traced", traced=True)
                if traced_setup is not None and not bench.same_artifacts(setups[0], traced_setup, "setup-traced"):
                    traced_setup = None
            traced_run, _ = bench.run(setup_dir, "run-traced", traced=True)
            if traced_run is not None and not bench.same_artifacts(runs[0], traced_run, "run-traced"):
                traced_run = None

    metrics: dict[str, float] = {}
    scaled_from: dict = {}
    if runs and setups and (not args.trace or traced_run is not None):
        if args.trace:
            metrics = per_layer(traced_setup, traced_run, min(r["wall_s"] for r in runs))
            units = dict(per_layer_names())
        else:
            metrics, scaled_from = end_to_end(setups, setup_times, runs)
            units = dict(END_TO_END)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_facts(bench.nproc, bench.env),
        "inputs_sha256": setups[0]["hashes"] if setups else {},
        "setup_s": setup_times,
        "run_wall_s": [r["wall_s"] for r in runs],
        "steps_per_stage": {st: len(stage_samples(runs, st)[0]) for st in STAGES if stage_samples(runs, st)},
        **scaled_from,
        "absent_hooks": sorted({a for r in (traced_run, traced_setup, *runs[:1]) if r for a in r["absent"]}),
        "failures": bench.failures,
    }
    print(json.dumps({"info": info}))
    for failure in bench.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    if not metrics:
        return 1
    if not bench.failures:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
