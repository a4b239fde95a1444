"""Per-layer spans and counts for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.install` replaces each
hooked cure function, in its own module and in every cure module that
imported it by name, with a wrapper that times the call. A span's self time
is its duration minus the time its child spans cover, and spans are keyed by
the pipeline stage that was running. A hooked function that no longer exists
is reported as absent instead of failing the run.

Untraced runs install only the stage hooks and the step ticks: a tick marks
the start of a step that every run of one seed repeats identically (an
optimizer step, an encoded pair, a merge), so that a stage's time can be
split into steps and each step timed at its fastest over the runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class Hook:
    module: str  # defining module, e.g. "cure.autodiff"
    name: str  # function name in that module
    label: str = ""  # "<layer>.<function>" in metric names; derived from module and name by default
    stage: str = ""  # set: the call is the named pipeline stage

    @property
    def key(self) -> str:
        return self.label or f"{self.module.rsplit('.', 1)[-1]}.{self.name}"


STAGE_HOOKS = (
    Hook("cure.cli", "stage_extract", stage="extract-paths"),
    Hook("cure.cli", "stage_train", stage="train"),
    Hook("cure.cli", "stage_encode", stage="encode"),
    Hook("cure.cli", "stage_cluster", stage="cluster"),
    Hook("cure.cli", "stage_label", stage="label"),
    Hook("cure.cli", "stage_evaluate", stage="evaluate"),
)

LAYER_HOOKS = (
    Hook("cure.cli", "read_path_instances"),
    Hook("cure.corpus", "parse_corpus"),
    Hook("cure.paths", "extract_instances"),
    Hook("cure.paths", "group_pairs"),
    Hook("cure.vocab", "build_vocab"),
    Hook("cure.vocab", "load_pretrained"),
    Hook("cure.model", "encode_blocks"),
    Hook("cure.model", "decode_path"),
    Hook("cure.model", "infer_relation_vector"),
    Hook("cure.autodiff", "softmax_cross_entropy"),
    Hook("cure.autodiff", "backward"),
    Hook("cure.autodiff", "clip_gradients"),
    Hook("cure.autodiff", "sgd_step"),
    Hook("cure.autodiff", "zero_grad"),
    Hook("cure.autodiff", "write_checkpoint"),
    Hook("cure.autodiff", "read_checkpoint"),
    Hook("cure.cluster", "pairwise_distances"),
    Hook("cure.cluster", "hac", label="cluster.hac_self"),
    Hook("cure.cluster", "cut"),
    Hook("cure.labeling", "candidate_set"),
    Hook("cure.labeling", "wvs_label"),
    Hook("cure.labeling", "match_to_gold"),
    Hook("cure.metrics", "rand_index"),
    Hook("cure.metrics", "prf1"),
)

# Each call marks the start of one step of the running stage; a missing target only coarsens the steps.
TICK_HOOKS = (
    Hook("cure.autodiff", "backward"),  # one per optimizer step
    Hook("cure.model", "infer_relation_vector"),  # one per encoded pair
    Hook("cure.cluster", "Merge.__init__"),  # one per HAC merge
)

# Graph nodes are counted, not timed: a span per node would cost more than the node.
NODE_CLASS = ("cure.autodiff", "Value")


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stage = ""
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.absent: list[str] = []
        self._open: list[float] = []  # time covered by the child spans of each open span
        self._restore: list[tuple[object, str, object]] = []
        self.distinct_paths: dict[str, set] = defaultdict(set)
        # stage -> one list per call of the stage: its start, every tick, its end
        self.steps: dict[str, list[list[float]]] = defaultdict(list)

    # -- spans ---------------------------------------------------------------

    def call(self, key: str, fn: Callable, *args, **kwargs):
        """Run fn as a span named key under the current stage."""
        start = self.clock()
        self._open.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            covered = self._open.pop()
            self.self_s[(self.stage, key)] += elapsed - covered
            if self._open:
                self._open[-1] += elapsed

    def call_stage(self, stage: str, fn: Callable, *args, **kwargs):
        """Run fn as the named stage; its own self time is the stage's unattributed time."""
        outer, self.stage = self.stage, stage
        marks = [self.clock()]
        self.steps[stage].append(marks)
        try:
            return self.call(UNATTRIBUTED, fn, *args, **kwargs)
        finally:
            marks.append(self.clock())
            self.stage = outer

    def tick(self) -> None:
        """Mark the start of a step in the running stage."""
        if self.stage:
            self.steps[self.stage][-1].append(self.clock())

    def step_times(self) -> dict[str, list[list[float]]]:
        """stage -> for each call of the stage, the durations of its steps."""
        return {st: [[b - a for a, b in zip(m, m[1:])] for m in calls] for st, calls in self.steps.items()}

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[(self.stage, key)] += amount

    # -- installing hooks ------------------------------------------------------

    def install(self, hooks=STAGE_HOOKS + LAYER_HOOKS, node_class=NODE_CLASS) -> None:
        for hook in hooks:
            original = _lookup(hook.module, hook.name)
            if original is None:
                self.absent.append(f"{hook.module}.{hook.name}")
                continue
            self._patch_everywhere(hook.module, hook.name, original, self._wrap(hook, original))
        if node_class is not None:
            self._count_nodes(*node_class)

    def install_ticks(self, hooks=TICK_HOOKS) -> None:
        for hook in hooks:
            original = _lookup(hook.module, hook.name)
            if original is None:
                self.absent.append(f"{hook.module}.{hook.name}")
                continue
            ticked = self._ticked(original)
            owner_name, _, attr = hook.name.rpartition(".")
            if owner_name:  # a method: patch it on its class
                owner = _lookup(hook.module, owner_name)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, ticked)
            else:
                self._patch_everywhere(hook.module, hook.name, original, ticked)

    def _ticked(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.tick()
            return original(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch_everywhere(self, module: str, name: str, original, wrapper) -> None:
        package = module.split(".", 1)[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == package or mod_name.startswith(package + ".")):
                if getattr(mod, name, None) is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        observe, needs = _OBSERVERS.get(hook.key, (None, ()))
        signature = inspect.signature(original) if observe else None
        if observe and not set(needs) <= set(signature.parameters):
            self.absent.append(f"{hook.module}.{hook.name}({', '.join(needs)})")
            observe = None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if hook.stage:
                return self.call_stage(hook.stage, original, *args, **kwargs)
            if observe is None:
                return self.call(hook.key, original, *args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return observe(self, lambda: self.call(hook.key, original, *args, **kwargs), bound.arguments)

        return wrapper

    def _count_nodes(self, module: str, name: str) -> None:
        cls = _lookup(module, name)
        init = getattr(cls, "__init__", None) if cls is not None else None
        if init is None:
            self.absent.append(f"{module}.{name}.__init__")
            return

        @functools.wraps(init)
        def counted_init(node, *args, **kwargs):
            self.counts[(self.stage, "autodiff.nodes")] += 1
            init(node, *args, **kwargs)

        self._restore.append((cls, "__init__", init))
        cls.__init__ = counted_init


def _lookup(module: str, name: str):
    """module.name, where name may be dotted; None when any part is missing."""
    try:
        target = importlib.import_module(module)
    except ImportError:
        return None
    for part in name.split("."):
        target = getattr(target, part, None)
        if target is None:
            return None
    return target


# -- counts taken at hooked calls -------------------------------------------------
# Each observer runs the span through `run()` and reads its counts from the
# call's bound arguments or result.


def _observe_clip(tracer: Tracer, run, arguments):
    norm = run()
    tracer.count("autodiff.clip_calls")
    tracer.count("autodiff.clipped", float(norm > arguments["max_norm"]))
    return norm


def _observe_checkpoint(tracer: Tracer, run, arguments):
    result = run()
    tracer.counts[(tracer.stage, "autodiff.checkpoint_bytes")] = float(os.path.getsize(arguments["path"]))
    return result


def _observe_encode_blocks(tracer: Tracer, run, arguments):
    tracer.count("model.paths_encoded")
    tracer.distinct_paths[tracer.stage].add(arguments["path"])
    return run()


def _observe_distances(tracer: Tracer, run, arguments):
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        return run()
    finally:
        peak = float(tracemalloc.get_traced_memory()[1])
        if started:
            tracemalloc.stop()
        key = (tracer.stage, "cluster.pairwise_distances_peak_bytes")
        tracer.counts[key] = max(tracer.counts[key], peak)


def _observe_hac(tracer: Tracer, run, arguments):
    dendrogram = run()
    distances = [getattr(m, "distance", None) for m in getattr(dendrogram, "merges", ())]
    tracer.count("cluster.merges", len(distances))
    tracer.count("cluster.zero_distance_merges", sum(1 for d in distances if d == 0.0))
    return dendrogram


# hook key -> (observer, argument names it reads)
_OBSERVERS = {
    "autodiff.clip_gradients": (_observe_clip, ("max_norm",)),
    "autodiff.write_checkpoint": (_observe_checkpoint, ("path",)),
    "model.encode_blocks": (_observe_encode_blocks, ("path",)),
    "cluster.pairwise_distances": (_observe_distances, ()),
    "cluster.hac_self": (_observe_hac, ()),
}
