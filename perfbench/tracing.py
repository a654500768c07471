"""Traced mode: spans and counters taken from outside the program.

The program is not changed.  :func:`instrument` replaces public entry
points of each layer with thin wrappers that record a span per call
(name, start, end, the request it belongs to and the span that caused
it), keeps the spans in memory, and reads the counters the program
already keeps (``EngineStats``, ``ServiceStats``, ``GradientStore.stats()``
and the ``generation.*`` prefix counters).  :meth:`Tracer.write` puts
the spans on disk once the run is over; :func:`layer_metrics` turns them
into the per-layer numbers named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from pathlib import Path

from repro.baselines.lm import LMClassifier
from repro.core.pruning import DataPruner
from repro.core.zigong import ZiGong
from repro.influence.api import DataInfluence
from repro.influence.datainf import DataInf
from repro.influence.store import GradientStore
from repro.influence.tracin import TracInCP
from repro.nn.continuous import ContinuousScheduler
from repro.nn.transformer import MistralTiny
from repro.obs.trace import Span
from repro.obs.trace import Tracer as SpanTree
from repro.serving.behavior_card import BehaviorCardService
from repro.serving.cluster import ClusterSupervisor
from repro.serving.continuous import ContinuousEngine
from repro.serving.engine import MicroBatchEngine
from repro.serving.explain import ExplainService
from repro.tokenizer.whitespace import WordTokenizer
from repro.training.checkpoint import CheckpointManager


class Tracer:
    """Spans of the traced pass, kept on a ``repro.obs`` tracer.

    Every span carries two attributes: ``trace``, the request it belongs
    to (inherited from the span that caused it), and ``phase``, the
    workload phase it ran in.  The span that caused another is its parent
    in the tree; waits that start on one thread and end on another are
    recorded as spans of their own.
    """

    def __init__(self):
        self.tree = SpanTree(max_roots=None)  # keep every span of the pass
        self.stores: list[GradientStore] = []
        self.phase = ""  # the workload phase new spans belong to
        self._traces = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, trace: str | None = None):
        if trace is None:
            parent = self.tree.current()
            trace = parent.attrs["trace"] if parent is not None else f"t{next(self._traces)}"
        with self.tree.span(name, trace=trace, phase=self.phase) as span:
            yield span

    def record(self, name: str, trace: str, start: float, end: float) -> None:
        """A span measured by the caller (a wait between two observed events)."""
        span = Span(name, start_s=start, end_s=end, attrs={"trace": trace, "phase": self.phase})
        parent = self.tree.current()
        if parent is not None:
            parent.children.append(span)
        else:
            self.tree.roots.append(span)

    def spans_by_name(self, phase: str) -> dict[str, list[Span]]:
        """Every finished span of ``phase``, by name."""
        by_name: dict[str, list[Span]] = defaultdict(list)
        for root in list(self.tree.roots):
            for span in root.walk():
                if span.attrs.get("phase") == phase:
                    by_name[span.name].append(span)
        return by_name

    # -- wrapping ------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name, trace_of=None, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or ``f(args, kwargs) -> name``;
        ``trace_of(args, kwargs)`` names the request the call belongs to;
        ``after(span, args, kwargs, result)`` may add attributes.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            trace = trace_of(args, kwargs) if trace_of is not None else None
            with tracer.span(span_name, trace) as span:
                result = original(*args, **kwargs)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """One JSON line per root span, its subtree nested inside."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for root in self.tree.roots:
                handle.write(json.dumps(root.to_dict(), default=str) + "\n")


def _forward_kind(args, kwargs) -> str:
    """Full-sequence forward, prefill into a KV cache, or one decode step."""
    token_ids = args[1] if len(args) > 1 else kwargs["token_ids"]
    cache = args[2] if len(args) > 2 else kwargs.get("cache")
    if cache is None:
        return "nn.forward"
    width = token_ids.shape[-1] if hasattr(token_ids, "shape") else len(token_ids)
    return "nn.decode_step" if width == 1 else "nn.prefill"


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    # Queue wait.  A micro-batch pump takes the oldest queued requests, so
    # each engine's submit times are kept in its FIFO order; a continuous
    # engine hands each admitted request to its scheduler by user id.
    queued: dict[int, deque[tuple[str, float]]] = {}
    submitted: dict[str, float] = {}
    queue_lock = threading.Lock()

    def wrap_submit(owner) -> None:
        original = owner.__dict__["submit"]

        @functools.wraps(original)
        def submit(self, request):
            now = time.perf_counter()
            with queue_lock:
                fifo = queued.setdefault(id(self), deque())
                fifo.append((request.user_id, now))
                submitted[request.user_id] = now
                try:
                    return original(self, request)
                except Exception:
                    fifo.pop()
                    raise

        tracer.patch(owner, "submit", submit)

    wrap_submit(MicroBatchEngine)
    wrap_submit(ContinuousEngine)

    original_pump = MicroBatchEngine.__dict__["pump"]

    @functools.wraps(original_pump)
    def pump(self):
        started = time.perf_counter()
        with tracer.span("engine.pump", f"engine-{id(self)}") as span:
            taken = original_pump(self)
        span.attrs["rows"] = taken
        with queue_lock:
            fifo = queued.get(id(self), deque())
            waits = [fifo.popleft() for _ in range(min(taken, len(fifo)))]
        for user, at in waits:
            tracer.record("engine.queue_wait", user, at, started)
        return taken

    tracer.patch(MicroBatchEngine, "pump", pump)

    tracer.wrap(ClusterSupervisor, "submit", "cluster.submit", trace_of=lambda a, k: a[1].user_id)
    tracer.wrap(LMClassifier, "score_batch", "lm.score_batch",
                after=lambda s, a, k, r: s.attrs.update(rows=len(a[1])))
    tracer.wrap(LMClassifier, "score", "lm.score")
    tracer.wrap(WordTokenizer, "encode", "tokenizer.encode")
    tracer.wrap(MistralTiny, "forward", _forward_kind)

    # Continuous batching: admission into the scheduler, then decode steps.
    # A request's admit wait runs from the scheduler's submit to the start
    # of the step that emits its first token.
    step_started = threading.local()
    original_sched_submit = ContinuousScheduler.__dict__["submit"]

    @functools.wraps(original_sched_submit)
    def sched_submit(self, prompt_ids, on_token=None, request_id=None):
        now = time.perf_counter()
        user = str(request_id)
        with queue_lock:
            at = submitted.pop(user, None)
        if at is not None:
            tracer.record("engine.queue_wait", user, at, now)
        first = [True]

        def on_first(stream, token):
            if first[0]:
                first[0] = False
                tracer.record("continuous.admit_wait", user, now, getattr(step_started, "t", now))
            if on_token is not None:
                on_token(stream, token)

        return original_sched_submit(self, prompt_ids, on_token=on_first, request_id=request_id)

    tracer.patch(ContinuousScheduler, "submit", sched_submit)

    original_step = ContinuousScheduler.__dict__["step"]

    @functools.wraps(original_step)
    def step(self):
        step_started.t = time.perf_counter()
        with tracer.span("continuous.step", f"scheduler-{id(self)}") as span:
            emitted = original_step(self)
        span.attrs["rows"] = emitted
        return emitted

    tracer.patch(ContinuousScheduler, "step", step)

    # Behavior Card, explanations and influence.
    tracer.wrap(BehaviorCardService, "decide", "behavior_card.decide", trace_of=lambda a, k: a[1])
    tracer.wrap(ExplainService, "explain", "explain.query", trace_of=lambda a, k: a[1])
    tracer.wrap(DataInfluence, "k_most_influential", "influence.k_most_influential")
    for cls in (DataInf, TracInCP):
        tracer.wrap(cls, "token_influence", "influence.token_influence")

    original_store_init = GradientStore.__dict__["__init__"]

    @functools.wraps(original_store_init)
    def store_init(self, *args, **kwargs):
        original_store_init(self, *args, **kwargs)
        tracer.stores.append(self)

    tracer.patch(GradientStore, "__init__", store_init)

    # The training recipe.
    tracer.wrap(DataPruner, "score", "pruning.score")

    def finetune_kind(args, kwargs):
        # The recipe's warmup fine-tune is the one that keeps checkpoints.
        has_dir = kwargs.get("checkpoint_dir", args[2] if len(args) > 2 else None) is not None
        return "training.warmup" if has_dir else "training.finetune"

    def finetune_after(span, args, kwargs, history):
        span.attrs["steps"] = len(history.steps)
        span.attrs["tokens"] = sum(s.tokens for s in history.steps)
        span.attrs["step_s"] = sum(s.step_s for s in history.steps)

    tracer.wrap(ZiGong, "finetune", finetune_kind, after=finetune_after)
    tracer.wrap(CheckpointManager, "save", "training.checkpoint_save")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, probe: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase.

    ``probe`` carries what the workload read around the phase: wall time,
    engine/service/store counter deltas, prefix counters, generator lag
    and the trace overhead.
    """
    spans = tracer.spans_by_name(probe["phase"])

    def d(name: str) -> list[float]:
        return [s.duration_s for s in spans[name]]

    train = spans["training.warmup"] + spans["training.finetune"]
    steps = sum(s.attrs.get("steps", 0) for s in train)
    step_s = sum(s.attrs.get("step_s", 0.0) for s in train)
    tokens = sum(s.attrs.get("tokens", 0) for s in train)
    lm_busy = sum(d("lm.score_batch")) + sum(d("lm.score"))
    store_hits = probe.get("store_hits", 0.0)
    store_misses = probe.get("store_misses", 0.0)
    saved = probe.get("prefill_tokens_saved", 0.0)
    computed = probe.get("prefill_tokens", 0.0)
    live = [s.attrs["rows"] for s in spans["continuous.step"]]
    return {
        "cluster.submit_us": (1e6 * _median(d("cluster.submit")), "us"),
        "engine.queue_wait_ms": (1e3 * _median(d("engine.queue_wait")), "ms"),
        "engine.batch_rows": (_share(probe.get("engine_completed", 0), probe.get("engine_batches", 0)), "count"),
        "engine.batches": (float(probe.get("engine_batches", 0)), "count"),
        "lm.score_batch_ms": (1e3 * _median(d("lm.score_batch")), "ms"),
        "lm.busy_share": (_share(lm_busy, probe["wall_s"] * probe.get("lanes", 1)), "share"),
        "tokenizer.encode_us": (1e6 * _median(d("tokenizer.encode")), "us"),
        "nn.forward_ms": (1e3 * _median(d("nn.forward")), "ms"),
        "nn.prefill_ms": (1e3 * _median(d("nn.prefill")), "ms"),
        "nn.decode_step_ms": (1e3 * _median(d("nn.decode_step")), "ms"),
        "continuous.admit_wait_ms": (1e3 * _median(d("continuous.admit_wait")), "ms"),
        "continuous.live_rows": (sum(live) / len(live) if live else 0.0, "count"),
        "continuous.steps": (float(len(live)), "count"),
        "cache.prefix_hit_share": (_share(saved, saved + computed), "share"),
        "behavior_card.decide_ms": (1e3 * _median(d("behavior_card.decide")), "ms"),
        "behavior_card.cache_hit_share": (
            _share(probe.get("card_hits", 0), probe.get("card_requests", 0)), "share"),
        "explain.audit_entries": (float(probe.get("audit_entries", 0)), "count"),
        "influence.k_most_influential_ms": (1e3 * _median(d("influence.k_most_influential")), "ms"),
        "influence.token_influence_ms": (1e3 * _median(d("influence.token_influence")), "ms"),
        "influence.store_hit_share": (_share(store_hits, store_hits + store_misses), "share"),
        "influence.gradient_rows": (float(store_misses), "count"),
        "pruning.score_s": (_median(d("pruning.score")), "s"),
        "training.warmup_s": (_median(d("training.warmup")), "s"),
        "training.finetune_s": (_median(d("training.finetune")), "s"),
        "training.steps": (float(steps), "count"),
        "training.tokens_per_s": (_share(tokens, step_s), "1/s"),
        "training.checkpoint_save_ms": (1e3 * _median(d("training.checkpoint_save")), "ms"),
        "bench.generator_lag_ms": (probe.get("generator_lag_ms", 0.0), "ms"),
        "bench.trace_overhead": (probe["trace_overhead"], "share"),
    }


def store_counts(stores) -> tuple[float, float]:
    """(hits, misses) summed over gradient stores, from ``GradientStore.stats()``."""
    hits = misses = 0.0
    for store in stores:
        stats = store.stats()
        hits += stats["hits_memory"] + stats["hits_disk"]
        misses += stats["misses"]
    return hits, misses
