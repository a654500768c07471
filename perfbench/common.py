"""Shared pieces of the benchmark: inputs, the served model, timing helpers.

Every request, applicant text and recipe pool is made here from the
run's ``--seed``; the served model is one fixed build for every seed.  The
program only ever sees the generated texts and examples.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import bench_config
from repro.core import ZiGong
from repro.data.instruct import InstructExample, build_behavior_examples
from repro.data.templates import CLASSIFICATION_TEMPLATE
from repro.datasets.behavior import make_behavior
from repro.serving.behavior_card import DEFAULT_QUESTION

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# The served model is one fixed build, the same for every seed: like a
# deployed checkpoint it is part of the system under test, and the seed
# draws the traffic.  It learns two answer shapes, so the streamed answers
# mix a 2-token decision ("yes"/"no" + EOS) with a 19-token notice.
SERVED_SEED = 0
NOTICE_QUESTION = "write the adverse action notice"
NOTICE_ANSWER = (
    "this notice lists the main reasons behind the credit decision on the "
    "applicant recent repayment and spending behavior"
)
SERVED_USERS = 20  # x 8 periods = 160 decision examples
SERVED_NOTICES = 40
SETUP_REPEATS = 3


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, input stream)."""
    key = [ord(c) for c in stream]
    return np.random.default_rng([seed, *key])


def decision_prompt(text: str) -> str:
    return CLASSIFICATION_TEMPLATE.format(sentence=text, question=DEFAULT_QUESTION)


def notice_prompt(text: str) -> str:
    return CLASSIFICATION_TEMPLATE.format(sentence=text, question=NOTICE_QUESTION)


def served_corpus() -> list[InstructExample]:
    """Fine-tuning corpus of the served model: decisions plus notices."""
    data = make_behavior(n_users=SERVED_USERS, n_periods=8,
                         seed=int(rng_for(SERVED_SEED, "train").integers(1 << 30)))
    examples = build_behavior_examples(data)
    rng = rng_for(SERVED_SEED, "notices")
    for _ in range(SERVED_NOTICES):
        user = int(rng.integers(data.n_users))
        period = int(rng.integers(data.n_periods))
        examples.append(
            InstructExample(
                prompt=notice_prompt(data.row_text(user, period)),
                answer=NOTICE_ANSWER,
                label=-1,
                timestamp=float(period),
            )
        )
    return examples


def applicant_texts(seed: int, stream: str, count: int) -> list[str]:
    """``count`` distinct applicant behavior texts, in a seeded order."""
    data = make_behavior(n_users=max(64, count // 2), n_periods=8, seed=int(rng_for(seed, stream).integers(1 << 30)))
    seen: dict[str, None] = {}
    for user in range(data.n_users):
        for period in range(data.n_periods):
            seen.setdefault(data.row_text(user, period), None)
    texts = list(seen)
    if len(texts) < count:
        raise RuntimeError(f"only {len(texts)} distinct texts for {count} requests")
    order = rng_for(seed, stream + "-order").permutation(len(texts))[:count]
    return [texts[i] for i in order]


def with_repeats(fresh: list[str], share: float, rng: np.random.Generator) -> list[str]:
    """Replace exactly a ``share`` of positions (never the first) with an earlier text."""
    texts = list(fresh)
    n_repeat = int(round(share * len(texts)))
    for i in sorted(rng.choice(np.arange(1, len(texts)), size=n_repeat, replace=False)):
        texts[i] = texts[int(rng.integers(i))]
    return texts


def fine_tune_served(checkpoint_dir: Path | None = None) -> tuple[ZiGong, list[InstructExample]]:
    """Build and fine-tune the served model (bench scale, Table 3 structure)."""
    corpus = served_corpus()
    zigong = ZiGong.from_examples(corpus, config=bench_config(seed=0))
    zigong.finetune(corpus, checkpoint_dir=checkpoint_dir)
    return zigong, corpus


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> float:
    """The highest percentile with at least ten samples beyond it.

    Nearest-rank: with ``n`` sorted samples the value at index ``n - 11``
    has exactly ten samples above it.  Needs at least 40 samples.
    """
    ordered = sorted(values)
    if len(ordered) < 40:
        raise RuntimeError(f"a tail needs at least 40 samples, got {len(ordered)}")
    return float(ordered[-11])


def tail_percentile(n: int) -> float:
    """Which percentile :func:`tail` reads from ``n`` samples."""
    return 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(prepare, build, repeats: int = SETUP_REPEATS):
    """Set up ``repeats`` times; return (last state, median seconds).

    A set-up is ``prepare()`` (data and training) followed by
    ``build(prepared)`` (the service and its warm-up); its time is the sum
    of the two.  Every ``prepare`` runs before the first ``build``, so no
    training runs in a process that has already served (serving threads
    can leave gradient recording off process-wide; the decide workload
    counts that as a failed operation).  Each repetition does the whole
    work, so the median times seconds of deterministic work rather than
    one lucky or unlucky pass.
    """
    prepared, times = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        prepared.append(prepare())
        times.append(time.perf_counter() - started)
        gc.collect()  # training's garbage, so peak memory does not depend on when it is collected
    state = None
    for k, item in enumerate(prepared):
        if state is not None:
            state.close()
            state = None
            gc.collect()  # one service alive at a time keeps peak memory repeatable
        started = time.perf_counter()
        state = build(item)
        times[k] += time.perf_counter() - started
    return state, median(times)


# ----------------------------------------------------------------------
# Phases and results
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """Requests sent, succeeded and failed in one phase of a workload."""

    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0

    def line(self) -> str:
        return f"phase {self.name}: sent={self.sent} succeeded={self.succeeded} failed={self.failed}"


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    phases: list[Phase] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    tracer: object | None = None  # set in traced runs; spans are tagged with the phase

    def phase(self, name: str) -> Phase:
        phase = Phase(name)
        self.phases.append(phase)
        self.enter(phase)
        return phase

    def enter(self, phase: Phase) -> None:
        """Mark the phase the following work belongs to (tags traced spans)."""
        if self.tracer is not None:
            self.tracer.phase = phase.name

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def attempted(self) -> int:
        return sum(p.sent for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases)


class Countdown:
    """Set when ``count`` completions have been marked (from any thread)."""

    def __init__(self, count: int):
        self._remaining = count
        self._lock = threading.Lock()
        self._event = threading.Event()
        if count == 0:
            self._event.set()

    def done(self, _index: int = 0) -> None:
        with self._lock:
            self._remaining -= 1
            if self._remaining == 0:
                self._event.set()

    def wait(self, timeout: float) -> bool:
        return self._event.wait(timeout)


class OpenLoop:
    """Poisson arrivals from one generator thread, timed from when each was due.

    ``submit(i)`` sends request ``i``; its completion callback calls
    :meth:`done`.  Latency is ``done - due``, so a
    stalled generator or a full queue shows up as latency, and the
    generator's own lateness is kept in ``lag_s``.
    """

    def __init__(self, rate: float, count: int, rng: np.random.Generator):
        gaps = rng.exponential(1.0 / rate, size=count)
        self.offsets = np.cumsum(gaps) - gaps[0]
        self.due = [0.0] * count
        self.finished = [0.0] * count
        self.lag_s: list[float] = []
        self._countdown = Countdown(count)

    def run(self, submit) -> None:
        start = time.perf_counter()
        for i, offset in enumerate(self.offsets):
            due = start + float(offset)
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
                now = time.perf_counter()
            self.due[i] = due
            self.lag_s.append(max(0.0, now - due))
            submit(i)

    def done(self, i: int) -> None:
        self.finished[i] = time.perf_counter()
        self._countdown.done()

    def wait(self, timeout: float) -> bool:
        return self._countdown.wait(timeout)

    def latencies_ms(self) -> list[float]:
        return [1000.0 * (f - d) for f, d in zip(self.finished, self.due)]


def send_open_loop(batch, rate: float, rng: np.random.Generator, phase, timeout: float = 120.0):
    """Send every request of ``batch`` at Poisson arrivals; returns (loop, finished).

    ``batch`` has ``len()``, ``submit(i, on_done)`` (send request ``i``,
    call ``on_done(i)`` when it resolves) and ``count(phase)``.
    """
    loop = OpenLoop(rate, len(batch), rng)
    loop.run(lambda i: batch.submit(i, loop.done))
    finished = loop.wait(timeout)
    batch.count(phase)
    return loop, finished


def send_burst(batch, phase, timeout: float = 120.0) -> tuple[float, bool]:
    """Send every request of ``batch`` at once; returns (seconds to the last, finished)."""
    countdown = Countdown(len(batch))
    started = time.perf_counter()
    for i in range(len(batch)):
        batch.submit(i, countdown.done)
    finished = countdown.wait(timeout)
    elapsed = time.perf_counter() - started
    batch.count(phase)
    return elapsed, finished


def search_max_rps(ladder, rung_s: float, limit_ms: float, run_rung, info: dict, label: str) -> float:
    """The highest ladder rate whose tail meets ``limit_ms`` with no backlog.

    ``run_rung(k, rate, n)`` sends ``n`` requests at ``rate`` and returns
    (latencies in arrival order, finished).  No backlog means the last
    request, too, was answered within the limit of when it was due.
    """
    max_rps = 0.0
    for k, rate in enumerate(ladder):
        latencies, finished = run_rung(k, rate, int(round(rate * rung_s)))
        rung_tail = tail(latencies)
        if finished and rung_tail <= limit_ms and latencies[-1] <= limit_ms:
            max_rps = rate
        info[f"rung_{int(rate)}_{label}_ms"] = round(rung_tail, 3)
    info["max_rps"] = max_rps
    info[f"{label}_limit_ms"] = limit_ms
    return max_rps


def prefix_counters() -> tuple[float, float]:
    """(prompt tokens served from the prefix cache, prompt tokens prefilled).

    Read from the program's own ``generation.*`` counters on the
    process-wide observability registry.
    """
    from repro.obs import get_observability

    metrics = get_observability().metrics
    return (metrics.counter("generation.prefill_tokens_saved").value,
            metrics.counter("generation.prefill_tokens").value)


class StealMeter:
    """Share of one CPU's time the host gave to other guests (``/proc/stat`` steal)."""

    def __init__(self, cpu: int):
        self.label = f"cpu{cpu}"
        self._start = self._read()

    def _read(self) -> list[int] | None:
        try:
            with open("/proc/stat", encoding="ascii") as handle:
                for line in handle:
                    fields = line.split()
                    if fields[0] == self.label:
                        return [int(v) for v in fields[1:]]
        except OSError:
            pass
        return None

    def share(self) -> float | None:
        end = self._read()
        if self._start is None or end is None or len(end) < 8:
            return None
        delta = [b - a for a, b in zip(self._start, end)]
        total = sum(delta[:8])
        return delta[7] / total if total else 0.0


def run_info(seed: int) -> dict:
    """Run hygiene: what produced these numbers."""
    info = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except TypeError:  # numpy < 1.26 has no mode="dicts"
        info["blas"] = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        info["git_rev"] = rev.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        info["git_rev"] = "none"
    return info


def log(line: str) -> None:
    print(line, flush=True)
