"""decide: Poisson arrivals of distinct applicants to a serving cluster.

The paper's decision traffic, on the ``repro serve`` path: a
``ClusterSupervisor`` with two thread-transport micro-batch replicas.
It loads routing, admission, micro-batching and the full-sequence
scoring forward; it does no incremental decode and no backward pass
while it serves.
"""

from __future__ import annotations

import itertools
import math
import time

from common import (
    applicant_texts,
    decision_prompt,
    fine_tune_served,
    median,
    rng_for,
    search_max_rps,
    send_burst,
    send_open_loop,
    served_corpus,
    tail,
    tail_percentile,
)
from repro.errors import GradientError
from repro.influence.gradients import per_sample_gradient
from repro.serving import ClusterConfig, ClusterSupervisor, ScoreRequest, zigong_replica_factory
from repro.tensor import is_grad_enabled

REF_RATE = 200.0  # req/s: the rate p50_ms and tail_ms are taken at
ROUNDS = 20  # reference windows and bursts alternate; metrics are medians over rounds
WINDOW_SHARE = 0.05  # of --seconds per reference window
BURST = 320  # applicants submitted at once per round; job_s is the time to score them
LADDER = (700.0, 1000.0, 1300.0, 1600.0, 2000.0)  # req/s, searched for max_rps
RUNG_S = 0.3  # seconds of arrivals per rung
TAIL_LIMIT_MS = 50.0  # a rung passes when its tail stays under this
THRESHOLD = 0.5
REPLICAS = 2
CHECK_SAMPLE = 48  # decisions re-scored alone on the source model
SCORE_TOL = 1e-6  # absolute; batched vs single-prompt scoring


def prepare(seed: int):
    return fine_tune_served()[0]


class State:
    def __init__(self, seed: int, zigong):
        self.zigong = zigong
        self.cluster = ClusterSupervisor(
            zigong_replica_factory(self.zigong, threshold=THRESHOLD),
            # A queue deep enough for the burst: overload shows as latency
            # and backlog, never as a refused request.
            ClusterConfig(replicas=REPLICAS, queue_capacity=1024),
        )
        self.cluster.start()
        warm = applicant_texts(seed, "decide-warm", 64)
        pendings = [self.cluster.submit(ScoreRequest(f"warm-{i}", t)) for i, t in enumerate(warm)]
        for pending in pendings:
            pending.result(timeout=60)
        self.last: list[_Requests] = []

    def engines(self):
        return [replica.engine for replica in self.cluster.replicas]

    def close(self) -> None:
        self.cluster.stop()


class _Requests:
    """Sends requests and keeps every result, counting finalizations."""

    def __init__(self, cluster, texts, prefix):
        self.cluster = cluster
        self.texts = texts
        self.prefix = prefix
        self.results = [None] * len(texts)
        self.errors = [None] * len(texts)
        self.finalized = [0] * len(texts)

    def __len__(self) -> int:
        return len(self.texts)

    def submit(self, i, on_done):
        pending = self.cluster.submit(ScoreRequest(f"{self.prefix}-{i}", self.texts[i]))

        def done(p, i=i):
            self.finalized[i] += 1
            if p.error is None:
                self.results[i] = p.result(timeout=0)
            else:
                self.errors[i] = p.error
            on_done(i)

        pending.add_done_callback(done)

    def count(self, phase) -> None:
        ok = sum(r is not None for r in self.results)
        phase.sent += len(self.texts)
        phase.succeeded += ok
        phase.failed += len(self.texts) - ok


def measure(state: State, seed: int, seconds: float, outcome) -> dict:
    n_window = int(round(REF_RATE * seconds * WINDOW_SHARE))
    n_ladder = sum(int(round(rate * RUNG_S)) for rate in LADDER)
    texts = iter(applicant_texts(seed, "decide", ROUNDS * (n_window + BURST) + n_ladder))

    def batch(n: int, prefix: str) -> _Requests:
        reqs = _Requests(state.cluster, list(itertools.islice(texts, n)), prefix)
        state.last.append(reqs)
        return reqs

    engines = state.engines()
    ref = outcome.phase("reference")
    burst = outcome.phase("burst")
    p50s, tails, jobs, lags = [], [], [], []
    batches = completed = 0
    wall_s = 0.0
    for r in range(ROUNDS):
        outcome.enter(ref)
        before = [(e.stats.batches, e.stats.completed) for e in engines]
        started = time.perf_counter()
        loop, finished = send_open_loop(batch(n_window, f"ref{r}"), REF_RATE,
                                        rng_for(seed, f"decide-arrivals-{r}"), ref)
        wall_s += time.perf_counter() - started
        after = [(e.stats.batches, e.stats.completed) for e in engines]
        batches += sum(a[0] - b[0] for a, b in zip(after, before))
        completed += sum(a[1] - b[1] for a, b in zip(after, before))
        outcome.check("reference windows finished", finished)
        latencies = loop.latencies_ms()
        p50s.append(median(latencies))
        tails.append(tail(latencies))
        lags.append(1000 * median(loop.lag_s))

        outcome.enter(burst)
        elapsed, finished = send_burst(batch(BURST, f"burst{r}"), burst)
        outcome.check("bursts finished", finished)
        jobs.append(elapsed)

    outcome.metrics["p50_ms"] = (median(p50s), "ms")
    outcome.metrics["tail_ms"] = (median(tails), "ms")
    outcome.metrics["job_s"] = (median(jobs), "s")
    outcome.info.update(
        reference_rate=REF_RATE, rounds=ROUNDS, window_samples=n_window,
        window_tail_percentile=round(tail_percentile(n_window), 2), burst=BURST,
        burst_rps=BURST / median(jobs), generator_lag_p50_ms=median(lags),
        window_p50_ms=p50s, window_tail_ms=tails, burst_s=jobs,
    )
    probe = {
        "phase": "reference",
        "wall_s": wall_s,
        "lanes": REPLICAS,
        "primary": outcome.metrics["p50_ms"][0],
        "generator_lag_ms": median(lags),
        "engine_batches": batches,
        "engine_completed": completed,
    }

    ladder = outcome.phase("ladder")

    def rung(k, rate, n):
        loop, finished = send_open_loop(batch(n, f"rung{k}"), rate, rng_for(seed, f"decide-rung{k}"), ladder)
        return loop.latencies_ms(), finished

    search_max_rps(LADDER, RUNG_S, TAIL_LIMIT_MS, rung, outcome.info, "tail")
    _backward_after_serving(state, outcome)
    return probe


def _backward_after_serving(state: State, outcome) -> None:
    """One backward pass in the process that served: what a retrain or an
    explanation runs next.

    ``repro.tensor.no_grad`` saves and restores one process-wide flag, and
    the replica threads' overlapping blocks leave it off after serving, so
    this operation fails in every run so far; it is counted, not hidden.
    """
    phase = outcome.phase("backward-after-serving")
    outcome.info["grad_recording_on_after_serving"] = is_grad_enabled()
    example = state.zigong.tokenize(served_corpus()[:1])[0]
    phase.sent += 1
    try:
        per_sample_gradient(state.zigong.model, example)
        phase.succeeded += 1
    except GradientError as exc:
        phase.failed += 1
        outcome.info["backward_after_serving_error"] = str(exc)


def check(state: State, seed: int, outcome) -> None:
    """Exactly-once resolution, the decision contract, and score invariance."""
    classifier = state.zigong.classifier()
    bad_contract = 0
    sampled = []
    for reqs in state.last:
        outcome.check("every request resolved exactly once", all(n == 1 for n in reqs.finalized))
        outcome.check("no request failed", all(e is None for e in reqs.errors))
        for text, result in zip(reqs.texts, reqs.results):
            if result is None:
                continue
            if not (math.isfinite(result.score) and 0.0 <= result.score <= 1.0
                    and result.approved == (result.score < THRESHOLD)):
                bad_contract += 1
            sampled.append((text, result))
    outcome.check("scores finite, in [0, 1], approved == score < threshold", bad_contract == 0)
    picks = rng_for(seed, "decide-check").choice(len(sampled), size=min(CHECK_SAMPLE, len(sampled)), replace=False)
    worst = 0.0
    for j in picks:
        text, result = sampled[int(j)]
        alone = classifier.score(decision_prompt(text), "yes", "no")
        worst = max(worst, abs(alone - result.score))
    outcome.info["score_max_abs_diff"] = worst
    outcome.check(f"served scores equal single-prompt LMClassifier.score within {SCORE_TOL}", worst <= SCORE_TOL)
