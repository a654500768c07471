"""stream: Poisson arrivals of generative requests to a continuous engine.

The one workload where incremental decode dominates: the KV cache, the
continuous scheduler and the prefix cache.  Answers mix a 2-token
decision with a 19-token notice, and a share of requests repeat an
earlier applicant's prompt, so the prefix cache has something to find.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np

from common import (
    applicant_texts,
    decision_prompt,
    fine_tune_served,
    median,
    notice_prompt,
    prefix_counters,
    rng_for,
    search_max_rps,
    send_burst,
    send_open_loop,
    tail,
    tail_percentile,
    with_repeats,
)
from repro.baselines.lm import LMClassifier
from repro.nn.generation import generate
from repro.serving import ScoreRequest, zigong_replica_factory
from repro.serving.continuous import ContinuousEngine
from repro.serving.engine import EngineConfig

REF_RATE = 50.0  # req/s of the open-loop reference windows
ROUNDS = 16  # reference windows and bursts alternate; metrics are medians over rounds
WINDOW_SHARE = 0.1  # of --seconds per reference window
BURST = 64  # prompts arriving at once per round
LADDER = (200.0, 300.0, 400.0, 500.0, 600.0)  # req/s, searched for max_rps
RUNG_S = 0.3
TAIL_LIMIT_MS = 50.0  # time-to-first-token tail limit for max_rps
LONG_SHARE = 0.25  # requests asking for the 19-token notice
REPEAT_SHARE = 0.3  # requests repeating an earlier applicant's prompt
MAX_NEW_TOKENS = 24
LIVE_ROWS = 8
CHECK_SAMPLE = 32  # streams re-generated alone with sequential greedy generate


def prepare(seed: int):
    return fine_tune_served()[0]


class State:
    def __init__(self, seed: int, zigong):
        self.zigong = zigong
        replica = zigong_replica_factory(zigong)(0).generation
        # The replica's codecs, with the prompt taken as sent (decision or
        # notice) and a token budget that fits the notice.
        self.lm = LMClassifier(replica.model, zigong.tokenizer, max_new_tokens=MAX_NEW_TOKENS,
                               prefix_cache_size=0)
        self.config = self.lm._generation_config()
        self._replica_finish = replica.finish
        self.prompts: dict[str, str] = {}
        self.finals: dict[str, list[int]] = {}
        app = dataclasses.replace(replica, encode=self._encode, finish=self._finish, generation=self.config)
        self.engine = ContinuousEngine(app, EngineConfig(max_batch_size=LIVE_ROWS, queue_capacity=1024))
        self.engine.start()
        warm = applicant_texts(seed, "stream-warm", 16)
        pendings = []
        for i, text in enumerate(warm):
            prompt = notice_prompt(text) if i % 4 == 0 else decision_prompt(text)
            pendings.append(self.submit(f"warm-{i}", prompt))
        for pending in pendings:
            pending.result(timeout=60)
        self.last: list[_Streams] = []

    def _encode(self, request):
        return self.lm._prompt_ids(self.prompts[request.user_id])

    def _finish(self, request, tokens):
        self.finals[request.user_id] = list(tokens)
        return self._replica_finish(request, tokens)

    def submit(self, user_id: str, prompt: str):
        self.prompts[user_id] = prompt
        return self.engine.submit(ScoreRequest(user_id, prompt))

    def close(self) -> None:
        self.engine.stop()


def make_prompts(seed: int, count: int, stream: str) -> list[str]:
    """Prompts with exactly the long-answer and repeat shares of the workload.

    Repeats are drawn within each answer length, so a repeat never turns
    a short request into a long one and the tokens per window stay fixed.
    """
    rng = rng_for(seed, stream + "-mix")
    fresh = applicant_texts(seed, stream, count)
    long = set(rng.choice(count, size=int(round(LONG_SHARE * count)), replace=False).tolist())
    prompts = [notice_prompt(t) if i in long else decision_prompt(t) for i, t in enumerate(fresh)]
    for kind in (True, False):
        positions = [i for i in range(count) if (i in long) == kind]
        repeated = with_repeats([prompts[i] for i in positions], REPEAT_SHARE, rng)
        for i, prompt in zip(positions, repeated):
            prompts[i] = prompt
    return prompts


class _Streams:
    """Sends prompts; keeps first-token times, token gaps and finalizations."""

    def __init__(self, state: State, prompts: list[str], prefix: str):
        self.state = state
        self.prompts = prompts
        self.ids = [f"{prefix}-{i}" for i in range(len(prompts))]
        self.pendings = [None] * len(prompts)
        self.first = [0.0] * len(prompts)
        self.gaps: list[float] = []
        self.finalized = [0] * len(prompts)
        self.late = 0  # streams whose first token came before the callback was registered
        self._last = [0.0] * len(prompts)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.prompts)

    def submit(self, i: int, on_done) -> None:
        pending = self.state.submit(self.ids[i], self.prompts[i])
        self.pendings[i] = pending

        def on_token(_p, _token, i=i):
            now = time.perf_counter()
            with self._lock:
                if self.first[i] == 0.0:
                    self.first[i] = now
                else:
                    self.gaps.append(now - self._last[i])
                self._last[i] = now

        def done(_p, i=i):
            self.finalized[i] += 1
            on_done(i)

        pending.add_token_callback(on_token)
        # Tokens the decode thread emitted before the callback was
        # registered are not replayed; the first of them is timed here.
        if pending.stream:
            now = time.perf_counter()
            with self._lock:
                if self.first[i] == 0.0:
                    self.first[i] = self._last[i] = now
                    self.late += 1
        pending.add_done_callback(done)

    def count(self, phase) -> None:
        ok = sum(p is not None and p.done and p.error is None for p in self.pendings)
        phase.sent += len(self.prompts)
        phase.succeeded += ok
        phase.failed += len(self.prompts) - ok

    def ttft_ms(self, since) -> list[float]:
        """Time to first token, from ``since[i]`` (when request ``i`` was due)."""
        return [1000.0 * (f - s) for f, s in zip(self.first, since)]

    def tokens(self) -> int:
        return sum(len(self.state.finals.get(uid, ())) for uid in self.ids)


def measure(state: State, seed: int, seconds: float, outcome) -> dict:
    n_window = int(round(REF_RATE * seconds * WINDOW_SHARE))
    stats = state.engine.stats
    ref = outcome.phase("reference")
    burst = outcome.phase("burst")
    ttft_p50, ttft_tail, itl_p50, itl_tail, answer_p50 = ([] for _ in range(5))
    burst_p50, burst_tail, jobs, rates, lags = ([] for _ in range(5))
    batches = completed = saved = computed = 0.0
    wall_s = 0.0
    for r in range(ROUNDS):
        outcome.enter(ref)
        before = (stats.batches, stats.completed, *prefix_counters())
        started = time.perf_counter()
        streams = _Streams(state, make_prompts(seed, n_window, f"stream-{r}"), f"ref{r}")
        loop, finished = send_open_loop(streams, REF_RATE, rng_for(seed, f"stream-arrivals-{r}"), ref)
        wall_s += time.perf_counter() - started
        after = (stats.batches, stats.completed, *prefix_counters())
        batches += after[0] - before[0]
        completed += after[1] - before[1]
        saved += after[2] - before[2]
        computed += after[3] - before[3]
        outcome.check("reference windows finished", finished)
        ttft = streams.ttft_ms(loop.due)
        itl = [1000.0 * g for g in streams.gaps]
        ttft_p50.append(median(ttft))
        ttft_tail.append(tail(ttft))
        itl_p50.append(median(itl))
        itl_tail.append(tail(itl))
        answer_p50.append(median(loop.latencies_ms()))
        lags.append(1000 * median(loop.lag_s))
        state.last.append(streams)

        outcome.enter(burst)
        streams = _Streams(state, make_prompts(seed, BURST, f"stream-burst-{r}"), f"burst{r}")
        t0 = time.perf_counter()
        elapsed, finished = send_burst(streams, burst)
        outcome.check("bursts finished", finished)
        ttft = streams.ttft_ms([t0] * BURST)
        burst_p50.append(median(ttft))
        burst_tail.append(tail(ttft))
        jobs.append(elapsed)
        rates.append(streams.tokens() / elapsed)
        state.last.append(streams)

    outcome.metrics["p50_ms"] = (median(ttft_p50), "ms")
    outcome.metrics["tail_ms"] = (median(ttft_tail), "ms")
    outcome.metrics["job_s"] = (median(jobs), "s")
    outcome.info.update(
        reference_rate=REF_RATE, rounds=ROUNDS, window_samples=n_window,
        window_tail_percentile=round(tail_percentile(n_window), 2),
        itl_p50_ms=median(itl_p50), itl_tail_ms=median(itl_tail), answer_p50_ms=median(answer_p50),
        burst=BURST, burst_ttft_p50_ms=median(burst_p50), burst_ttft_tail_ms=median(burst_tail),
        tokens_per_s=median(rates), generator_lag_p50_ms=median(lags),
        window_p50_ms=ttft_p50, window_tail_ms=ttft_tail, burst_s=jobs,
    )
    probe = {
        "phase": "reference",
        "wall_s": wall_s,
        "primary": outcome.metrics["p50_ms"][0],
        "generator_lag_ms": median(lags),
        "engine_batches": batches,
        "engine_completed": completed,
        "prefill_tokens_saved": saved,
        "prefill_tokens": computed,
    }

    ladder = outcome.phase("ladder")

    def rung(k, rate, n):
        streams = _Streams(state, make_prompts(seed, n, f"stream-rung{k}"), f"rung{k}")
        loop, finished = send_open_loop(streams, rate, rng_for(seed, f"stream-rung{k}"), ladder)
        state.last.append(streams)
        return streams.ttft_ms(loop.due), finished

    search_max_rps(LADDER, RUNG_S, TAIL_LIMIT_MS, rung, outcome.info, "ttft_tail")
    return probe


def check(state: State, seed: int, outcome) -> None:
    """Exactly-once, every stream timed, streamed == final, and parity with sequential generate."""
    sampled = []
    lengths = []
    for streams in state.last:
        outcome.check("every request resolved exactly once", all(n == 1 for n in streams.finalized))
        outcome.check("every stream's first token was timed", all(f > 0.0 for f in streams.first))
        for uid, prompt, pending in zip(streams.ids, streams.prompts, streams.pendings):
            final = state.finals.get(uid)
            outcome.check("tokens streamed equal the final result",
                          final is not None and list(pending.stream) == final)
            sampled.append((prompt, final))
            lengths.append(len(final or ()))
    outcome.info["streams_timed_at_registration"] = sum(s.late for s in state.last)
    rng = rng_for(seed, "stream-check")
    picks = rng.choice(len(sampled), size=min(CHECK_SAMPLE, len(sampled)), replace=False)
    same = 0
    for j in picks:
        prompt, final = sampled[int(j)]
        alone = generate(state.zigong.model, state.lm._prompt_ids(prompt), state.config)
        same += alone == final
    outcome.check("streams equal sequential greedy generate", same == len(picks))
    lengths = np.asarray(lengths)
    outcome.info["answer_tokens_short_long"] = [int((lengths <= 2).sum()), int((lengths > 2).sum())]
