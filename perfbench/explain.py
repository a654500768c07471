"""explain: one waiting caller asking why applicants were decided as they were.

A closed loop, like a case officer: each ``ExplainService.explain`` call
(DataInf top-k plus token attribution) waits for the previous one.  Per-
example backward passes and gradient-store reads sit on the request path,
and a share of repeat applicants gives the Behavior Card cache and the
store real hits.  A bulk audit of fresh applicants through
``explain_requests`` gives job_s.
"""

from __future__ import annotations

import itertools
import math
import shutil
import time

import numpy as np

from common import (
    OUT_DIR,
    applicant_texts,
    decision_prompt,
    fine_tune_served,
    median,
    rng_for,
    tail,
    tail_percentile,
    with_repeats,
)
from repro.serving import ExplainService
from repro.serving.behavior_card import ExplainAuditEntry
from repro.serving.explain import ExplainConfig, ExplainRequest
from repro.training.checkpoint import CheckpointManager

QUERIES_PER_SECOND = 8  # closed-loop queries per --seconds (one query takes ~80 ms)
ROUNDS = 8  # closed-loop stretches and bulk audits alternate; job_s is the median audit
REPEAT_SHARE = 0.3
BULK = 4  # fresh applicants per bulk audit
TOP_K = 3
TOKEN_SUM_RTOL = 1e-6  # token attributions vs summed influence of the returned examples
SCORE_TOL = 1e-9

_DIRS = itertools.count()


def prepare(seed: int):
    """The served model, fine-tuned with checkpoints kept for the influence estimator."""
    ckpt_dir = OUT_DIR / f"explain-ckpt-{next(_DIRS)}"
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    zigong, corpus = fine_tune_served(checkpoint_dir=ckpt_dir)
    return zigong, corpus, ckpt_dir


class State:
    def __init__(self, seed: int, prepared):
        self.zigong, self.corpus, self.ckpt_dir = prepared
        checkpoints = CheckpointManager(self.ckpt_dir).checkpoints()
        self.service = ExplainService.for_zigong(
            self.zigong, self.corpus, checkpoints, estimator="datainf", config=ExplainConfig(top_k=TOP_K))
        # The first query computes the training-set gradient rows.
        for i, text in enumerate(applicant_texts(seed, "explain-warm", 2)):
            self.service.explain(f"warm-{i}", text)

    def close(self) -> None:
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)


def _store_counts(store) -> tuple[float, float]:
    stats = store.stats()
    return stats["hits_memory"] + stats["hits_disk"], stats["misses"]


def measure(state: State, seed: int, seconds: float, outcome) -> dict:
    service = state.service
    card = service.behavior_card
    n_queries = int(round(QUERIES_PER_SECOND * seconds))
    per_round = n_queries // ROUNDS
    fresh = applicant_texts(seed, "explain", n_queries + ROUNDS * BULK)
    texts = with_repeats(fresh[:n_queries], REPEAT_SHARE, rng_for(seed, "explain-repeats"))
    bulk_texts = fresh[n_queries:]
    audit_before = len(card.audit_log())
    closed = outcome.phase("closed-loop")
    bulk = outcome.phase("bulk-audit")
    latencies, jobs = [], []
    asked, answers = [], []  # every query's text and result, in the order asked
    hits = misses = card_requests = card_hits = batches = completed = wall_s = 0.0
    for r in range(ROUNDS):
        outcome.enter(closed)
        h0, m0 = _store_counts(service.estimator.store)
        c0 = (card.stats.requests, card.stats.cache_hits, service.engine.stats.batches,
              service.engine.stats.completed)
        started = time.perf_counter()
        for i in range(r * per_round, (r + 1) * per_round):
            t0 = time.perf_counter()
            answers.append(service.explain(f"q-{i}", texts[i]))
            latencies.append(1000.0 * (time.perf_counter() - t0))
            asked.append(texts[i])
        wall_s += time.perf_counter() - started
        closed.sent += per_round
        closed.succeeded += per_round
        h1, m1 = _store_counts(service.estimator.store)
        hits += h1 - h0
        misses += m1 - m0
        card_requests += card.stats.requests - c0[0]
        card_hits += card.stats.cache_hits - c0[1]
        batches += service.engine.stats.batches - c0[2]
        completed += service.engine.stats.completed - c0[3]

        outcome.enter(bulk)
        audit = bulk_texts[r * BULK:(r + 1) * BULK]
        requests = [ExplainRequest(user_id=f"bulk-{r}-{i}", behavior_text=t) for i, t in enumerate(audit)]
        t0 = time.perf_counter()
        answers.extend(service.explain_requests(requests))
        jobs.append(time.perf_counter() - t0)
        asked.extend(audit)
        bulk.sent += len(requests)
        bulk.succeeded += len(requests)

    outcome.metrics["p50_ms"] = (median(latencies), "ms")
    outcome.metrics["tail_ms"] = (tail(latencies), "ms")
    outcome.metrics["job_s"] = (median(jobs), "s")
    outcome.info.update(samples=len(latencies), tail_percentile=round(tail_percentile(len(latencies)), 2),
                        repeat_share=REPEAT_SHARE, top_k=TOP_K, rounds=ROUNDS, bulk=BULK, bulk_s=jobs)
    explain_entries = [e for e in card.audit_log()[audit_before:] if isinstance(e, ExplainAuditEntry)]
    state.last = (asked, answers, audit_before)
    return {
        "phase": "closed-loop",
        "wall_s": wall_s,
        "primary": outcome.metrics["p50_ms"][0],
        "store_hits": hits,
        "store_misses": misses,
        "card_requests": card_requests,
        "card_hits": card_hits,
        "audit_entries": sum(not e.user_id.startswith("bulk-") for e in explain_entries),
        "engine_batches": batches,
        "engine_completed": completed,
    }


def check(state: State, seed: int, outcome) -> None:
    """Decisions, top-k shape, token sums and one audit entry per query."""
    texts, results, audit_before = state.last
    n_train = len(state.service.train_examples)
    classifier = state.zigong.classifier()
    decided = {}
    worst_rel = 0.0
    topk_ok = True
    for text, result in zip(texts, results):
        if text not in decided:
            score = classifier.score(decision_prompt(text), "yes", "no")
            decided[text] = (score, score < 0.5)
        score, approved = decided[text]
        outcome.check("decision equals the Behavior Card decision for the text",
                      result.approved == approved and abs(result.score - score) <= SCORE_TOL)
        indices = [ex.index for ex in result.influential]
        scores = [ex.score for ex in result.influential]
        topk_ok &= (len(indices) == TOP_K and len(set(indices)) == TOP_K
                    and all(0 <= i < n_train for i in indices)
                    and all(a >= b for a, b in zip(scores, scores[1:])))
        token_sum = math.fsum(result.token_attribution.scores)
        influence_sum = math.fsum(scores)
        worst_rel = max(worst_rel, abs(token_sum - influence_sum) / max(abs(influence_sum), 1e-300))
    outcome.check("top-k indices distinct, in range and sorted by score", topk_ok)
    outcome.info["token_sum_max_rel_diff"] = worst_rel
    outcome.check(f"token attributions sum to the returned influence within {TOKEN_SUM_RTOL}",
                  worst_rel <= TOKEN_SUM_RTOL)
    entries = [e for e in state.service.behavior_card.audit_log()[audit_before:]
               if isinstance(e, ExplainAuditEntry)]
    outcome.check("each query wrote exactly one ExplainAuditEntry",
                  [e.user_id for e in entries] == [r.user_id for r in results])
    outcome.info["distinct_applicants"] = len(decided)
    outcome.info["declines"] = int(np.sum([not r.approved for r in results]))
