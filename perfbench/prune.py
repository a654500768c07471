"""prune: the paper's training recipe, ``ZiGongPipeline.run`` on a fixed pool.

Warmup fine-tune with checkpoints, TracSeq influence replay, the 70/30
label-stratified Top-K / random mix, then a fresh LoRA fine-tune.  The
only workload that trains (optimizer, LoRA, checkpoint writes) and
replays influence in bulk; it serves nothing.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import replace

import numpy as np

from common import OUT_DIR, median, rng_for, tail, tail_percentile
from repro.config import bench_config
from repro.core import ZiGong
from repro.core.pipeline import PipelineConfig, ZiGongPipeline
from repro.core.pruning import PrunerConfig
from repro.data.instruct import build_behavior_examples, labels_of, timestamps_of
from repro.datasets.behavior import make_behavior
from repro.influence.gradients import GradientProjector, per_sample_gradient, trainable_parameters
from repro.training.checkpoint import CheckpointManager

POOL_USERS = 32  # x 8 periods = 256 behavior examples
VAL_SIZE = 16  # held out from the pool as the TracSeq validation set
WARM_USERS = 6  # set-up runs the recipe once on this small pool to warm the process
WARM_SEED = 0  # the same warm-up pool for every seed, so set-up does the same work
SETUP_REPEATS = 5  # a set-up takes about 1.5 s, so more of them than elsewhere
GAMMA = 0.9
PROJECTION = 64
CHECK_TRAIN = 3  # training examples whose TracSeq score is recomputed by Eq. 1
TRACSEQ_RTOL = 1e-6


def recipe_config(seed: int, n_train: int) -> PipelineConfig:
    return PipelineConfig(
        zigong=bench_config(seed=0),
        pruner=PrunerConfig(strategy="tracseq", gamma=GAMMA, projection_dim=PROJECTION, seed=seed),
        pruned_fraction=0.3,
        mix_total=n_train // 2,
        warmup_epochs=2,
        seed=seed,
    )


def make_pool(seed: int, users: int, stream: str):
    data = make_behavior(n_users=users, n_periods=8, seed=int(rng_for(seed, stream).integers(1 << 30)))
    examples = build_behavior_examples(data)
    order = rng_for(seed, stream + "-split").permutation(len(examples))
    val = [examples[i] for i in order[:VAL_SIZE]]
    train = [examples[i] for i in order[VAL_SIZE:]]
    return train, val


def prepare(seed: int):
    """The pools, and one recipe run on a small pool that warms the process."""
    train, val = make_pool(seed, POOL_USERS, "prune")
    warm_train, warm_val = make_pool(WARM_SEED, WARM_USERS, "prune-warm")
    warm_dir = OUT_DIR / "prune-warm"
    try:
        ZiGongPipeline(recipe_config(WARM_SEED, len(warm_train))).run(warm_train, warm_val, checkpoint_dir=warm_dir)
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    return train, val


class State:
    def __init__(self, seed: int, prepared):
        self.train, self.val = prepared
        self.ckpt_dir = None

    def close(self) -> None:
        if self.ckpt_dir is not None:
            shutil.rmtree(self.ckpt_dir, ignore_errors=True)


def measure(state: State, seed: int, seconds: float, outcome) -> dict:
    """Whole recipe runs until ``seconds`` have passed (at least one)."""
    phase = outcome.phase("recipe")
    config = recipe_config(seed, len(state.train))
    jobs = []
    steps_ms = []
    started = time.perf_counter()
    while not jobs or time.perf_counter() - started < seconds:
        state.close()
        state.ckpt_dir = OUT_DIR / f"prune-ckpt-{len(jobs)}"
        shutil.rmtree(state.ckpt_dir, ignore_errors=True)  # left by an interrupted run
        t0 = time.perf_counter()
        result = ZiGongPipeline(config).run(state.train, state.val, checkpoint_dir=state.ckpt_dir)
        jobs.append(time.perf_counter() - t0)
        for history in (result.warmup_history, result.finetune_history):
            steps_ms.extend(1000.0 * s.step_s for s in history.steps)
        phase.sent += 1
        phase.succeeded += 1
    state.result = result
    outcome.metrics["p50_ms"] = (median(steps_ms), "ms")
    outcome.metrics["tail_ms"] = (tail(steps_ms), "ms")
    outcome.metrics["job_s"] = (median(jobs), "s")
    outcome.info.update(
        recipe_runs=len(jobs), optimizer_steps=len(steps_ms), tail_percentile=round(tail_percentile(len(steps_ms)), 2),
        pool=len(state.train), val=len(state.val), mix_total=config.mix_total,
    )
    return {"phase": "recipe", "wall_s": time.perf_counter() - started, "primary": outcome.metrics["job_s"][0]}


def _stratified_top(scores: np.ndarray, labels: np.ndarray, k: int) -> set[int]:
    """Largest-remainder per-class quotas, best scores first within each class."""
    classes, counts = np.unique(labels, return_counts=True)
    exact = counts / counts.sum() * k
    quota = np.floor(exact).astype(int)
    for i in np.argsort(-(exact - quota))[: k - quota.sum()]:
        quota[i] += 1
    chosen = set()
    for cls, q in zip(classes, quota):
        members = sorted(np.flatnonzero(labels == cls), key=lambda i: -scores[i])
        chosen.update(int(i) for i in members[:q])
    return chosen


def check(state: State, seed: int, outcome) -> None:
    """TracSeq by Eq. 1, the exact 70/30 stratified mix, and a falling loss."""
    result = state.result
    config = recipe_config(seed, len(state.train))
    scores = result.scores

    # Eq. 1 recomputed from per-sample gradients at every warmup checkpoint:
    # sum_i gamma^(T - i) * lr_i * <P g_i(z), sum_v P g_i(v)>, times the
    # sample-age decay gamma^(t_max - t_z).
    warmup_cfg = replace(config.zigong, training=replace(config.zigong.training, epochs=config.warmup_epochs),
                         seed=config.seed)
    model_owner = ZiGong.from_examples(state.train + state.val, config=warmup_cfg)
    model_owner.apply_lora()
    model = model_owner.model
    dim = sum(p.size for p in trainable_parameters(model))
    projector = GradientProjector(dim, k=PROJECTION, seed=config.pruner.seed)
    records = sorted(CheckpointManager(state.ckpt_dir).checkpoints(), key=lambda r: r.step)
    picks = [int(j) for j in rng_for(seed, "prune-check").choice(len(state.train), CHECK_TRAIN, replace=False)]
    train_tok = model_owner.tokenize([state.train[j] for j in picks])
    val_tok = model_owner.tokenize(state.val)
    horizon = len(records) - 1
    expected = np.zeros(CHECK_TRAIN)
    for i, record in enumerate(records):
        CheckpointManager.restore(model, record)
        val_sum = sum(projector.project(per_sample_gradient(model, ex)) for ex in val_tok)
        weight = GAMMA ** (horizon - i) * record.lr
        for n, ex in enumerate(train_tok):
            expected[n] += weight * float(projector.project(per_sample_gradient(model, ex)) @ val_sum)
    times = timestamps_of(state.train)
    expected *= GAMMA ** (times.max() - times[picks])
    got = scores[picks]
    worst = max(abs(g - e) / max(abs(e), 1e-300) for g, e in zip(got, expected))
    outcome.info["tracseq_max_rel_diff"] = worst
    outcome.info["checkpoints"] = len(records)
    outcome.check(f"TracSeq scores match Eq. 1 recomputed from per_sample_gradient within {TRACSEQ_RTOL}",
                  worst <= TRACSEQ_RTOL)

    # The mix: exactly the stratified Top-K share plus distinct random picks.
    index_of = {id(ex): j for j, ex in enumerate(state.train)}
    mixed = [index_of.get(id(ex)) for ex in result.mixed_examples]
    total = config.mix_total
    n_top = int(round(config.pruned_fraction * total))
    top = _stratified_top(scores, labels_of(state.train), n_top)
    chosen = set(mixed)
    outcome.check("the mix holds exactly the stratified 30% Top-K and 70% random",
                  None not in chosen and len(mixed) == total and len(chosen) == total
                  and top <= chosen and len(chosen - top) == total - n_top)

    losses = [s.loss for s in result.finetune_history.steps]
    outcome.info["finetune_loss_first_last"] = [losses[0], losses[-1]]
    outcome.check("the fine-tuning loss falls",
                  all(math.isfinite(l) for l in losses) and np.mean(losses[-3:]) < np.mean(losses[:3]))
