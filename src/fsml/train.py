"""Optimizers, schedules, the training loop, transfer pre-training, the
three fine-tuning regimes, and seeded random-search tuning.

Optimizers mutate parameter values in place between tapes; they are never
differentiated through (the meta inner loop does its own functional SGD).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import metrics as metrics_mod
from . import nn
from .data import (
    FIXED_VALIDATION_POINTS,
    fixed_validation_subset,
    resample_majority,
    subset_by_split,
)
from .errors import ContractError, DivergedError, require_counts
from .nn import ModelParams, cross_entropy
from .seeding import (
    STREAM_BATCHING,
    STREAM_HEAD_RESET,
    STREAM_INIT,
    STREAM_SEARCH,
    STREAM_SUBSET,
    rng_from,
)
from .tensor import Tape, grad

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Published protocol constants.
PRETRAIN_MAX_EPOCHS = 150
PRETRAIN_PATIENCE = 15
PRETRAIN_BATCH_SIZE = 128
FINETUNE_MAX_EPOCHS = 200
FINETUNE_PATIENCE = 5
FINETUNE_BATCH_SIZE = 16
FEW_SHOT_GRID = (1, 5, 10, 20, 100, 200, 500)
LR_RANGE_HEAD = (1e-6, 1e-2)
LR_RANGE_BACKBONE = (1e-6, 1e-3)

# "Improvement" for early stopping means a strict decrease by more than this.
IMPROVEMENT_EPS = 1e-12


class Adam:
    """Standard Adam with bias correction; step count increments once per apply."""

    def __init__(self, lr, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise DivergedError(f"non-finite gradient for {name}", self.step_count)
        self.step_count += 1
        t = self.step_count
        for name, g in grads.items():
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            v = self.v[name]
            m = self.beta1 * m + (1 - self.beta1) * g
            v = self.beta2 * v + (1 - self.beta2) * g * g
            self.m[name] = m
            self.v[name] = v
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            params[name].values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def cosine_annealing(lr_max, cycles, epoch, total_epochs):
    """Cosine schedule with equal-length cycles; cycles=0 means constant."""
    if not 0 <= epoch < total_epochs:
        raise ContractError(f"epoch {epoch} outside 0..{total_epochs - 1}")
    if cycles == 0:
        return lr_max
    cycle_len = total_epochs / cycles
    frac = (epoch % cycle_len) / cycle_len
    return lr_max * 0.5 * (1.0 + math.cos(math.pi * frac))


FINETUNE_MODES = ("same_lr", "split_lr", "head_only")


@dataclass(frozen=True)
class FineTuneRegime:
    mode: str  # one of FINETUNE_MODES
    lr_head: float
    lr_backbone: float = 0.0

    def __post_init__(self):
        if self.mode not in FINETUNE_MODES:
            raise ContractError(f"unknown fine-tune mode {self.mode!r}")
        if self.mode == "head_only" and self.lr_backbone != 0.0:
            raise ContractError("head_only regime requires lr_backbone = 0")
        if self.mode == "same_lr" and self.lr_head != self.lr_backbone:
            raise ContractError("same_lr regime requires lr_head == lr_backbone")


def same_lr(lr):
    return FineTuneRegime("same_lr", lr, lr)


def split_lr(lr_head, lr_backbone):
    return FineTuneRegime("split_lr", lr_head, lr_backbone)


def head_only(lr_head):
    return FineTuneRegime("head_only", lr_head, 0.0)


# ---------------------------------------------------------------------------
# the training loop every trainer runs, and shared epoch machinery
# ---------------------------------------------------------------------------


def _fit(units, every, step, validate, snapshot, patience=math.inf):
    """Run ``step(unit)``, which returns the unit's trace fields, over the
    increasing ``units``; after each multiple of ``every`` and after the last,
    ``validate()`` returns (score, watched loss, fields) for one trace row.
    Keeps the first ``snapshot()`` of the highest score (a NaN never replaces
    it); stops once the loss has not improved by more than IMPROVEMENT_EPS for
    ``patience`` validations.  Returns (best snapshot, its unit, trace); with
    no units, the untouched parameters at unit 0."""
    trace, best, best_score, best_unit = [], None, None, 0
    best_loss, since_best = math.inf, 0
    for unit in units:
        row = step(unit)
        if unit % every and unit != units[-1]:
            continue
        score, loss, fields = validate()
        trace.append({**row, **fields})
        if best is None or score > best_score:
            best, best_score, best_unit = snapshot(), score, unit
        if loss < best_loss - IMPROVEMENT_EPS:
            best_loss, since_best = loss, 0
        else:
            since_best += 1
            if since_best >= patience:
                break
    return (snapshot() if best is None else best), best_unit, trace


def _batch_indices(n, batch_size, rng):
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _loss_and_grads(model, params, samples, labels, trainable):
    with Tape():
        tensors = {k: v for k, v in params.named().items()}
        backbone = {k.split("/", 1)[1]: v for k, v in tensors.items() if k.startswith("backbone/")}
        head = {k.split("/", 1)[1]: v for k, v in tensors.items() if k.startswith("head/")}
        logits = model.logits(backbone, head, model.prepare(samples))
        loss = cross_entropy(logits, labels)
        if not np.isfinite(loss.item()):
            raise DivergedError("non-finite training loss")
        names = [k for k in sorted(tensors) if trainable(k)]
        gs = grad(loss, [tensors[k] for k in names])
    return loss.item(), {k: g.values for k, g in zip(names, gs)}, logits.values


def evaluate_loss_accuracy(model, params, samples, class_order, batch_size=256):
    losses, hits, total = [], 0, 0
    index = {c: i for i, c in enumerate(class_order)}
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        labels = np.array([index[s.label] for s in chunk])
        logits = model.logits(params.backbone, params.head, model.prepare(chunk))
        losses.append(cross_entropy(logits, labels).item() * len(chunk))
        hits += int((logits.values.argmax(axis=1) == labels).sum())
        total += len(chunk)
    return sum(losses) / total, hits / total


def _validate_classifier(model, params, samples, class_order):
    """Validation for ``_fit``: scored by accuracy, watching the loss."""
    loss, accuracy = evaluate_loss_accuracy(model, params, samples, class_order)
    return accuracy, loss, {"val_loss": loss, "val_accuracy": accuracy}


def predictions(model, params, samples, class_order, batch_size=256):
    out = []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        logits = model.logits(params.backbone, params.head, model.prepare(chunk))
        out.extend(class_order[i] for i in logits.values.argmax(axis=1))
    return out


# ---------------------------------------------------------------------------
# supervised transfer pre-training
# ---------------------------------------------------------------------------


@dataclass
class TransferConfig:
    learning_rate: float = 1e-3
    batch_size: int = PRETRAIN_BATCH_SIZE
    max_epochs: int = PRETRAIN_MAX_EPOCHS
    patience: int = PRETRAIN_PATIENCE
    cosine_cycles: int = 0  # 0 disables annealing

    def __post_init__(self):
        require_counts(batch_size=self.batch_size, max_epochs=self.max_epochs,
                       patience=self.patience)


def pretrain_transfer(corpus, model, config, seed):
    """Epoch loop on the pre-training pool with majority-class resampling,
    early stopping on validation loss, best checkpoint by validation accuracy."""
    pool = resample_majority(
        corpus.pretrain_pool(), corpus.manifest.majority_class, rng_seed=seed
    )
    train = subset_by_split(pool, "train")
    validation = subset_by_split(pool, "validation")
    class_order = sorted({s.label for s in pool})
    index = {c: i for i, c in enumerate(class_order)}

    params = model.init_params(rng_from(seed, STREAM_INIT), len(class_order))
    optimizer = Adam(config.learning_rate)

    def step(epoch):
        optimizer.lr = cosine_annealing(
            config.learning_rate, config.cosine_cycles, epoch, config.max_epochs
        )
        rng = rng_from(seed, STREAM_BATCHING, epoch)
        epoch_loss = 0.0
        for idx in _batch_indices(len(train), config.batch_size, rng):
            chunk = [train[i] for i in idx]
            labels = np.array([index[s.label] for s in chunk])
            loss, grads, _ = _loss_and_grads(
                model, params, chunk, labels, trainable=lambda k: True
            )
            optimizer.step(params.named(), grads)
            epoch_loss += loss * len(chunk)
        return {"epoch": epoch, "train_loss": epoch_loss / max(len(train), 1)}

    best_params, best_epoch, trace = _fit(
        range(config.max_epochs), 1, step,
        partial(_validate_classifier, model, params, validation, class_order),
        params.copy, config.patience,
    )
    return best_params, {"trace": trace, "best_epoch": best_epoch, "classes": class_order}


# ---------------------------------------------------------------------------
# k-shot fine-tuning
# ---------------------------------------------------------------------------


def kshot_subset(train_samples, k, seed):
    """min(k, class count) samples per class, drawn with the run seed."""
    by_class = {}
    for s in train_samples:
        by_class.setdefault(s.label, []).append(s)
    rng = rng_from(seed, STREAM_SUBSET)
    subset = []
    for label in sorted(by_class):
        members = by_class[label]
        take = min(k, len(members))
        if take < k:
            warnings.warn(f"class {label}: only {take} of {k} requested shots available")
        picked = rng.choice(len(members), size=take, replace=False)
        subset.extend(members[int(i)] for i in sorted(picked))
    return subset


def finetune(corpus, model, init_backbone, regime, k, seed,
             max_epochs=FINETUNE_MAX_EPOCHS, batch_size=FINETUNE_BATCH_SIZE,
             validation_limit=None):
    """Fine-tune a backbone on the k-shot subset of the fine-tuning split.

    Early stopping watches validation loss on the fixed validation points;
    the retained checkpoint is the best validation accuracy.  Evaluation runs
    on the full test split and returns a MetricsReport.
    """
    if validation_limit is None:
        validation_limit = FIXED_VALIDATION_POINTS
    require_counts(max_epochs=max_epochs, batch_size=batch_size, validation_limit=validation_limit)
    pool = corpus.finetune_pool()
    class_order = sorted({s.label for s in pool})
    index = {c: i for i, c in enumerate(class_order)}
    train = kshot_subset(subset_by_split(pool, "train"), k, seed)
    validation = fixed_validation_subset(pool, limit=validation_limit)
    test = subset_by_split(pool, "test")

    params = ModelParams(
        backbone=dict(init_backbone),
        head=nn.new_head(rng_from(seed, STREAM_HEAD_RESET), model.config.embed_dim, len(class_order)),
    ).copy()

    if regime.mode == "head_only":
        trainable = lambda name: name.startswith("head/")
    else:
        trainable = lambda name: True
    head_opt = Adam(regime.lr_head)
    backbone_opt = Adam(regime.lr_backbone) if regime.lr_backbone > 0 else None

    def step(epoch):
        rng = rng_from(seed, STREAM_BATCHING, 7_000_000 + epoch)
        for idx in _batch_indices(len(train), batch_size, rng):
            chunk = [train[i] for i in idx]
            labels = np.array([index[s.label] for s in chunk])
            _, grads, _ = _loss_and_grads(model, params, chunk, labels, trainable)
            head_grads = {k: g for k, g in grads.items() if k.startswith("head/")}
            head_opt.step(params.named(), head_grads)
            if backbone_opt is not None:
                backbone_grads = {k: g for k, g in grads.items() if k.startswith("backbone/")}
                backbone_opt.step(params.named(), backbone_grads)
        return {"epoch": epoch}

    best_params, best_epoch, trace = _fit(
        range(max_epochs), 1, step,
        partial(_validate_classifier, model, params, validation, class_order),
        params.copy, FINETUNE_PATIENCE,
    )

    preds = predictions(model, best_params, test, class_order)
    labels = [s.label for s in test]
    report = metrics_mod.build_report(
        preds,
        labels,
        majority_class=corpus.manifest.majority_class,
        hierarchy=corpus.manifest.hierarchy(),
    )
    return best_params, report, {"trace": trace, "best_epoch": best_epoch, "classes": class_order}


# ---------------------------------------------------------------------------
# seeded random search (hyperparameter tuning)
# ---------------------------------------------------------------------------


def random_search(space, trials, seed, objective):
    """Evaluate `objective(config_dict)` over log-uniform draws; maximize.

    ``space`` maps names to (low, high) ranges sampled log-uniformly, or to
    lists of discrete choices.  Failed trials are recorded and skipped.
    """
    if trials < 1:
        raise ContractError("random_search: trials must be >= 1")
    rng = rng_from(seed, STREAM_SEARCH)
    log, best = [], None
    for trial in range(trials):
        config = {}
        for name, spec in sorted(space.items()):
            if isinstance(spec, (list, tuple)) and len(spec) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in spec
            ):
                low, high = spec
                config[name] = float(np.exp(rng.uniform(np.log(low), np.log(high))))
            else:
                config[name] = spec[int(rng.integers(len(spec)))]
        try:
            score = float(objective(config))
            log.append({"trial": trial, "config": config, "score": score, "status": "ok"})
            if best is None or score > best[1]:
                best = (config, score)
        except Exception as err:  # trial failure is data, not fatal
            log.append({"trial": trial, "config": config, "score": None,
                        "status": f"failed: {err}"})
    if best is None:
        raise ContractError("random_search: every trial failed")
    return best[0], best[1], log


def write_trace_csv(path, rows, fieldnames, config_hash="", seed=""):
    """CSV trace with an identifying comment header; deterministic bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config={config_hash} seed={seed}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return path
