"""Optimizers, schedules, the training loop, transfer pre-training, the
three fine-tuning regimes, and seeded random-search tuning.

Optimizers mutate parameter values in place between tapes; they are never
differentiated through (the meta inner loop does its own functional SGD).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import metrics as metrics_mod
from . import nn
from .data import (
    FINETUNE_POOL,
    PRETRAIN_POOL,
    fixed_validation_subset,
    require_splits,
    resample_majority,
)
from .errors import ContractError, DivergedError, require_counts, require_rates
from .nn import copy_params, cross_entropy, join_params, split_params
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
    """Standard Adam with bias correction; step count increments once per apply.

    The moments live in one flat buffer each, laid out in the name order of
    the first step's gradients; every later step must pass the same names.
    The update is elementwise, so it equals a loop over the parameters.
    """

    def __init__(self, lr, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.layout = {}  # name -> (slice of the flat buffers, shape)
        self._m = self._v = np.zeros(0)

    @property
    def m(self):
        """The first moment of each parameter, by name (views of the buffer)."""
        return {k: self._m[s].reshape(shape) for k, (s, shape) in self.layout.items()}

    @property
    def v(self):
        """The second moment of each parameter, by name (views of the buffer)."""
        return {k: self._v[s].reshape(shape) for k, (s, shape) in self.layout.items()}

    def step(self, params, grads):
        if not self.layout:
            offset = 0
            for name, g in grads.items():
                self.layout[name] = (slice(offset, offset + np.size(g)), np.shape(g))
                offset += np.size(g)
            self._m, self._v = np.zeros(offset), np.zeros(offset)
        elif grads.keys() != self.layout.keys():
            raise ContractError(
                f"Adam.step: gradients for {sorted(grads)}, but the optimizer holds "
                f"moments for {sorted(self.layout)}"
            )
        g = np.empty(self._m.size)
        for name, (s, _) in self.layout.items():
            g[s] = np.ravel(grads[name])
        if not np.isfinite(g).all():
            name = next(k for k, gk in grads.items() if not np.all(np.isfinite(gk)))
            raise DivergedError(f"non-finite gradient for {name}", self.step_count)
        self.step_count += 1
        t = self.step_count
        self._m = self.beta1 * self._m + (1 - self.beta1) * g
        self._v = self.beta2 * self._v + (1 - self.beta2) * g * g
        m_hat = self._m / (1 - self.beta1**t)
        v_hat = self._v / (1 - self.beta2**t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        for name, (s, shape) in self.layout.items():
            params[name].values -= update[s].reshape(shape)


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
        require_rates(lr_head=self.lr_head)
        if not self.lr_backbone >= 0:  # 0 freezes the backbone
            raise ContractError("lr_backbone: must be a number >= 0")
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


def _fit(units, every, step, validate, params, patience=math.inf):
    """Run ``step(unit)``, which updates the ``params`` map in place and returns
    the unit's trace fields, over the increasing ``units``; after each multiple
    of ``every`` and after the last, ``validate()`` returns (score, watched loss,
    fields) for one trace row.  Keeps a copy of ``params`` at the first highest
    score (a NaN never replaces it); stops once the loss has not improved by more
    than IMPROVEMENT_EPS for ``patience`` validations.  A non-finite watched loss
    is a DivergedError at its unit.  Returns (best copy, its unit, trace); with
    no units, a copy of the untouched parameters at unit 0."""
    trace, best, best_score, best_unit = [], None, None, 0
    best_loss, since_best = math.inf, 0
    for unit in units:
        row = step(unit)
        if unit % every and unit != units[-1]:
            continue
        score, loss, fields = validate()
        if not math.isfinite(loss):
            raise DivergedError("non-finite validation loss", unit)
        trace.append({**row, **fields})
        if best is None or score > best_score:
            best, best_score, best_unit = copy_params(params), score, unit
        if loss < best_loss - IMPROVEMENT_EPS:
            best_loss, since_best = loss, 0
        else:
            since_best += 1
            if since_best >= patience:
                break
    return (copy_params(params) if best is None else best), best_unit, trace


def _batch_indices(n, batch_size, rng):
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _chunks(model, samples, batch_size=256):
    """``samples`` packed once, then taken in consecutive chunks of
    ``batch_size``: each chunk's indices and its batch."""
    pack = model.pack(samples)
    for start in range(0, len(samples), batch_size):
        idx = np.arange(start, min(start + batch_size, len(samples)))
        yield idx, pack.take(idx)


def _labels(samples, class_order):
    """Each sample's class index in ``class_order``."""
    index = {c: i for i, c in enumerate(class_order)}
    return np.array([index[s.label] for s in samples])


def _loss_and_grads(model, params, batch, labels, prefix=""):
    """The loss of a batch taken from the model's pack and the gradients of
    the parameters whose names start with ``prefix`` (a string, or a tuple
    of them for any of several)."""
    with Tape():
        logits = model.forward(*split_params(params), batch)
        loss = cross_entropy(logits, labels)
        if not np.isfinite(loss.item()):
            raise DivergedError("non-finite training loss")
        names = [k for k in sorted(params) if k.startswith(prefix)]
        gs = grad(loss, [params[k] for k in names])
    return loss.item(), {k: g.values for k, g in zip(names, gs)}


def evaluate_loss_accuracy(model, params, chunks):
    """Mean loss and accuracy over (batch, labels) pairs, as ``_validation`` takes them."""
    losses, hits, total = [], 0, 0
    backbone, head = split_params(params)
    for batch, labels in chunks:
        logits = model.forward(backbone, head, batch)
        losses.append(cross_entropy(logits, labels).item() * len(labels))
        hits += int((logits.values.argmax(axis=1) == labels).sum())
        total += len(labels)
    return sum(losses) / total, hits / total


def _validate_classifier(model, params, chunks):
    """Validation for ``_fit``: scored by accuracy, watching the loss."""
    loss, accuracy = evaluate_loss_accuracy(model, params, chunks)
    return accuracy, loss, {"val_loss": loss, "val_accuracy": accuracy}


def _validation(model, samples, class_order):
    """The (batch, labels) chunks of a fixed validation set, packed and
    taken once for every validation pass."""
    labels = _labels(samples, class_order)
    return [(batch, labels[idx]) for idx, batch in _chunks(model, samples)]


def predictions(model, params, samples, class_order, batch_size=256):
    out = []
    backbone, head = split_params(params)
    for _, batch in _chunks(model, samples, batch_size):
        logits = model.forward(backbone, head, batch)
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
        require_counts(0, cosine_cycles=self.cosine_cycles)
        require_rates(learning_rate=self.learning_rate)


def pretrain_transfer(corpus, model, config, seed):
    """Epoch loop on the pre-training pool with majority-class resampling,
    early stopping on validation loss, best checkpoint by validation accuracy."""
    pool = resample_majority(
        corpus.pretrain_pool(), corpus.manifest.majority_class, rng_seed=seed
    )
    train, validation = require_splits(pool, PRETRAIN_POOL, "train", "validation")
    class_order = sorted({s.label for s in pool})
    train_pack, train_labels = model.pack(train), _labels(train, class_order)
    validation = _validation(model, validation, class_order)

    params = nn.init_params(model, rng_from(seed, STREAM_INIT), len(class_order))
    optimizer = Adam(config.learning_rate)

    def step(epoch):
        optimizer.lr = cosine_annealing(
            config.learning_rate, config.cosine_cycles, epoch, config.max_epochs
        )
        rng = rng_from(seed, STREAM_BATCHING, epoch)
        epoch_loss = 0.0
        for idx in _batch_indices(len(train), config.batch_size, rng):
            loss, grads = _loss_and_grads(model, params, train_pack.take(idx), train_labels[idx])
            optimizer.step(params, grads)
            epoch_loss += loss * len(idx)
        return {"epoch": epoch, "train_loss": epoch_loss / len(train)}

    best_params, best_epoch, trace = _fit(
        range(config.max_epochs), 1, step,
        partial(_validate_classifier, model, params, validation), params, config.patience,
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
             max_epochs=FINETUNE_MAX_EPOCHS, batch_size=FINETUNE_BATCH_SIZE):
    """Fine-tune a backbone on the k-shot subset of the fine-tuning split.

    Early stopping watches validation loss on the fixed validation points;
    the retained checkpoint is the best validation accuracy.  Evaluation runs
    on the full test split and returns a MetricsReport.
    """
    require_counts(max_epochs=max_epochs, batch_size=batch_size)
    pool = corpus.finetune_pool()
    class_order = sorted({s.label for s in pool})
    train, validation, test = require_splits(pool, FINETUNE_POOL, "train", "validation", "test")
    train = kshot_subset(train, k, seed)
    train_pack, train_labels = model.pack(train), _labels(train, class_order)
    validation = _validation(model, fixed_validation_subset(validation), class_order)

    head = nn.new_head(rng_from(seed, STREAM_HEAD_RESET), model.config.embed_dim, len(class_order))
    params = copy_params(join_params(init_backbone, head))

    optimizers = [(Adam(regime.lr_head), "head/")]  # the head steps first
    if regime.lr_backbone > 0:
        optimizers.append((Adam(regime.lr_backbone), "backbone/"))
    trainable = tuple(prefix for _, prefix in optimizers)  # no other gradient is applied

    def step(epoch):
        rng = rng_from(seed, STREAM_BATCHING, 7_000_000 + epoch)
        for idx in _batch_indices(len(train), batch_size, rng):
            batch = train_pack.take(idx)
            _, grads = _loss_and_grads(model, params, batch, train_labels[idx], trainable)
            for optimizer, prefix in optimizers:
                optimizer.step(params, {k: g for k, g in grads.items() if k.startswith(prefix)})
        return {"epoch": epoch}

    best_params, best_epoch, trace = _fit(
        range(max_epochs), 1, step,
        partial(_validate_classifier, model, params, validation), params, FINETUNE_PATIENCE,
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
    """Maximize ``objective(config_dict)`` over ``trials`` draws: each name of
    ``space`` maps to a ``(low, high)`` range, 0 < low < high, drawn
    log-uniformly.  A trial that diverges is logged as failed; any other error
    propagates.  DivergedError, with the last reason, if every trial diverged.
    """
    rng = rng_from(seed, STREAM_SEARCH)
    log, best, reason = [], None, None
    for trial in range(trials):
        config = {name: float(np.exp(rng.uniform(np.log(low), np.log(high))))
                  for name, (low, high) in sorted(space.items())}
        try:
            score = float(objective(config))
        except DivergedError as err:  # a diverged trial is data, not fatal
            score, reason = None, err
        log.append({"trial": trial, "config": config, "score": score,
                    "status": "ok" if score is not None else f"failed: {reason}"})
        if score is not None and (best is None or score > best[1]):
            best = (config, score)
    if best is None:
        raise DivergedError(f"random_search: all {trials} trials diverged, the last: {reason}")
    return best[0], best[1], log
