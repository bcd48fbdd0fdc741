"""Bi-level optimization: inner-loop SGD task adaptation, outer-loop Adam
meta-updates, and the four algorithm variants.

* ``maml``: full second-order. The inner SGD trajectory stays on the tape
  (``create_graph=True``) and the query-loss gradient differentiates
  through it.
* ``fomaml``: first-order. Each inner gradient is taken on its own
  short-lived tape from detached parameters and subtracted as a constant,
  so the outer tape holds no inner forward graph and the meta-gradient is
  the query gradient evaluated at the adapted parameters.
* ``anil``: first-order with the inner loop restricted to the head;
  backbone tensors are bit-identical through adaptation.
* ``timl_enc``: maml on ``nn.RawSeriesModel`` with that
  ``task_information``: a per-sample 3-vector of Cartesian parcel
  coordinates is injected by a learned scale-and-shift encoder before the
  backbone and before the head (encoder weights are meta-learned in the
  outer loop with their own rate).
* ``timl_noenc``: maml on ``nn.RawSeriesModel`` with that
  ``task_information``: the 3-vector is concatenated as extra input
  channels at every time step before projection.

The classification head is reset at the start of every inner loop (fresh
randomness from the run-seed stream), so meta-learning optimizes the
backbone initialization (plus the task encoder for ``timl_enc``).

A batch of tasks runs as one tape, in the manner of the batched inner loop
of *higher* (arXiv:1910.01727).  The tasks are stacked on a leading task
axis: one ``pack_batch`` call packs every support and query sample, and a
set of each kind becomes ``[n_tasks, B, T, C]``.  The meta-parameters that
adapt in the inner loop are repeated on the task axis by a recorded op, so
each task adapts its own copy and their gradient sums over the tasks; each
task's fresh head comes from its own ``STREAM_HEAD_RESET`` ordinal.  A
fallback support set (fewer than ``n_way * k_support`` samples) is filled
up with rows that a per-task mask keeps out of the loss, so each task's
loss stays the mean over its own samples.  One ``grad`` of the summed task
losses gives every task's own inner gradients.  Evaluation differentiates
nothing, so it opens no outer tape: only its first-order inner steps record.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from . import tensor as T
from .episodes import EpisodeConfig, build_meta_validation, episode_pool, sample_episode
from .errors import ContractError, DivergedError, require_counts, require_rates
from .nn import RawSeriesModel, SampleSet, cross_entropy
from .seeding import STREAM_HEAD_RESET, STREAM_INIT, rng_from
from .tensor import Tape, grad
from .train import Adam, _fit

ALGORITHMS = ("maml", "fomaml", "anil", "timl_enc", "timl_noenc")
SECOND_ORDER = {"maml": True, "fomaml": False, "anil": False,
                "timl_enc": True, "timl_noenc": True}

# Published tuning ranges and step grids.
INNER_LR_RANGE = (0.01, 10.0)
OUTER_LR_RANGE = (0.0001, 0.1)
ENCODER_LR_RANGE = (0.0001, 0.1)
INNER_STEP_GRID = {4: (1, 4, 10), 10: (1,)}

_VALIDATION_ORDINAL_BASE = 2_000_000_000


@dataclass
class MetaConfig:
    algorithm: str
    inner_lr: float = 0.1
    outer_lr: float = 1e-3
    encoder_lr: float = 1e-3  # timl_enc only
    inner_steps: int = 1
    n_way: int = 4
    k_support: int = 1
    k_query: int = 1
    tasks_per_batch: int = 4
    total_tasks: int = 100_000
    validate_every: int = 100
    validation_tasks: int = 100

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ContractError(f"unknown algorithm {self.algorithm!r}")
        require_counts(
            inner_steps=self.inner_steps, tasks_per_batch=self.tasks_per_batch,
            validate_every=self.validate_every, validation_tasks=self.validation_tasks,
        )
        require_counts(0, total_tasks=self.total_tasks)  # 0 validates the initialization
        require_rates(inner_lr=self.inner_lr, outer_lr=self.outer_lr, encoder_lr=self.encoder_lr)
        self.episode_config(0)  # checks n_way, k_support and k_query

    @property
    def second_order(self):
        return SECOND_ORDER[self.algorithm]

    def episode_config(self, seed):
        return EpisodeConfig(
            n_way=self.n_way, k_support=self.k_support, k_query=self.k_query, seed=seed
        )


# ---------------------------------------------------------------------------
# functional SGD adaptation
# ---------------------------------------------------------------------------


def adapt_by_gradient_descent(loss_fn, params, lr, steps, second_order, subset=None):
    """Plain gradient descent on a dict of tensors, functionally.

    Returns a new dict whose updated entries are tape-connected to the
    originals.  With ``second_order`` the inner gradients are taken on the
    active tape and stay differentiable.  Without it each inner gradient is
    taken on its own short-lived tape from detached parameters, and the
    active tape (if any) records only the subtraction of a constant step.
    Raises DivergedError (with the step index) on a non-finite loss.
    """
    current = dict(params)
    keys = sorted(subset) if subset is not None else sorted(current)
    for step in range(steps):
        with nullcontext() if second_order else Tape():
            at = current if second_order else {k: v.detach() for k, v in current.items()}
            loss = loss_fn(at)
            if not np.isfinite(loss.item()):
                raise DivergedError("inner loss diverged", step)
            # A second-order step differentiates -lr * loss and adds the
            # result: one recorded mul in place of one per parameter, and the
            # outer pass replays add's pass-through where sub would negate
            # every step's gradient again.  Negation is exact in floating
            # point, so p + grad(-lr * loss) has the bits of p - lr * grad(loss).
            scaled = T.mul(loss, -lr) if second_order else loss
            grads = grad(scaled, [at[k] for k in keys], create_graph=second_order)
        for key, g in zip(keys, grads):
            if second_order:
                current[key] = T.add(current[key], g)
            else:
                current[key] = T.sub(current[key], g.values * lr)
    return current


class MetaLearner:
    """Binds a raw-series model, a corpus group order, and a MetaConfig."""

    def __init__(self, config, model, groups):
        self.config = config
        self.model = replace(model, groups=tuple(groups),
                             task_information=nn.task_information_of(config.algorithm))

    # -- parameter construction ------------------------------------------

    def init_meta_params(self, rng):
        """Meta-learned tensors, flat-named under ``backbone/``."""
        return nn.join_params(self.model.init_backbone(rng), {})

    def fresh_head(self, rng):
        return nn.join_params({}, nn.new_head(rng, self.model.config.embed_dim, self.config.n_way))

    # -- forward ----------------------------------------------------------

    def stack_tasks(self, tasks):
        """Support and query sets of ``tasks``, stacked on a leading task axis.

        All samples of all tasks go through one ``pack_batch`` call, so every
        set is padded to the batch's longest series.  A set with fewer rows
        than the widest of its kind (a fallback support set) is filled up
        with copies of its first sample that are not live.
        """
        kinds = ([t.support_sets() for t in tasks], [t.query_sets() for t in tasks])
        samples = [s for sets in kinds for set_samples, _ in sets for s in set_samples]
        packed = self.model.pack(samples)
        stacked, offset = [], 0
        for sets in kinds:
            width = max(len(labels) for _, labels in sets)
            index = np.empty((len(sets), width), dtype=np.intp)
            labels = np.zeros(index.shape, dtype=np.intp)
            live = np.zeros(index.shape, dtype=bool)
            for i, (_, set_labels) in enumerate(sets):
                count = len(set_labels)
                index[i] = offset
                index[i, :count] += np.arange(count)
                labels[i, :count] = set_labels
                live[i, :count] = True
                offset += count
            cart = None if packed.cart is None else packed.cart[index]
            stacked.append(SampleSet(tuple(a[index] for a in packed.batch), cart, labels, live))
        return stacked

    def logits(self, flat, samples):
        """Logits of a sample list, or of a (stacked) ``SampleSet``."""
        if not isinstance(samples, SampleSet):
            samples = self.model.pack(samples).take()
        return self.model.forward(*nn.split_params(flat), samples)

    def _loss_fn(self, inputs):
        def loss_fn(flat):
            losses = cross_entropy(self.logits(flat, inputs), inputs.labels, inputs.live)
            return losses if inputs.live is None else T.reduce_sum(losses)

        return loss_fn

    def _inner_subset(self, flat):
        if self.config.algorithm == "anil":
            return [k for k in flat if k.startswith("head/")]
        # film encoder weights adapt only in the outer loop
        return [k for k in flat if not k.startswith("backbone/film/")]

    # -- spec operations ---------------------------------------------------

    def inner_adapt(self, flat, task, second_order=None):
        """s gradient-descent steps at rate alpha on the support cross-entropy.

        ``task`` is an ``EpisodeTask``, or a stacked support ``SampleSet``
        for parameters on a task axis; then the sum of the task losses is
        descended, which takes each task's own steps.
        """
        if not isinstance(task, SampleSet):
            samples, labels = task.support_sets()
            task = replace(self.model.pack(samples).take(), labels=labels)
        return adapt_by_gradient_descent(
            self._loss_fn(task),
            flat,
            lr=self.config.inner_lr,
            steps=self.config.inner_steps,
            second_order=self.config.second_order if second_order is None else second_order,
            subset=self._inner_subset(flat),
        )

    def task_query_stats(self, meta_params, tasks, head_rngs, want_grads=True):
        """Per-task query loss/accuracy after adaptation, with every task on
        one tape; optionally the meta-gradient summed over the tasks.

        Task i gets the fresh head drawn from ``head_rngs[i]``; the
        meta-parameters that adapt in the inner loop are repeated on the task
        axis, so each task adapts its own copy.
        """
        n = len(tasks)
        support, query = self.stack_tasks(tasks)
        heads = nn.stack_task_params([self.fresh_head(rng) for rng in head_rngs])
        # evaluation differentiates nothing, so only the inner steps record
        with Tape() if want_grads else nullcontext():
            flat = {**meta_params, **heads}
            for k in self._inner_subset(flat):
                if k in meta_params:
                    flat[k] = nn.on_task_axis(flat[k], n)
            adapted = self.inner_adapt(flat, support, second_order=None if want_grads else False)
            q_logits = self.logits(adapted, query)
            q_losses = cross_entropy(q_logits, query.labels, query.live)
            stats = [
                {
                    "loss": float(q_losses.values[i]),
                    "accuracy": nn.accuracy(
                        q_logits.values[i][query.live[i]], query.labels[i][query.live[i]]
                    ),
                }
                for i in range(n)
            ]
            if not want_grads:
                return None, stats
            names = sorted(meta_params)
            grads = grad(T.reduce_sum(q_losses), [meta_params[k] for k in names])
        return {k: g.values for k, g in zip(names, grads)}, stats

    def meta_gradient(self, meta_params, tasks, seed):
        """Mean meta-gradient over a task batch: (ordinal, task) pairs."""
        if not tasks:
            raise ContractError("meta_gradient: empty task batch")
        rngs = [rng_from(seed, STREAM_HEAD_RESET, ordinal) for ordinal, _ in tasks]
        total, stats = self.task_query_stats(meta_params, [t for _, t in tasks], rngs)
        n = len(tasks)
        return (
            {k: v / n for k, v in total.items()},
            {
                "loss": sum(s["loss"] for s in stats) / n,
                "accuracy": sum(s["accuracy"] for s in stats) / n,
            },
        )

    def evaluate_tasks(self, meta_params, tasks, seed):
        """Mean query accuracy and loss, ``tasks_per_batch`` tasks per tape."""
        stats, size = [], self.config.tasks_per_batch
        for start in range(0, len(tasks), size):
            chunk = tasks[start : start + size]
            rngs = [
                rng_from(seed, STREAM_HEAD_RESET, _VALIDATION_ORDINAL_BASE + start + i)
                for i in range(len(chunk))
            ]
            stats += self.task_query_stats(meta_params, chunk, rngs, want_grads=False)[1]
        accs = [s["accuracy"] for s in stats]
        losses = [s["loss"] for s in stats]
        return float(np.mean(accs)), float(np.mean(losses))


def meta_train(corpus, config, seed, model_config=None):
    """Meta-train on episodes from the pre-training split.

    Adam at the outer rate updates the backbone (the task encoder gets its
    own Adam at the encoder rate); after each multiple of ``validate_every``
    tasks and after the last batch the mean query accuracy over the fixed
    meta-validation tasks joins the trace.  Returns (best backbone params, info);
    ``info["model"]`` is the corpus's ``RawSeriesModel.of_corpus``.
    """
    model = RawSeriesModel.of_corpus(model_config or nn.small_config(), corpus.manifest,
                                     config.algorithm)
    learner = MetaLearner(config, model, model.groups)
    meta_params = learner.init_meta_params(rng_from(seed, STREAM_INIT))

    pool = episode_pool(corpus, "train")
    episode_config = config.episode_config(seed)
    validation_tasks = build_meta_validation(
        corpus, episode_config, count=config.validation_tasks, seed=seed
    )

    film_keys = {k for k in meta_params if k.startswith("backbone/film/")}
    outer = Adam(config.outer_lr)
    encoder_opt = Adam(config.encoder_lr) if film_keys else None

    size = config.tasks_per_batch

    def step(tasks_seen):  # the batch of tasks up to tasks_seen
        first = (tasks_seen - 1) // size * size
        batch = [(o, sample_episode(pool, episode_config, o)) for o in range(first, tasks_seen)]
        grads, _ = learner.meta_gradient(meta_params, batch, seed)
        outer.step(meta_params, {k: v for k, v in grads.items() if k not in film_keys})
        if encoder_opt is not None:
            encoder_opt.step(meta_params, {k: v for k, v in grads.items() if k in film_keys})
        return {"tasks_seen": tasks_seen}

    def validate():
        val_acc, val_loss = learner.evaluate_tasks(meta_params, validation_tasks, seed)
        return val_acc, val_loss, {"mean_query_accuracy": val_acc, "mean_query_loss": val_loss}

    batch_ends = [min(t + size, config.total_tasks) for t in range(0, config.total_tasks, size)]
    best, best_at, trace = _fit(batch_ends, config.validate_every, step, validate, meta_params)
    info = {"trace": trace, "best_at": best_at, "learner": learner, "model": model}
    return nn.split_params(best)[0], info
