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
* ``timl_enc``: maml plus a per-sample 3-vector of Cartesian parcel
  coordinates injected by a learned scale-and-shift encoder before the
  backbone and before the head (encoder weights are meta-learned in the
  outer loop with their own rate).
* ``timl_noenc``: maml with the 3-vector concatenated as extra input
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

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .episodes import EpisodeConfig, build_meta_validation, episode_pool, sample_episode
from .errors import ContractError, DivergedError, require_counts
from .nn import RawSeriesModel, cross_entropy
from .seeding import STREAM_HEAD_RESET, STREAM_INIT, rng_from
from .tensor import Tape, Tensor, grad
from .train import Adam, _fit

ALGORITHMS = ("maml", "fomaml", "anil", "timl_enc", "timl_noenc")
SECOND_ORDER = {"maml": True, "fomaml": False, "anil": False,
                "timl_enc": True, "timl_noenc": True}

# Published tuning ranges and step grids.
INNER_LR_RANGE = (0.01, 10.0)
OUTER_LR_RANGE = (0.0001, 0.1)
ENCODER_LR_RANGE = (0.0001, 0.1)
INNER_STEP_GRID = {4: (1, 4, 10), 10: (1,)}
FILM_HIDDEN = 32

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
        self.episode_config(0)  # checks n_way, k_support and k_query

    @property
    def second_order(self):
        return SECOND_ORDER[self.algorithm]

    def episode_config(self, seed):
        return EpisodeConfig(
            n_way=self.n_way, k_support=self.k_support, k_query=self.k_query, seed=seed
        )


def polar_to_cartesian(lon, lat):
    """Map (longitude, latitude) in radians onto the unit sphere."""
    if not (math.isfinite(lon) and math.isfinite(lat)):
        raise ContractError("polar_to_cartesian: non-finite coordinates")
    if not -math.pi <= lon <= math.pi:
        raise ContractError(f"longitude {lon} outside [-pi, pi]")
    if not -math.pi / 2 <= lat <= math.pi / 2:
        raise ContractError(f"latitude {lat} outside [-pi/2, pi/2]")
    return np.array(
        [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
    )


def task_info(samples):
    """[B, 3] unit-norm Cartesian coordinates of each sample's centroid."""
    return np.stack([polar_to_cartesian(s.lon, s.lat) for s in samples])


def append_task_channels(values, cartesian):
    """Concatenate the 3-vector to every time step of [B, T, C] band values."""
    tiled = np.broadcast_to(cartesian[..., None, :], values.shape[:-1] + (3,))
    return np.concatenate([values, tiled], axis=-1)


# ---------------------------------------------------------------------------
# task-information encoder (scale-and-shift modulation)
# ---------------------------------------------------------------------------


def film_params(rng, embed_dim, hidden=FILM_HIDDEN):
    """Two-layer encoder mapping the 3-vector to per-feature (gamma, delta).

    The output layer starts at zero, so the initial modulation is the
    identity (gamma = 1, delta = 0) and the forward pass matches plain maml.
    """
    w1, b1 = nn.linear_params(rng, 3, hidden)
    return {
        "film/w1": w1,
        "film/b1": b1,
        "film/w2": Tensor(np.zeros((hidden, 2 * embed_dim))),
        "film/b2": Tensor(np.zeros(2 * embed_dim)),
    }


def film_modulation(params, cartesian, embed_dim):
    """(gamma, delta) tensors of shape [..., B, embed_dim] from task info rows."""
    h = T.gelu(T.add(T.matmul(cartesian, params["film/w1"]), params["film/b1"]))
    out = T.add(T.matmul(h, params["film/w2"]), params["film/b2"])
    gamma = T.add(T.slice_axis(out, -1, 0, embed_dim), 1.0)
    delta = T.slice_axis(out, -1, embed_dim, 2 * embed_dim)
    return gamma, delta


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


@dataclass(frozen=True)
class SampleSet:
    """Packed model inputs of a sample set, with its labels.

    ``batch`` is ``nn.pack_batch``'s (values, days, mask) and ``cart`` the
    task-information rows (``None`` when the algorithm uses none).  A
    stacked set carries a leading task axis on every array, and ``live``
    marks the rows that count in each task's mean loss; an unstacked set
    has ``live=None`` and one mean over all its rows.
    """

    batch: tuple
    cart: object
    labels: np.ndarray
    live: object = None


@dataclass(frozen=True)
class TaskAwareRawModel:
    """Raw-series model plus the algorithm's task-information injection.

    Satisfies the same prepare/logits interface as the plain models, so
    meta-trained backbones (including the task-information variants) can be
    fine-tuned through the ordinary training loops.
    """

    base: RawSeriesModel
    algorithm: str
    groups: tuple

    @property
    def config(self):
        return self.base.config

    def prepare(self, samples):
        return samples

    def init_backbone(self, rng):
        """The raw-series backbone, plus the task encoder's for timl_enc."""
        backbone = self.base.init_backbone(rng)
        if self.algorithm == "timl_enc":
            backbone.update(film_params(rng, self.base.config.embed_dim))
        return backbone

    def sample_set(self, samples, labels=None):
        """One ``pack_batch`` call over ``samples``, plus their task information."""
        cart = None
        if self.algorithm in ("timl_enc", "timl_noenc"):
            cart = task_info(samples)
        values, days, mask = nn.pack_batch(samples, list(self.groups))
        if self.algorithm == "timl_noenc":
            values = append_task_channels(values, cart)
        return SampleSet((values, days, mask), cart, labels)

    def stack_tasks(self, tasks):
        """Support and query sets of ``tasks``, stacked on a leading task axis.

        All samples of all tasks go through one ``pack_batch`` call, so every
        set is padded to the batch's longest series.  A set with fewer rows
        than the widest of its kind (a fallback support set) is filled up
        with copies of its first sample that are not live.
        """
        kinds = ([t.support_sets() for t in tasks], [t.query_sets() for t in tasks])
        packed = self.sample_set([s for sets in kinds for samples, _ in sets for s in samples])
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

    def forward(self, backbone, head, inputs):
        film = None
        if self.algorithm == "timl_enc":
            film = film_modulation(backbone, inputs.cart, self.base.config.embed_dim)
        return self.base.logits(backbone, head, inputs.batch, film=film)

    def logits(self, backbone, head, samples):
        return self.forward(backbone, head, self.sample_set(samples))


class MetaLearner:
    """Binds a raw-series model, a corpus group order, and a MetaConfig."""

    def __init__(self, config, model, groups):
        self.config = config
        self.model = model
        self.groups = groups
        self.task_model = TaskAwareRawModel(model, config.algorithm, tuple(groups))

    # -- parameter construction ------------------------------------------

    def init_meta_params(self, rng):
        """Meta-learned tensors, flat-named under ``backbone/``."""
        return {f"backbone/{k}": v for k, v in self.task_model.init_backbone(rng).items()}

    def fresh_head(self, rng):
        head = nn.new_head(rng, self.model.config.embed_dim, self.config.n_way)
        return {f"head/{k}": v for k, v in head.items()}

    # -- forward ----------------------------------------------------------

    def logits(self, flat, samples):
        """Logits of a sample list, or of a (stacked) ``SampleSet``."""
        backbone = {k.split("/", 1)[1]: v for k, v in flat.items() if k.startswith("backbone/")}
        head = {k.split("/", 1)[1]: v for k, v in flat.items() if k.startswith("head/")}
        if not isinstance(samples, SampleSet):
            samples = self.task_model.sample_set(samples)
        return self.task_model.forward(backbone, head, samples)

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
            task = self.task_model.sample_set(*task.support_sets())
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
        support, query = self.task_model.stack_tasks(tasks)
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
    meta-validation tasks joins the trace.  Returns (best backbone params, info).
    """
    groups = corpus.manifest.group_order()
    model_config = model_config or nn.small_config()
    in_channels = corpus.manifest.dynamic_channels()
    if config.algorithm == "timl_noenc":
        in_channels += 3
    model = RawSeriesModel(model_config, in_channels)
    learner = MetaLearner(config, model, groups)
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
    best_params, best_at, trace = _fit(
        batch_ends, config.validate_every, step, validate,
        lambda: {k: Tensor(v.values.copy()) for k, v in meta_params.items()},
    )
    backbone = {
        k.split("/", 1)[1]: v for k, v in best_params.items() if k.startswith("backbone/")
    }
    return backbone, {"trace": trace, "best_at": best_at, "learner": learner}
