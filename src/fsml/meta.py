"""Bi-level optimization: inner-loop SGD task adaptation, outer-loop Adam
meta-updates, and the four algorithm variants.

* ``maml``: full second-order. The inner SGD trajectory stays on the tape
  (``create_graph=True``) and the query-loss gradient differentiates
  through it.
* ``fomaml``: first-order. Inner gradients are detached constants, so the
  meta-gradient is the query gradient evaluated at the adapted parameters.
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .episodes import EpisodeConfig, build_meta_validation, episode_pool, sample_episode
from .errors import ContractError, DivergedError
from .nn import RawSeriesModel, cross_entropy
from .seeding import STREAM_HEAD_RESET, STREAM_INIT, rng_from
from .tensor import Tape, Tensor, grad
from .train import Adam

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
        if self.inner_steps < 1 or self.tasks_per_batch < 1:
            raise ContractError("inner_steps and tasks_per_batch must be >= 1")

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
    b, t, _ = values.shape
    tiled = np.broadcast_to(cartesian[:, None, :], (b, t, 3))
    return np.concatenate([values, tiled], axis=2)


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
    """(gamma, delta) tensors of shape [B, embed_dim] from task info rows."""
    h = T.gelu(T.add(T.matmul(Tensor(cartesian), params["film/w1"]), params["film/b1"]))
    out = T.add(T.matmul(h, params["film/w2"]), params["film/b2"])
    gamma = T.add(T.slice_axis(out, 1, 0, embed_dim), 1.0)
    delta = T.slice_axis(out, 1, embed_dim, 2 * embed_dim)
    return gamma, delta


# ---------------------------------------------------------------------------
# functional SGD adaptation
# ---------------------------------------------------------------------------


def adapt_by_gradient_descent(loss_fn, params, lr, steps, second_order, subset=None):
    """Plain gradient descent on a dict of tensors, functionally.

    Returns a new dict whose updated entries are tape-connected to the
    originals; with ``second_order`` the inner gradients stay differentiable.
    Raises DivergedError (with the step index) on a non-finite loss.
    """
    current = dict(params)
    keys = sorted(subset) if subset is not None else sorted(current)
    for step in range(steps):
        loss = loss_fn(current)
        if not np.isfinite(loss.item()):
            raise DivergedError("inner loss diverged", step)
        grads = grad(loss, [current[k] for k in keys], create_graph=second_order)
        for key, g in zip(keys, grads):
            step_g = g if second_order else g.detach()
            current[key] = T.sub(current[key], T.mul(step_g, lr))
    return current


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

    def logits(self, backbone, head, samples):
        film, cart = None, None
        if self.algorithm in ("timl_enc", "timl_noenc"):
            cart = task_info(samples)
        if self.algorithm == "timl_enc":
            film = film_modulation(backbone, cart, self.base.config.embed_dim)
        values, days, mask = nn.pack_batch(samples, list(self.groups))
        if self.algorithm == "timl_noenc":
            values = append_task_channels(values, cart)
        return self.base.logits(backbone, head, (values, days, mask), film=film)


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
        backbone = self.model.init_backbone(rng)
        if self.config.algorithm == "timl_enc":
            backbone.update(film_params(rng, self.model.config.embed_dim))
        return {f"backbone/{k}": v for k, v in backbone.items()}

    def fresh_head(self, rng):
        head = nn.new_head(rng, self.model.config.embed_dim, self.config.n_way)
        return {f"head/{k}": v for k, v in head.items()}

    # -- forward ----------------------------------------------------------

    def logits(self, flat, samples):
        backbone = {k.split("/", 1)[1]: v for k, v in flat.items() if k.startswith("backbone/")}
        head = {k.split("/", 1)[1]: v for k, v in flat.items() if k.startswith("head/")}
        return self.task_model.logits(backbone, head, samples)

    def _task_loss_fn(self, samples, labels):
        def loss_fn(flat):
            return cross_entropy(self.logits(flat, samples), labels)

        return loss_fn

    def _inner_subset(self, flat):
        if self.config.algorithm == "anil":
            return [k for k in flat if k.startswith("head/")]
        # film encoder weights adapt only in the outer loop
        return [k for k in flat if not k.startswith("backbone/film/")]

    # -- spec operations ---------------------------------------------------

    def inner_adapt(self, flat, task, second_order=None):
        """s gradient-descent steps at rate alpha on the support cross-entropy."""
        samples, labels = task.support_sets()
        loss_fn = self._task_loss_fn(samples, labels)
        return adapt_by_gradient_descent(
            loss_fn,
            flat,
            lr=self.config.inner_lr,
            steps=self.config.inner_steps,
            second_order=self.config.second_order if second_order is None else second_order,
            subset=self._inner_subset(flat),
        )

    def task_query_stats(self, meta_params, task, head_rng, want_grads=True):
        """Query loss/accuracy after adaptation; optionally the meta-gradient."""
        with Tape():
            flat = dict(meta_params)
            flat.update(self.fresh_head(head_rng))
            # evaluation never differentiates through the trajectory
            adapted = self.inner_adapt(flat, task, second_order=None if want_grads else False)
            q_samples, q_labels = task.query_sets()
            q_logits = self.logits(adapted, q_samples)
            q_loss = cross_entropy(q_logits, q_labels)
            stats = {
                "loss": q_loss.item(),
                "accuracy": nn.accuracy(q_logits.values, q_labels),
            }
            if not want_grads:
                return None, stats
            names = sorted(meta_params)
            grads = grad(q_loss, [meta_params[k] for k in names])
        return {k: g.values for k, g in zip(names, grads)}, stats

    def meta_gradient(self, meta_params, tasks, seed):
        """Mean meta-gradient over a task batch: (ordinal, task) pairs."""
        if not tasks:
            raise ContractError("meta_gradient: empty task batch")
        total, loss_sum, acc_sum = None, 0.0, 0.0
        for ordinal, task in tasks:
            head_rng = rng_from(seed, STREAM_HEAD_RESET, ordinal)
            grads, stats = self.task_query_stats(meta_params, task, head_rng)
            loss_sum += stats["loss"]
            acc_sum += stats["accuracy"]
            if total is None:
                total = grads
            else:
                for k in total:
                    total[k] = total[k] + grads[k]
        n = len(tasks)
        return (
            {k: v / n for k, v in total.items()},
            {"loss": loss_sum / n, "accuracy": acc_sum / n},
        )

    def evaluate_tasks(self, meta_params, tasks, seed):
        losses, accs = [], []
        for ordinal, task in enumerate(tasks):
            head_rng = rng_from(seed, STREAM_HEAD_RESET, _VALIDATION_ORDINAL_BASE + ordinal)
            _, stats = self.task_query_stats(
                meta_params, task, head_rng, want_grads=False
            )
            losses.append(stats["loss"])
            accs.append(stats["accuracy"])
        return float(np.mean(accs)), float(np.mean(losses))


def meta_train(corpus, config, seed, model_config=None):
    """Meta-train on episodes from the pre-training split.

    Adam at the outer rate updates the backbone (the task encoder gets its
    own Adam at the encoder rate); every ``validate_every`` tasks the mean
    query accuracy over the fixed meta-validation tasks is appended to the
    trace.  Returns (best backbone params, trace rows).
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

    trace, best = [], None
    tasks_seen = 0
    while tasks_seen < config.total_tasks:
        batch = []
        for _ in range(min(config.tasks_per_batch, config.total_tasks - tasks_seen)):
            batch.append((tasks_seen, sample_episode(pool, episode_config, tasks_seen)))
            tasks_seen += 1
        grads, _ = learner.meta_gradient(meta_params, batch, seed)
        outer.step(meta_params, {k: v for k, v in grads.items() if k not in film_keys})
        if encoder_opt is not None:
            encoder_opt.step(meta_params, {k: v for k, v in grads.items() if k in film_keys})
        if tasks_seen % config.validate_every == 0 or tasks_seen >= config.total_tasks:
            val_acc, val_loss = learner.evaluate_tasks(meta_params, validation_tasks, seed)
            trace.append(
                {
                    "tasks_seen": tasks_seen,
                    "mean_query_accuracy": val_acc,
                    "mean_query_loss": val_loss,
                }
            )
            if best is None or val_acc > best[0]:
                best = (
                    val_acc,
                    tasks_seen,
                    {k: Tensor(v.values.copy()) for k, v in meta_params.items()},
                )
    if best is None:  # total_tasks == 0: parameters equal initialization
        best = (float("nan"), 0, {k: Tensor(v.values.copy()) for k, v in meta_params.items()})
    _, best_at, best_params = best
    backbone = {
        k.split("/", 1)[1]: v for k, v in best_params.items() if k.startswith("backbone/")
    }
    return backbone, {"trace": trace, "best_at": best_at, "learner": learner}
