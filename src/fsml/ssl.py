"""Masked-autoencoder pre-training over token sequences.

Batches
    ``encode_token_batch`` encodes a whole batch with one call of
    ``tokens.encode_tokens`` and returns a ``TokenBatch``: [B, N, d_emb]
    tokens and contexts, the padding mask and the reconstruction targets,
    laid out by ``tokens.token_layout``.  Masks for a batch come from one
    strategy draw followed by one ``build_mask`` per sample, in order.

Masking regimes
    base (non-strict): structured strategies select at most the target
    fraction and a random top-up brings the masked count to exactly
    floor(0.75 * N) non-padding tokens.
    xts (strict): the structured mask is kept as drawn (target 0.70, never
    topped up).

Decoders
    Both run the encoder's transformer block.
    self_attention: visible encodings and mask tokens (a learned vector
    plus each position's contextual encoding) are reassembled in order and
    run through self-attention decoder blocks.
    cross_attention: the blocks take the visible encodings as their
    ``memory``, so mask-token queries attend only to visible-token
    keys/values and masked queries never interact with each other.

The reconstruction loss is mean squared error over masked, non-padding
cells only, computed in per-channel z-scored raw-value space (statistics
from the training split travel with the checkpoint).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import tensor as T
from .data import subset_by_split
from .errors import ContractError, DegenerateInputError, DivergedError, require_counts
from .nn import TransformerConfig
from .seeding import STREAM_BATCHING, STREAM_INIT, STREAM_MASKING, rng_from
from .tensor import Tape, Tensor, grad
from .tokens import ChannelGroupSpec, EncodingRegime, encode_tokens, token_layout, token_params
from .train import Adam, _fit

STRATEGIES = ("random", "channel_groups", "contiguous_timesteps", "random_timesteps")
PLAN_STRATEGIES = STRATEGIES + ("mixed",)
DECODERS = ("self_attention", "cross_attention")
BASE_MASK_RATIO = 0.75
XTS_MASK_RATIO = 0.70
SSL_BATCH_SIZE = 256
SSL_PATIENCE = 15


@dataclass(frozen=True)
class MaskPlan:
    strategy: str  # one of PLAN_STRATEGIES
    target_ratio: float
    strict: bool  # True: keep the structured mask; False: random top-up

    def __post_init__(self):
        if self.strategy not in PLAN_STRATEGIES:
            raise ContractError(f"unknown masking strategy {self.strategy!r}")
        if not 0.0 < self.target_ratio < 1.0:
            raise ContractError(f"mask ratio {self.target_ratio} outside (0, 1)")


def base_plan(strategy="mixed"):
    return MaskPlan(strategy, BASE_MASK_RATIO, strict=False)


def xts_plan(strategy="mixed"):
    return MaskPlan(strategy, XTS_MASK_RATIO, strict=True)


def resolve_strategy(plan, rng):
    if plan.strategy != "mixed":
        return plan.strategy
    return STRATEGIES[int(rng.integers(len(STRATEGIES)))]


def build_mask(plan, spec, t_steps, rng, padding=None, strategy=None, layout=None):
    """Boolean reconstruction mask over the token sequence.

    Padding tokens are never part of the mask (they are excluded from the
    loss and masked out of the encoder separately).  Non-strict plans top up
    to exactly floor(ratio * N) masked non-padding tokens.  ``layout`` is
    the (group index, time index) pair of ``token_layout`` for ``t_steps``
    steps, when the caller already has it.
    """
    if t_steps < 1:
        raise ContractError("build_mask: need at least one time step")
    strategy = strategy or resolve_strategy(plan, rng)
    if layout is None:
        layout = token_layout(spec, [t_steps])[1:3]
    group_index, time_index = layout
    n_tokens = len(group_index)
    pad = np.zeros(n_tokens, dtype=bool) if padding is None else np.asarray(padding, dtype=bool)
    live = ~pad
    n_live = int(live.sum())
    target = int(np.floor(plan.target_ratio * n_live))

    mask = np.zeros(n_tokens, dtype=bool)
    dynamic = time_index >= 0
    n_dynamic_groups = len(spec.dynamic_groups)

    if strategy == "random":
        candidates = np.flatnonzero(live)
        picked = rng.choice(len(candidates), size=target, replace=False)
        mask[candidates[picked]] = True
    elif strategy == "channel_groups":
        order = rng.permutation(len(spec.groups))
        total = 0
        for gi in order:
            cells = np.flatnonzero((group_index == gi) & live)
            if total + len(cells) > target:
                continue
            mask[cells] = True
            total += len(cells)
    elif strategy == "contiguous_timesteps":
        window = min(t_steps, target // max(n_dynamic_groups, 1))
        if window > 0:
            start = int(rng.integers(0, t_steps - window + 1))
            chosen = dynamic & (time_index >= start) & (time_index < start + window)
            mask[chosen & live] = True
    elif strategy == "random_timesteps":
        count = min(t_steps, target // max(n_dynamic_groups, 1))
        if count > 0:
            steps = rng.choice(t_steps, size=count, replace=False)
            chosen = dynamic & np.isin(time_index, steps)
            mask[chosen & live] = True

    if not plan.strict:
        deficit = target - int(mask.sum())
        if deficit > 0:
            pool = np.flatnonzero(live & ~mask)
            picked = rng.choice(len(pool), size=deficit, replace=False)
            mask[pool[picked]] = True
    return mask


# ---------------------------------------------------------------------------
# normalization (per-channel z-score, computed on the training split)
# ---------------------------------------------------------------------------


def normalization_stats(samples, spec):
    """Mean/std per channel of each dynamic group; degenerate stds fall back to 1."""
    stats = {}
    for g in spec.dynamic_groups:
        rows = [s.channels[g.name] for s in samples]
        arr = np.concatenate(rows) if rows else np.zeros((1, g.channels))
        std = arr.std(axis=0)
        std[std < 1e-12] = 1.0
        stats[g.name] = (arr.mean(axis=0), std)
    return stats


# ---------------------------------------------------------------------------
# batched token assembly
# ---------------------------------------------------------------------------


@dataclass
class TokenBatch:
    tokens: Tensor  # [B, N, d_emb]
    context: Tensor  # [B, N, d_emb] contextual encodings alone
    group_index: np.ndarray  # [N]
    time_index: np.ndarray  # [N]
    pad: np.ndarray  # [B, N] True where padding
    targets: np.ndarray  # [B, N, max_dc] raw (normalized) cell values
    target_width: np.ndarray  # [N] channels per token


def encode_token_batch(samples, spec, regime, params, stats=None):
    """Tokens, contexts, padding and reconstruction targets for a batch."""
    if not samples:
        raise ContractError("encode_token_batch: empty batch")
    tokens, context, targets = encode_tokens(samples, spec, regime, params, stats)
    _, group_index, time_index, pad = token_layout(spec, [len(s.days) for s in samples])
    widths = np.array([spec.groups[gi].channels for gi in group_index], dtype=np.intp)
    return TokenBatch(tokens, context, group_index, time_index, pad, targets, widths)


# ---------------------------------------------------------------------------
# the autoencoder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaskedAutoencoder:
    config: TransformerConfig
    spec: ChannelGroupSpec
    regime: EncodingRegime
    variant: str  # one of DECODERS

    def __post_init__(self):
        if self.variant not in DECODERS:
            raise ContractError(f"unknown decoder variant {self.variant!r}")
        if self.config.decoder_blocks < 1:
            raise ContractError("masked autoencoder needs at least one decoder block")

    @property
    def length_cap(self):
        return self.spec.token_count(self.regime.max_timesteps)

    def init_params(self, rng):
        params = token_params(rng, self.spec, self.regime)
        nn.encoder_params(rng, self.config, params)
        for i in range(self.config.decoder_blocks):
            nn._block_params(rng, self.config, f"dec{i}", params)
        params["dec_out/ln/g"] = Tensor(np.ones(self.config.embed_dim))
        params["dec_out/ln/b"] = Tensor(np.zeros(self.config.embed_dim))
        params["dec/mask_token"] = nn.uniform_init(rng, self.config.embed_dim, (self.config.embed_dim,))
        for g in self.spec.groups:
            w, b = nn.linear_params(rng, self.config.embed_dim, g.channels)
            params[f"recon/{g.name}/w"] = w
            params[f"recon/{g.name}/b"] = b
        return params

    # -- encoder ----------------------------------------------------------

    def encode(self, params, batch, visible):
        """Encoder over visible tokens only: masked/padding positions are
        zeroed and excluded from attention, so no information leaks."""
        blocked = ~visible
        x = T.masked_fill(batch.tokens, blocked[:, :, None], 0.0)
        return nn.encode(params, self.config, x, visible, length_cap=self.length_cap)

    # -- decoder ----------------------------------------------------------

    def _decode_self_attention(self, params, batch, encoded, mask, visible):
        mask_content = T.add(batch.context, params["dec/mask_token"])
        vis_f = Tensor(visible.astype(np.float64)[:, :, None])
        mask_f = Tensor(mask.astype(np.float64)[:, :, None])
        x = T.add(T.mul(encoded, vis_f), T.mul(mask_content, mask_f))
        live = visible | mask
        for i in range(self.config.decoder_blocks):
            x = nn._transformer_block(params, f"dec{i}", self.config, x, live)
        return nn._affine_ln(x, params, "dec_out/ln")

    def _decode_cross_attention(self, params, batch, encoded, mask, visible):
        x = T.add(batch.context, params["dec/mask_token"])
        for i in range(self.config.decoder_blocks):
            x = nn._transformer_block(params, f"dec{i}", self.config, x, visible, memory=encoded)
        return nn._affine_ln(x, params, "dec_out/ln")

    def reconstruct(self, params, batch, mask):
        """Decoder reconstructions [B, N, max_dc] in raw-value space."""
        visible = ~mask & ~batch.pad
        if not visible.any(axis=1).all():
            raise DegenerateInputError("a sequence has every token masked")
        encoded = self.encode(params, batch, visible)
        if self.variant == "self_attention":
            decoded = self._decode_self_attention(params, batch, encoded, mask, visible)
        else:
            decoded = self._decode_cross_attention(params, batch, encoded, mask, visible)
        max_dc = batch.targets.shape[-1]
        b, n = mask.shape
        recon = Tensor(np.zeros((b, n, max_dc)))
        for gi, g in enumerate(self.spec.groups):
            rows = batch.group_index == gi
            if not rows.any():
                continue
            head = T.add(T.matmul(decoded, params[f"recon/{g.name}/w"]), params[f"recon/{g.name}/b"])
            if g.channels < max_dc:
                head = T.concat([head, Tensor(np.zeros((b, n, max_dc - g.channels)))], axis=2)
            recon = T.add(recon, T.mul(head, Tensor(rows.astype(np.float64)[None, :, None])))
        return recon


def reconstruction_loss(recon, batch, mask):
    """MSE over masked non-padding cells; each cell averages its channels."""
    support = mask & ~batch.pad
    n_cells = int(support.sum())
    if n_cells == 0:
        warnings.warn("reconstruction loss over zero masked cells is degenerate")
        return T.mul(T.reduce_sum(recon), 0.0)
    channel_gate = np.zeros(batch.targets.shape)
    for position, width in enumerate(batch.target_width):
        channel_gate[:, position, :width] = 1.0 / width
    cell_weight = support.astype(np.float64)[:, :, None] * channel_gate / n_cells
    diff = T.sub(recon, Tensor(batch.targets))
    return T.reduce_sum(T.mul(T.mul(diff, diff), Tensor(cell_weight)))


def _batch_masks(plan, spec, samples, rng):
    """Masks [B, N]: one strategy draw for the batch, then one mask per sample in order."""
    strategy = resolve_strategy(plan, rng)
    lengths = [len(s.days) for s in samples]
    _, group_index, time_index, pad = token_layout(spec, lengths)
    return np.stack([
        build_mask(plan, spec, max(lengths), rng, padding=row, strategy=strategy,
                   layout=(group_index, time_index))
        for row in pad
    ])


def mae_step(params, model, samples, plan, rng, stats=None):
    """One training step: batched masking, forward, loss and gradients."""
    if not samples:
        raise ContractError("mae_step: empty batch")
    masks = _batch_masks(plan, model.spec, samples, rng)
    with Tape():
        batch = encode_token_batch(samples, model.spec, model.regime, params, stats)
        recon = model.reconstruct(params, batch, masks)
        loss = reconstruction_loss(recon, batch, masks)
        if not np.isfinite(loss.item()):
            raise DivergedError("non-finite reconstruction loss")
        names = sorted(params)
        grads = grad(loss, [params[k] for k in names])
    return loss.item(), {k: g.values for k, g in zip(names, grads)}


def evaluate_mae_loss(params, model, samples, plan, seed, stats=None, batch_size=64):
    losses = []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        masks = _batch_masks(plan, model.spec, chunk, rng_from(seed, STREAM_MASKING, 900_000 + start))
        batch = encode_token_batch(chunk, model.spec, model.regime, params, stats)
        recon = model.reconstruct(params, batch, masks)
        losses.append(reconstruction_loss(recon, batch, masks).item() * len(chunk))
    return sum(losses) / len(samples)


@dataclass
class SSLConfig:
    variant: str = "self_attention"
    plan: MaskPlan = field(default_factory=xts_plan)
    learning_rate: float = 1e-3
    batch_size: int = SSL_BATCH_SIZE
    validate_every: int = 50  # batches between validation passes
    patience: int = SSL_PATIENCE
    max_batches: int = 10_000  # cap within the single pass

    def __post_init__(self):
        require_counts(batch_size=self.batch_size, validate_every=self.validate_every,
                       patience=self.patience)


def pretrain_ssl(corpus, model, config, seed):
    """One pass over the pre-training pool (at most ``max_batches`` batches),
    validated every ``validate_every`` batches and after the last one.

    Early stopping waits ``patience`` validations without loss improvement;
    the best-validation checkpoint (with normalization statistics) is kept.
    """
    pool = corpus.pretrain_pool()
    train = subset_by_split(pool, "train")
    validation = subset_by_split(pool, "validation")
    stats = normalization_stats(train, model.spec)

    params = model.init_params(rng_from(seed, STREAM_INIT))
    optimizer = Adam(config.learning_rate)
    order = rng_from(seed, STREAM_BATCHING).permutation(len(train))

    def step(batches_seen):
        start = (batches_seen - 1) * config.batch_size
        chunk = [train[i] for i in order[start : start + config.batch_size]]
        rng = rng_from(seed, STREAM_MASKING, batches_seen - 1)
        loss, grads = mae_step(params, model, chunk, config.plan, rng, stats)
        optimizer.step(params, grads)
        return {"batches_seen": batches_seen, "train_loss": loss}

    def validate():
        val_loss = evaluate_mae_loss(params, model, validation, config.plan, seed, stats)
        return -val_loss, val_loss, {"val_loss": val_loss}

    n_batches = min(len(range(0, len(train), config.batch_size)), config.max_batches)
    best_params, best_at, trace = _fit(
        range(1, n_batches + 1), config.validate_every, step, validate,
        lambda: {k: Tensor(v.values.copy()) for k, v in params.items()}, config.patience,
    )
    return best_params, stats, {"trace": trace, "best_at": best_at}


def encoder_backbone(params):
    """Drop decoder and reconstruction heads; keep what fine-tuning reuses."""
    return {
        k: v
        for k, v in params.items()
        if not (k.startswith("dec") or k.startswith("recon/"))
    }


@dataclass(frozen=True)
class TokenClassifier:
    """Token encoder + mean pooling + linear head (decoder discarded)."""

    config: TransformerConfig
    spec: ChannelGroupSpec
    regime: EncodingRegime
    stats: dict | None = None

    def prepare(self, samples):
        return samples

    def init_backbone(self, rng):
        params = token_params(rng, self.spec, self.regime)
        return nn.encoder_params(rng, self.config, params)

    def init_params(self, rng, n_classes):
        return nn.ModelParams(
            backbone=self.init_backbone(rng),
            head=nn.new_head(rng, self.config.embed_dim, n_classes),
        )

    def logits(self, backbone, head, samples):
        batch = encode_token_batch(samples, self.spec, self.regime, backbone, self.stats)
        visible = ~batch.pad
        encoded = nn.encode(
            backbone, self.config, batch.tokens, visible,
            length_cap=self.spec.token_count(self.regime.max_timesteps),
        )
        pooled = nn.pool_sequence(encoded, visible)
        return nn.classify(head, pooled)
