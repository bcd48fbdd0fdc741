"""Neural building blocks: Transformer encoder, positional encoding, heads.

Parameters live in plain ``{name: Tensor}`` maps so the meta-learning inner
loop can swap adapted values functionally.  Weights are initialized from
Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) with zero biases, drawn from the
run seed; layer norms carry affine (gain, bias) initialized to (1, 0).
Blocks are pre-norm residual; dropout is omitted for determinism.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import (
    ContractError,
    DegenerateInputError,
    SequenceLengthError,
    ShapeError,
)
from .tensor import Tensor

NEG_INF = -1e30


@dataclass(frozen=True)
class TransformerConfig:
    embed_dim: int
    num_heads: int
    hidden_dim: int
    encoder_blocks: int
    decoder_blocks: int
    max_seq_len: int

    def __post_init__(self):
        if self.embed_dim <= 0 or self.num_heads <= 0 or self.hidden_dim <= 0:
            raise ContractError("TransformerConfig: dimensions must be positive")
        if self.encoder_blocks <= 0 or self.decoder_blocks < 0:
            raise ContractError("TransformerConfig: bad block counts")
        if self.embed_dim % self.num_heads != 0:
            raise ContractError(
                f"TransformerConfig: embed_dim {self.embed_dim} not divisible "
                f"by num_heads {self.num_heads}"
            )


# Published model sizes; desk-scale experiments shrink these via `replace`.
SUPERVISED = TransformerConfig(128, 4, 256, 1, 0, 366)
PRESTO = TransformerConfig(128, 8, 512, 2, 2, 24)


def small_config(embed_dim=16, num_heads=2, hidden_dim=32, encoder_blocks=1,
                 decoder_blocks=0, max_seq_len=366):
    """Desk-scale config used by tests and the synthetic pipeline."""
    return TransformerConfig(embed_dim, num_heads, hidden_dim,
                             encoder_blocks, decoder_blocks, max_seq_len)


@dataclass
class ModelParams:
    """Named backbone and head tensors; the head is replaceable in isolation."""

    backbone: dict = field(default_factory=dict)
    head: dict = field(default_factory=dict)

    def named(self):
        merged = {f"backbone/{k}": v for k, v in self.backbone.items()}
        merged.update({f"head/{k}": v for k, v in self.head.items()})
        return merged

    def copy(self):
        return ModelParams(
            backbone={k: Tensor(v.values.copy()) for k, v in self.backbone.items()},
            head={k: Tensor(v.values.copy()) for k, v in self.head.items()},
        )


def uniform_init(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


def linear_params(rng, fan_in, fan_out):
    return uniform_init(rng, fan_in, (fan_in, fan_out)), Tensor(np.zeros(fan_out))


def new_head(rng, embed_dim, n_classes):
    w, b = linear_params(rng, embed_dim, n_classes)
    return {"w": w, "b": b}


def reset_head(params, rng, embed_dim, n_classes):
    """Replace only head entries; backbone names and shapes are untouched."""
    params.head = new_head(rng, embed_dim, n_classes)
    return params


def sinusoidal_encoding(position, dim):
    """entry 2i = sin(pos / 10000^(2i/dim)), entry 2i+1 = cos(same argument)."""
    if dim <= 0 or dim % 2 != 0:
        raise ContractError(f"sinusoidal_encoding: dim must be positive even, got {dim}")
    if position < 0:
        raise ContractError(f"sinusoidal_encoding: negative position {position}")
    i = np.arange(dim // 2)
    angle = position / np.power(10000.0, 2.0 * i / dim)
    out = np.empty(dim)
    out[0::2] = np.sin(angle)
    out[1::2] = np.cos(angle)
    return out


def sinusoidal_table(max_len, dim):
    return np.stack([sinusoidal_encoding(p, dim) for p in range(max_len)])


# ---------------------------------------------------------------------------
# transformer core
# ---------------------------------------------------------------------------


def _affine_ln(x, params, prefix):
    normed = T.layer_norm(x)
    return T.add(T.mul(normed, params[f"{prefix}/g"]), params[f"{prefix}/b"])


def _linear(x, params, prefix):
    return T.add(T.matmul(x, params[f"{prefix}/w"]), params[f"{prefix}/b"])


def _split_heads(x, num_heads):
    b, t, e = x.shape
    x = T.reshape(x, (b, t, num_heads, e // num_heads))
    return T.transpose(x, (0, 2, 1, 3))


def _merge_heads(x):
    b, h, t, dh = x.shape
    x = T.transpose(x, (0, 2, 1, 3))
    return T.reshape(x, (b, t, h * dh))


def attention(params, prefix, config, queries, keys_values, key_mask, collect=None):
    """Multi-head attention; ``key_mask`` (bool [B, Tk]) marks attendable keys.

    Masked keys receive -1e30 before the softmax, so attention weights over
    unmasked keys sum to one and masked keys receive exactly zero weight.
    """
    q = _split_heads(_linear(queries, params, f"{prefix}/q"), config.num_heads)
    k = _split_heads(_linear(keys_values, params, f"{prefix}/k"), config.num_heads)
    v = _split_heads(_linear(keys_values, params, f"{prefix}/v"), config.num_heads)
    scale = 1.0 / np.sqrt(config.embed_dim // config.num_heads)
    scores = T.mul(T.matmul(q, T.transpose(k)), scale)
    blocked = ~np.asarray(key_mask, dtype=bool)[:, None, None, :]
    scores = T.masked_fill(scores, blocked, NEG_INF)
    weights = T.softmax(scores)
    if collect is not None:
        collect.append(weights.values)
    context = _merge_heads(T.matmul(weights, v))
    return _linear(context, params, f"{prefix}/out")


def _block_params(rng, config, prefix, params):
    e, h = config.embed_dim, config.hidden_dim
    for name in ("q", "k", "v", "out"):
        w, b = linear_params(rng, e, e)
        params[f"{prefix}/attn/{name}/w"] = w
        params[f"{prefix}/attn/{name}/b"] = b
    for name, (fi, fo) in (("mlp/up", (e, h)), ("mlp/down", (h, e))):
        w, b = linear_params(rng, fi, fo)
        params[f"{prefix}/{name}/w"] = w
        params[f"{prefix}/{name}/b"] = b
    for ln in ("ln1", "ln2"):
        params[f"{prefix}/{ln}/g"] = Tensor(np.ones(e))
        params[f"{prefix}/{ln}/b"] = Tensor(np.zeros(e))


def encoder_params(rng, config, params=None):
    params = {} if params is None else params
    for i in range(config.encoder_blocks):
        _block_params(rng, config, f"enc{i}", params)
    params["enc_out/ln/g"] = Tensor(np.ones(config.embed_dim))
    params["enc_out/ln/b"] = Tensor(np.zeros(config.embed_dim))
    return params


def _transformer_block(params, prefix, config, x, key_mask, collect=None):
    h = _affine_ln(x, params, f"{prefix}/ln1")
    x = T.add(x, attention(params, f"{prefix}/attn", config, h, h, key_mask, collect))
    h = _affine_ln(x, params, f"{prefix}/ln2")
    h = _linear(T.gelu(_linear(h, params, f"{prefix}/mlp/up")), params, f"{prefix}/mlp/down")
    return T.add(x, h)


def encode(params, config, x, attention_mask, collect=None, length_cap=None):
    """Run the encoder stack over an embedded sequence.

    ``x`` is [T, embed_dim] or [B, T, embed_dim]; ``attention_mask`` (bool,
    [T] or [B, T]) marks live tokens.  Masked positions neither attend nor
    are attended to, and row order is preserved.
    """
    x = T.as_tensor(x)
    single = x.ndim == 2
    mask = np.asarray(attention_mask, dtype=bool)
    if single:
        x = T.reshape(x, (1,) + x.shape)
        mask = mask[None, :]
    cap = config.max_seq_len if length_cap is None else length_cap
    if x.shape[1] > cap:
        raise SequenceLengthError(
            f"sequence of {x.shape[1]} tokens exceeds max_seq_len {cap}"
        )
    if mask.shape != x.shape[:2]:
        raise ShapeError(
            f"encode: mask shape {mask.shape} does not match tokens {x.shape[:2]}"
        )
    for i in range(config.encoder_blocks):
        x = _transformer_block(params, f"enc{i}", config, x, mask, collect)
    x = _affine_ln(x, params, "enc_out/ln")
    return T.reshape(x, x.shape[1:]) if single else x


def pool_sequence(encoder_output, attention_mask):
    """Mean over unmasked token embeddings (recorded pooling decision)."""
    x = T.as_tensor(encoder_output)
    mask = np.asarray(attention_mask, dtype=bool)
    single = x.ndim == 2
    if single:
        x = T.reshape(x, (1,) + x.shape)
        mask = mask[None, :]
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise DegenerateInputError("pool_sequence: a sequence has no unmasked token")
    weights = mask.astype(np.float64) / counts[:, None]
    pooled = T.reduce_sum(T.mul(x, Tensor(weights[:, :, None])), axis=1)
    return T.reshape(pooled, pooled.shape[1:]) if single else pooled


def classify(head, embedding):
    """logits = embedding @ W + b for a single embedding or a batch."""
    x = T.as_tensor(embedding)
    single = x.ndim == 1
    if single:
        x = T.reshape(x, (1,) + x.shape)
    if x.shape[-1] != head["w"].shape[0]:
        raise ContractError(
            f"classify: embedding dim {x.shape[-1]} != head input {head['w'].shape[0]}"
        )
    logits = T.add(T.matmul(x, head["w"]), head["b"])
    return T.reshape(logits, logits.shape[1:]) if single else logits


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy; labels are integer class indices."""
    logits = T.as_tensor(logits)
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim == 1:
        logits = T.reshape(logits, (1,) + logits.shape)
        labels = labels.reshape(1)
    n, c = logits.shape
    shift = Tensor(logits.values.max(axis=-1, keepdims=True))  # constant shift
    z = T.sub(logits, shift)
    log_norm = T.log(T.reduce_sum(T.exp(z), axis=-1, keepdims=True))
    log_probs = T.sub(z, log_norm)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    picked = T.reduce_sum(T.mul(log_probs, Tensor(onehot)), axis=-1)
    return T.mul(T.reduce_mean(picked), -1.0)


def accuracy(logits_values, labels):
    preds = np.asarray(logits_values).argmax(axis=-1)
    return float(np.mean(preds == np.asarray(labels)))


# ---------------------------------------------------------------------------
# raw day-series model (supervised / meta-learning input path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawSeriesModel:
    """Day-stamped band values, linearly projected with day-of-year positions."""

    config: TransformerConfig
    in_channels: int
    groups: tuple = ()  # dynamic group order used by prepare()

    def prepare(self, samples):
        return pack_batch(samples, list(self.groups))

    def init_backbone(self, rng):
        params = {}
        w, b = linear_params(rng, self.in_channels, self.config.embed_dim)
        params["in/w"] = w
        params["in/b"] = b
        return encoder_params(rng, self.config, params)

    def init_params(self, rng, n_classes):
        return ModelParams(
            backbone=self.init_backbone(rng),
            head=new_head(rng, self.config.embed_dim, n_classes),
        )

    def _positions(self, days):
        table = sinusoidal_table(self.config.max_seq_len, self.config.embed_dim)
        clipped = np.clip(np.asarray(days, dtype=np.intp) - 1, 0, None)
        if np.any(clipped >= self.config.max_seq_len):
            raise SequenceLengthError(
                f"day index {int(clipped.max()) + 1} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        return table[clipped]

    def embed(self, params, values, days):
        """Project [B, T, C] band values and add day-of-year positions."""
        x = T.add(T.matmul(Tensor(values), params["in/w"]), params["in/b"])
        return T.add(x, Tensor(self._positions(days)))

    def embeddings(self, params, batch, film=None, collect=None):
        values, days, mask = batch
        x = self.embed(params, values, days)
        if film is not None:
            gamma, delta = film
            x = T.add(T.mul(x, _expand_mid(gamma)), _expand_mid(delta))
        encoded = encode(params, self.config, x, mask, collect=collect)
        pooled = pool_sequence(encoded, mask)
        if film is not None:
            gamma, delta = film
            pooled = T.add(T.mul(pooled, gamma), delta)
        return pooled

    def logits(self, params, head, batch, film=None, collect=None):
        return classify(head, self.embeddings(params, batch, film, collect))


def _expand_mid(x):
    return T.reshape(x, (x.shape[0], 1, x.shape[1]))


def pack_batch(samples, groups, max_len=None):
    """Assemble (values [B,T,C], days [B,T], mask [B,T]) for the raw model.

    Dynamic group channels are concatenated in the given group order; short
    sequences are zero-padded with day 1 and a False mask.
    """
    if not samples:
        raise ContractError("pack_batch: empty sample list")
    lengths = [len(s.observations) for s in samples]
    t_max = max(lengths) if max_len is None else max_len
    if any(l > t_max for l in lengths):
        raise SequenceLengthError(f"observation count exceeds pad length {t_max}")
    channels = sum(len(samples[0].observations[0].channels[g]) for g in groups)
    values = np.zeros((len(samples), t_max, channels))
    days = np.ones((len(samples), t_max), dtype=np.intp)
    mask = np.zeros((len(samples), t_max), dtype=bool)
    for i, sample in enumerate(samples):
        for j, obs in enumerate(sample.observations):
            values[i, j] = np.concatenate([obs.channels[g] for g in groups])
            days[i, j] = obs.day
            mask[i, j] = True
    return values, days, mask


# ---------------------------------------------------------------------------
# checkpoint container: magic "FSML", version u32, little-endian records
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"FSML"
CHECKPOINT_VERSION = 1
_META_PREFIX = "__meta__/"


def save_checkpoint(path, arrays, meta=None):
    """Write named f64 arrays (and string metadata) to the binary container."""
    records = dict(arrays)
    for key, value in (meta or {}).items():
        encoded = np.frombuffer(str(value).encode("utf-8"), dtype=np.uint8)
        records[_META_PREFIX + key] = encoded.astype(np.float64)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(records)))
        for name in sorted(records):
            data = np.ascontiguousarray(records[name], dtype=np.float64)
            encoded_name = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded_name)))
            fh.write(encoded_name)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read the container back as (arrays, meta) dictionaries."""
    try:
        fh = open(path, "rb")
    except OSError as err:
        raise ContractError(f"checkpoint: cannot open {str(path)!r}: {err.strerror}") from None
    with fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ContractError(f"checkpoint: bad magic {magic!r}")
        version, count = struct.unpack("<II", fh.read(8))
        if version != CHECKPOINT_VERSION:
            raise ContractError(f"checkpoint: unsupported version {version}")
        arrays, meta = {}, {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", fh.read(4))
            name = fh.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<I", fh.read(4))
            shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim)) if ndim else ()
            size = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(8 * size), dtype="<f8").reshape(shape)
            if name.startswith(_META_PREFIX):
                meta[name[len(_META_PREFIX):]] = (
                    data.astype(np.uint8).tobytes().decode("utf-8")
                )
            else:
                arrays[name] = data.copy()
    return arrays, meta


def params_to_arrays(params):
    return {k: v.values for k, v in params.named().items()}


def params_from_arrays(arrays):
    params = ModelParams()
    for name, values in arrays.items():
        scope, _, rest = name.partition("/")
        if scope == "backbone":
            params.backbone[rest] = Tensor(values)
        elif scope == "head":
            params.head[rest] = Tensor(values)
    return params
