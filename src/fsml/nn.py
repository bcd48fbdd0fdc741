"""Neural building blocks: Transformer encoder, positional encoding, heads.

Parameters live in plain ``{name: Tensor}`` maps so the meta-learning inner
loop can swap adapted values functionally.  Weights are initialized from
Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) with zero biases, drawn from the
run seed; layer norms carry affine (gain, bias) initialized to (1, 0).
Blocks are pre-norm residual; dropout is omitted for determinism.

Stacked tasks.  The raw-series model also runs ``n`` tasks at once, each
with its own weights: a parameter may carry a leading task axis (a matrix
``[n, in, out]``, a vector ``[n, 1, d]``, see :func:`on_task_axis`), the
sequence mask is ``[n, B, T]`` and activations are ``[n, B*T, d]`` rows, so
every linear layer is one batched matmul.  Attention folds the tasks into
its batch axis.  Without a task axis every function computes exactly what it
computes on a single batch.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import (
    ContractError,
    DegenerateInputError,
    ParseError,
    SequenceLengthError,
    ShapeError,
    require_counts,
)
from .tensor import Tensor

NEG_INF = -1e30


@dataclass(frozen=True)
class TransformerConfig:
    """Model sizes; the defaults are the desk-scale config of the tests and
    the synthetic pipeline."""

    embed_dim: int = 16
    num_heads: int = 2
    hidden_dim: int = 32
    encoder_blocks: int = 1
    decoder_blocks: int = 0
    max_seq_len: int = 366

    def __post_init__(self):
        require_counts(embed_dim=self.embed_dim, num_heads=self.num_heads,
                       hidden_dim=self.hidden_dim, encoder_blocks=self.encoder_blocks)
        require_counts(0, decoder_blocks=self.decoder_blocks)
        if self.embed_dim % self.num_heads != 0:
            raise ContractError(
                f"embed_dim: {self.embed_dim} is not divisible by num_heads {self.num_heads}"
            )


# Published model sizes.
SUPERVISED = TransformerConfig(128, 4, 256, 1, 0, 366)
PRESTO = TransformerConfig(128, 8, 512, 2, 2, 24)
small_config = TransformerConfig  # the desk-scale sizes, overridable by keyword


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
    """Rows 0..max_len-1 of ``sinusoidal_encoding``, built as one outer product."""
    if dim <= 0 or dim % 2 != 0:
        raise ContractError(f"sinusoidal_table: dim must be positive even, got {dim}")
    i = np.arange(dim // 2)
    angle = np.arange(max_len)[:, None] / np.power(10000.0, 2.0 * i / dim)
    out = np.empty((max_len, dim))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle)
    return out


_POSITIONAL_TABLES = {}  # (max_len, dim) -> read-only sinusoidal_table


def positional_table(max_len, dim):
    """Read-only ``sinusoidal_table(max_len, dim)``, built once per process."""
    table = _POSITIONAL_TABLES.get((max_len, dim))
    if table is None:
        table = sinusoidal_table(max_len, dim)
        table.flags.writeable = False
        _POSITIONAL_TABLES[(max_len, dim)] = table
    return table


# ---------------------------------------------------------------------------
# transformer core
# ---------------------------------------------------------------------------


def _affine_ln(x, params, prefix):
    normed = T.layer_norm(x)
    return T.add(T.mul(normed, params[f"{prefix}/g"]), params[f"{prefix}/b"])


def _linear(x, params, prefix):
    return T.add(T.matmul(x, params[f"{prefix}/w"]), params[f"{prefix}/b"])


def _split_heads(x, batch, num_heads):
    """Rows of ``batch`` sequences as [batch, heads, T, dim / heads]."""
    x = T.reshape(x, (batch, -1, num_heads, x.shape[-1] // num_heads))
    return T.transpose(x, (0, 2, 1, 3))


def _merge_heads(x, shape):
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), shape)


def attention(params, prefix, config, queries, keys_values, key_mask):
    """Multi-head attention; ``key_mask`` (bool [B, Tk]) marks attendable keys.

    Masked keys receive -1e30 before the softmax, so attention weights over
    unmasked keys sum to one and masked keys receive exactly zero weight.
    Keys carry no bias: softmax is shift-invariant per query, so a key bias
    would never get a gradient.  Stacked tasks (mask [n, B, Tk], rows
    [n, B*Tk, d]) attend as n*B sequences.
    """
    key_mask = np.asarray(key_mask, dtype=bool)
    key_mask = key_mask.reshape(-1, key_mask.shape[-1])
    batch = key_mask.shape[0]
    q = _split_heads(_linear(queries, params, f"{prefix}/q"), batch, config.num_heads)
    k = _split_heads(T.matmul(keys_values, params[f"{prefix}/k/w"]), batch, config.num_heads)
    v = _split_heads(_linear(keys_values, params, f"{prefix}/v"), batch, config.num_heads)
    scale = 1.0 / np.sqrt(config.embed_dim // config.num_heads)
    scores = T.mul(T.matmul(q, k, transpose_b=True), scale)
    scores = T.masked_fill(scores, ~key_mask[:, None, None, :], NEG_INF)
    weights = T.softmax(scores)
    context = _merge_heads(T.matmul(weights, v), queries.shape)
    return _linear(context, params, f"{prefix}/out")


def _block_params(rng, config, prefix, params):
    e, h = config.embed_dim, config.hidden_dim
    for name in ("q", "k", "v", "out"):
        w, b = linear_params(rng, e, e)
        params[f"{prefix}/attn/{name}/w"] = w
        if name != "k":
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


def _transformer_block(params, prefix, config, x, key_mask, memory=None):
    """Pre-norm residual block.  Its attention reads keys and values from the
    normed ``x`` itself, or from ``memory`` when given (cross-attention);
    ``key_mask`` marks the attendable key rows."""
    h = _affine_ln(x, params, f"{prefix}/ln1")
    kv = h if memory is None else memory
    x = T.add(x, attention(params, f"{prefix}/attn", config, h, kv, key_mask))
    h = _affine_ln(x, params, f"{prefix}/ln2")
    h = _linear(T.gelu(_linear(h, params, f"{prefix}/mlp/up")), params, f"{prefix}/mlp/down")
    return T.add(x, h)


def encode(params, config, x, attention_mask, length_cap=None):
    """Run the encoder stack over an embedded sequence.

    ``x`` is [B, T, embed_dim] or stacked [n, B*T, embed_dim];
    ``attention_mask`` (bool, [B, T] or [n, B, T]) marks live tokens.
    Masked positions neither attend nor are attended to, and row order is
    preserved.
    """
    mask = np.asarray(attention_mask, dtype=bool)
    cap = config.max_seq_len if length_cap is None else length_cap
    if mask.shape[-1] > cap:
        raise SequenceLengthError(
            f"sequence of {mask.shape[-1]} tokens exceeds max_seq_len {cap}"
        )
    rows = mask.shape if mask.ndim < 3 else (mask.shape[0], mask.shape[1] * mask.shape[2])
    if rows != x.shape[:-1]:
        raise ShapeError(
            f"encode: mask shape {mask.shape} does not match tokens {x.shape[:-1]}"
        )
    for i in range(config.encoder_blocks):
        x = _transformer_block(params, f"enc{i}", config, x, mask)
    return _affine_ln(x, params, "enc_out/ln")


def pool_sequence(x, attention_mask):
    """Mean over unmasked token embeddings (recorded pooling decision)."""
    mask = np.asarray(attention_mask, dtype=bool)
    counts = mask.sum(axis=-1)
    if np.any(counts == 0):
        raise DegenerateInputError("pool_sequence: a sequence has no unmasked token")
    weights = mask.astype(np.float64) / counts[..., None]
    if x.shape[:-1] != mask.shape:  # stacked rows [n, B*T, d] -> [n, B, T, d]
        x = T.reshape(x, mask.shape + x.shape[-1:])
    return T.reduce_sum(T.mul(x, weights[..., None]), axis=-2)


def classify(head, embedding):
    """logits [..., B, classes] = embedding @ W + b for a batch of embeddings."""
    if embedding.shape[-1] != head["w"].shape[-2]:
        raise ContractError(
            f"classify: embedding dim {embedding.shape[-1]} != head input {head['w'].shape[-2]}"
        )
    return T.add(T.matmul(embedding, head["w"]), head["b"])


def cross_entropy(logits, labels, live=None):
    """Mean softmax cross-entropy; labels are integer class indices.

    With ``live`` (bool, shaped like ``labels``) the mean runs over the live
    rows of each leading index, and one loss per index is returned: for
    stacked tasks, logits [n, B, c] give n task losses.
    """
    labels = np.asarray(labels, dtype=np.intp)
    z = T.sub(logits, logits.values.max(axis=-1, keepdims=True))  # constant shift
    log_norm = T.log(T.reduce_sum(T.exp(z), axis=-1, keepdims=True))
    log_probs = T.sub(z, log_norm)
    onehot = np.eye(logits.shape[-1])[labels]
    picked = T.reduce_sum(T.mul(log_probs, onehot), axis=-1)
    if live is None:
        return T.mul(T.reduce_mean(picked), -1.0)
    weights = live / np.sum(live, axis=-1, keepdims=True)
    return T.mul(T.reduce_sum(T.mul(picked, weights), axis=-1), -1.0)


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
        table = positional_table(self.config.max_seq_len, self.config.embed_dim)
        days = np.asarray(days, dtype=np.intp)
        below = days < 1
        if below.any():
            raise ContractError(f"day index {int(days[below][0])} is below 1")
        if np.any(days > self.config.max_seq_len):
            raise SequenceLengthError(
                f"day index {int(days.max())} exceeds max_seq_len {self.config.max_seq_len}"
            )
        return table[days - 1]

    def embed(self, params, values, days):
        """Project [B, T, C] band values and add day-of-year positions."""
        x = T.add(T.matmul(values, params["in/w"]), params["in/b"])
        return T.add(x, self._positions(days))

    def embeddings(self, params, batch, film=None):
        values, days, mask = batch
        if mask.ndim == 3:  # stacked tasks: [n, B, T, C] -> [n, B*T, C] rows
            values = values.reshape(mask.shape[0], -1, values.shape[-1])
            days = days.reshape(mask.shape[0], -1)
        x = self.embed(params, values, days)
        if film is not None:
            x = _modulate_steps(x, film, mask)
        encoded = encode(params, self.config, x, mask)
        pooled = pool_sequence(encoded, mask)
        if film is not None:
            gamma, delta = film
            pooled = T.add(T.mul(pooled, gamma), delta)
        return pooled

    def logits(self, params, head, batch, film=None):
        return classify(head, self.embeddings(params, batch, film))


def _expand_mid(x):
    return T.reshape(x, x.shape[:-1] + (1, x.shape[-1]))


def _modulate_steps(x, film, mask):
    """``x * gamma + delta`` with each sample's (gamma, delta) on all its steps."""
    gamma, delta = film
    steps = x if x.shape[:-1] == mask.shape else T.reshape(x, mask.shape + x.shape[-1:])
    out = T.add(T.mul(steps, _expand_mid(gamma)), _expand_mid(delta))
    return out if steps is x else T.reshape(out, x.shape)


def on_task_axis(param, n_tasks):
    """``param`` repeated for ``n_tasks`` stacked tasks by one recorded add.

    A matrix becomes [n, in, out] and a vector [n, 1, d], so both meet
    [n, rows, d] activations; the gradient of the original sums over tasks.
    """
    shape = (n_tasks,) + (1,) * (2 - param.ndim) + param.shape
    return T.add(param, np.zeros(shape))


def stack_task_params(maps):
    """Constant tensors stacking one ``{name: Tensor}`` map per task, laid
    out as :func:`on_task_axis` lays out a parameter."""
    stacked = {k: np.stack([m[k].values for m in maps]) for k in maps[0]}
    return {k: Tensor(v[:, None] if v.ndim == 2 else v) for k, v in stacked.items()}


def pack_batch(samples, groups):
    """Assemble (values [B,T,C], days [B,T], mask [B,T]) for the raw model.

    T is the longest observation count in the batch.  Dynamic group channels
    are concatenated in the given group order; short sequences are
    zero-padded with day 1 and a False mask.
    """
    if not samples:
        raise ContractError("pack_batch: empty sample list")
    lengths = np.array([len(s.days) for s in samples])
    mask = np.arange(lengths.max()) < lengths[:, None]
    rows = [np.concatenate([s.channels[g] for g in groups], axis=1) for s in samples]
    values = np.zeros(mask.shape + (rows[0].shape[1],))
    values[mask] = np.concatenate(rows)
    days = np.ones(mask.shape, dtype=np.intp)
    days[mask] = np.concatenate([s.days for s in samples])
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
    """Read the container back as (arrays, meta) dictionaries.

    A truncated or corrupt container raises ``ParseError``: nothing is
    returned unless every record decodes and the file ends after the last.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise ContractError(f"checkpoint: cannot open {str(path)!r}: {err.strerror}") from None
    where = f"checkpoint {str(path)!r}"
    offset = 0

    def take(size):
        nonlocal offset
        if offset + size > len(blob):
            raise ParseError(f"{where}: truncated at byte {len(blob)}")
        offset += size
        return blob[offset - size:offset]

    def u32s(count):
        return struct.unpack(f"<{count}I", take(4 * count))

    def text(raw, what):
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{where}: {what} is not UTF-8") from None

    magic = take(4)
    if magic != CHECKPOINT_MAGIC:
        raise ContractError(f"checkpoint: bad magic {magic!r}")
    version, count = u32s(2)
    if version != CHECKPOINT_VERSION:
        raise ContractError(f"checkpoint: unsupported version {version}")
    arrays, meta = {}, {}
    for _ in range(count):
        name = text(take(u32s(1)[0]), "a record name")
        shape = u32s(u32s(1)[0])
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if name.startswith(_META_PREFIX):
            if not np.all((data >= 0) & (data <= 255) & (data == np.floor(data))):
                raise ParseError(f"{where}: metadata {name!r} holds non-byte values")
            meta[name[len(_META_PREFIX):]] = text(
                data.astype(np.uint8).tobytes(), f"metadata {name!r}"
            )
        else:
            arrays[name] = data.copy()
    if offset != len(blob):
        raise ParseError(f"{where}: {len(blob) - offset} bytes after the last record")
    return arrays, meta


def params_to_arrays(params):
    return {k: v.values for k, v in params.named().items()}
