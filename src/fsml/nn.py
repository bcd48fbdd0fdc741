"""Neural building blocks: Transformer encoder, positional encoding, heads.

Parameters live in plain ``{name: Tensor}`` maps so the meta-learning inner
loop can swap adapted values functionally.  Every trainer of a classifier
holds one flat map named like its checkpoint, ``backbone/<name>`` and
``head/<name>``; ``join_params`` and ``split_params`` convert between it and
the two maps a model reads.  Weights are initialized from
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
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import task_info
from .errors import (
    ContractError,
    DegenerateInputError,
    ParseError,
    SequenceLengthError,
    ShapeError,
    require_counts,
)
from .schema import read_file, writing
from .tensor import Tensor

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
        if self.embed_dim % 2 != 0:  # the positions are sinusoidal (sine, cosine) pairs
            raise ContractError(f"embed_dim: {self.embed_dim} must be even")
        if self.embed_dim % self.num_heads != 0:
            raise ContractError(
                f"embed_dim: {self.embed_dim} is not divisible by num_heads {self.num_heads}"
            )


# Published model sizes.
SUPERVISED = TransformerConfig(128, 4, 256, 1, 0, 366)
PRESTO = TransformerConfig(128, 8, 512, 2, 2, 24)
small_config = TransformerConfig  # the desk-scale sizes, overridable by keyword


def join_params(backbone, head):
    """One flat map named like the checkpoints: ``backbone/<name>`` then ``head/<name>``."""
    return {**{f"backbone/{k}": v for k, v in backbone.items()},
            **{f"head/{k}": v for k, v in head.items()}}


def split_params(params):
    """The (backbone, head) maps of a flat map, prefixes dropped; entries
    under any other prefix (a checkpoint's ``norm/``) are left out."""
    parts = {"backbone": {}, "head": {}}
    for key, value in params.items():
        part, _, name = key.partition("/")
        parts.get(part, {})[name] = value
    return parts["backbone"], parts["head"]


def copy_params(params):
    """Fresh leaf tensors holding copies of a map's values."""
    return {k: Tensor(v.values.copy()) for k, v in params.items()}


def init_params(model, rng, n_classes):
    """A model's backbone, then a fresh head, drawn from ``rng``, as one flat map."""
    return join_params(model.init_backbone(rng), new_head(rng, model.config.embed_dim, n_classes))


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
    return T.layer_norm(x, gain=params[f"{prefix}/g"], bias=params[f"{prefix}/b"])


def _linear(x, params, prefix):
    return T.linear(x, params[f"{prefix}/w"], params[f"{prefix}/b"])


def attention(params, prefix, config, queries, keys_values, key_mask):
    """Multi-head attention; ``key_mask`` (bool [B, Tk]) marks attendable keys.

    Masked keys receive -1e30 before the softmax, so attention weights over
    unmasked keys sum to one and masked keys receive exactly zero weight.
    Keys carry no bias: softmax is shift-invariant per query, so a key bias
    would never get a gradient.  Stacked tasks (mask [n, B, Tk], rows
    [n, B*Tk, d]) attend as n*B sequences.  The projections are matmuls and
    the core between them one ``tensor.attention`` op.
    """
    q = _linear(queries, params, f"{prefix}/q")
    k = T.matmul(keys_values, params[f"{prefix}/k/w"])
    v = _linear(keys_values, params, f"{prefix}/v")
    scale = 1.0 / np.sqrt(config.embed_dim // config.num_heads)
    context = T.attention(q, k, v, key_mask, config.num_heads, scale)
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
    return T.linear(embedding, head["w"], head["b"])


def cross_entropy(logits, labels, live=None):
    """Mean softmax cross-entropy; labels are integer class indices.

    With ``live`` (bool, shaped like ``labels``) the mean runs over the live
    rows of each leading index, and one loss per index is returned: for
    stacked tasks, logits [n, B, c] give n task losses.
    """
    if live is None:
        return T.mul(T.reduce_mean(T.log_softmax_pick(logits, labels)), -1.0)
    weights = live / np.sum(live, axis=-1, keepdims=True)
    return T.mul(T.reduce_sum(T.log_softmax_pick(logits, labels, weights), axis=-1), -1.0)


def accuracy(logits_values, labels):
    preds = np.asarray(logits_values).argmax(axis=-1)
    return float(np.mean(preds == np.asarray(labels)))


# ---------------------------------------------------------------------------
# raw day-series model (supervised / meta-learning input path)
# ---------------------------------------------------------------------------

FILM_HIDDEN = 32
TASK_INFORMATION = ("timl_enc", "timl_noenc")  # the ways parcel coordinates enter


def task_information_of(algorithm):
    """A model's ``task_information`` under a pre-training ``algorithm``."""
    return algorithm if algorithm in TASK_INFORMATION else None


def append_task_channels(values, cartesian):
    """Concatenate the 3-vector to every time step of [B, T, C] band values."""
    tiled = np.broadcast_to(cartesian[..., None, :], values.shape[:-1] + (3,))
    return np.concatenate([values, tiled], axis=-1)


def film_params(rng, embed_dim, hidden=FILM_HIDDEN):
    """Two-layer encoder mapping the 3-vector to per-feature (gamma, delta).

    The output layer starts at zero, so the initial modulation is the
    identity (gamma = 1, delta = 0) and the forward pass matches plain maml.
    """
    w1, b1 = linear_params(rng, 3, hidden)
    return {
        "film/w1": w1,
        "film/b1": b1,
        "film/w2": Tensor(np.zeros((hidden, 2 * embed_dim))),
        "film/b2": Tensor(np.zeros(2 * embed_dim)),
    }


def film_modulation(params, cartesian, embed_dim):
    """(gamma, delta) tensors of shape [..., B, embed_dim] from task info rows."""
    h = T.gelu(T.linear(cartesian, params["film/w1"], params["film/b1"]))
    out = T.linear(h, params["film/w2"], params["film/b2"])
    gamma = T.add(T.slice_axis(out, -1, 0, embed_dim), 1.0)
    delta = T.slice_axis(out, -1, embed_dim, 2 * embed_dim)
    return gamma, delta


@dataclass(frozen=True)
class SampleSet:
    """Packed model inputs of a sample set, with its labels.

    ``batch`` is ``pack_batch``'s (values, days, mask) and ``cart`` the
    task-information rows (``None`` when the model uses none).  A stacked
    set carries a leading task axis on every array, and ``live`` marks the
    rows that count in each task's mean loss; an unstacked set has
    ``live=None`` and one mean over all its rows.
    """

    batch: tuple
    cart: object
    labels: np.ndarray
    live: object = None


@dataclass(frozen=True)
class RawSeriesModel:
    """Day-stamped band values, linearly projected with day-of-year positions.

    ``task_information`` adds each parcel's centroid as a 3-vector (TIML):
    ``timl_enc`` scales and shifts the steps and the pooled embedding by a
    learned encoder of it (drawn last in ``init_backbone``), ``timl_noenc``
    appends it to every step's band values, which ``in_channels`` counts.
    """

    config: TransformerConfig
    in_channels: int
    groups: tuple = ()  # dynamic group order used by pack()
    task_information: str | None = None  # None or one of TASK_INFORMATION

    @classmethod
    def of_corpus(cls, config, manifest, algorithm=None):
        """The model of a corpus: its dynamic groups in manifest order, their
        width (+3 for ``timl_noenc``) and ``algorithm``'s task information."""
        groups = tuple(manifest.group_order())
        if not groups:
            raise ContractError("the corpus manifest declares no dynamic channel group")
        info = task_information_of(algorithm)
        width = manifest.dynamic_channels() + (3 if info == "timl_noenc" else 0)
        return cls(config, width, groups, info)

    def init_backbone(self, rng):
        params = {}
        w, b = linear_params(rng, self.in_channels, self.config.embed_dim)
        params["in/w"] = w
        params["in/b"] = b
        encoder_params(rng, self.config, params)
        if self.task_information == "timl_enc":
            params.update(film_params(rng, self.config.embed_dim))
        return params

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
        return T.add(_linear(values, params, "in"), self._positions(days))

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

    def pack(self, samples):
        """One ``pack_batch`` call over ``samples``, plus their task
        information, as a ``SeriesPack`` that batches are taken from."""
        cart = None if self.task_information is None else task_info(samples)
        values, days, mask = pack_batch(samples, list(self.groups))
        if self.task_information == "timl_noenc":
            values = append_task_channels(values, cart)
        return SeriesPack((values, days, mask), cart, mask.sum(axis=1))

    def forward(self, backbone, head, inputs):
        """Logits of a (stacked) ``SampleSet``."""
        film = None
        if self.task_information == "timl_enc":
            film = film_modulation(backbone, inputs.cart, self.config.embed_dim)
        return classify(head, self.embeddings(backbone, inputs.batch, film))

    def logits(self, backbone, head, samples):
        return self.forward(backbone, head, self.pack(samples).take())


@dataclass(frozen=True)
class SeriesPack:
    """A sample list packed once: ``pack_batch``'s (values, days, mask) at
    the list's longest series, the task-information rows (or ``None``) and
    each sample's step count."""

    batch: tuple
    cart: object
    lengths: np.ndarray

    def take(self, idx=None):
        """The ``SampleSet`` of the samples at ``idx``, each array's rows
        trimmed to their own longest series: what packing those samples
        alone gives.  By default every sample, as packed."""
        if idx is None:
            return SampleSet(self.batch, self.cart, None)
        steps = self.lengths[idx].max()
        cart = None if self.cart is None else self.cart[idx]
        return SampleSet(tuple(a[idx, :steps] for a in self.batch), cart, None)


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


def pack_batch(samples, groups, stats=None):
    """Assemble (values [B,T,C], days [B,T], mask [B,T]) for both model families.

    T is the longest observation count in the batch.  Dynamic group channels
    are concatenated in the given group order, one group at a time over the
    whole batch; a group with a ``stats`` entry ``(mean, std)`` has its
    observed rows z-scored.  Short sequences are zero-padded with day 1 and
    a False mask.
    """
    if not samples:
        raise ContractError("pack_batch: empty sample list")
    lengths = np.array([len(s.days) for s in samples])
    mask = np.arange(lengths.max()) < lengths[:, None]
    blocks = []
    for g in groups:
        live = np.concatenate([s.channels[g] for s in samples])
        if stats and g in stats:
            mean, std = stats[g]
            live = (live - mean) / std
        blocks.append(live)
    values = np.zeros(mask.shape + (sum(b.shape[1] for b in blocks),))
    values[mask] = np.concatenate(blocks, axis=1)
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
    with writing(path, binary=True) as fh:
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
    blob = read_file(path, "checkpoint")
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
    return {k: v.values for k, v in params.items()}
