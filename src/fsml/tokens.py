"""Unified token encoding for multi-source time series.

A batch of parcels becomes [B, N, d_emb] tokens in two halves.
``pack_tokens`` holds everything that reads no parameter: one
``nn.pack_batch`` call packs the dynamic groups (one data source each) into
[S, T_max, C] blocks, z-scored when statistics are given, with its padding
convention; the static ``location`` group is an [S, 1, 3] block; and the
temporal rows are computed once.  Its ``take`` gathers a batch of rows,
trimmed to the batch's own longest series, so a split packed once serves
every batch drawn from it.  ``embed_tokens`` then projects each block into
the shared embedding width with one matmul, and every token gets additive
contextual encodings laid out as ``[p_channel; p_sin; p_month]``:

* ``p_channel``: a learned per-group embedding row, gathered by one matmul
  with a constant one-hot matrix;
* ``p_sin``: sinusoidal temporal position (observation ordinal or
  day-of-year, a regime field);
* ``p_month``: sinusoidal calendar-month encoding, present only in the
  base regime; the xts regime drops it and widens ``p_sin``.

Static groups receive zero temporal encodings.  ``token_layout`` alone
defines token order: static groups in spec order, then dynamic groups
group-major over time, each dynamic block as long as the batch's longest
series.  Rows past a sample's own length are padding and are zero.
``take`` computes the layout once per batch and returns it with the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import GroupSpec, task_info
from .errors import ContractError, SequenceLengthError
from .nn import linear_params, pack_batch, positional_table, uniform_init
from .tensor import Tensor

_DAYS_PER_YEAR = 366
_MONTH_LENGTHS = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)  # leap calendar
_MONTH_STARTS = np.cumsum((0,) + _MONTH_LENGTHS[:-1]) + 1
REGIME_VARIANTS = ("presto", "xts")
POSITION_SOURCES = ("ordinal", "day_of_year")


def month_of(day_of_year):
    """Calendar month (1..12) of a day under the 366-day leap-year calendar."""
    if not 1 <= day_of_year <= _DAYS_PER_YEAR:
        raise ContractError(f"day_of_year {day_of_year} outside 1..{_DAYS_PER_YEAR}")
    return int(np.searchsorted(_MONTH_STARTS, day_of_year, side="right"))


@dataclass(frozen=True)
class ChannelGroupSpec:
    groups: tuple

    def __post_init__(self):
        if not any(g.kind == "dynamic" for g in self.groups):
            raise ContractError("need at least one dynamic channel group")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ContractError(f"duplicate group names in {names}")
        for g in self.static_groups:  # the location token is a 3-channel centroid
            if g.name == "location" and g.channels != 3:
                raise ContractError(f"static group location: declares {g.channels} channels, needs 3")

    @property
    def static_groups(self):
        return [g for g in self.groups if g.kind == "static"]

    @property
    def dynamic_groups(self):
        return [g for g in self.groups if g.kind == "dynamic"]

    def token_count(self, timesteps):
        return len(self.static_groups) + len(self.dynamic_groups) * timesteps


def group_spec(*groups):
    return ChannelGroupSpec(tuple(
        g if isinstance(g, GroupSpec) else GroupSpec(*g) for g in groups
    ))


@dataclass(frozen=True)
class EncodingRegime:
    """Embedding-width budget of the contextual encodings.

    base variant: d_sin = d_emb/2, d_month = d_emb/4, d_channel = d_emb/4.
    xts variant:  d_month = 0, d_sin = 3*d_emb/4, d_channel = d_emb/4.
    The sinusoidal parts (d_sin, d_month) need even widths, so d_emb is a
    multiple of 8.
    """

    variant: str  # one of REGIME_VARIANTS
    d_emb: int
    position_source: str  # one of POSITION_SOURCES
    max_timesteps: int

    def __post_init__(self):
        if self.variant not in REGIME_VARIANTS:
            raise ContractError(f"unknown regime variant {self.variant!r}")
        if self.position_source not in POSITION_SOURCES:
            raise ContractError(f"unknown position source {self.position_source!r}")
        if self.d_emb % 8 != 0:
            raise ContractError(f"d_emb {self.d_emb} must be divisible by 8, "
                                "so that the sinusoidal encodings have even widths")

    @property
    def d_channel(self):
        return self.d_emb // 4

    @property
    def d_month(self):
        return 0 if self.variant == "xts" else self.d_emb // 4

    @property
    def d_sin(self):
        return self.d_emb - self.d_channel - self.d_month

    def slices(self):
        """Disjoint index ranges of [p_channel; p_sin; p_month]."""
        a = self.d_channel
        b = a + self.d_sin
        return slice(0, a), slice(a, b), slice(b, self.d_emb)


def presto_regime(d_emb=128, max_timesteps=24):
    return EncodingRegime("presto", d_emb, "ordinal", max_timesteps)


def xts_regime(d_emb=128, max_timesteps=366):
    return EncodingRegime("xts", d_emb, "day_of_year", max_timesteps)


def token_params(rng, spec, regime):
    """Learned projections h^c and per-group channel embeddings."""
    params = {}
    for g in spec.groups:
        w, b = linear_params(rng, g.channels, regime.d_emb)
        params[f"proj/{g.name}/w"] = w
        params[f"proj/{g.name}/b"] = b
        params[f"ctx/{g.name}"] = uniform_init(rng, regime.d_channel, (regime.d_channel,))
    return params


def token_layout(spec, lengths):
    """Token order of a batch whose samples have ``lengths`` time steps.

    This is the one place that defines the order: static groups come first,
    one token each, then one block of ``max(lengths)`` steps per dynamic
    group, both in spec order.  Returns the spec indices of the groups in
    that order, each token's group index and time step (-1 for static
    tokens), and the padding mask [B, N], True past a sample's own length.
    """
    t_max = max(lengths)
    order = [gi for kind in ("static", "dynamic") for gi, g in enumerate(spec.groups) if g.kind == kind]
    steps = [np.arange(t_max) if spec.groups[gi].kind == "dynamic" else np.array([-1]) for gi in order]
    group_index = np.repeat(order, [len(s) for s in steps])
    time_index = np.concatenate(steps)
    pad = time_index >= np.asarray(lengths)[:, None]
    return order, group_index, time_index, pad


def temporal_encoding(regime, days):
    """Constant [..., T, d_sin + d_month] block for days [..., T]: p_sin rows plus month rows."""
    days = np.asarray(days, dtype=np.intp)
    t_steps = days.shape[-1]
    if t_steps > regime.max_timesteps:
        raise SequenceLengthError(
            f"{t_steps} time steps exceed regime maximum {regime.max_timesteps}"
        )
    by_day = regime.position_source == "day_of_year"
    outside = (days < 1) | (days > _DAYS_PER_YEAR)
    if (by_day or regime.d_month) and outside.any():
        raise ContractError(f"day_of_year {int(days[outside][0])} outside 1..{_DAYS_PER_YEAR}")
    if by_day:
        sin_rows = positional_table(_DAYS_PER_YEAR, regime.d_sin)[days - 1]
    else:
        ordinal = positional_table(regime.max_timesteps, regime.d_sin)[:t_steps]
        sin_rows = np.broadcast_to(ordinal, days.shape + (regime.d_sin,))
    if regime.d_month == 0:
        return sin_rows
    months = np.searchsorted(_MONTH_STARTS, days, side="right") - 1
    return np.concatenate([sin_rows, positional_table(12, regime.d_month)[months]], axis=-1)


def _static_values(samples, g):
    """[B, 1, C] values of a static group: the ``location`` group is each
    parcel's Cartesian centroid."""
    if g.name != "location":
        raise ContractError(f"no provider for static group {g.name!r}")
    return task_info(samples)[:, None, :]


def _check_dynamic(samples, g):
    """Refuse a dynamic group that a parcel lacks or holds at another width than the spec's."""
    missing = [s.parcel_id for s in samples if g.name not in s.channels]
    if missing:
        raise ContractError(f"dynamic group {g.name} missing from parcels {missing}")
    widths = {s.channels[g.name].shape[-1] for s in samples} - {g.channels}
    if widths:
        raise ContractError(f"group {g.name}: got {widths.pop()} channels, spec declares {g.channels}")


@dataclass(frozen=True)
class TokenInputs:
    """The parameter-free inputs of one batch: each group's values in
    layout order ([B, T, C] dynamic, [B, 1, 3] ``location``), each token's
    input values [B, N, C_max] (the masked autoencoder's reconstruction
    targets), each token's temporal rows [B, N, d_sin + d_month] and the
    batch's ``token_layout``.  Rows past a sample's length are zero."""

    values: tuple
    cells: np.ndarray
    temporal: np.ndarray
    layout: tuple


@dataclass(frozen=True)
class TokenPack:
    """A sample list packed once by ``pack_tokens``.

    ``blocks`` maps each group to its values at the list's longest series T:
    [S, T, C] for a dynamic group (z-scored with the pack's statistics),
    [S, 1, 3] for ``location``.  ``temporal`` holds each step's
    [S, T, d_sin + d_month] temporal rows and ``lengths`` each sample's
    step count; values and temporal rows past a sample's length are zero.
    """

    spec: ChannelGroupSpec
    blocks: dict
    temporal: np.ndarray
    lengths: np.ndarray

    def take(self, idx=None):
        """``TokenInputs`` of the samples at ``idx`` (all, in order, by
        default): their rows, trimmed to their own longest series and laid
        out by ``token_layout`` of their own lengths, so they equal the
        inputs of a pack of those samples alone."""
        rows = slice(None) if idx is None else idx
        lengths = self.lengths[rows]
        layout = token_layout(self.spec, lengths)
        order, group_index, time_index, pad = layout
        steps = slice(lengths.max())  # a static block's one row is kept whole
        values = []
        cells = np.zeros(pad.shape + (max(g.channels for g in self.spec.groups),))
        for gi in order:
            g = self.spec.groups[gi]
            # a contiguous copy keeps each projection on BLAS
            block = np.ascontiguousarray(self.blocks[g.name][rows, steps])
            cells[:, group_index == gi, : g.channels] = block
            values.append(block)
        dynamic = time_index >= 0
        temporal = np.zeros(pad.shape + (self.temporal.shape[-1],))
        temporal[:, dynamic] = self.temporal[rows][:, time_index[dynamic]]
        return TokenInputs(tuple(values), cells, temporal, layout)


def pack_tokens(samples, spec, regime, stats=None):
    """Pack ``samples`` once into a ``TokenPack``: one ``nn.pack_batch``
    call over every dynamic group (z-scored with ``stats``), the
    ``location`` rows and the temporal rows, none of which reads a
    parameter."""
    for g in spec.dynamic_groups:
        _check_dynamic(samples, g)
    packed, days, mask = pack_batch(samples, [g.name for g in spec.dynamic_groups], stats)
    blocks = {g.name: _static_values(samples, g) for g in spec.static_groups}
    start = 0
    for g in spec.dynamic_groups:
        blocks[g.name] = np.ascontiguousarray(packed[..., start : start + g.channels])
        start += g.channels
    temporal = np.where(mask[..., None], temporal_encoding(regime, days), 0.0)
    return TokenPack(spec, blocks, temporal, mask.sum(axis=1))


def _project(params, g, values):
    """One linear layer over a packed group."""
    return T.linear(values, params[f"proj/{g.name}/w"], params[f"proj/{g.name}/b"])


def embed_tokens(inputs, spec, regime, params):
    """The parameter half of the encoding: each group's projection, plus the
    contextual encodings (the channel-table rows and the temporal rows),
    with padding tokens zeroed.  Returns the [B, N, d_emb] tokens and their
    contextual encodings alone."""
    order, group_index, _, pad = inputs.layout
    projected = [_project(params, spec.groups[gi], values) for gi, values in zip(order, inputs.values)]
    live_f = Tensor((~pad)[:, :, None].astype(np.float64))
    channel_table = T.concat(
        [T.reshape(params[f"ctx/{g.name}"], (1, regime.d_channel)) for g in spec.groups], axis=0
    )
    onehot = np.eye(len(spec.groups))[group_index]  # [N, G]
    channel_rows = T.mul(T.matmul(onehot, channel_table), live_f)
    context = T.concat([channel_rows, Tensor(inputs.temporal)], axis=2)
    tokens = T.add(T.mul(T.concat(projected, axis=1), live_f), context)
    return tokens, context

