"""Unified token encoding for multi-source time series.

``encode_tokens`` turns a batch of parcels into [B, N, d_emb] tokens in one
pass.  Each channel group (one data source) is packed into one array
([B, 1, C] static, [B, T_max, C] dynamic), z-scored in place when
statistics are given, and projected into the shared embedding width with
one matmul.  Every token then gets additive contextual encodings laid out
as ``[p_channel; p_sin; p_month]``:

* ``p_channel``: a learned per-group embedding row;
* ``p_sin``: sinusoidal temporal position (observation ordinal or
  day-of-year, a regime field);
* ``p_month``: sinusoidal calendar-month encoding, present only in the
  base regime; the xts regime drops it and widens ``p_sin``.

Static groups receive zero temporal encodings.  ``token_layout`` alone
defines token order: static groups in spec order, then dynamic groups
group-major over time, each dynamic block as long as the batch's longest
series.  Rows past a sample's own length are padding and are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import GroupSpec
from .errors import ContractError, SequenceLengthError
from .meta import task_info
from .nn import linear_params, positional_table, uniform_init
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
        if self.d_emb % 4 != 0:
            raise ContractError(f"d_emb {self.d_emb} must be divisible by 4")

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


def _pack_group(samples, g, steps, stats):
    """One group's values: [B, 1, C] static, [B, T_max, C] dynamic.

    Dynamic values fill the live ``steps`` [B, T_max], z-scored with
    ``stats``, and stay zero elsewhere.  The static ``location`` group is
    each parcel's Cartesian centroid.
    """
    if g.kind == "static":
        if g.name != "location":
            raise ContractError(f"no provider for static group {g.name!r}")
        return task_info(samples)[:, None, :]
    missing = [s.parcel_id for s in samples if g.name not in s.channels]
    if missing:
        raise ContractError(f"dynamic group {g.name} missing from parcels {missing}")
    tables = [s.channels[g.name] for s in samples]
    widths = {t.shape[-1] for t in tables} - {g.channels}
    if widths:
        raise ContractError(f"group {g.name}: got {widths.pop()} channels, spec declares {g.channels}")
    live = np.concatenate(tables)
    if stats and g.name in stats:
        mean, std = stats[g.name]
        live = (live - mean) / std
    values = np.zeros(steps.shape + (g.channels,))
    values[steps] = live
    return values


def _project(params, g, values):
    """One matmul over a packed group."""
    return T.add(T.matmul(Tensor(values), params[f"proj/{g.name}/w"]), params[f"proj/{g.name}/b"])


def encode_tokens(samples, spec, regime, params, stats=None):
    """Encode a batch of parcels into tokens in one pass.

    Returns ``(tokens, context, cells)``: the [B, N, d_emb] tokens, their
    contextual encodings alone, and each token's input values [B, N, C_max]
    (z-scored with ``stats``; the masked autoencoder's reconstruction
    targets).  Rows past a sample's length are zero in all three.
    """
    lengths = [len(s.days) for s in samples]
    order, group_index, time_index, pad = token_layout(spec, lengths)
    steps = np.arange(max(lengths)) < np.asarray(lengths)[:, None]
    cells = np.zeros(pad.shape + (max(g.channels for g in spec.groups),))
    projected = []
    for gi in order:
        g = spec.groups[gi]
        values = _pack_group(samples, g, steps, stats)
        cells[:, group_index == gi, : values.shape[-1]] = values
        projected.append(_project(params, g, values))

    days = np.ones(steps.shape, dtype=np.intp)
    days[steps] = np.concatenate([s.days for s in samples])
    dynamic = time_index >= 0
    temporal = np.zeros(pad.shape + (regime.d_emb - regime.d_channel,))
    temporal[:, dynamic] = temporal_encoding(regime, days)[:, time_index[dynamic]]
    temporal[pad] = 0.0

    live_f = Tensor((~pad)[:, :, None].astype(np.float64))
    channel_table = T.concat(
        [T.reshape(params[f"ctx/{g.name}"], (1, regime.d_channel)) for g in spec.groups], axis=0
    )
    channel_rows = T.mul(T.embedding_lookup(channel_table, group_index), live_f)
    context = T.concat([channel_rows, Tensor(temporal)], axis=2)
    tokens = T.add(T.mul(T.concat(projected, axis=1), live_f), context)
    return tokens, context, cells
