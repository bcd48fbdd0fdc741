"""Unified token encoding for multi-source time series.

Each channel group (one data source) is linearly projected into the shared
embedding width and annotated with additive contextual encodings laid out as
``[p_channel; p_sin; p_month]``:

* ``p_channel``: a learned per-group embedding row (categorical groups use
  an embedding-matrix lookup for their values, i.e. one-hot times linear);
* ``p_sin``: sinusoidal temporal position (observation ordinal or
  day-of-year, a regime field);
* ``p_month``: sinusoidal calendar-month encoding, present only in the
  base regime; the xts regime drops it and widens ``p_sin``.

Static groups receive zero temporal encodings.  Token order is fixed:
static groups in spec order, then dynamic groups group-major over time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import GroupSpec
from .errors import ContractError, DegenerateInputError, SequenceLengthError
from .nn import linear_params, positional_table, uniform_init
from .tensor import Tensor

_DAYS_PER_YEAR = 366
_MONTH_LENGTHS = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)  # leap calendar
_MONTH_STARTS = np.cumsum((0,) + _MONTH_LENGTHS[:-1]) + 1


def month_of(day_of_year):
    """Calendar month (1..12) of a day under the 366-day leap-year calendar."""
    if not 1 <= day_of_year <= _DAYS_PER_YEAR:
        raise ContractError(f"day_of_year {day_of_year} outside 1..{_DAYS_PER_YEAR}")
    return int(np.searchsorted(_MONTH_STARTS, day_of_year, side="right"))


def compute_ndvi(b04, b08):
    """(b08 - b04) / (b08 + b04), clamped to [-1, 1]."""
    denom = b08 + b04
    if denom == 0:
        raise DegenerateInputError("ndvi: b04 + b08 is zero")
    return float(np.clip((b08 - b04) / denom, -1.0, 1.0))


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
    def total_channels(self):
        return sum(g.channels for g in self.groups)

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

    variant: str  # "presto" | "xts"
    d_emb: int
    position_source: str  # "ordinal" | "day_of_year"
    max_timesteps: int

    def __post_init__(self):
        if self.variant not in ("presto", "xts"):
            raise ContractError(f"unknown regime variant {self.variant!r}")
        if self.position_source not in ("ordinal", "day_of_year"):
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


@dataclass
class TokenSequence:
    tokens: Tensor  # [token_count, d_emb]
    group_index: np.ndarray  # int per token
    time_index: np.ndarray  # observation ordinal per token, -1 for static
    pad: np.ndarray  # bool per token, True = padding
    raw_values: list  # per-token raw channel vector (reconstruction targets)
    group_names: list


def token_params(rng, spec, regime):
    """Learned projections h^c and per-group channel embeddings."""
    params = {}
    for g in spec.groups:
        if getattr(g, "categorical", False):
            params[f"proj/{g.name}/w"] = uniform_init(rng, g.channels, (g.channels, regime.d_emb))
        else:
            w, b = linear_params(rng, g.channels, regime.d_emb)
            params[f"proj/{g.name}/w"] = w
            params[f"proj/{g.name}/b"] = b
        params[f"ctx/{g.name}"] = uniform_init(rng, regime.d_channel, (regime.d_channel,))
    return params


def temporal_encoding(regime, days):
    """Constant [T, d_sin + d_month] block: p_sin rows plus month rows."""
    days = np.asarray(days, dtype=np.intp)
    if len(days) > regime.max_timesteps:
        raise SequenceLengthError(
            f"{len(days)} time steps exceed regime maximum {regime.max_timesteps}"
        )
    by_day = regime.position_source == "day_of_year"
    outside = (days < 1) | (days > _DAYS_PER_YEAR)
    if (by_day or regime.d_month) and outside.any():
        raise ContractError(f"day_of_year {int(days[outside][0])} outside 1..{_DAYS_PER_YEAR}")
    if by_day:
        sin_rows = positional_table(_DAYS_PER_YEAR, regime.d_sin)[days - 1]
    else:
        sin_rows = positional_table(regime.max_timesteps, regime.d_sin)[np.arange(len(days))]
    if regime.d_month == 0:
        return sin_rows
    months = np.searchsorted(_MONTH_STARTS, days, side="right") - 1
    return np.concatenate([sin_rows, positional_table(12, regime.d_month)[months]], axis=1)


def _group_context(params, regime, name):
    """[1, d_emb] additive row: learned channel embedding, zero elsewhere."""
    ctx = T.reshape(params[f"ctx/{name}"], (1, regime.d_channel))
    zeros = Tensor(np.zeros((1, regime.d_emb - regime.d_channel)))
    return T.concat([ctx, zeros], axis=1)


def _project(params, g, values):
    if getattr(g, "categorical", False):
        idx = np.asarray(values, dtype=np.intp).reshape(-1)
        return T.embedding_lookup(params[f"proj/{g.name}/w"], idx)
    vals = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if vals.shape[-1] != g.channels:
        raise ContractError(
            f"group {g.name}: got {vals.shape[-1]} channels, spec declares {g.channels}"
        )
    return T.add(T.matmul(Tensor(vals), params[f"proj/{g.name}/w"]), params[f"proj/{g.name}/b"])


def encode_tokens(sample, spec, regime, params, static_values=None):
    """Encode one parcel into a TokenSequence.

    ``static_values`` maps static group names to their raw vectors; dynamic
    groups are read from the sample's observations.
    """
    static_values = static_values or {}
    days = [o.day for o in sample.observations]
    t_steps = len(days)
    pieces, group_index, time_index, raw_values = [], [], [], []
    temporal = temporal_encoding(regime, days) if t_steps else np.zeros((0, regime.d_sin + regime.d_month))

    for gi, g in enumerate(spec.groups):
        if g.kind != "static":
            continue
        if g.name not in static_values:
            raise ContractError(f"static group {g.name} missing from static_values")
        raw = np.asarray(static_values[g.name], dtype=np.float64)
        projected = _project(params, g, raw[None, :] if raw.ndim == 1 else raw)
        pieces.append(T.add(projected, _group_context(params, regime, g.name)))
        group_index.append(gi)
        time_index.append(-1)
        raw_values.append(raw.reshape(-1))

    for gi, g in enumerate(spec.groups):
        if g.kind != "dynamic":
            continue
        series = []
        for o in sample.observations:
            if g.name not in o.channels:
                raise ContractError(f"dynamic group {g.name} missing from observations")
            series.append(np.asarray(o.channels[g.name], dtype=np.float64))
        if not series:
            continue
        stacked = np.stack(series)
        projected = _project(params, g, stacked)
        ctx = _group_context(params, regime, g.name)
        temporal_block = np.concatenate(
            [np.zeros((t_steps, regime.d_channel)), temporal], axis=1
        )
        tokens = T.add(T.add(projected, ctx), Tensor(temporal_block))
        pieces.append(tokens)
        group_index.extend([gi] * t_steps)
        time_index.extend(range(t_steps))
        raw_values.extend(stacked)

    tokens = pieces[0] if len(pieces) == 1 else T.concat(pieces, axis=0)
    n = tokens.shape[0]
    expected = spec.token_count(t_steps)
    if n != expected:
        raise ContractError(f"token count {n} != C_static + C_dynamic*T = {expected}")
    return TokenSequence(
        tokens=tokens,
        group_index=np.asarray(group_index, dtype=np.intp),
        time_index=np.asarray(time_index, dtype=np.intp),
        pad=np.zeros(n, dtype=bool),
        raw_values=raw_values,
        group_names=[g.name for g in spec.groups],
    )
