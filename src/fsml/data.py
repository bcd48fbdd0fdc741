"""Parcel time-series corpus: data model, hierarchy, splits, file format and
the synthetic generator that stands in for a real multi-region crop archive.

Dataset file format (external interface)
    JSON Lines, one object per parcel:
        {"id", "days": [int], "channels": {group: [[f64, ...], ...]},
         "lon", "lat", "region", "hcat", "split"}
    "channels" arrays are day-major.  The manifest is a single JSON object
    stored next to the dataset as ``<dataset>.manifest.json``.  In memory a
    parcel is its record: ``ParcelSample.days`` is the [T] day array and
    ``ParcelSample.channels`` maps each group to its [T, C] float64 table.

Synthetic parcels follow per-class double-logistic seasonal profiles (the
standard phenology curve shape), phase- and amplitude-shifted per region,
observed at irregular days with i.i.d. Gaussian noise.  Generation is a pure
function of (config, seed).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import ContractError, DegenerateInputError, ParseError, ValidationError, require_counts
from .schema import decode, parse
from .seeding import rng_from

SPLITS = ("train", "validation", "test")

# Sentinel-2 band bookkeeping for paper-shaped corpora: 13 bands total, the
# supervised path drops B10 (cirrus), the original pretrained-token path
# additionally drops B01 and B09.
S2_TOTAL_BANDS = 13
S2_SUPERVISED_CHANNELS = 12
S2_XTS_CHANNELS = 13
S2_PRETRAINED_TOKEN_CHANNELS = 10

PRETRAIN_SPLIT_FRACTIONS = {"train": 0.8, "validation": 0.2}
FINETUNE_SPLIT_FRACTIONS = {"train": 0.6, "validation": 0.2, "test": 0.2}
FIXED_VALIDATION_POINTS = 1000


@dataclass
class ParcelSample:
    parcel_id: str
    days: np.ndarray  # [T] integer days of year, strictly increasing
    channels: dict  # group name -> day-major float64 [T, C]
    lon: float  # radians, [-pi, pi]
    lat: float  # radians, [-pi/2, pi/2]
    region: str
    label: str  # hierarchical class code (digit string)
    split: str


@dataclass(frozen=True)
class Hierarchy:
    """Level -> prefix-length map for hierarchical class codes."""

    level_prefix_lengths: dict

    def levels(self):
        return sorted(self.level_prefix_lengths)

    @property
    def leaf_level(self):
        return max(self.level_prefix_lengths)

    def parent_at(self, code, level):
        if level not in self.level_prefix_lengths:
            raise ContractError(f"unknown hierarchy level {level}")
        return code[: self.level_prefix_lengths[level]]


@dataclass
class GroupSpec:
    name: str
    channels: int
    kind: Literal["dynamic", "static"] = "dynamic"

    def __post_init__(self):
        require_counts(channels=self.channels)


def drop_categorical(groups, where):
    """Drop, in place, the ``"categorical": false`` of group records written before
    categorical groups were removed; ``true`` is a ParseError naming the group."""
    for record in groups if type(groups) is list else ():
        if type(record) is dict and record.pop("categorical", False) is not False:
            raise ParseError(f"{where}: categorical group {record.get('name')!r} is not supported")
    return groups


@dataclass
class CorpusManifest:
    region_counts: dict[str, int] = field(default_factory=dict)
    class_counts: dict[str, int] = field(default_factory=dict)
    majority_class: str = ""
    split_fractions: dict[str, dict[str, float]] = field(
        default_factory=lambda: {
            "pretrain": dict(PRETRAIN_SPLIT_FRACTIONS),
            "finetune": dict(FINETUNE_SPLIT_FRACTIONS),
        }
    )
    hierarchy_levels: dict[int, int] = field(default_factory=dict)  # level -> prefix length
    groups: list[GroupSpec] = field(default_factory=list)
    pretrain_regions: list[str] = field(default_factory=list)
    finetune_region: str = ""

    def hierarchy(self):
        return Hierarchy(dict(self.hierarchy_levels))

    def group_order(self):
        """The dynamic groups' names: the raw series' channel blocks, in order."""
        return [g.name for g in self.groups if g.kind == "dynamic"]

    def dynamic_channels(self):
        return sum(g.channels for g in self.groups if g.kind == "dynamic")


@dataclass
class Corpus:
    samples: list
    manifest: CorpusManifest

    def __len__(self):
        return len(self.samples)

    def pretrain_pool(self):
        keep = set(self.manifest.pretrain_regions)
        return [s for s in self.samples if s.region in keep]

    def finetune_pool(self):
        return [s for s in self.samples if s.region == self.manifest.finetune_region]


def subset_by_split(samples, split):
    if split not in SPLITS:
        raise ContractError(f"unknown split {split!r}")
    return [s for s in samples if s.split == split]


def fixed_validation_subset(samples, limit=FIXED_VALIDATION_POINTS):
    """The fixed validation points: a corpus-stable draw, independent of the
    run seed (constant selection stream over id-sorted samples)."""
    pool = sorted(subset_by_split(samples, "validation"), key=lambda s: s.parcel_id)
    if len(pool) <= limit:
        return pool
    idx = rng_from(0, 6).choice(len(pool), size=limit, replace=False)
    return [pool[i] for i in sorted(idx)]


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def manifest_path(dataset_path):
    p = Path(dataset_path)
    return p.with_name(p.stem + ".manifest.json")


def _sample_record(s):
    channels = {g: rows.tolist() for g, rows in s.channels.items()}
    return {"id": s.parcel_id, "days": s.days.tolist(), "channels": channels, "lon": float(s.lon),
            "lat": float(s.lat), "region": s.region, "hcat": s.label, "split": s.split}


def save_corpus(corpus, path):
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for sample in corpus.samples:
            fh.write(json.dumps(_sample_record(sample), sort_keys=True))
            fh.write("\n")
    manifest = asdict(corpus.manifest)
    manifest["hierarchy_levels"] = {str(k): v for k, v in manifest["hierarchy_levels"].items()}
    with open(manifest_path(path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


_STR, _NUMBER = {str}, {int, float}  # JSON types as Python types; bool is no number
_RECORD_TYPES = {"id": _STR, "days": {list}, "channels": {dict}, "lon": _NUMBER,
                 "lat": _NUMBER, "region": _STR, "hcat": _STR, "split": _STR}


def _load_manifest(mpath):
    """The manifest beside a corpus, or the defaults.  ParseError (naming the file
    and the key) if it does not read; ValidationError for bad split fractions."""
    if not mpath.exists():
        return CorpusManifest()
    where = f"manifest {str(mpath)!r}"
    raw = decode(mpath.read_bytes(), where)
    drop_categorical(raw.get("groups") if type(raw) is dict else None, where)
    manifest = parse(raw, CorpusManifest, where)
    breaches = [f"manifest: {stage} split fractions do not sum to 1"
                for stage, fractions in manifest.split_fractions.items()
                if abs(sum(fractions.values()) - 1.0) > 1e-9]
    if breaches:
        raise ValidationError(breaches)
    return manifest


def _type_errors(record):
    """The keys a decoded record lacks or holds at another JSON type."""
    if type(record) is not dict:
        return ["the record itself"]
    wrong = [k for k, types in _RECORD_TYPES.items() if type(record.get(k)) not in types]
    if "days" not in wrong and not {type(d) for d in record["days"]} <= {int}:
        wrong.append("days")
    tables = record["channels"].values() if "channels" not in wrong else ()
    if not (
        all(type(rows) is list and {type(row) for row in rows} <= {list} for rows in tables)
        and {type(v) for rows in tables for row in rows for v in row} <= _NUMBER
    ):
        wrong.append("channels")
    return wrong


def _validate_sample(record, line_no, manifest, breaches):
    days = record["days"]
    if not days:
        breaches.append(f"line {line_no}: empty days")
    if any(not (1 <= d <= 366) for d in days):
        breaches.append(f"line {line_no}: day out of range 1..366")
    if any(b <= a for a, b in zip(days, days[1:])):
        breaches.append(f"line {line_no}: non-increasing days")
    if not (-math.pi <= record["lon"] <= math.pi):
        breaches.append(f"line {line_no}: longitude outside [-pi, pi]")
    if not (-math.pi / 2 <= record["lat"] <= math.pi / 2):
        breaches.append(f"line {line_no}: latitude outside [-pi/2, pi/2]")
    if record["split"] not in SPLITS:
        breaches.append(f"line {line_no}: unknown split {record['split']!r}")
    declared = {g.name: g.channels for g in manifest.groups if g.kind == "dynamic"}
    for group in sorted(declared.keys() - record["channels"].keys()):
        breaches.append(f"line {line_no}: missing dynamic group {group}")
    for group, series in record["channels"].items():
        if len(series) != len(days):
            breaches.append(f"line {line_no}: group {group} is not day-major")
        width = {len(row) for row in series}
        if len(width) > 1:
            breaches.append(f"line {line_no}: ragged channel rows in group {group}")
        elif declared.get(group) is not None and series and width != {declared[group]}:
            breaches.append(
                f"line {line_no}: group {group} has {width.pop()} channels, "
                f"manifest declares {declared[group]}"
            )


def _channel_tables(record):
    """Each group's [T, C] float64 table; None if a value is not a finite float64."""
    try:
        tables = {g: np.array(rows, dtype=np.float64) for g, rows in record["channels"].items()}
    except OverflowError:
        return None
    return tables if all(np.isfinite(t).all() for t in tables.values()) else None


def load_corpus(path):
    """Load and validate a corpus.

    A line that is not a JSON object holding every key at its JSON type
    raises ParseError naming the line; the invariant breaches of all
    well-typed records are reported together in one ValidationError.  A
    record's arrays are built only once it passes validation.
    """
    path = Path(path)
    manifest = _load_manifest(manifest_path(path))
    samples, breaches = [], []
    try:
        fh = open(path, "rb")
    except OSError as err:
        raise ContractError(f"corpus: cannot open {str(path)!r}: {err.strerror}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            record = decode(line, f"line {line_no}: malformed record")
            wrong = _type_errors(record)
            if wrong:
                raise ParseError(f"line {line_no}: missing or wrong JSON type: {wrong}")
            before = len(breaches)
            _validate_sample(record, line_no, manifest, breaches)
            if len(breaches) > before:
                continue
            tables = _channel_tables(record)
            if tables is None:
                breaches.append(f"line {line_no}: channel value outside the finite float64 range")
            else:
                samples.append(ParcelSample(
                    record["id"], np.array(record["days"], dtype=np.intp), tables,
                    float(record["lon"]), float(record["lat"]),
                    record["region"], record["hcat"], record["split"],
                ))
    if breaches:
        raise ValidationError(breaches)
    return Corpus(samples, manifest)


# ---------------------------------------------------------------------------
# majority-class resampling
# ---------------------------------------------------------------------------


def median_round_half_up(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise DegenerateInputError("median of empty count list")
    if n % 2 == 1:
        return int(ordered[n // 2])
    return int(math.floor((ordered[n // 2 - 1] + ordered[n // 2]) / 2.0 + 0.5))


def resample_majority(samples, majority_class, rng_seed):
    """Downsample the majority class to the median frequency of all others.

    Non-majority classes are untouched; retained majority samples are a
    uniform random subset under the seed, kept in original order.  A second
    application is a no-op.
    """
    counts = {}
    for s in samples:
        counts[s.label] = counts.get(s.label, 0) + 1
    if majority_class not in counts:
        warnings.warn(f"majority class {majority_class!r} absent; corpus unchanged")
        return list(samples)
    others = [c for label, c in counts.items() if label != majority_class]
    if not others:
        warnings.warn("no non-majority classes; corpus unchanged")
        return list(samples)
    target = median_round_half_up(others)
    if counts[majority_class] <= target:
        return list(samples)
    majority_idx = [i for i, s in enumerate(samples) if s.label == majority_class]
    rng = rng_from(rng_seed, 0)
    keep = set(rng.choice(len(majority_idx), size=target, replace=False).tolist())
    kept_positions = {majority_idx[i] for i in keep}
    return [
        s
        for i, s in enumerate(samples)
        if s.label != majority_class or i in kept_positions
    ]


# ---------------------------------------------------------------------------
# synthetic corpus generation
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    """Knobs for the synthetic stand-in corpus.

    ``separability`` scales the class-to-class distance of the latent
    seasonal profiles; ``noise_sigma`` is the i.i.d. observation noise.
    """

    regions: list[str] = field(default_factory=lambda: ["R1", "R2", "R3"])
    finetune_region: str = "T1"
    n_level3: int = 2
    n_level4: int = 4
    n_classes: int = 6
    samples_per_class: int = 30  # per source region and class
    finetune_samples_per_class: int = 60
    majority_boost: float = 1.0  # multiplies the majority (first) class count
    groups: list[GroupSpec] = field(default_factory=lambda: [GroupSpec("s2", 4, "dynamic")])
    obs_count: tuple[int, int] = (10, 16)  # fewest and most observations per parcel
    noise_sigma: float = 0.05
    separability: float = 1.0
    region_phase_days: float = 12.0
    k_max: int = 10

    def __post_init__(self):
        low, high = self.obs_count
        if not 1 <= low <= high:
            raise ContractError(f"obs_count: must satisfy 1 <= low <= high, got {list(self.obs_count)}")

    def validate(self):
        if len(self.regions) + 1 < 2:
            raise ContractError("need at least two regions in total")
        if self.n_classes < 4:
            raise ContractError("need at least 4 classes")
        floor = 2 * self.k_max
        if min(self.samples_per_class, self.finetune_samples_per_class) < floor:
            raise ContractError(f"per-class count must be >= {floor}")
        if self.noise_sigma == 0 and self.separability == 0:
            raise ContractError("unidentifiable config: zero noise and identical profiles")
        if not self.groups or all(g.kind != "dynamic" for g in self.groups):
            raise ContractError("need at least one dynamic channel group")


def build_hierarchy_codes(n_level3, n_level4, n_classes):
    """Digit codes with levels {3: 2, 4: 4, 6: 6} digits, children distributed
    round-robin so the declared level cardinalities are met exactly."""
    if not (1 <= n_level3 <= n_level4 <= n_classes):
        raise ContractError("hierarchy sizes must satisfy level3 <= level4 <= classes")
    level4_parent = [i % n_level3 for i in range(n_level4)]
    codes = []
    for leaf in range(n_classes):
        l4 = leaf % n_level4
        l3 = level4_parent[l4]
        codes.append(f"{10 + l3:02d}{10 + l4:02d}{10 + leaf:02d}")
    hierarchy = Hierarchy({3: 2, 4: 4, 6: 6})
    return codes, hierarchy


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _class_profiles(rng, config):
    """Latent double-logistic parameters per class and channel."""
    n_channels = sum(g.channels for g in config.groups if g.kind == "dynamic")
    shared = {
        "base": rng.uniform(0.1, 0.3, size=n_channels),
        "amp": rng.uniform(0.5, 0.7, size=n_channels),
        "t_on": rng.uniform(110, 150),
        "t_off": rng.uniform(210, 250),
        "rate_on": rng.uniform(0.05, 0.08),
        "rate_off": rng.uniform(0.05, 0.08),
    }
    profiles = []
    s = config.separability
    for _ in range(config.n_classes):
        profiles.append(
            {
                "base": shared["base"] + s * rng.uniform(-0.2, 0.2, size=n_channels),
                "amp": shared["amp"] + s * rng.uniform(-0.35, 0.35, size=n_channels),
                "t_on": shared["t_on"] + s * rng.uniform(-45, 45),
                "t_off": shared["t_off"] + s * rng.uniform(-45, 45),
                "rate_on": shared["rate_on"],
                "rate_off": shared["rate_off"],
            }
        )
    return profiles


def _profile_values(profile, days, phase_shift, amp_scale):
    rise = _sigmoid(np.subtract.outer(days, profile["t_on"] + phase_shift) * profile["rate_on"])
    fall = _sigmoid(np.subtract.outer(days, profile["t_off"] + phase_shift) * profile["rate_off"])
    seasonal = (rise - fall)[:, None]
    return profile["base"][None, :] + amp_scale * profile["amp"][None, :] * seasonal


def generate_synthetic(config, seed):
    """Deterministic synthetic corpus; pure function of (config, seed)."""
    config.validate()
    rng = rng_from(seed, 0)
    codes, hierarchy = build_hierarchy_codes(
        config.n_level3, config.n_level4, config.n_classes
    )
    profiles = _class_profiles(rng, config)
    dynamic_groups = [g for g in config.groups if g.kind == "dynamic"]

    all_regions = list(config.regions) + [config.finetune_region]
    region_phase = {
        r: rng.uniform(-config.region_phase_days, config.region_phase_days)
        for r in all_regions
    }
    region_amp = {r: rng.uniform(0.9, 1.1) for r in all_regions}
    # Region centroids on a coarse lat/lon grid (radians), parcels jittered around them.
    region_center = {
        r: (rng.uniform(-2.5, 2.5), rng.uniform(-1.2, 1.2)) for r in all_regions
    }

    samples = []
    counter = 0
    for region in all_regions:
        is_finetune = region == config.finetune_region
        per_class = (
            config.finetune_samples_per_class if is_finetune else config.samples_per_class
        )
        fractions = FINETUNE_SPLIT_FRACTIONS if is_finetune else PRETRAIN_SPLIT_FRACTIONS
        region_samples = []
        for class_idx, code in enumerate(codes):
            count = per_class
            if class_idx == 0:
                count = int(round(per_class * config.majority_boost))
            for _ in range(count):
                n_obs = int(rng.integers(config.obs_count[0], config.obs_count[1] + 1))
                days = np.sort(rng.choice(np.arange(1, 367), size=n_obs, replace=False))
                values = _profile_values(
                    profiles[class_idx], days, region_phase[region], region_amp[region]
                )
                if config.noise_sigma > 0:
                    values = values + rng.normal(0.0, config.noise_sigma, size=values.shape)
                channels, offset = {}, 0
                for g in dynamic_groups:
                    channels[g.name] = values[:, offset : offset + g.channels].copy()
                    offset += g.channels
                lon = region_center[region][0] + rng.uniform(-0.05, 0.05)
                lat = region_center[region][1] + rng.uniform(-0.05, 0.05)
                region_samples.append(ParcelSample(
                    f"p{counter:07d}", days, channels,
                    float(np.clip(lon, -math.pi, math.pi)),
                    float(np.clip(lat, -math.pi / 2, math.pi / 2)),
                    region, code, "train",
                ))
                counter += 1
        order = rng.permutation(len(region_samples))
        n = len(region_samples)
        if is_finetune:
            bounds = [int(fractions["train"] * n), int((fractions["train"] + fractions["validation"]) * n)]
            split_of = lambda i: "train" if i < bounds[0] else ("validation" if i < bounds[1] else "test")
        else:
            bound = int(fractions["train"] * n)
            split_of = lambda i: "train" if i < bound else "validation"
        for pos, idx in enumerate(order):
            region_samples[idx].split = split_of(pos)
        samples.extend(region_samples)

    region_counts, class_counts = {}, {}
    for s in samples:
        region_counts[s.region] = region_counts.get(s.region, 0) + 1
        class_counts[s.label] = class_counts.get(s.label, 0) + 1
    manifest = CorpusManifest(
        region_counts=region_counts,
        class_counts=class_counts,
        majority_class=codes[0],
        hierarchy_levels=dict(hierarchy.level_prefix_lengths),
        groups=list(config.groups),
        pretrain_regions=list(config.regions),
        finetune_region=config.finetune_region,
    )
    return Corpus(samples, manifest)
