"""Parcel time-series corpus: data model, hierarchy, splits, file format and
the synthetic generator that stands in for a real multi-region crop archive.

Dataset file format (external interface)
    JSON Lines, one object per parcel:
        {"id", "days": [int], "channels": {group: [[f64, ...], ...]},
         "lon", "lat", "region", "hcat", "split"}
    "channels" arrays are day-major.  The manifest is a single JSON object
    stored next to the dataset as ``<dataset>.manifest.json``; it is written
    after the dataset and records the SHA-256 of the dataset's bytes under
    ``corpus_sha256``, so a dataset that is not the one its manifest was
    written with (a crash between the two writes) is a ParseError on load.
    A manifest without the key is read as before.  In memory a
    parcel is its record: ``ParcelSample.days`` is the [T] day array and
    ``ParcelSample.channels`` maps each group to its [T, C] float64 table.
    These are row-range views: a load holds one day array and one table per
    group (and width) for the whole corpus, a generated corpus one of each
    per region and class.

Corpus files are read and written in whole-corpus passes.  The loader
decodes and checks each line in turn (so a breach names its line) and adds
its values to one float64 buffer per group, which is checked finite once
every line is read; the writer shares one JSON encoder over all records.

Synthetic parcels follow per-class double-logistic seasonal profiles (the
standard phenology curve shape), phase- and amplitude-shifted per region,
observed at irregular days with i.i.d. Gaussian noise.  Generation is a pure
function of (config, seed): each parcel draws its observation count, days,
noise and centroid in turn, and the profile values of a region's parcels of
one class are computed in one NumPy pass over their days.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from array import array
from dataclasses import asdict, dataclass, field
from itertools import chain
from operator import ge, itemgetter
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import ContractError, DegenerateInputError, ParseError, ValidationError, require_counts
from .schema import decode, parse, read_file, write_json, writing
from .seeding import STREAM_VALIDATION_SUBSET, rng_from

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
YEAR_DAYS = 366  # an observation's day of the year is 1..YEAR_DAYS


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


def subset_by_split(samples, split):
    if split not in SPLITS:
        raise ContractError(f"unknown split {split!r}")
    return [s for s in samples if s.split == split]


PRETRAIN_POOL = "the pre-training regions"
FINETUNE_POOL = "the fine-tune region"


def require_splits(samples, pool, *splits):
    """The samples of each of ``splits``, in order; a split without any is a
    DegenerateInputError naming it and ``pool``, where ``samples`` come from."""
    subsets = [subset_by_split(samples, split) for split in splits]
    for split, subset in zip(splits, subsets):
        if not subset:
            raise DegenerateInputError(f"no {split!r} parcels in {pool}")
    return subsets


def fixed_validation_subset(samples, limit=FIXED_VALIDATION_POINTS):
    """The fixed validation points: a corpus-stable draw, independent of the
    run seed (its own stream at seed 0, over id-sorted samples)."""
    pool = sorted(subset_by_split(samples, "validation"), key=lambda s: s.parcel_id)
    if len(pool) <= limit:
        return pool
    idx = rng_from(0, STREAM_VALIDATION_SUBSET).choice(len(pool), size=limit, replace=False)
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


CORPUS_DIGEST = "corpus_sha256"  # the manifest key of the dataset's SHA-256
# One encoder for every record (``json.dumps`` given a keyword builds one per
# call).  NaN and Infinity are no JSON numbers, so it refuses them.
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def save_corpus(corpus, path):
    """Write ``corpus`` and then its manifest.  A parcel holding a non-finite
    value is a ContractError naming it; the old files stay as they were."""
    path = Path(path)
    digest = hashlib.sha256()
    with writing(path) as fh:
        for sample in corpus.samples:
            try:
                line = _ENCODER.encode(_sample_record(sample)) + "\n"
            except ValueError:
                raise ContractError(f"corpus: parcel {sample.parcel_id!r} holds a non-finite "
                                    f"value, which JSON cannot hold") from None
            digest.update(line.encode("ascii"))  # the encoder escapes non-ASCII
            fh.write(line)
    manifest = asdict(corpus.manifest)
    manifest["hierarchy_levels"] = {str(k): v for k, v in manifest["hierarchy_levels"].items()}
    manifest[CORPUS_DIGEST] = digest.hexdigest()
    write_json(manifest_path(path), manifest)
    return path


_STR, _NUMBER, _INT, _LIST = {str}, {int, float}, {int}, {list}  # bool is no number
_RECORD_TYPES = {"id": _STR, "days": _LIST, "channels": {dict}, "lon": _NUMBER,
                 "lat": _NUMBER, "region": _STR, "hcat": _STR, "split": _STR}


def _load_manifest(mpath):
    """The manifest beside a corpus, or the defaults, and the corpus digest it
    records, or None.  ParseError (naming the file and the key) if it does
    not read; ValidationError for bad split fractions."""
    if not mpath.exists():
        return CorpusManifest(), None
    where = f"manifest {str(mpath)!r}"
    raw = decode(read_file(mpath, "manifest"), where)
    digest = None
    if type(raw) is dict and CORPUS_DIGEST in raw:
        digest = raw.pop(CORPUS_DIGEST)
        if type(digest) is not str:
            raise ParseError(f"{where}: {CORPUS_DIGEST}: must be a string")
    drop_categorical(raw.get("groups") if type(raw) is dict else None, where)
    manifest = parse(raw, CorpusManifest, where)
    breaches = [f"manifest: {stage} split fractions do not sum to 1"
                for stage, fractions in manifest.split_fractions.items()
                if abs(sum(fractions.values()) - 1.0) > 1e-9]
    if breaches:
        raise ValidationError(breaches)
    return manifest, digest


def _type_errors(record):
    """The keys a decoded record lacks or holds at another JSON type."""
    if type(record) is not dict:
        return ["the record itself"]
    wrong = [k for k, types in _RECORD_TYPES.items() if type(record.get(k)) not in types]
    if "days" not in wrong and not set(map(type, record["days"])) <= _INT:
        wrong.append("days")
    if "channels" not in wrong:  # tables of rows of numbers, one level at a time
        tables = record["channels"].values()
        if not (set(map(type, tables)) <= _LIST
                and set(map(type, chain.from_iterable(tables))) <= _LIST
                and set(map(type, chain.from_iterable(chain.from_iterable(tables)))) <= _NUMBER):
            wrong.append("channels")
    return wrong


def _breaches(record, declared):
    """The invariants a well-typed record breaks, in a fixed order;
    ``declared`` maps each dynamic group of the manifest to its width."""
    days, found = record["days"], []
    if not days:
        found.append("empty days")
    elif not (1 <= min(days) and max(days) <= YEAR_DAYS):
        found.append(f"day out of range 1..{YEAR_DAYS}")
    if any(map(ge, days, days[1:])):
        found.append("non-increasing days")
    if not (-math.pi <= record["lon"] <= math.pi):
        found.append("longitude outside [-pi, pi]")
    if not (-math.pi / 2 <= record["lat"] <= math.pi / 2):
        found.append("latitude outside [-pi/2, pi/2]")
    if record["split"] not in SPLITS:
        found.append(f"unknown split {record['split']!r}")
    missing = sorted(declared.keys() - record["channels"].keys())
    found += [f"missing dynamic group {group}" for group in missing]
    for group, series in record["channels"].items():
        if len(series) != len(days):
            found.append(f"group {group} is not day-major")
        width = set(map(len, series))
        if len(width) > 1:
            found.append(f"ragged channel rows in group {group}")
        elif group in declared and series and width != {declared[group]}:
            found.append(
                f"group {group} has {width.pop()} channels, manifest declares {declared[group]}"
            )
    return found


_NOT_FINITE = "channel value outside the finite float64 range"


def _parcels(kept, numbers, days, breaches):
    """The samples of the records ``kept`` (line, day count, (group, width)
    keys, then the scalar fields), whose float64 values ``numbers`` holds
    row after row, one buffer per group and width, and whose ``days`` follow
    each other in one list.  A parcel's days and tables are its row ranges
    (views) of these corpus-wide arrays.  A record holding a value that is
    not finite adds a (line, breach) pair instead of a sample."""
    days = np.array(days, dtype=np.intp)
    tables = {  # a width-0 table has no values: as many rows as the corpus has days
        (group, width): np.frombuffer(values, np.float64).reshape(-1, width) if width
        else np.empty((len(days), 0)) for (group, width), values in numbers.items()
    }
    check_each = not all(np.isfinite(table).all() for table in tables.values())
    next_row, first, samples = dict.fromkeys(tables, 0), 0, []
    for line_no, count, keys, parcel_id, lon, lat, region, label, split in kept:
        channels = {}
        for group, width in keys:
            row = next_row[group, width]
            channels[group] = tables[group, width][row : row + count]
            next_row[group, width] = row + count
        if check_each and not all(np.isfinite(t).all() for t in channels.values()):
            breaches.append((line_no, _NOT_FINITE))
        else:
            samples.append(ParcelSample(parcel_id, days[first : first + count], channels,
                                        float(lon), float(lat), region, label, split))
        first += count
    return samples


def load_corpus(path):
    """Load and validate a corpus.

    A line that is not a JSON object holding every key at its JSON type
    raises ParseError naming the line; the invariant breaches of all
    well-typed records are reported together in one ValidationError, line by
    line.  The values of a record that keeps the invariants join one float64
    buffer per group; once every line is read, each parcel's arrays are views
    of these.  A corpus whose bytes differ from the digest its manifest
    records raises ParseError naming both files.
    """
    path = Path(path)
    mpath = manifest_path(path)
    manifest, digest = _load_manifest(mpath)
    declared = {g.name: g.channels for g in manifest.groups if g.kind == "dynamic"}
    # A kept record holds no lists: its values and days join corpus-wide ones.
    kept, numbers, days, breaches = [], {}, [], []
    try:
        fh = open(path, "rb")
    except OSError as err:
        raise ContractError(f"corpus: cannot open {str(path)!r}: {err.strerror}") from None
    with fh:
        if digest is not None:
            actual = hashlib.sha256()
            for line in fh:  # line by line: no file-sized buffer
                actual.update(line)
            if actual.hexdigest() != digest:
                raise ParseError(
                    f"corpus {str(path)!r} is not the one its manifest {str(mpath)!r} was "
                    f"written with ({CORPUS_DIGEST} differs): save the corpus again, or "
                    f"delete that key to accept an edit"
                )
            fh.seek(0)
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            record = decode(line, f"line {line_no}: malformed record")
            wrong = _type_errors(record)
            if wrong:
                raise ParseError(f"line {line_no}: missing or wrong JSON type: {wrong}")
            found = _breaches(record, declared)
            if found:
                breaches += [(line_no, breach) for breach in found]
                continue
            keys = [(group, len(rows[0])) for group, rows in record["channels"].items()]
            try:  # each group's values as float64, before any joins the corpus's
                values = [array("d", chain.from_iterable(rows))
                          for rows in record["channels"].values()]
            except OverflowError:  # an integer beyond the float64 range
                breaches.append((line_no, _NOT_FINITE))
                continue
            for key, group_values in zip(keys, values):
                numbers.setdefault(key, array("d")).extend(group_values)
            days += record["days"]
            kept.append((line_no, len(record["days"]), keys, record["id"], record["lon"],
                         record["lat"], record["region"], record["hcat"], record["split"]))
    samples = _parcels(kept, numbers, days, breaches)
    if breaches:
        breaches.sort(key=itemgetter(0))  # stable: a line's breaches keep their order
        raise ValidationError([f"line {line_no}: {breach}" for line_no, breach in breaches])
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
        require_counts(4, n_classes=self.n_classes)
        require_counts(k_max=self.k_max)
        for name in ("samples_per_class", "finetune_samples_per_class"):
            if getattr(self, name) < 2 * self.k_max:
                raise ContractError(f"{name}: must be >= 2 * k_max = {2 * self.k_max}")
        if not 1 <= self.n_level3 <= self.n_level4 <= self.n_classes:
            raise ContractError("n_level4: must satisfy 1 <= n_level3 <= n_level4 <= n_classes")
        low, high = self.obs_count
        if not 1 <= low <= high:
            raise ContractError(f"obs_count: must satisfy 1 <= low <= high, got {list(self.obs_count)}")
        if high > YEAR_DAYS:
            raise ContractError(f"obs_count: a parcel has at most one observation per day, so "
                                f"high must be <= {YEAR_DAYS}, got {list(self.obs_count)}")
        if not self.regions or len(set(self.regions)) < len(self.regions):
            raise ContractError("regions: must be a non-empty list of distinct names")
        if self.finetune_region in self.regions:
            raise ContractError("finetune_region: must not be one of the pre-training regions")
        for name, floor in (("majority_boost", 1), ("noise_sigma", 0)):
            if getattr(self, name) < floor:
                raise ContractError(f"{name}: must be a number >= {floor}")
        if self.noise_sigma == self.separability == 0:
            raise ContractError("noise_sigma: must be > 0 when separability is 0 (unidentifiable)")
        if not any(g.kind == "dynamic" for g in self.groups):
            raise ContractError("groups: must hold a dynamic group")
        names = [g.name for g in self.groups]
        if len(set(names)) < len(names):
            raise ContractError(f"groups: names must be distinct, got {names}")


def build_hierarchy_codes(n_level3, n_level4, n_classes):
    """Digit codes of levels 3, 4 and 6, children distributed round-robin so the
    level cardinalities (bounded by ``SynthConfig``) are met exactly.  Each level
    writes 10 + its index in the digits its count needs, two for up to 90 and
    three from 91, so all codes of one call have the same length."""
    w3, w4, w6 = (len(str(9 + n)) for n in (n_level3, n_level4, n_classes))
    level4_parent = [i % n_level3 for i in range(n_level4)]
    codes = []
    for leaf in range(n_classes):
        l4 = leaf % n_level4
        l3 = level4_parent[l4]
        codes.append(f"{10 + l3:0{w3}d}{10 + l4:0{w4}d}{10 + leaf:0{w6}d}")
    hierarchy = Hierarchy({3: w3, 4: w3 + w4, 6: w3 + w4 + w6})
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
    """Deterministic synthetic corpus; pure function of (config, seed).  Each
    parcel draws its days, noise and centroid in turn; the values of a
    region's parcels of one class are then computed at once, and the parcels
    hold row ranges of those arrays."""
    rng = rng_from(seed, 0)
    codes, hierarchy = build_hierarchy_codes(
        config.n_level3, config.n_level4, config.n_classes
    )
    profiles = _class_profiles(rng, config)
    dynamic_groups = [g for g in config.groups if g.kind == "dynamic"]
    n_channels = sum(g.channels for g in dynamic_groups)
    low, high = config.obs_count

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
        lon0, lat0 = region_center[region]
        region_samples = []
        for class_idx, code in enumerate(codes):
            count = per_class
            if class_idx == 0:
                count = int(round(per_class * config.majority_boost))
            days, noise, centroids = [], [], []
            for _ in range(count):
                n_obs = int(rng.integers(low, high + 1))
                day_indices = rng.choice(YEAR_DAYS, size=n_obs, replace=False)
                day_indices.sort()
                days.append(day_indices)
                if config.noise_sigma > 0:
                    noise.append(rng.normal(0.0, config.noise_sigma, size=(n_obs, n_channels)))
                lon = lon0 + rng.uniform(-0.05, 0.05)
                lat = lat0 + rng.uniform(-0.05, 0.05)
                centroids.append((min(max(lon, -math.pi), math.pi),
                                  min(max(lat, -math.pi / 2), math.pi / 2)))
            lengths = [len(d) for d in days]
            days = np.concatenate(days) + 1  # day indices 0..YEAR_DAYS - 1 as days of the year
            values = _profile_values(
                profiles[class_idx], days, region_phase[region], region_amp[region]
            )
            if config.noise_sigma > 0:
                values += np.concatenate(noise)
            tables, offset = {}, 0
            for g in dynamic_groups:
                tables[g.name] = np.ascontiguousarray(values[:, offset : offset + g.channels])
                offset += g.channels
            first = 0
            for n_obs, (lon, lat) in zip(lengths, centroids):
                rows = slice(first, first + n_obs)
                region_samples.append(ParcelSample(
                    f"p{counter:07d}", days[rows], {g: t[rows] for g, t in tables.items()},
                    lon, lat, region, code, "train",
                ))
                first += n_obs
                counter += 1
        order = rng.permutation(len(region_samples))
        splits = list(fractions)  # each split ends at its cumulative fraction of the region
        ends = (np.cumsum(list(fractions.values()))[:-1] * len(region_samples)).astype(int)
        split_index = np.searchsorted(ends, np.arange(len(order)), side="right")
        for idx, split in zip(order.tolist(), split_index.tolist()):
            region_samples[idx].split = splits[split]
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
