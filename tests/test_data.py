import functools
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import parcel, rewrite_corpus
from fsml import data, nn, seeding
from fsml.data import (
    Corpus,
    CorpusManifest,
    GroupSpec,
    SynthConfig,
    build_hierarchy_codes,
    fixed_validation_subset,
    generate_synthetic,
    load_corpus,
    median_round_half_up,
    resample_majority,
    save_corpus,
)
from fsml.errors import ContractError, FsmlError, ParseError, ValidationError
from fsml.seeding import rng_from


def small_config(**overrides):
    base = dict(
        regions=["R1", "R2"],
        finetune_region="T1",
        n_classes=4,
        n_level4=4,
        samples_per_class=20,
        finetune_samples_per_class=20,
        obs_count=(6, 9),
        noise_sigma=0.05,
        separability=1.0,
        k_max=5,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_empty_file_gives_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    corpus = load_corpus(path)
    assert len(corpus) == 0
    assert corpus.manifest.region_counts == {}
    assert corpus.manifest.class_counts == {}


def test_non_increasing_days_rejected(tmp_path):
    record = {
        "id": "p1",
        "days": [10, 5],
        "channels": {"s2": [[0.1], [0.2]]},
        "lon": 0.0,
        "lat": 0.0,
        "region": "R1",
        "hcat": "101010",
        "split": "train",
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValidationError, match="non-increasing days"):
        load_corpus(path)


def test_centroid_domain_validated(tmp_path):
    record = {
        "id": "p1",
        "days": [5],
        "channels": {"s2": [[0.1]]},
        "lon": 4.0,  # outside [-pi, pi]
        "lat": 0.0,
        "region": "R1",
        "hcat": "101010",
        "split": "train",
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValidationError, match="longitude"):
        load_corpus(path)


def test_malformed_record_reports_line_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"id": "p1"\n')
    with pytest.raises(ParseError, match="line 1"):
        load_corpus(path)


def test_roundtrip_identity_on_synthetic_corpus(tmp_path):
    corpus = generate_synthetic(small_config(), seed=7)
    sub = Corpus(corpus.samples[:100], corpus.manifest)
    path = tmp_path / "corpus.jsonl"
    save_corpus(sub, path)
    loaded = load_corpus(path)
    assert len(loaded) == 100
    for a, b in zip(sub.samples, loaded.samples):
        assert a.parcel_id == b.parcel_id
        assert a.region == b.region and a.label == b.label and a.split == b.split
        assert a.lon == b.lon and a.lat == b.lat
        assert np.array_equal(a.days, b.days)
        assert a.channels.keys() == b.channels.keys()
        for g in a.channels:
            assert np.array_equal(a.channels[g], b.channels[g])


def test_roundtrip_is_byte_identical(tmp_path):
    corpus = generate_synthetic(small_config(), seed=3)
    sub = Corpus(corpus.samples[:100], corpus.manifest)
    first = tmp_path / "one.jsonl"
    save_corpus(sub, first)
    second = tmp_path / "two.jsonl"
    save_corpus(load_corpus(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert data.manifest_path(first).read_bytes() == data.manifest_path(second).read_bytes()


def _counted_corpus(counts):
    samples = []
    i = 0
    for label, n in counts.items():
        for _ in range(n):
            samples.append(parcel([5], {"s2": [[0.1]]}, f"p{i}", label=label))
            i += 1
    return samples


def test_resample_majority_hand_example():
    samples = _counted_corpus({"A": 100, "B": 10, "C": 20})
    out = resample_majority(samples, "A", rng_seed=1)
    counts = {}
    for s in out:
        counts[s.label] = counts.get(s.label, 0) + 1
    assert counts == {"A": 15, "B": 10, "C": 20}


def test_resample_majority_noop_when_at_median():
    samples = _counted_corpus({"A": 15, "B": 10, "C": 20})
    out = resample_majority(samples, "A", rng_seed=1)
    assert [s.parcel_id for s in out] == [s.parcel_id for s in samples]


def test_resample_majority_absent_warns():
    samples = _counted_corpus({"B": 3, "C": 4})
    with pytest.warns(UserWarning, match="absent"):
        out = resample_majority(samples, "Z", rng_seed=1)
    assert len(out) == 7


def test_resample_majority_idempotent_and_untouched_others():
    samples = _counted_corpus({"A": 50, "B": 11, "C": 24, "D": 7})
    once = resample_majority(samples, "A", rng_seed=9)
    twice = resample_majority(once, "A", rng_seed=9)
    assert [s.parcel_id for s in once] == [s.parcel_id for s in twice]
    originals = {s.parcel_id for s in samples if s.label != "A"}
    assert {s.parcel_id for s in once if s.label != "A"} == originals


def test_resample_majority_latvia_shaped_counts():
    # 1/100-scale version of the published skew: majority 2150 of ~4311,
    # 102 remaining classes with a long-tailed distribution.
    rng = np.random.default_rng(0)
    other_counts = np.maximum(1, rng.geometric(0.045, size=102))
    counts = {"M": 2150}
    for i, c in enumerate(other_counts):
        counts[f"c{i:03d}"] = int(c)
    samples = _counted_corpus(counts)
    out = resample_majority(samples, "M", rng_seed=4)
    target = median_round_half_up(other_counts.tolist())
    got = sum(1 for s in out if s.label == "M")
    assert got == target


def test_median_round_half_up():
    assert median_round_half_up([10, 20]) == 15
    assert median_round_half_up([10, 21]) == 16  # 15.5 rounds up
    assert median_round_half_up([3, 9, 4]) == 4


def test_generate_synthetic_deterministic():
    cfg = small_config()
    a = generate_synthetic(cfg, seed=11)
    b = generate_synthetic(cfg, seed=11)
    assert len(a) == len(b)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.parcel_id == sb.parcel_id and sa.split == sb.split
        assert np.array_equal(sa.days, sb.days)
        for g in sa.channels:
            assert np.array_equal(sa.channels[g], sb.channels[g])


def _interp_series(sample, grid):
    days = sample.days.astype(float)
    values = sample.channels["s2"]
    return np.concatenate(
        [np.interp(grid, days, values[:, c]) for c in range(values.shape[1])]
    )


def test_generate_synthetic_noiseless_nearest_neighbor_is_perfect():
    cfg = small_config(noise_sigma=0.0, separability=1.5)
    corpus = generate_synthetic(cfg, seed=5)
    pool = [s for s in corpus.samples if s.region == "R1"]
    grid = np.arange(30, 331, 30, dtype=float)
    vectors = np.stack([_interp_series(s, grid) for s in pool])
    labels = [s.label for s in pool]
    correct = 0
    probes = range(0, len(pool), max(1, len(pool) // 80))
    for i in probes:
        dists = np.linalg.norm(vectors - vectors[i], axis=1)
        dists[i] = np.inf
        correct += labels[int(np.argmin(dists))] == labels[i]
    assert correct == len(list(probes))


def _softmax_regression_accuracy(features, labels, n_classes, steps=400, lr=0.5):
    """Independent oracle: multinomial logistic regression on summary features."""
    x = np.concatenate([features, np.ones((features.shape[0], 1))], axis=1)
    w = np.zeros((x.shape[1], n_classes))
    onehot = np.eye(n_classes)[labels]
    for _ in range(steps):
        logits = x @ w
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        w -= lr * x.T @ (p - onehot) / len(labels)
    return float(np.mean((x @ w).argmax(axis=1) == labels))


def test_generate_synthetic_logistic_oracle_bar():
    cfg = small_config(
        noise_sigma=0.1,
        n_classes=4,
        samples_per_class=125,
        obs_count=(10, 16),
        regions=["R1", "R2"],
    )
    corpus = generate_synthetic(cfg, seed=2)
    pool = [s for s in corpus.samples if s.region == "R1"][:500]
    assert len(pool) == 500
    classes = sorted({s.label for s in pool})
    labels = np.array([classes.index(s.label) for s in pool])
    feats = np.stack([
        np.mean(s.channels["s2"], axis=0) for s in pool
    ])
    acc = _softmax_regression_accuracy(feats, labels, len(classes))
    assert acc >= 0.9


def test_degenerate_config_rejected():
    with pytest.raises(ContractError, match="unidentifiable"):
        generate_synthetic(small_config(noise_sigma=0.0, separability=0.0), seed=0)


def test_parent_at_identities():
    codes, hierarchy = build_hierarchy_codes(2, 4, 8)
    leaf = hierarchy.leaf_level
    for code in codes:
        assert hierarchy.parent_at(code, leaf) == code
    a, b = codes[0], codes[4]  # same level-4 parent by round-robin
    assert hierarchy.parent_at(a, 4) == hierarchy.parent_at(b, 4)
    assert hierarchy.parent_at(a, 3) == hierarchy.parent_at(b, 3)
    with pytest.raises(ContractError, match="level"):
        hierarchy.parent_at(a, 5)


def test_hierarchy_prefix_nesting():
    codes, hierarchy = build_hierarchy_codes(3, 7, 20)
    for code in codes:
        p3 = hierarchy.parent_at(code, 3)
        p4 = hierarchy.parent_at(code, 4)
        assert p4.startswith(p3)
        assert code.startswith(p4)


def test_hierarchy_reproduces_published_cardinalities():
    codes, hierarchy = build_hierarchy_codes(6, 33, 103)
    assert len({hierarchy.parent_at(c, 3) for c in codes}) == 6
    assert len({hierarchy.parent_at(c, 4) for c in codes}) == 33
    assert len(set(codes)) == 103
    assert {len(c) for c in codes} == {hierarchy.level_prefix_lengths[hierarchy.leaf_level]}
    assert len({hierarchy.parent_at(c, hierarchy.leaf_level) for c in codes}) == 103


def test_synth_n_classes_beyond_90_widen_the_leaf_codes():
    # leaf codes end in 10 + leaf; from 91 classes on that takes three digits,
    # and the hierarchy's leaf prefix grows with it, so no two classes share
    # a leaf.  Up to 90 classes the codes keep two digits per level.
    for n_classes, length in ((90, 6), (91, 7)):
        config = small_config(n_classes=n_classes)
        codes, hierarchy = build_hierarchy_codes(config.n_level3, config.n_level4, config.n_classes)
        assert {len(c) for c in codes} == {length}
        assert hierarchy.level_prefix_lengths == {3: 2, 4: 4, 6: length}
        assert len({hierarchy.parent_at(c, hierarchy.leaf_level) for c in codes}) == n_classes


def test_splits_disjoint_and_exhaustive():
    corpus = generate_synthetic(small_config(), seed=13)
    for region_pool, fractions in (
        (corpus.pretrain_pool(), {"train", "validation"}),
        (corpus.finetune_pool(), {"train", "validation", "test"}),
    ):
        seen = {}
        for s in region_pool:
            seen.setdefault(s.split, []).append(s.parcel_id)
        assert set(seen) == fractions
        ids = [i for v in seen.values() for i in v]
        assert len(ids) == len(set(ids)) == len(region_pool)


def test_fixed_validation_subset_limits_and_stability():
    corpus = generate_synthetic(small_config(finetune_samples_per_class=60), seed=1)
    pool = corpus.finetune_pool()
    sub_small = fixed_validation_subset(pool, limit=10)
    assert len(sub_small) == 10
    again = fixed_validation_subset(pool, limit=10)
    assert [s.parcel_id for s in sub_small] == [s.parcel_id for s in again]
    validation = [s for s in pool if s.split == "validation"]
    big = fixed_validation_subset(pool, limit=10**6)
    assert len(big) == len(validation)


def test_fixed_validation_subset_draws_from_a_stream_of_its_own():
    tags = {name: tag for name, tag in vars(seeding).items() if name.startswith("STREAM_")}
    assert len(set(tags.values())) == len(tags)  # so no run seed's stream aliases it
    pool = generate_synthetic(small_config(finetune_samples_per_class=60), seed=1).finetune_pool()
    validation = sorted((s for s in pool if s.split == "validation"), key=lambda s: s.parcel_id)
    drawn = rng_from(0, seeding.STREAM_VALIDATION_SUBSET).choice(len(validation), 10, replace=False)
    chosen = [s.parcel_id for s in fixed_validation_subset(pool, limit=10)]
    assert chosen == [validation[i].parcel_id for i in sorted(drawn)]


def test_manifest_rejects_bad_split_fractions(tmp_path):
    corpus = generate_synthetic(small_config(), seed=1)
    path = tmp_path / "c.jsonl"
    save_corpus(Corpus(corpus.samples[:5], corpus.manifest), path)
    mpath = data.manifest_path(path)
    raw = json.loads(mpath.read_text())
    raw["split_fractions"]["finetune"]["train"] = 0.9  # now sums to 1.3
    mpath.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match="sum to 1"):
        load_corpus(path)


def test_corpus_written_without_its_manifest_is_a_parse_error(tmp_path, monkeypatch):
    # a crash between the corpus write and the manifest write leaves corpus B
    # beside corpus A's manifest; loading the pair must not give B's samples
    # A's regions and splits
    path = tmp_path / "c.jsonl"
    first = generate_synthetic(small_config(), seed=0)
    save_corpus(first, path)
    second = generate_synthetic(small_config(regions=["Q1", "Q2", "Q3"]), seed=1)

    def crash(target, value):
        raise OSError("crashed before the manifest write")

    monkeypatch.setattr(data, "write_json", crash)
    with pytest.raises(OSError):
        save_corpus(second, path)
    monkeypatch.undo()
    with pytest.raises(ParseError, match=r"corpus .*c\.jsonl.*manifest .*c\.manifest\.json"):
        load_corpus(path)
    save_corpus(second, path)  # the completed write loads again
    assert load_corpus(path).manifest == second.manifest


def test_manifest_without_the_corpus_digest_still_loads(tmp_path):
    path = tmp_path / "c.jsonl"
    corpus = generate_synthetic(small_config(), seed=0)
    save_corpus(corpus, path)
    mpath = data.manifest_path(path)
    raw = json.loads(mpath.read_text())
    del raw[data.CORPUS_DIGEST]
    mpath.write_text(json.dumps(raw))
    loaded = load_corpus(path)
    assert loaded.manifest == corpus.manifest and len(loaded) == len(corpus)


@pytest.mark.parametrize("value", [5, None], ids=["number", "null"])
def test_corpus_digest_that_is_not_a_string_is_a_parse_error(tmp_path, value):
    path = tmp_path / "c.jsonl"
    save_corpus(generate_synthetic(small_config(), seed=0), path)
    mpath = data.manifest_path(path)
    raw = json.loads(mpath.read_text())
    raw[data.CORPUS_DIGEST] = value
    mpath.write_text(json.dumps(raw))
    with pytest.raises(ParseError, match="corpus_sha256: must be a string"):
        load_corpus(path)


def test_paper_shaped_band_constants():
    assert data.S2_TOTAL_BANDS == 13
    assert data.S2_SUPERVISED_CHANNELS == 12  # B10 removed
    assert data.S2_XTS_CHANNELS == 13  # all bands retained
    assert data.S2_PRETRAINED_TOKEN_CHANNELS == 10  # B01, B09, B10 removed


def test_raw_series_groups_leave_static_groups_out():
    groups = [GroupSpec("location", 3, "static"), GroupSpec("s2", 4), GroupSpec("s1", 2)]
    corpus = generate_synthetic(small_config(groups=groups), seed=0)
    assert corpus.manifest.group_order() == ["s2", "s1"]
    assert corpus.manifest.dynamic_channels() == 6
    values, _, _ = nn.pack_batch(corpus.samples[:3], corpus.manifest.group_order())
    assert values.shape[-1] == 6


def test_dataset_format_is_pinned(tmp_path):
    """Corpus and manifest bytes of a fixed synthetic corpus match digests
    recorded before parcels were held as arrays (the manifest's since groups
    lost their ``categorical`` key, and the manifest's without the corpus
    digest it now records); any format change shows."""
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate_synthetic(small_config(), seed=0), path)
    body, manifest = path.read_bytes(), data.manifest_path(path).read_bytes()
    assert hashlib.sha256(body).hexdigest() == (
        "165b4e1545433a871c1467fe2c03835c381c4c17e8cf1a84b3fa4f543fbe7816")
    assert hashlib.sha256(manifest).hexdigest() == (
        "becf77f2e545397918a38e0694ddf151532bdebf04a0c569b5d40b84468b3621")
    raw = json.loads(manifest)
    assert raw.pop(data.CORPUS_DIGEST) == hashlib.sha256(body).hexdigest()
    without_digest = (json.dumps(raw, sort_keys=True, indent=1) + "\n").encode()
    assert hashlib.sha256(without_digest).hexdigest() == (
        "75ba4cce706ca48d01870e09767d2bf609d5a403c2772f713c90b7e8cae1ddf9")


def _record(**overrides):
    record = {"id": "p1", "days": [5, 9], "channels": {"s2": [[0.1], [0.2]]}, "lon": 0.0,
              "lat": 0.0, "region": "R1", "hcat": "101010", "split": "train"}
    record.update(overrides)
    return record


def _write_corpus(tmp_path, records, groups=(GroupSpec("s2", 1),)):
    path = tmp_path / "c.jsonl"
    save_corpus(Corpus([], CorpusManifest(groups=list(groups))), path)
    rewrite_corpus(path, "".join(json.dumps(r) + "\n" for r in records))
    return path


@pytest.mark.parametrize("overrides, error, match", [
    ({"days": "abc"}, ParseError, r"line 1: missing or wrong JSON type: \['days'\]"),
    ({"lon": "x"}, ParseError, r"line 1: missing or wrong JSON type: \['lon'\]"),
    ({"channels": [1, 2]}, ParseError, r"line 1: missing or wrong JSON type: \['channels'\]"),
    ({"channels": {"s2": [[0.1], ["a"]]}}, ParseError, r"\['channels'\]"),
    ({"days": [5, True]}, ParseError, r"\['days'\]"),
    ({"id": None}, ParseError, r"\['id'\]"),
    ({"channels": {"s2": [[0.1], [float("nan")]]}}, ParseError, "non-finite number NaN"),
    ({"channels": {"s1": [[0.1], [0.2]]}}, ValidationError, "line 1: missing dynamic group s2"),
    ({"days": [], "channels": {"s2": []}}, ValidationError, "line 1: empty days"),
    ({"channels": {"s2": [[0.1], [0.2, 0.3]]}}, ValidationError, "ragged channel rows"),
], ids=["days-str", "lon-str", "channels-list", "value-str", "day-bool", "id-null", "nan",
        "missing-group", "empty-days", "ragged"])
def test_corrupt_record_raises_typed_error(tmp_path, overrides, error, match):
    path = _write_corpus(tmp_path, [_record(**overrides)])
    with pytest.raises(error, match=match):
        load_corpus(path)


@pytest.mark.parametrize("text", [
    "{not json", "[]", '{"groups": 5}', '{"groups": [{"name": "s2"}]}',
    '{"groups": [{"name": "s2", "channels": 1, "kind": "dinamic"}]}',
    '{"hierarchy_levels": {"x": 2}}', '{"pretrain_regions": [["R1"]]}', "\xff",
], ids=["not-json", "list", "groups-int", "group-keys", "group-kind", "level-key", "regions", "latin-1"])
def test_corrupt_manifest_raises_parse_error_naming_it(tmp_path, text):
    path = _write_corpus(tmp_path, [_record()])
    data.manifest_path(path).write_text(text, encoding="latin-1")
    with pytest.raises(ParseError, match="manifest.*c.manifest.json"):
        load_corpus(path)


@pytest.mark.parametrize("value", ["1e999", "1" + "0" * 400], ids=["float", "int"])
def test_channel_value_overflowing_float64_is_a_breach(tmp_path, value):
    path = _write_corpus(tmp_path, [_record()])
    rewrite_corpus(path, path.read_text().replace("0.2", value))
    with pytest.raises(ValidationError, match="line 1: channel value outside the finite float64"):
        load_corpus(path)


def test_record_that_is_not_an_object_raises_parse_error(tmp_path):
    path = _write_corpus(tmp_path, [_record(), [1, 2]])
    with pytest.raises(ParseError, match="line 2: .*the record itself"):
        load_corpus(path)


def test_record_breaches_are_reported_together(tmp_path):
    records = [_record(channels={}), _record(days=[], channels={"s2": []}), _record(lon=4.0)]
    path = _write_corpus(tmp_path, records)
    with pytest.raises(ValidationError) as info:
        load_corpus(path)
    assert info.value.breaches == [
        "line 1: missing dynamic group s2",
        "line 2: empty days",
        "line 3: longitude outside [-pi, pi]",
    ]


@functools.lru_cache(maxsize=1)
def _small_corpus_bytes():
    """Corpus and manifest bytes of three synthetic parcels."""
    corpus = generate_synthetic(small_config(), seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "full.jsonl"
        save_corpus(Corpus(corpus.samples[:3], corpus.manifest), path)
        return path.read_bytes(), data.manifest_path(path).read_bytes()


def test_every_truncated_corpus_or_manifest_raises_parse_error(tmp_path):
    _check_truncations(tmp_path, digest=True)


def test_truncated_corpus_beside_a_manifest_without_digest_loads_up_to_whole_lines(tmp_path):
    _check_truncations(tmp_path, digest=False)


def _check_truncations(tmp_path, digest):
    body, manifest = _small_corpus_bytes()
    if not digest:  # a manifest written before it recorded the corpus digest
        raw = json.loads(manifest)
        del raw[data.CORPUS_DIGEST]
        manifest = json.dumps(raw).encode()
    cut = tmp_path / "cut.jsonl"
    data.manifest_path(cut).write_bytes(manifest)
    whole_lines = {0} | {i + d for i, b in enumerate(body) if b == ord("\n") for d in (0, 1)}
    for size in range(len(body)):
        cut.write_bytes(body[:size])
        if size in whole_lines and not digest:  # a shorter corpus, unless the digest shows
            assert len(load_corpus(cut)) == len(body[:size].splitlines())
        else:
            with pytest.raises(ParseError):
                load_corpus(cut)
    cut.write_bytes(body)
    for size in range(len(manifest.rstrip())):
        data.manifest_path(cut).write_bytes(manifest[:size])
        with pytest.raises(ParseError, match="manifest"):
            load_corpus(cut)


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(choice=st.data())
def test_corrupt_corpus_loads_or_raises_fsml_error(tmp_path, choice):
    files = dict(zip(("body", "manifest"), _small_corpus_bytes()))
    target = choice.draw(st.sampled_from(sorted(files)), label="file")
    blob = files[target]
    at = choice.draw(st.integers(0, len(blob) - 1), label="offset")
    byte = choice.draw(st.integers(0, 255).filter(lambda b: b != blob[at]), label="byte")
    files[target] = blob[:at] + bytes([byte]) + blob[at + 1:]
    path = tmp_path / "flipped.jsonl"
    path.write_bytes(files["body"])
    data.manifest_path(path).write_bytes(files["manifest"])
    try:
        load_corpus(path)
    except FsmlError:
        pass
