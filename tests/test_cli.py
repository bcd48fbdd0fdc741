import json
import warnings
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from fsml import cli as cli_mod
from fsml.cli import _write_results_csv, config_hash, emit_plots, main, run, validate_config
from fsml.data import SynthConfig, load_corpus
from fsml.errors import ContractError, ParseError
from fsml.meta import MetaConfig
from fsml.nn import RawSeriesModel, TransformerConfig, load_checkpoint, save_checkpoint
from fsml.ssl import SSLConfig
from fsml.tokens import EncodingRegime
from fsml.train import TransferConfig


SYNTH_BLOCK = {
    "regions": ["R1", "R2"],
    "finetune_region": "T1",
    "n_classes": 4,
    "n_level4": 4,
    "samples_per_class": 24,
    "finetune_samples_per_class": 30,
    "groups": [{"name": "s2", "channels": 3, "kind": "dynamic"}],
    "obs_count": [6, 9],
    "noise_sigma": 0.06,
    "separability": 1.2,
    "k_max": 5,
}

MODEL_BLOCK = {"embed_dim": 16, "num_heads": 2, "hidden_dim": 32}


def synth_config(dataset, out):
    return {
        "schema_version": 1,
        "mode": "synth-data",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0],
        "synth": SYNTH_BLOCK,
    }


def test_validate_rejects_unknown_mode_and_keys():
    assert validate_config({"schema_version": 1, "mode": "explode"})
    problems = validate_config(
        {"schema_version": 1, "mode": "synth-data", "dataset": "x",
         "synth": {}, "bogus": 1}
    )
    assert any("bogus" in p for p in problems)
    problems = validate_config(
        {"schema_version": 1, "mode": "synth-data", "dataset": "x",
         "synth": {"n_classes": 4, "mystery": 2}}
    )
    assert any("synth.mystery" in p for p in problems)
    problems = validate_config({"schema_version": 2, "mode": "synth-data",
                                "dataset": "x", "synth": {}})
    assert any("schema_version" in p for p in problems)


def _names(cls, drop=()):
    return [f.name for f in fields(cls) if f.name not in drop]


SSL_CLI_KEYS = {
    "regime": "xts", "position_source": "day_of_year", "max_timesteps": 16,
    "location_token": True, "strategy": "mixed", "decoder": "self_attention",
}


def _block_of(cls, names):
    """A value of each field's type (1 for numbers, a list of ones for a tuple),
    a valid meta algorithm and way count, and a valid value of each CLI-only key."""
    hints = get_type_hints(cls)
    valid = {**SSL_CLI_KEYS, "algorithm": "maml", "n_way": 2}
    return {
        name: valid[name] if name in valid
        else [1] * len(get_args(hints[name])) if get_origin(hints[name]) is tuple
        else {str: "x", list: []}.get(get_origin(hints[name]) or hints[name], 1)
        for name in names
    }


def _main_on(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main(["--config", str(path)])


def test_every_config_field_is_accepted_and_typos_are_rejected():
    cases = [
        ("synth-data", "synth", SynthConfig, _names(SynthConfig)),
        ("pretrain-transfer", "transfer", TransferConfig, _names(TransferConfig)),
        ("pretrain-meta", "meta", MetaConfig, _names(MetaConfig)),
        ("pretrain-ssl", "ssl", SSLConfig,
         _names(SSLConfig, drop=("variant", "plan")) + list(SSL_CLI_KEYS)),
    ]
    for mode, block, cls, names in cases:
        config = {"schema_version": 1, "mode": mode, "dataset": "x",
                  block: _block_of(cls, names)}
        blocks = [(block, names)]
        if mode != "synth-data":
            config["model"] = _block_of(TransformerConfig, _names(TransformerConfig))
            blocks.append(("model", _names(TransformerConfig)))
        assert validate_config(config) == [], mode
        for target, keys in blocks:
            for key in keys:
                typo = key[:-1]
                bad = dict(config, **{target: {
                    (typo if k == key else k): v for k, v in config[target].items()
                }})
                assert f"{target}.{typo}: unknown key" in validate_config(bad)


@pytest.mark.parametrize("mode, blocks, problem", [
    ("pretrain-meta", {"meta": {"n_way": 2}}, "meta.algorithm: required"),
    ("pretrain-meta", {"meta": 5}, "meta: must be an object"),
    ("pretrain-meta", {"meta": {"algorithm": "maml"}, "model": [16]}, "model: must be an object"),
    ("pretrain-meta", {"meta": {"algorithm": "maml"}, "seeds": 5},
     "seeds: must be a list of integers"),
    ("pretrain-meta", {"meta": {"algorithm": "maml"}, "seeds": [0, "1"]},
     "seeds: must be a list of integers"),
    ("tune", {"tune": {"k": 2}}, "tune.space: required"),
    ("evaluate", {"evaluate": {}}, "evaluate.runs: required"),
    ("pretrain-meta", {"meta": {"algorithm": "maml", "inner_steps": "x"}},
     "meta.inner_steps: must be an integer"),
    ("pretrain-meta", {"meta": {"algorithm": "maml"}, "model": {"embed_dim": 16.0}},
     "model.embed_dim: must be an integer"),
    ("pretrain-transfer", {"transfer": {"learning_rate": True}},
     "transfer.learning_rate: must be a number"),
    ("finetune", {"finetune": {"source": "checkpoint"}},
     'finetune.checkpoint: required when source is "checkpoint"'),
    ("tune", {"tune": {"space": {}, "finetune": {"source": "checkpoint"}}},
     'tune.finetune.checkpoint: required when source is "checkpoint"'),
    ("finetune", {"finetune": {"source": "pretrained"}},
     'finetune.source: must be "scratch" or "checkpoint"'),
    ("tune", {"tune": {"space": {}, "finetune": {"sorce": "checkpoint", "validaton_limit": 3}}},
     "tune.finetune.sorce: unknown key"),
    # tune fine-tunes with its own regime and budget, so these keys would be ignored
    *[("tune", {"tune": {"space": {}, "finetune": {key: value}}}, f"tune.finetune.{key}: unknown key")
      for key, value in [("regime", "same_lr"), ("lr_head", 0.1), ("lr_backbone", 0.1),
                         ("kshots", [1]), ("max_epochs", 2), ("batch_size", 8)]],
    ("tune", {"tune": {"space": {}, "finetune": {"validation_limit": "3"}}},
     "tune.finetune.validation_limit: must be an integer"),
    ("tune", {"tune": {"space": {}, "trials": 2.5}}, "tune.trials: must be an integer"),
    ("tune", {"tune": {"space": [], "k": 2}}, "tune.space: must be an object"),
    ("tune", {"tune": {"space": {}, "finetune": 3}}, "tune.finetune: must be an object"),
    ("finetune", {"finetune": {"kshots": "1"}}, "finetune.kshots: must be a list"),
    ("finetune", {"finetune": {"kshots": ["1"]}},
     "finetune.kshots: must be a non-empty list of positive integers"),
    ("finetune", {"finetune": {"kshots": []}},
     "finetune.kshots: must be a non-empty list of positive integers"),
    ("finetune", {"finetune": {"kshots": [0, 2]}},
     "finetune.kshots: must be a non-empty list of positive integers"),
    ("finetune", {"finetune": {"max_epochs": "2"}}, "finetune.max_epochs: must be an integer"),
    ("finetune", {"finetune": {"lr_head": "0.1"}}, "finetune.lr_head: must be a number"),
    ("finetune", {"finetune": {"source": "checkpoint", "checkpoint": 3}},
     "finetune.checkpoint: must be a string"),
    ("evaluate", {"evaluate": {"runs": "runs"}}, "evaluate.runs: must be a list"),
    ("evaluate", {"evaluate": {"runs": [3]}}, "evaluate.runs: must be a list of strings"),
    ("evaluate", {"evaluate": {"runs": [], "plots": True}}, "evaluate.plots: must be a string"),
    ("pretrain-ssl", {"ssl": {"location_token": 1}}, "ssl.location_token: must be a boolean"),
    ("pretrain-ssl", {"ssl": {"max_timesteps": True}}, "ssl.max_timesteps: must be an integer"),
    ("pretrain-ssl", {"ssl": {"decoder": 2}}, "ssl.decoder: must be a string"),
    ("synth-data", {"synth": {"groups": [{"name": "s2", "channels": 3, "bogus": 1}]}},
     "synth.groups[0].bogus: unknown key"),
    ("synth-data", {"synth": {"groups": [{"name": "s2", "channels": "3"}]}},
     "synth.groups[0].channels: must be an integer"),
    ("synth-data", {"synth": {"groups": [{"name": "s2"}]}}, "synth.groups[0].channels: required"),
    ("synth-data", {"synth": {"groups": ["s2"]}}, "synth.groups[0]: must be an object"),
    ("synth-data", {"synth": {"groups": [{"name": "lc", "channels": 5, "categorical": True}]}},
     "synth.groups[0].categorical: unknown key"),
    # element types and lower bounds, checked before any work starts
    ("finetune", {"finetune": {"max_epochs": 0}}, "finetune.max_epochs: must be an integer >= 1"),
    ("finetune", {"finetune": {"batch_size": 0}}, "finetune.batch_size: must be an integer >= 1"),
    ("pretrain-transfer", {"transfer": {"max_epochs": 0}},
     "transfer.max_epochs: must be an integer >= 1"),
    ("pretrain-transfer", {"transfer": {"batch_size": 0}},
     "transfer.batch_size: must be an integer >= 1"),
    ("pretrain-meta", {"meta": {"algorithm": "maml", "validate_every": 0}},
     "meta.validate_every: must be an integer >= 1"),
    ("pretrain-ssl", {"ssl": {"batch_size": 0}}, "ssl.batch_size: must be an integer >= 1"),
    ("synth-data", {"synth": {"obs_count": ["a", "b"]}}, "synth.obs_count: must be a list of 2 integers"),
    ("synth-data", {"synth": {"obs_count": [5]}}, "synth.obs_count: must be a list of 2 integers"),
    ("synth-data", {"synth": {"obs_count": [9, 5]}},
     "synth.obs_count: must satisfy 1 <= low <= high, got [9, 5]"),
    ("synth-data", {"synth": {"obs_count": [0, 0]}},
     "synth.obs_count: must satisfy 1 <= low <= high, got [0, 0]"),
    ("synth-data", {"synth": {"regions": [1, 2]}}, "synth.regions: must be a list of strings"),
    ("tune", {"tune": {"space": {"lr_head": 5}}}, "tune.space.lr_head: must be a list"),
    # tune's regime takes the same three values as finetune's
    ("tune", {"tune": {"space": {}, "regime": "bogus"}},
     'tune.regime: must be "same_lr" or "split_lr" or "head_only"'),
    ("tune", {"tune": {"space": {"lr_head": []}}}, "tune.space.lr_head: must be a non-empty list"),
    # top-level paths and names are strings
    ("pretrain-transfer", {"dataset": 5}, "dataset: must be a string"),
    ("synth-data", {"synth": {}, "out": 5}, "out: must be a string"),
    ("pretrain-meta", {"meta": {"algorithm": "maml"}, "label": 5}, "label: must be a string"),
    # 0 is no default for the validation limit, and patience counts validations
    *[(mode, blocks, f"{path}: must be an integer >= 1") for value in (0, -1)
      for mode, blocks, path in [
          ("finetune", {"finetune": {"validation_limit": value}}, "finetune.validation_limit"),
          ("tune", {"tune": {"space": {}, "finetune": {"validation_limit": value}}},
           "tune.finetune.validation_limit"),
          ("pretrain-transfer", {"transfer": {"patience": value}}, "transfer.patience"),
          ("pretrain-ssl", {"ssl": {"patience": value}}, "ssl.patience"),
      ]],
    # the ssl block's choices are checked before the corpus loads
    ("pretrain-ssl", {"ssl": {"regime": "bogus"}}, 'ssl.regime: must be "presto" or "xts"'),
    ("pretrain-ssl", {"ssl": {"decoder": "bogus"}},
     'ssl.decoder: must be "self_attention" or "cross_attention"'),
    ("pretrain-ssl", {"ssl": {"position_source": "bogus"}},
     'ssl.position_source: must be "ordinal" or "day_of_year"'),
    ("pretrain-ssl", {"ssl": {"strategy": "bogus"}},
     'ssl.strategy: must be "random" or "channel_groups" or "contiguous_timesteps" or '
     '"random_timesteps" or "mixed"'),
    ("pretrain-ssl", {"ssl": {"max_timesteps": 0}}, "ssl.max_timesteps: must be an integer >= 1"),
    # meta's episode and validation counts (0 validation tasks wrote nan rows)
    *[("pretrain-meta", {"meta": {"algorithm": "maml", key: value}}, f"meta.{key}: {problem}")
      for key, value, problem in [
          ("validation_tasks", 0, "must be an integer >= 1"),
          ("k_support", 0, "must be an integer >= 1"),
          ("k_query", 0, "must be an integer >= 1"),
          ("n_way", 1, "must be an integer >= 2"),
          ("total_tasks", -4, "must be an integer >= 0"),
      ]],
    # a group kind or channel count that the corpus loader would reject later
    ("synth-data", {"synth": {"groups": [{"name": "s2", "channels": 3},
                                         {"name": "s1", "channels": 2, "kind": "dinamic"}]}},
     'synth.groups[1].kind: must be "dynamic" or "static"'),
    ("synth-data", {"synth": {"groups": [{"name": "s2", "channels": 0}]}},
     "synth.groups[0].channels: must be an integer >= 1"),
])
def test_bad_config_shapes_exit_with_contract_error(tmp_path, capsys, mode, blocks, problem):
    config = {"schema_version": 1, "mode": mode, "dataset": "x",
              "out": str(tmp_path / "runs"), **blocks}
    assert problem in validate_config(config)
    assert _main_on(tmp_path, config) == 1
    err = capsys.readouterr().err
    assert "ContractError" in err and problem in err


@pytest.mark.parametrize("below_file", [False, True], ids=["is_a_file", "under_a_file"])
def test_out_path_that_cannot_be_a_directory_is_a_contract_error(tmp_path, capsys, below_file):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "runs" if below_file else blocker
    config = {"schema_version": 1, "mode": "synth-data", "dataset": str(tmp_path / "c.jsonl"),
              "out": str(out), "synth": {}}
    assert _main_on(tmp_path, config) == 1
    err = capsys.readouterr().err
    assert "ContractError" in err and f"out: cannot create directory {out}" in err


def test_shipped_configs_are_valid():
    paths = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
    assert paths
    for path in paths:
        assert validate_config(json.loads(path.read_text())) == [], path.name


@pytest.mark.parametrize("value", ["two", "0"])
def test_bad_fsml_threads_is_a_contract_error(tmp_path, monkeypatch, value):
    monkeypatch.setenv("FSML_THREADS", value)
    config = {"schema_version": 1, "mode": "finetune", "dataset": str(tmp_path / "x.jsonl"),
              "out": str(tmp_path / "runs"), "seeds": [0], "finetune": {}}
    with pytest.raises(ContractError, match="FSML_THREADS"):
        run(config)


def test_missing_dataset_exits_with_its_path(tmp_path, capsys):
    dataset = tmp_path / "absent.jsonl"
    config = {"schema_version": 1, "mode": "pretrain-transfer", "dataset": str(dataset),
              "out": str(tmp_path / "runs"), "seeds": [0]}
    assert _main_on(tmp_path, config) == 1
    assert str(dataset) in capsys.readouterr().err


@pytest.mark.parametrize("corrupt, error", [
    (lambda record: record.update(days="abc"), "ParseError"),
    (lambda record: record.update(lon="x"), "ParseError"),
    (lambda record: record.update(channels=[1, 2]), "ParseError"),
    (lambda record: record["channels"].clear(), "ValidationError"),
    (lambda record: record.update(days=[], channels={}), "ValidationError"),
    (None, "ParseError"),  # malformed manifest
])
def test_corrupt_dataset_exits_with_typed_error(tmp_path, capsys, corrupt, error):
    dataset = tmp_path / "corpus.jsonl"
    run(synth_config(dataset, tmp_path / "runs"))
    if corrupt is None:
        dataset.with_name("corpus.manifest.json").write_text("{not json")
    else:
        first, rest = dataset.read_text().split("\n", 1)
        record = json.loads(first)
        corrupt(record)
        dataset.write_text(json.dumps(record) + "\n" + rest)
    config = {"schema_version": 1, "mode": "pretrain-transfer", "dataset": str(dataset),
              "out": str(tmp_path / "runs"), "seeds": [0]}
    assert _main_on(tmp_path, config) == 1
    assert f"error [{error}]" in capsys.readouterr().err


def test_missing_checkpoint_exits_with_its_path(tmp_path, capsys):
    dataset = tmp_path / "corpus.jsonl"
    run(synth_config(dataset, tmp_path / "runs"))
    checkpoint = tmp_path / "absent.fsml"
    config = {"schema_version": 1, "mode": "finetune", "dataset": str(dataset),
              "out": str(tmp_path / "runs"), "seeds": [0],
              "finetune": {"source": "checkpoint", "checkpoint": str(checkpoint)}}
    assert _main_on(tmp_path, config) == 1
    assert str(checkpoint) in capsys.readouterr().err


def _finetune_config(dataset, out, **finetune):
    return {"schema_version": 1, "mode": "finetune", "dataset": str(dataset), "out": str(out),
            "seeds": [0], "model": MODEL_BLOCK,
            "finetune": {"kshots": [1], "max_epochs": 1, **finetune}}


def test_checkpoint_without_pretraining_metadata_is_a_contract_error(tmp_path, capsys):
    """A fine-tune output holds no model metadata, so it cannot seed a fine-tune."""
    dataset, out = tmp_path / "corpus.jsonl", tmp_path / "runs"
    run(synth_config(dataset, out))
    scratch = _finetune_config(dataset, out)
    run(scratch)
    checkpoint = out / config_hash(scratch) / "0" / "checkpoints" / "no_pretraining_k1.fsml"
    config = _finetune_config(dataset, out, source="checkpoint", checkpoint=str(checkpoint))
    assert _main_on(tmp_path, config) == 1
    err = capsys.readouterr().err
    assert "error [ContractError]" in err and str(checkpoint) in err
    assert "'model'" in err and "'kind'" in err


@pytest.mark.parametrize("meta, problem", [
    ({"model": "{not json", "in_channels": "3"}, "bad 'model' metadata"),
    ({"model": json.dumps({**MODEL_BLOCK, "bogus": 1}), "in_channels": "3"},
     "bad 'model' metadata"),
    ({"model": json.dumps(MODEL_BLOCK), "in_channels": "3.5"},
     "in_channels: must be an integer"),
], ids=["model-not-json", "model-unknown-key", "in-channels-not-integer"])
def test_bad_checkpoint_metadata_is_a_parse_error_naming_it(tmp_path, capsys, meta, problem):
    dataset, out = tmp_path / "corpus.jsonl", tmp_path / "runs"
    run(synth_config(dataset, out))
    checkpoint = tmp_path / "bad.fsml"
    save_checkpoint(checkpoint, {"backbone/proj/w": np.zeros((3, 16))}, {"kind": "raw", **meta})
    config = _finetune_config(dataset, out, source="checkpoint", checkpoint=str(checkpoint))
    assert _main_on(tmp_path, config) == 1
    err = capsys.readouterr().err
    assert "error [ParseError]" in err and str(checkpoint) in err and problem in err


@pytest.mark.parametrize("content, problem", [
    ('{"label": "scratch", "k": 1, "overall_acc', "not valid JSON"),
    (json.dumps({"k": 1, "overall_accuracy": 0.5}), "label: required"),
    (json.dumps({"label": "scratch", "overall_accuracy": 0.5}), "k: required"),
    (json.dumps({"label": "scratch", "k": 1}), "overall_accuracy: required"),
], ids=["truncated", "no-label", "no-k", "no-overall-accuracy"])
def test_bad_report_is_a_parse_error_naming_it(tmp_path, capsys, content, problem):
    report = tmp_path / "runs" / "0" / "reports" / "scratch_k1.json"
    report.parent.mkdir(parents=True)
    report.write_text(content)
    config = {"schema_version": 1, "mode": "evaluate", "out": str(tmp_path / "out"),
              "evaluate": {"runs": [str(tmp_path / "runs")]}}
    assert _main_on(tmp_path, config) == 1
    err = capsys.readouterr().err
    assert "error [ParseError]" in err and str(report) in err and problem in err


def _model_metadata(**sizes):
    return {"model": json.dumps({**MODEL_BLOCK, **sizes})}


def _token_metadata(spec):
    regime = EncodingRegime("xts", MODEL_BLOCK["embed_dim"], "day_of_year", 366)
    return {"kind": "tokens", "regime": json.dumps(asdict(regime)), "spec": json.dumps(spec)}


# Each probe corrupts the metadata and arrays of a valid raw checkpoint, or the
# manifest, then runs a fine-tune that reads it.
@pytest.mark.parametrize("target, corrupt, problem", [
    ("checkpoint", lambda meta, _: meta.update(_model_metadata(embed_dim=16.0)),
     "bad 'model' metadata: model.embed_dim: must be an integer"),
    ("checkpoint", lambda meta, _: meta.update(_model_metadata(embed_dim=0)),
     "bad 'model' metadata: model.embed_dim: must be an integer >= 1"),
    ("checkpoint", lambda meta, _: meta.update(_token_metadata(5)),
     "bad 'spec' metadata: spec: must be a list"),
    ("checkpoint", lambda meta, _: meta.update(_token_metadata([{"name": "s2", "channels": "4"}])),
     "bad 'spec' metadata: spec[0].channels: must be an integer"),
    ("checkpoint", lambda _, arrays: arrays.pop("backbone/enc0/attn/k/w"),
     "backbone/enc0/attn/k/w: missing"),
    ("checkpoint", lambda _, arrays: arrays.update({"backbone/in/w": np.zeros((4, 16))}),
     "backbone/in/w: has shape (4, 16), the model needs (3, 16)"),
    ("manifest", lambda manifest: manifest["split_fractions"].update(pretrain=[0.8, 0.2]),
     "split_fractions.pretrain: must be an object"),
    ("manifest", lambda manifest: manifest["split_fractions"]["finetune"].update(train="0.6"),
     "split_fractions.finetune.train: must be a number"),
    ("manifest", lambda manifest: manifest.update(bogus=1), "bogus: unknown key"),
], ids=["model-float-dim", "model-zero-dim", "spec-not-list", "spec-string-channels",
        "backbone-missing", "backbone-misshaped", "fractions-list", "fraction-string",
        "manifest-unknown-key"])
def test_mistyped_lab_file_is_a_parse_error_naming_it_and_the_key(tmp_path, capsys, target,
                                                                   corrupt, problem):
    dataset, out = tmp_path / "corpus.jsonl", tmp_path / "runs"
    run(synth_config(dataset, out))
    if target == "manifest":
        bad = dataset.with_name("corpus.manifest.json")
        manifest = json.loads(bad.read_text())
        corrupt(manifest)
        bad.write_text(json.dumps(manifest))
        config = _finetune_config(dataset, out)
    else:
        bad = tmp_path / "bad.fsml"
        model = RawSeriesModel(TransformerConfig(**MODEL_BLOCK), 3, ("s2",))
        backbone = model.init_backbone(np.random.default_rng(0))
        arrays = {f"backbone/{k}": v.values for k, v in backbone.items()}
        meta = {"kind": "raw", "model": json.dumps(MODEL_BLOCK), "in_channels": "3"}
        corrupt(meta, arrays)
        save_checkpoint(bad, arrays, meta)
        config = _finetune_config(dataset, out, source="checkpoint", checkpoint=str(bad))
    assert _main_on(tmp_path, config) == 1
    err = capsys.readouterr().err
    assert "error [ParseError]" in err and str(bad) in err and problem in err


def test_checkpoint_with_attention_key_bias_finetunes_the_same(tmp_path):
    """Checkpoints written while attention keys had a bias carry ``*/attn/k/b``;
    fine-tuning drops it and reports what it reports without it."""
    dataset, out = tmp_path / "corpus.jsonl", tmp_path / "runs"
    run(synth_config(dataset, out))
    transfer = {"schema_version": 1, "mode": "pretrain-transfer", "dataset": str(dataset),
                "out": str(out), "seeds": [0], "model": MODEL_BLOCK,
                "transfer": {"batch_size": 64, "max_epochs": 1}}
    checkpoint = next(a for a in run(transfer) if a.endswith(".fsml"))
    arrays, meta = load_checkpoint(checkpoint)
    assert not [k for k in arrays if k.endswith("/attn/k/b")]
    legacy = tmp_path / "legacy.fsml"
    bias = np.random.default_rng(0).standard_normal(MODEL_BLOCK["embed_dim"])
    save_checkpoint(legacy, {**arrays, "backbone/enc0/attn/k/b": bias}, meta)
    reports = []
    for path in (checkpoint, legacy):
        config = _finetune_config(dataset, out, source="checkpoint", checkpoint=str(path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(config)
        assert not [w for w in caught if "unreached leaf" in str(w.message)]
        report = out / config_hash(config) / "0" / "reports" / "transfer_k1.json"
        reports.append(json.loads(report.read_text()))
        del reports[-1]["config_hash"]
    assert reports[0] == reports[1]


def test_manifest_categorical_key_loads_only_when_false(tmp_path, capsys):
    """Manifests written before categorical groups were removed say
    ``"categorical": false`` and still load; ``true`` is a ParseError."""
    dataset = tmp_path / "corpus.jsonl"
    run(synth_config(dataset, tmp_path / "runs"))
    expected = load_corpus(dataset)
    mpath = dataset.with_name("corpus.manifest.json")
    manifest = json.loads(mpath.read_text())
    manifest["groups"][0]["categorical"] = False
    mpath.write_text(json.dumps(manifest))
    assert load_corpus(dataset).manifest == expected.manifest
    manifest["groups"][0]["categorical"] = True
    mpath.write_text(json.dumps(manifest))
    config = {"schema_version": 1, "mode": "pretrain-transfer", "dataset": str(dataset),
              "out": str(tmp_path / "runs"), "seeds": [0]}
    assert _main_on(tmp_path, config) == 1
    err = capsys.readouterr().err
    assert "error [ParseError]" in err and str(mpath) in err and "'s2'" in err


def test_unknown_mode_exits_nonzero(tmp_path):
    config = {"schema_version": 1, "mode": "bogus"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) != 0


def test_missing_config_file_exits_nonzero(tmp_path):
    assert main(["--config", str(tmp_path / "absent.json")]) == 2


def test_config_hash_is_stable_and_order_insensitive():
    a = {"mode": "synth-data", "schema_version": 1}
    b = {"schema_version": 1, "mode": "synth-data"}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12


def test_pipeline_synth_pretrain_finetune(tmp_path):
    dataset = tmp_path / "corpus.jsonl"
    out = tmp_path / "runs"
    assert main_config(synth_config(dataset, out)) == [str(dataset)]
    assert dataset.exists()

    transfer_config = {
        "schema_version": 1,
        "mode": "pretrain-transfer",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0],
        "model": MODEL_BLOCK,
        "transfer": {"learning_rate": 3e-3, "batch_size": 64, "max_epochs": 4, "patience": 3},
    }
    artifacts = run(transfer_config)
    ckpt = [a for a in artifacts if a.endswith(".fsml")]
    assert len(ckpt) == 1 and Path(ckpt[0]).exists()

    finetune_config = {
        "schema_version": 1,
        "mode": "finetune",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0, 1],
        "label": "transfer",
        "model": MODEL_BLOCK,
        "finetune": {
            "source": "checkpoint",
            "checkpoint": ckpt[0],
            "regime": "same_lr",
            "lr_head": 1e-3,
            "lr_backbone": 1e-3,
            "kshots": [1, 5],
            "max_epochs": 2,
        },
    }
    artifacts = run(finetune_config)
    results = Path(artifacts[0])
    assert results.exists()
    text = results.read_text()
    assert "transfer" in text and "k1" in text and "k5" in text

    chash = config_hash(finetune_config)
    for seed in (0, 1):
        seed_dir = out / chash / str(seed)
        assert (seed_dir / "reports" / "transfer_k1.json").exists()
        assert (seed_dir / "traces" / "transfer_k5.csv").exists()
        assert (seed_dir / "checkpoints" / "transfer_k5.fsml").exists()
        payload = json.loads((seed_dir / "reports" / "transfer_k1.json").read_text())
        assert payload["config_hash"] == chash
        assert payload["seed"] == seed


def main_config(config):
    return run(config)


def test_rerun_is_byte_identical(tmp_path):
    dataset = tmp_path / "corpus.jsonl"
    out = tmp_path / "runs"
    run(synth_config(dataset, out))

    finetune_config = {
        "schema_version": 1,
        "mode": "finetune",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0],
        "model": MODEL_BLOCK,
        "finetune": {"source": "scratch", "kshots": [2], "max_epochs": 2,
                     "regime": "same_lr", "lr_head": 1e-3, "lr_backbone": 1e-3},
    }
    first = Path(run(finetune_config)[0])
    snapshot = first.read_bytes()
    chash = config_hash(finetune_config)
    report = out / chash / "0" / "reports" / "no_pretraining_k2.json"
    trace = out / chash / "0" / "traces" / "no_pretraining_k2.csv"
    ckpt = out / chash / "0" / "checkpoints" / "no_pretraining_k2.fsml"
    report_bytes, trace_bytes, ckpt_bytes = (
        report.read_bytes(), trace.read_bytes(), ckpt.read_bytes(),
    )
    second = Path(run(finetune_config)[0])
    assert second.read_bytes() == snapshot
    assert report.read_bytes() == report_bytes
    assert trace.read_bytes() == trace_bytes
    assert ckpt.read_bytes() == ckpt_bytes


def test_synth_rerun_byte_identical_dataset(tmp_path):
    dataset = tmp_path / "corpus.jsonl"
    out = tmp_path / "runs"
    config = synth_config(dataset, out)
    run(config)
    first = dataset.read_bytes()
    run(config)
    assert dataset.read_bytes() == first


def test_results_csv_cells_are_mean_and_sample_std(tmp_path):
    five = [0.21, 0.35, 0.5, 0.62, 0.93]
    mean = sum(five) / 5
    std = (sum((x - mean) ** 2 for x in five) / 4) ** 0.5
    rows = [("maml", {1: [0.4, 0.6], 5: five, 20: [0.5, 0.5, 0.5], 100: [0.7]})]
    path = _write_results_csv(tmp_path / "results.csv", rows, [1, 5, 20, 100], "abc")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ["# config=abc", "algorithm,k1,k5,k20,k100"]
    assert lines[2] == (
        f"maml,0.500000±0.141421,{mean:.6f}±{std:.6f},0.500000±0.000000,0.700000±0.000000"
    )


def test_emit_plots_shapes_and_equality(tmp_path):
    results = tmp_path / "results.csv"
    results.write_text(
        "# config=abc\n"
        "algorithm,k1,k5,k10,k20,k100,k200,k500\n"
        "maml,0.1±0.01,0.2±0.01,0.3±0.02,0.4±0.0,0.5±0.0,0.6±0.0,0.7±0.0\n"
        "transfer,0.2±0.01,0.3±0.01,0.4±0.02,0.5±0.0,0.6±0.0,0.7±0.0,0.8±0.0\n"
    )
    written = emit_plots(results, tmp_path / "plots")
    assert len(written) == 2
    for path in written:
        rows = Path(path).read_text().strip().splitlines()
        assert rows[0] == "k,mean,std"
        assert len(rows) == 8  # 7 k values
    maml = Path(written[0]).read_text().splitlines()
    assert maml[1].split(",")[1] == "0.1"


def test_emit_plots_empty_results_warns(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("")
    assert emit_plots(results, tmp_path / "plots") == []
    assert "warning" in capsys.readouterr().err


def test_emit_plots_malformed_row_cites_row_number(tmp_path):
    results = tmp_path / "results.csv"
    results.write_text("algorithm,k1\nmaml,0.1±0.01,EXTRA\n")
    with pytest.raises(ParseError, match="row 2"):
        emit_plots(results, tmp_path / "plots")


def test_evaluate_merges_runs(tmp_path):
    dataset = tmp_path / "corpus.jsonl"
    out = tmp_path / "runs"
    run(synth_config(dataset, out))
    finetune_config = {
        "schema_version": 1,
        "mode": "finetune",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0, 1],
        "label": "scratch",
        "model": MODEL_BLOCK,
        "finetune": {"source": "scratch", "kshots": [1], "max_epochs": 1,
                     "regime": "head_only", "lr_head": 1e-2, "lr_backbone": 0.0},
    }
    run(finetune_config)
    chash = config_hash(finetune_config)
    eval_config = {
        "schema_version": 1,
        "mode": "evaluate",
        "out": str(out),
        "evaluate": {
            "runs": [str(out / chash)],
            "out_csv": str(tmp_path / "merged.csv"),
            "plots": str(tmp_path / "plots"),
        },
    }
    artifacts = run(eval_config)
    merged = Path(artifacts[0]).read_text()
    assert "scratch" in merged and "k1" in merged
    assert (tmp_path / "plots" / "accuracy_vs_k_scratch.csv").exists()


def test_tune_mode_writes_log_and_best(tmp_path):
    dataset = tmp_path / "corpus.jsonl"
    out = tmp_path / "runs"
    run(synth_config(dataset, out))
    tune_config = {
        "schema_version": 1,
        "mode": "tune",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0],
        "model": MODEL_BLOCK,
        "tune": {
            "finetune": {"source": "scratch"},
            "space": {"lr_head": [1e-4, 1e-1]},
            "trials": 2,
            "k": 2,
            "regime": "head_only",
            "max_epochs": 2,
        },
    }
    artifacts = run(tune_config)
    assert any(a.endswith("tuning_log.csv") for a in artifacts)
    best = json.loads(Path([a for a in artifacts if a.endswith("best_config.json")][0]).read_text())
    assert "lr_head" in best["best"]


def test_parallel_seed_fanout_matches_sequential(tmp_path, monkeypatch):
    dataset = tmp_path / "corpus.jsonl"
    out = tmp_path / "runs"
    run(synth_config(dataset, tmp_path / "unused"))
    config = {
        "schema_version": 1,
        "mode": "finetune",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0, 1],
        "model": MODEL_BLOCK,
        "finetune": {"source": "scratch", "kshots": [2], "max_epochs": 2,
                     "regime": "same_lr", "lr_head": 1e-3, "lr_backbone": 1e-3},
    }
    monkeypatch.setenv("FSML_THREADS", "1")
    run(config)
    snapshot = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    monkeypatch.setenv("FSML_THREADS", "2")
    run(config)
    rerun = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert snapshot.keys() == rerun.keys()
    for name, blob in snapshot.items():
        assert rerun[name] == blob, f"{name} differs between sequential and parallel runs"


def test_finetune_loads_the_corpus_once_for_all_seeds(tmp_path, monkeypatch):
    dataset = tmp_path / "corpus.jsonl"
    run(synth_config(dataset, tmp_path / "unused"))
    loads = []
    real_load = cli_mod.load_corpus

    def counting_load(path):
        loads.append(path)
        return real_load(path)

    monkeypatch.setattr(cli_mod, "load_corpus", counting_load)
    monkeypatch.setenv("FSML_THREADS", "1")
    run({
        "schema_version": 1,
        "mode": "finetune",
        "dataset": str(dataset),
        "out": str(tmp_path / "runs"),
        "seeds": [0, 1],
        "model": MODEL_BLOCK,
        "finetune": {"source": "scratch", "kshots": [2], "max_epochs": 1},
    })
    assert loads == [str(dataset)]


def test_pipeline_ssl_checkpoint_finetunes(tmp_path):
    dataset = tmp_path / "corpus.jsonl"
    out = tmp_path / "runs"
    synth = synth_config(dataset, out)
    synth["synth"]["groups"] = [
        {"name": "s1", "channels": 2, "kind": "dynamic"},
        {"name": "s2", "channels": 3, "kind": "dynamic"},
    ]
    run(synth)
    ssl_config = {
        "schema_version": 1,
        "mode": "pretrain-ssl",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0],
        "model": {"embed_dim": 16, "num_heads": 2, "hidden_dim": 32, "decoder_blocks": 1},
        "ssl": {"regime": "xts", "max_timesteps": 16, "decoder": "cross_attention",
                "learning_rate": 3e-3, "batch_size": 16, "validate_every": 2,
                "max_batches": 4},
    }
    artifacts = run(ssl_config)
    ckpt = [a for a in artifacts if a.endswith(".fsml")][0]
    finetune_config = {
        "schema_version": 1,
        "mode": "finetune",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0],
        "label": "ssl",
        "model": {"embed_dim": 16, "num_heads": 2, "hidden_dim": 32},
        "finetune": {"source": "checkpoint", "checkpoint": ckpt,
                     "regime": "split_lr", "lr_head": 1e-3, "lr_backbone": 1e-4,
                     "kshots": [2], "max_epochs": 2},
    }
    results = Path(run(finetune_config)[0])
    assert "ssl" in results.read_text()


def test_pipeline_timl_checkpoint_finetunes(tmp_path):
    dataset = tmp_path / "corpus.jsonl"
    out = tmp_path / "runs"
    run(synth_config(dataset, out))
    meta_config = {
        "schema_version": 1,
        "mode": "pretrain-meta",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0],
        "model": MODEL_BLOCK,
        "meta": {"algorithm": "timl_noenc", "inner_lr": 0.5, "outer_lr": 0.01,
                 "inner_steps": 1, "n_way": 2, "k_support": 1, "k_query": 1,
                 "tasks_per_batch": 2, "total_tasks": 4, "validate_every": 4,
                 "validation_tasks": 3},
    }
    artifacts = run(meta_config)
    ckpt = [a for a in artifacts if a.endswith(".fsml")][0]
    finetune_config = {
        "schema_version": 1,
        "mode": "finetune",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0],
        "label": "timl_noenc",
        "model": MODEL_BLOCK,
        "finetune": {"source": "checkpoint", "checkpoint": ckpt,
                     "regime": "head_only", "lr_head": 1e-2, "lr_backbone": 0.0,
                     "kshots": [2], "max_epochs": 2},
    }
    results = Path(run(finetune_config)[0])
    assert "timl_noenc" in results.read_text()


def test_runner_never_mutates_dataset(tmp_path):
    dataset = tmp_path / "corpus.jsonl"
    out = tmp_path / "runs"
    run(synth_config(dataset, out))
    before = dataset.read_bytes()
    finetune_config = {
        "schema_version": 1,
        "mode": "finetune",
        "dataset": str(dataset),
        "out": str(out),
        "seeds": [0],
        "model": MODEL_BLOCK,
        "finetune": {"source": "scratch", "kshots": [1], "max_epochs": 1,
                     "regime": "head_only", "lr_head": 1e-2, "lr_backbone": 0.0},
    }
    run(finetune_config)
    assert dataset.read_bytes() == before
