import json
from dataclasses import fields
from pathlib import Path

import pytest

from fsml.cli import config_hash, emit_plots, main, run, validate_config
from fsml.data import SynthConfig
from fsml.errors import ContractError, ParseError
from fsml.meta import MetaConfig
from fsml.nn import TransformerConfig
from fsml.ssl import SSLConfig
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


def _main_on(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main(["--config", str(path)])


def test_every_config_field_is_accepted_and_typos_are_rejected():
    ssl_cli_keys = [
        "regime", "position_source", "max_timesteps", "location_token", "strategy", "decoder",
    ]
    cases = [
        ("synth-data", "synth", _names(SynthConfig)),
        ("pretrain-transfer", "transfer", _names(TransferConfig)),
        ("pretrain-meta", "meta", _names(MetaConfig)),
        ("pretrain-ssl", "ssl", _names(SSLConfig, drop=("variant", "plan")) + ssl_cli_keys),
    ]
    for mode, block, names in cases:
        config = {"schema_version": 1, "mode": mode, "dataset": "x",
                  block: dict.fromkeys(names, 1)}
        blocks = [(block, names)]
        if mode != "synth-data":
            config["model"] = dict.fromkeys(_names(TransformerConfig), 1)
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
])
def test_bad_config_shapes_exit_with_contract_error(tmp_path, capsys, mode, blocks, problem):
    config = {"schema_version": 1, "mode": mode, "dataset": "x",
              "out": str(tmp_path / "runs"), **blocks}
    assert problem in validate_config(config)
    assert _main_on(tmp_path, config) == 1
    err = capsys.readouterr().err
    assert "ContractError" in err and problem in err


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


def test_missing_checkpoint_exits_with_its_path(tmp_path, capsys):
    dataset = tmp_path / "corpus.jsonl"
    run(synth_config(dataset, tmp_path / "runs"))
    checkpoint = tmp_path / "absent.fsml"
    config = {"schema_version": 1, "mode": "finetune", "dataset": str(dataset),
              "out": str(tmp_path / "runs"), "seeds": [0],
              "finetune": {"source": "checkpoint", "checkpoint": str(checkpoint)}}
    assert _main_on(tmp_path, config) == 1
    assert str(checkpoint) in capsys.readouterr().err


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
