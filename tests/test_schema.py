import json
import os
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from fsml import schema
from fsml.data import GroupSpec, SynthConfig, generate_synthetic, load_corpus, save_corpus
from fsml.errors import ContractError, ParseError
from fsml.nn import TransformerConfig, save_checkpoint
from fsml.tokens import EncodingRegime


def test_what_the_lab_writes_reads_back_equal(tmp_path):
    """The manifest as ``save_corpus`` writes it, and the group, model and
    regime metadata as a pretrain checkpoint stores them, read back equal."""
    groups = [GroupSpec("location", 3, "static"), GroupSpec("s2", 4), GroupSpec("s1", 2)]
    corpus = generate_synthetic(SynthConfig(groups=groups, samples_per_class=20,
                                            finetune_samples_per_class=20), seed=0)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path).manifest == corpus.manifest
    model = TransformerConfig(24, 4, 48, 2, 1, 30)
    for value in (model, EncodingRegime("presto", 16, "ordinal", 24), *groups):
        assert schema.parse(json.loads(json.dumps(asdict(value))), type(value), "metadata") == value
    spec = json.loads(json.dumps([asdict(g) for g in groups]))
    assert schema.parse(spec, list[GroupSpec], "metadata") == groups


def _saved_corpus(tmp_path):
    corpus = generate_synthetic(SynthConfig(samples_per_class=20, finetune_samples_per_class=20),
                                seed=0)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    return corpus, path


def test_a_write_that_fails_midway_leaves_the_old_file(tmp_path):
    """A sample that cannot be serialized stops ``save_corpus`` after earlier
    lines went out: the old corpus stays byte-identical, no temporary remains."""
    corpus, path = _saved_corpus(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    late = replace(corpus.samples[-1], region=object())
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_corpus(replace(corpus, samples=[*corpus.samples[:-1], late]), path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_failed_replace_is_a_contract_error_naming_the_path(tmp_path, monkeypatch):
    arrays = {"w": np.arange(6.0).reshape(2, 3)}
    path = tmp_path / "run.fsml"
    save_checkpoint(path, arrays, {"seed": "0"})
    before = path.read_bytes()

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(ContractError, match=f"cannot write {str(path)!r}: Permission denied"):
        save_checkpoint(path, {"w": np.zeros(2)}, {"seed": "1"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.fsml"]


def test_writing_is_the_only_writer():
    """Every artifact goes through ``schema.writing``: no other module opens a
    file to write, or writes one whole through ``pathlib``."""
    src = Path(schema.__file__).parent
    write = re.compile(r"""\bopen\([^)]*["'][wax+]|\.write_(text|bytes)\(""")
    found = [f"{path.name}:{no}" for path in sorted(src.glob("*.py"))
             for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if write.search(line)]
    assert len(found) == 1 and found[0].startswith("schema.py:"), found


@pytest.mark.parametrize("text, value", [
    (b'{"a": [1, 2.5]}', {"a": [1, 2.5]}),
    (b'\xef\xbb\xbf{"a": 1}', {"a": 1}),
    ('{"a": "é"}'.encode("utf-16"), {"a": "é"}),
    ('{"a": "é"}'.encode("utf-16-le"), {"a": "é"}),
    (b"[1e999, 1e-400]", [float("inf"), 0.0]),
    ('{"b": null, "a": true}', {"b": None, "a": True}),
], ids=["utf-8", "utf-8-bom", "utf-16-bom", "utf-16-le", "out-of-range-floats", "str"])
def test_decode_reads_what_json_reads(text, value):
    assert schema.decode(text, "where") == value


@pytest.mark.parametrize("text, problem", [
    ('\ufeff{"a": 1}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("NaN", "non-finite number NaN"),
    (b"[Infinity]", "non-finite number Infinity"),
    ('{"a": -Infinity}', "non-finite number -Infinity"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("", "Expecting value: line 1 column 1 (char 0)"),
    ("[1,]", "Expecting value: line 1 column 4 (char 3)"),
], ids=["str-bom", "nan", "infinity", "minus-infinity", "latin-1", "empty", "trailing-comma"])
def test_decode_names_what_is_not_json(text, problem):
    with pytest.raises(ParseError) as info:
        schema.decode(text, "where")
    assert str(info.value) == f"where: not valid JSON: {problem}"
