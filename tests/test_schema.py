import json
from dataclasses import asdict

from fsml import schema
from fsml.data import GroupSpec, SynthConfig, generate_synthetic, load_corpus, save_corpus
from fsml.nn import TransformerConfig
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
