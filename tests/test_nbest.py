"""N-best list parsing, annotation, and hypothesis scoring."""

import itertools

import numpy as np
import pytest

from cjlm.corpus import extract_samples, AlignedSentencePair
from cjlm.encoder import ARCHS, FUSIONS
from cjlm.errors import ConfigError, CorpusError, ParseError
from cjlm.nbest import (
    DEFAULT_FEATURE_NAME,
    format_annotated_line,
    hypothesis_log_prob,
    parse_nbest_line,
    score_nbest,
)

from oracles import reference_log_probs
from test_serialization import make_artifact

LINE = "0 ||| the cat sat ||| 0-0 1-1 2-2 ||| lm= -4.1 tm= -2.0 ||| -12.5"


def test_parse_fields():
    entry = parse_nbest_line(LINE)
    assert entry.sentence_id == 0
    assert entry.tokens == ("the", "cat", "sat")
    assert entry.raw_fields[4] == " -12.5"


def test_parse_flips_alignment_orientation():
    # The alignment field pairs hypothesis positions with source positions;
    # internally links are (source, target).
    entry = parse_nbest_line("3 ||| a b ||| 0-1 1-0 ||| f= 1 ||| 0")
    assert entry.alignment == frozenset({(1, 0), (0, 1)})


def test_parse_empty_alignment_field():
    entry = parse_nbest_line("1 ||| a b |||  ||| f= 1 ||| 0")
    assert entry.alignment is None


def test_parse_errors():
    with pytest.raises(ParseError, match="5 .*fields, got 3"):
        parse_nbest_line("0 ||| a ||| b")
    with pytest.raises(ParseError, match="not an integer"):
        parse_nbest_line("x ||| a ||| ||| f ||| 0")
    with pytest.raises(ParseError, match="negative"):
        parse_nbest_line("-2 ||| a ||| ||| f ||| 0")


def test_format_appends_feature_and_keeps_fields():
    entry = parse_nbest_line(LINE)
    out = format_annotated_line(entry, "JLM", -7.25)
    fields = out.split("|||")
    original = LINE.split("|||")
    assert fields[0] == original[0]
    assert fields[1] == original[1]
    assert fields[2] == original[2]
    assert fields[4] == original[4]
    assert fields[3] == " lm= -4.1 tm= -2.0 JLM= -7.25 "


def test_feature_value_uses_repr_precision():
    entry = parse_nbest_line(LINE)
    out = format_annotated_line(entry, "F", -0.1234567890123456)
    assert "F= -0.1234567890123456 " in out


# --- hypothesis scoring ----------------------------------------------------

def test_hypothesis_log_prob_is_sum_of_sample_log_probs():
    artifact = make_artifact(arch="tag")
    cfg = artifact.encoder_config
    src = ("s0", "s1", "s2")
    hyp = ("t0", "t1")
    alignment = frozenset({(0, 0), (2, 1)})
    total = hypothesis_log_prob(artifact, src, hyp, alignment)
    pair = AlignedSentencePair(src, hyp, alignment)
    samples = extract_samples(pair, artifact.source_vocab,
                              artifact.target_vocab, k=cfg.history,
                              maxlen=cfg.maxlen, emit_eos=True)
    expected = sum(reference_log_probs(s, cfg, artifact.params)[s.target]
                   for s in samples)
    assert total == pytest.approx(expected, abs=1e-10)
    assert len(samples) == 3  # two words plus the EOS event


def test_empty_hypothesis_scores_only_eos():
    artifact = make_artifact(arch="generic")
    value = hypothesis_log_prob(artifact, ("s0",), (), None)
    assert value < 0.0
    artifact.emit_eos = False
    assert hypothesis_log_prob(artifact, ("s0",), (), None) == 0.0


def test_uniform_model_scores_by_length():
    artifact = make_artifact(arch="generic")
    artifact.params.softmax_w[...] = 0.0
    artifact.params.softmax_b[...] = 0.0
    v = len(artifact.target_vocab)
    two = hypothesis_log_prob(artifact, ("s0", "s1"), ("t0", "t1"), None)
    assert two == pytest.approx(-3 * np.log(v), abs=1e-9)  # 2 words + EOS


# --- file-level annotation -------------------------------------------------

def test_score_nbest_generic_round_trip():
    artifact = make_artifact(arch="generic")
    sources = [("s0", "s1"), ("s2",)]
    lines = [
        "0 ||| t0 t1 |||  ||| lm= -1 ||| -3",
        "0 ||| t1 |||  ||| lm= -2 ||| -4",
        "1 ||| t0 |||  ||| lm= -3 ||| -5",
    ]
    out = list(score_nbest(artifact, sources, lines))
    assert len(out) == 3
    for before, after in zip(lines, out):
        b, a = before.split("|||"), after.split("|||")
        assert a[:3] == b[:3] and a[4] == b[4]
        assert DEFAULT_FEATURE_NAME + "=" in a[3]
    # The appended value is this model's hypothesis log-probability.
    value = float(out[0].split("|||")[3].split()[-1])
    expected = hypothesis_log_prob(artifact, sources[0], ("t0", "t1"), None)
    assert value == pytest.approx(expected)


def test_score_nbest_respects_custom_feature_name():
    artifact = make_artifact(arch="generic")
    (line,) = score_nbest(artifact, [("s0",)],
                          ["0 ||| t0 |||  ||| f= 1 ||| 0"],
                          feature_name="XL")
    assert " XL= " in line


@pytest.mark.parametrize("name", ["", "a b", "XL\t", "A|||B", "a=b"])
def test_score_nbest_rejects_unreadable_feature_name(name):
    # Each of these would write a line that does not parse back to one feature.
    def lines():
        raise AssertionError("read a line before checking the feature name")
        yield

    artifact = make_artifact(arch="generic")
    with pytest.raises(ConfigError, match="feature name"):
        next(score_nbest(artifact, [("s0",)], lines(), feature_name=name))


def test_score_nbest_requires_alignment_for_tag():
    artifact = make_artifact(arch="tag")
    with pytest.raises(CorpusError, match="line 1.*requires an alignment"):
        list(score_nbest(artifact, [("s0",)],
                         ["0 ||| t0 |||  ||| f= 1 ||| 0"]))
    # An empty hypothesis has nothing to align and passes through.
    out = list(score_nbest(artifact, [("s0",)],
                           ["0 |||  |||  ||| f= 1 ||| 0"]))
    assert len(out) == 1


def test_score_nbest_requires_heads_for_tag_dep():
    artifact = make_artifact(arch="tag_dep")
    lines = ["0 ||| t0 ||| 0-0 ||| f= 1 ||| 0"]
    with pytest.raises(CorpusError, match="requires a heads row"):
        list(score_nbest(artifact, [("s0",)], lines))
    out = list(score_nbest(artifact, [("s0",)], lines, heads=[(-1,)]))
    assert len(out) == 1


def test_score_nbest_checks_sentence_id_range():
    artifact = make_artifact(arch="generic")
    with pytest.raises(CorpusError, match="line 1.*sentence id 7"):
        list(score_nbest(artifact, [("s0",)],
                         ["7 ||| t0 |||  ||| f= 1 ||| 0"]))


def test_score_nbest_reports_line_numbers_for_parse_errors():
    artifact = make_artifact(arch="generic")
    lines = ["0 ||| t0 |||  ||| f= 1 ||| 0", "garbage"]
    with pytest.raises(ParseError, match="line 2"):
        list(score_nbest(artifact, [("s0",)], lines))


SOURCES = [("s0", "s1", "s2", "s3"), ("s4", "s2", "s5"),
           ("s6", "s7", "s1", "s0", "s3")]
HEADS = [(1, -1, 1, 2), (-1, 0, 0), (-1, 0, 1, 2, 3)]
# Four lists: a repeated hypothesis, shared n-grams, an empty hypothesis, an
# out-of-vocabulary word, and sentence 0 coming back after sentence 1.
MULTI_LIST = [
    "0 ||| t0 t1 t2 ||| 0-0 1-1 2-3 ||| f= 1 ||| -1",
    "0 ||| t0 t1 t2 ||| 0-0 1-1 2-3 ||| f= 2 ||| -2",
    "0 ||| t0 t1 t3 ||| 0-0 1-2 ||| f= 3 ||| -3",
    "0 |||  |||  ||| f= 4 ||| -4",
    "1 ||| t4 t0 t1 ||| 0-1 2-2 ||| f= 5 ||| -5",
    "1 ||| t0 t1 ||| 0-0 1-2 ||| f= 6 ||| -6",
    "0 ||| t2 t0 t1 ||| 0-3 1-0 2-1 ||| f= 7 ||| -7",
    "0 ||| t5 zz ||| 0-2 1-1 ||| f= 8 ||| -8",
    "2 ||| t6 t0 t1 t2 ||| 0-4 3-0 ||| f= 9 ||| -9",
]


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("fusion", FUSIONS)
def test_score_nbest_matches_oracle(arch, fusion):
    artifact = make_artifact(arch=arch, fusion=fusion, seed=3)
    cfg = artifact.encoder_config
    heads = HEADS if arch == "tag_dep" else None
    out = list(score_nbest(artifact, SOURCES, MULTI_LIST, heads=heads))
    assert len(out) == len(MULTI_LIST)
    values = []
    for before, after in zip(MULTI_LIST, out):
        entry = parse_nbest_line(before)
        pair = AlignedSentencePair(
            SOURCES[entry.sentence_id], entry.tokens,
            entry.alignment or frozenset(),
            HEADS[entry.sentence_id] if heads else None)
        samples = extract_samples(pair, artifact.source_vocab,
                                  artifact.target_vocab, k=cfg.history,
                                  maxlen=cfg.maxlen, emit_eos=True,
                                  with_guides=cfg.tag_bits > 0)
        expected = sum(reference_log_probs(s, cfg, artifact.params)[s.target]
                       for s in samples)
        prefix = f" f= {entry.raw_fields[3].split()[-1]} {DEFAULT_FEATURE_NAME}= "
        assert after.split("|||")[3].startswith(prefix)
        values.append(float(after.split("|||")[3].split()[-1]))
        assert values[-1] == pytest.approx(expected, abs=1e-10), before
    assert values[0] == values[1]


def test_score_nbest_reads_one_list_ahead():
    artifact = make_artifact(arch="generic")
    first_list = MULTI_LIST[:4]

    def lines():
        yield from first_list
        yield MULTI_LIST[4]
        raise AssertionError("read past the first line of the second list")

    out = list(itertools.islice(score_nbest(artifact, SOURCES, lines()),
                                len(first_list)))
    assert [line.split("|||")[1] for line in out] == \
        [line.split("|||")[1] for line in first_list]
    assert all(f" {DEFAULT_FEATURE_NAME}= " in line for line in out)


@pytest.mark.parametrize("last, error, written", [
    # A malformed line may belong to the list being scored, so none of the
    # list is written; an overlong source starts a new list after it.
    ("0 ||| t2 ||| f= 1 ||| 0", ParseError, 0),  # four fields
    ("1 ||| t2 |||  ||| f= 1 ||| 0", CorpusError, 2),  # 11 > maxlen 10
])
def test_score_nbest_names_the_failing_line(last, error, written):
    artifact = make_artifact(arch="generic")
    sources = [("s0", "s1"), ("s2",) * 11]
    lines = ["0 ||| t0 t1 |||  ||| f= 1 ||| 0", "0 ||| t1 |||  ||| f= 1 ||| 0",
             last]
    out = []
    with pytest.raises(error, match="n-best line 3"):
        out.extend(score_nbest(artifact, sources, lines))
    assert len(out) == written
