"""Corpus parsing, affiliation, and sample extraction."""

import pytest
from hypothesis import given, settings, strategies as st

from cjlm.corpus import (
    ROOT_HEAD,
    AlignedSentencePair,
    ExtractionStats,
    compute_affiliations,
    extract_corpus_samples,
    extract_samples,
    pad_source,
    parse_alignment_line,
    parse_heads_line,
    read_parallel_corpus,
    read_token_lines,
    validate_heads,
)
from cjlm.errors import CorpusError, ParseError, UnalignableSentenceError
from cjlm.vocab import BOS_ID, EOS_ID, PAD_ID, UNK_ID, build_vocabulary

from oracles import affiliation_or_none, brute_force_affiliation, reference_samples


# --- alignment lines -------------------------------------------------------

def test_parse_alignment_basic():
    assert parse_alignment_line("0-0 2-1") == frozenset({(0, 0), (2, 1)})


def test_parse_alignment_empty_line():
    assert parse_alignment_line("") == frozenset()
    assert parse_alignment_line("   ") == frozenset()


def test_parse_alignment_many_to_many():
    links = parse_alignment_line("0-0 0-1 1-0")
    assert links == frozenset({(0, 0), (0, 1), (1, 0)})


def test_parse_alignment_missing_dash():
    with pytest.raises(ParseError, match="missing '-'"):
        parse_alignment_line("0-0 17")


def test_parse_alignment_non_integer():
    with pytest.raises(ParseError, match="not an integer pair"):
        parse_alignment_line("a-1")


def test_parse_alignment_error_column():
    try:
        parse_alignment_line("0-0 xx")
    except ParseError as e:
        assert e.column == 5
    else:
        pytest.fail("expected ParseError")


# --- heads lines -----------------------------------------------------------

def test_parse_heads_chain():
    assert parse_heads_line("-1 0 1", 3) == (-1, 0, 1)


def test_heads_length_mismatch():
    with pytest.raises(CorpusError, match="3 entries for 2"):
        parse_heads_line("-1 0 1", 2)


def test_heads_root_count():
    with pytest.raises(CorpusError, match="exactly one root"):
        validate_heads((0, 1, 2), 3)
    with pytest.raises(CorpusError, match="exactly one root"):
        validate_heads((-1, -1, 0), 3)


def test_heads_out_of_range():
    with pytest.raises(CorpusError, match="out of range"):
        validate_heads((-1, 5), 2)


def test_heads_cycle_detected():
    with pytest.raises(CorpusError, match="cycle"):
        validate_heads((-1, 2, 1), 3)


def test_heads_non_integer():
    with pytest.raises(ParseError, match="malformed heads line"):
        parse_heads_line("-1 zero", 2)


# --- affiliation -----------------------------------------------------------

def test_affiliation_aligned_word_owns_links():
    links = {(0, 0), (1, 0), (2, 1)}
    assert compute_affiliations(links, 2)[0] == frozenset({0, 1})
    assert compute_affiliations(links, 2)[1] == frozenset({2})


def test_affiliation_unaligned_inherits_nearest():
    links = {(4, 0), (7, 3)}
    assert compute_affiliations(links, 4)[1] == frozenset({4})
    assert compute_affiliations(links, 4)[2] == frozenset({7})


def test_affiliation_prefers_right_on_tie():
    links = {(0, 0), (9, 2)}
    # Position 1 is equidistant from 0 and 2; the right neighbor wins.
    assert compute_affiliations(links, 3)[1] == frozenset({9})


def test_affiliation_unalignable():
    with pytest.raises(UnalignableSentenceError):
        compute_affiliations(set(), 2)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_affiliation_matches_brute_force(data):
    nt = data.draw(st.integers(min_value=1, max_value=8))
    ns = data.draw(st.integers(min_value=1, max_value=8))
    links = data.draw(st.frozensets(
        st.tuples(st.integers(0, ns - 1), st.integers(0, nt - 1)),
        max_size=ns * nt,
    ))
    for t in range(nt):
        assert affiliation_or_none(t, links, nt) == \
            brute_force_affiliation(t, links, nt)


# --- padding and pair validation ------------------------------------------

def test_pad_source_left_pads():
    assert pad_source([7, 8], 5, PAD_ID) == (PAD_ID, PAD_ID, PAD_ID, 7, 8)


def test_pad_source_rejects_overlong():
    with pytest.raises(CorpusError, match="exceeds maxlen"):
        pad_source([1, 2, 3], 2, PAD_ID)


def test_pair_rejects_out_of_bounds_link():
    with pytest.raises(CorpusError, match="out of bounds"):
        AlignedSentencePair(("a",), ("x",), frozenset({(1, 0)}))


def test_pair_validates_heads():
    with pytest.raises(CorpusError, match="exactly one root"):
        AlignedSentencePair(("a", "b"), ("x",), frozenset({(0, 0)}),
                            heads=(0, 1))


# --- sample extraction -----------------------------------------------------

@pytest.fixture(scope="module")
def tiny_vocabs():
    src = build_vocabulary([["a", "b", "c"]], limit=10)
    tgt = build_vocabulary([["x", "y"]], limit=10)
    return src, tgt


def test_extract_samples_hand_worked(tiny_vocabs):
    src_vocab, tgt_vocab = tiny_vocabs
    pair = AlignedSentencePair(
        source_tokens=("a", "b", "c"),
        target_tokens=("x", "y"),
        alignment=frozenset({(0, 0), (2, 1)}),
        heads=(-1, 0, 1),
    )
    samples = extract_samples(pair, src_vocab, tgt_vocab, k=3, maxlen=5)
    assert len(samples) == 3  # two words plus EOS

    first, second, eos = samples
    padded = (PAD_ID, PAD_ID, 4, 5, 6)
    assert first.source_ids == padded
    # Offset 2 from left padding shifts every guide position.
    assert first.affiliated == frozenset({2})
    assert first.head_positions == frozenset()  # root head drops out
    assert first.history == (BOS_ID,) * 3
    assert first.target == tgt_vocab.id("x")

    assert second.affiliated == frozenset({4})
    assert second.head_positions == frozenset({3})
    assert second.history == (BOS_ID, BOS_ID, tgt_vocab.id("x"))
    assert second.target == tgt_vocab.id("y")

    # The EOS event reuses the last word's affiliation.
    assert eos.target == EOS_ID
    assert eos.affiliated == frozenset({4})
    assert eos.head_positions == frozenset({3})
    assert eos.history == (BOS_ID, tgt_vocab.id("x"), tgt_vocab.id("y"))


def test_extract_samples_without_eos(tiny_vocabs):
    src_vocab, tgt_vocab = tiny_vocabs
    pair = AlignedSentencePair(("a",), ("x", "y"), frozenset({(0, 0)}))
    samples = extract_samples(pair, src_vocab, tgt_vocab, k=2, maxlen=4,
                              emit_eos=False)
    assert [s.target for s in samples] == [4, 5]


def test_extract_samples_oov_maps_to_unk(tiny_vocabs):
    src_vocab, tgt_vocab = tiny_vocabs
    pair = AlignedSentencePair(("zzz",), ("x",), frozenset({(0, 0)}))
    (sample, _) = extract_samples(pair, src_vocab, tgt_vocab, k=1, maxlen=2)
    assert sample.source_ids == (PAD_ID, UNK_ID)


def test_extract_samples_without_guides_needs_no_alignment(tiny_vocabs):
    src_vocab, tgt_vocab = tiny_vocabs
    pair = AlignedSentencePair(("a", "b"), ("x", "y"), frozenset())
    samples = extract_samples(pair, src_vocab, tgt_vocab, k=2, maxlen=3,
                              with_guides=False)
    assert all(s.affiliated == frozenset() for s in samples)
    assert [s.target for s in samples] == [4, 5, EOS_ID]


def test_extract_samples_empty_target_scores_bare_eos(tiny_vocabs):
    src_vocab, tgt_vocab = tiny_vocabs
    pair = AlignedSentencePair(("a",), (), frozenset())
    samples = extract_samples(pair, src_vocab, tgt_vocab, k=3, maxlen=2)
    assert len(samples) == 1
    assert samples[0].target == EOS_ID
    assert samples[0].affiliated == frozenset()
    assert samples[0].history == (BOS_ID,) * 3


def test_extract_samples_unalignable_raises(tiny_vocabs):
    src_vocab, tgt_vocab = tiny_vocabs
    pair = AlignedSentencePair(("a",), ("x",), frozenset())
    with pytest.raises(UnalignableSentenceError):
        extract_samples(pair, src_vocab, tgt_vocab, k=1, maxlen=2)


def test_history_window_keeps_last_k(tiny_vocabs):
    src_vocab, tgt_vocab = tiny_vocabs
    pair = AlignedSentencePair(
        ("a",), ("x", "y", "x", "y"), frozenset({(0, 0)}),
    )
    samples = extract_samples(pair, src_vocab, tgt_vocab, k=2, maxlen=2,
                              emit_eos=False)
    assert samples[3].history == (5, 4)  # two most recent words only


def test_corpus_extraction_skips_and_counts(tiny_vocabs):
    src_vocab, tgt_vocab = tiny_vocabs
    good = AlignedSentencePair(("a",), ("x",), frozenset({(0, 0)}))
    too_long = AlignedSentencePair(("a", "b", "c"), ("x",),
                                   frozenset({(0, 0)}))
    unalignable = AlignedSentencePair(("a",), ("x",), frozenset())
    stats = ExtractionStats()
    samples = list(extract_corpus_samples(
        [good, too_long, unalignable], src_vocab, tgt_vocab,
        k=1, maxlen=2, stats=stats,
    ))
    assert len(samples) == 2  # word + EOS from the good pair only
    assert stats.sentences == 3
    assert stats.samples == 2
    assert stats.skipped_too_long == 1
    assert stats.skipped_unalignable == 1


@st.composite
def head_trees(draw, n):
    """A valid dependency tree over n tokens: each token's head comes earlier
    in a random order whose first token is the root."""
    order = draw(st.permutations(range(n)))
    heads = [ROOT_HEAD] * n
    for i in range(1, n):
        heads[order[i]] = order[draw(st.integers(0, i - 1))]
    return tuple(heads)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extract_samples_matches_reference_loop(data, tiny_vocabs):
    src_vocab, tgt_vocab = tiny_vocabs
    nt = data.draw(st.integers(0, 8), label="target words")
    ns = data.draw(st.integers(1, 8), label="source words")
    links = frozenset()
    if nt:
        links = data.draw(st.frozensets(
            st.tuples(st.integers(0, ns - 1), st.integers(0, nt - 1)),
            max_size=ns * nt,
        ), label="links")
    heads = data.draw(st.none() | head_trees(ns), label="heads")
    pair = AlignedSentencePair(
        source_tokens=tuple(data.draw(st.lists(
            st.sampled_from(("a", "b", "c", "oov")), min_size=ns, max_size=ns))),
        target_tokens=tuple(data.draw(st.lists(
            st.sampled_from(("x", "y", "oov")), min_size=nt, max_size=nt))),
        alignment=links,
        heads=heads,
    )
    args = dict(
        k=data.draw(st.integers(1, 3), label="k"),
        maxlen=ns + data.draw(st.integers(0, 3), label="padding"),
        emit_eos=data.draw(st.booleans(), label="emit_eos"),
        with_guides=data.draw(st.booleans(), label="with_guides"),
    )
    try:
        expected = reference_samples(pair, src_vocab, tgt_vocab, **args)
    except UnalignableSentenceError:
        with pytest.raises(UnalignableSentenceError):
            extract_samples(pair, src_vocab, tgt_vocab, **args)
        return
    assert extract_samples(pair, src_vocab, tgt_vocab, **args) == expected


# --- parallel file reading -------------------------------------------------

def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_read_parallel_corpus_round_trip(tmp_path):
    write(tmp_path / "src", ["a b", "c"])
    write(tmp_path / "tgt", ["x", "y y"])
    write(tmp_path / "aln", ["0-0 1-0", "0-0 0-1"])
    write(tmp_path / "heads", ["-1 0", "-1"])
    pairs = read_parallel_corpus(tmp_path / "src", tmp_path / "tgt",
                                 tmp_path / "aln", tmp_path / "heads")
    assert len(pairs) == 2
    assert pairs[0].source_tokens == ("a", "b")
    assert pairs[0].alignment == frozenset({(0, 0), (1, 0)})
    assert pairs[0].heads == (-1, 0)
    assert pairs[1].target_tokens == ("y", "y")


def test_read_parallel_corpus_line_count_mismatch(tmp_path):
    write(tmp_path / "src", ["a", "b"])
    write(tmp_path / "tgt", ["x"])
    write(tmp_path / "aln", ["0-0", "0-0"])
    with pytest.raises(CorpusError, match="target file diverges .* line 2"):
        read_parallel_corpus(tmp_path / "src", tmp_path / "tgt",
                             tmp_path / "aln")


def test_read_parallel_corpus_names_bad_line(tmp_path):
    write(tmp_path / "src", ["a", "b"])
    write(tmp_path / "tgt", ["x", "y"])
    write(tmp_path / "aln", ["0-0", "junk"])
    with pytest.raises(CorpusError, match="line 2"):
        read_parallel_corpus(tmp_path / "src", tmp_path / "tgt",
                             tmp_path / "aln")


def test_read_parallel_corpus_reports_file_column(tmp_path):
    write(tmp_path / "src", ["a"])
    write(tmp_path / "tgt", ["x"])
    write(tmp_path / "aln", ["0-0\t\tjunk"])
    with pytest.raises(CorpusError, match="line 1: .*'junk'.* at column 6$"):
        read_parallel_corpus(tmp_path / "src", tmp_path / "tgt",
                             tmp_path / "aln")


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_lines_split_only_at_newlines(tmp_path, sep):
    # Other line separators stay inside the line and split tokens only.
    (tmp_path / "src").write_text(f"a{sep}b\r\nc\rd\n", encoding="utf-8")
    write(tmp_path / "tgt", ["x", "y", "x"])
    write(tmp_path / "aln", ["1-0", "0-0", "0-0"])
    (tmp_path / "heads").write_text(f"1{sep}-1\n-1\n-1\n", encoding="utf-8")
    assert read_token_lines(tmp_path / "src") == [("a", "b"), ("c",), ("d",)]
    pairs = read_parallel_corpus(tmp_path / "src", tmp_path / "tgt",
                                 tmp_path / "aln", tmp_path / "heads")
    assert [p.source_tokens for p in pairs] == [("a", "b"), ("c",), ("d",)]
    assert pairs[0].heads == (1, -1)


def test_read_parallel_corpus_link_bounds_checked(tmp_path):
    write(tmp_path / "src", ["a"])
    write(tmp_path / "tgt", ["x"])
    write(tmp_path / "aln", ["3-0"])
    with pytest.raises(CorpusError, match="line 1.*out of bounds"):
        read_parallel_corpus(tmp_path / "src", tmp_path / "tgt",
                             tmp_path / "aln")
