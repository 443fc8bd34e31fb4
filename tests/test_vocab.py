"""Vocabulary construction and lookup behavior."""

import pytest
from hypothesis import given, strategies as st

from cjlm.errors import CorpusError
from cjlm.vocab import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    Vocabulary,
    build_vocabulary,
    map_tokens,
)


def test_reserved_ids_are_fixed():
    assert (UNK_ID, PAD_ID, BOS_ID, EOS_ID) == (0, 1, 2, 3)
    vocab = build_vocabulary([["a"]], limit=5)
    assert vocab.tokens[:4] == RESERVED_TOKENS
    assert vocab.id("<unk>") == UNK_ID
    assert vocab.id("<eos>") == EOS_ID


def test_frequency_then_first_occurrence_order():
    sentences = [["b", "a", "a"], ["c", "b", "a"]]
    vocab = build_vocabulary(sentences, limit=10)
    # a occurs 3x, b 2x, c 1x.
    assert vocab.tokens[4:] == ("a", "b", "c")


def test_tie_break_is_first_occurrence():
    vocab = build_vocabulary([["z", "y", "x"]], limit=10)
    assert vocab.tokens[4:] == ("z", "y", "x")


def test_limit_cuts_low_frequency_tokens():
    sentences = [["a", "a", "b", "b", "c"]]
    vocab = build_vocabulary(sentences, limit=2)
    assert vocab.tokens[4:] == ("a", "b")
    assert vocab.id("c") == UNK_ID


def test_reserved_surface_forms_are_not_content():
    vocab = build_vocabulary([["<unk>", "<pad>", "w", "<eos>"]], limit=5)
    assert vocab.tokens[4:] == ("w",)


def test_map_tokens_sends_oov_to_unk():
    vocab = build_vocabulary([["a", "b"]], limit=5)
    assert map_tokens(["a", "zzz", "b"], vocab) == [4, UNK_ID, 5]


def test_round_trip_token_of_id():
    vocab = build_vocabulary([["a", "b", "c"]], limit=5)
    for i, tok in enumerate(vocab.tokens):
        assert vocab.id(tok) == i
        assert vocab.token(i) == tok


def test_contains_and_len():
    vocab = build_vocabulary([["a"]], limit=5)
    assert "a" in vocab and "b" not in vocab
    assert len(vocab) == 5


def test_limit_below_one_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        build_vocabulary([["a"]], limit=0)


def test_empty_corpus_rejected():
    with pytest.raises(CorpusError, match="empty corpus"):
        build_vocabulary([], limit=5)
    with pytest.raises(CorpusError, match="empty corpus"):
        build_vocabulary([["<unk>"]], limit=5)


def test_vocabulary_must_start_with_reserved():
    with pytest.raises(CorpusError, match="reserved"):
        Vocabulary(tokens=("a", "b", "c", "d", "e"), limit=5)


def test_vocabulary_rejects_duplicates():
    with pytest.raises(CorpusError, match="duplicate"):
        Vocabulary(tokens=RESERVED_TOKENS + ("a", "a"), limit=5)


def test_vocabulary_takes_only_tokens_and_limit():
    vocab = Vocabulary(RESERVED_TOKENS + ("a",), 1)
    assert (vocab.unk_id, vocab.pad_id, vocab.bos_id, vocab.eos_id) == \
        (UNK_ID, PAD_ID, BOS_ID, EOS_ID)
    assert vocab.index == {tok: i for i, tok in enumerate(vocab.tokens)}
    for extra in ({"index": {}}, {"pad_id": 7}, {"unk_id": 4}):
        with pytest.raises(TypeError):
            Vocabulary(RESERVED_TOKENS, 1, **extra)


def test_vocabulary_rejects_overflow():
    with pytest.raises(CorpusError, match="limit"):
        Vocabulary(tokens=RESERVED_TOKENS + ("a", "b"), limit=1)


token_lists = st.lists(
    st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3),
             min_size=0, max_size=6),
    min_size=1, max_size=8,
)


@given(sentences=token_lists, limit=st.integers(min_value=1, max_value=10))
def test_build_respects_limit_and_determinism(sentences, limit):
    flat = [t for s in sentences for t in s]
    if not flat:
        return
    vocab = build_vocabulary(sentences, limit)
    assert len(vocab) <= limit + 4
    assert vocab.tokens == build_vocabulary(sentences, limit).tokens
    counts = {}
    for t in flat:
        counts[t] = counts.get(t, 0) + 1
    kept = vocab.tokens[4:]
    # Every kept token is at least as frequent as every dropped token.
    if len(counts) > len(kept):
        dropped_max = max(c for t, c in counts.items() if t not in kept)
        assert all(counts[t] >= dropped_max for t in kept)
