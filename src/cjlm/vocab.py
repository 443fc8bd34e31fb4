"""Token/id vocabularies with reserved UNK/PAD/BOS/EOS entries.

A vocabulary keeps the ``limit`` most frequent corpus tokens. Everything else
maps to UNK at lookup time. The four reserved tokens always occupy ids 0-3.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Sequence

from .errors import CorpusError

UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
RESERVED_TOKENS = (UNK_TOKEN, PAD_TOKEN, BOS_TOKEN, EOS_TOKEN)

# Reserved ids are fixed; every vocabulary uses the same four.
UNK_ID, PAD_ID, BOS_ID, EOS_ID = 0, 1, 2, 3


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional token/id map. ``tokens[i]`` is the surface form of id ``i``;
    ``index`` maps each token back to its id."""

    tokens: tuple[str, ...]
    limit: int
    index: dict[str, int] = field(init=False, compare=False, repr=False)

    unk_id: ClassVar[int] = UNK_ID
    pad_id: ClassVar[int] = PAD_ID
    bos_id: ClassVar[int] = BOS_ID
    eos_id: ClassVar[int] = EOS_ID

    def __post_init__(self):
        if self.tokens[: len(RESERVED_TOKENS)] != RESERVED_TOKENS:
            raise CorpusError("vocabulary must start with the reserved tokens")
        if len(self.tokens) > self.limit + len(RESERVED_TOKENS):
            raise CorpusError("vocabulary exceeds its size limit")
        object.__setattr__(self, "index", {tok: i for i, tok in enumerate(self.tokens)})
        if len(self.index) != len(self.tokens):
            raise CorpusError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        return self.index.get(token, self.unk_id)

    def token(self, token_id: int) -> str:
        return self.tokens[token_id]

    def __contains__(self, token: str) -> bool:
        return token in self.index


def build_vocabulary(sentences: Iterable[Sequence[str]], limit: int) -> Vocabulary:
    """Count tokens over a stream of sentences and keep the ``limit`` most frequent.

    Ties at the frequency cutoff are broken by first occurrence in the stream,
    which makes construction deterministic. Literal occurrences of the reserved
    surface forms are ignored; they cannot be content tokens.
    """
    if limit < 1:
        raise ValueError("vocabulary limit must be at least 1")
    counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    n_tokens = 0
    for sentence in sentences:
        for token in sentence:
            if token in RESERVED_TOKENS:
                continue
            counts[token] += 1
            if token not in first_seen:
                first_seen[token] = n_tokens
            n_tokens += 1
    if not counts:
        raise CorpusError("empty corpus")
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    kept = tuple(ranked[:limit])
    return Vocabulary(tokens=RESERVED_TOKENS + kept, limit=limit)


def map_tokens(tokens: Sequence[str], vocab: Vocabulary) -> list[int]:
    """Map surface tokens to ids, sending out-of-vocabulary tokens to UNK."""
    get, unk = vocab.index.get, vocab.unk_id
    return [get(t, unk) for t in tokens]
