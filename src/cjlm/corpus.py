"""Parallel corpus ingestion and training-sample extraction.

Consumes pre-tokenized source/target text, word alignments in "i-j" pair
format, and optional per-source-token dependency head indices. Files split
into lines only at ``\\n``, ``\\r`` and ``\\r\\n``; tokens split at any
whitespace. Produces one training sample per target word: padded source ids,
the affiliated source positions for the predicted word, an optional set of
head positions of those affiliated words, a fixed-length target history, and
the gold next word.

Affiliation follows the NNJM of Devlin et al. (2014): an aligned target word
owns its links, and an unaligned one inherits from the nearest aligned word,
the right one on ties. ``compute_affiliations`` resolves a whole sentence at
once, and ``extract_samples`` builds all of a sentence's samples in one pass.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CorpusError, ParseError, UnalignableSentenceError
from .vocab import Vocabulary, map_tokens

log = logging.getLogger(__name__)

ROOT_HEAD = -1


@dataclass(frozen=True)
class AlignedSentencePair:
    """A tokenized sentence pair with its alignment links and optional heads.

    ``alignment`` holds 0-based (source_index, target_index) links; many-to-many
    is allowed. ``heads`` gives the dependency head of each source token, with
    exactly one root entry of -1.
    """

    source_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...]
    alignment: frozenset[tuple[int, int]]
    heads: tuple[int, ...] | None = None

    def __post_init__(self):
        ns, nt = len(self.source_tokens), len(self.target_tokens)
        for s, t in self.alignment:
            if not (0 <= s < ns and 0 <= t < nt):
                raise CorpusError(
                    f"alignment link {s}-{t} out of bounds for a {ns}x{nt} pair"
                )
        if self.heads is not None:
            validate_heads(self.heads, ns)


@dataclass(frozen=True)
class TrainingSample:
    """One next-word prediction event.

    ``source_ids`` is left-padded to a fixed length; ``affiliated`` and
    ``head_positions`` index that padded sequence. ``history`` always has
    exactly k entries, BOS-filled before the sentence start.
    """

    source_ids: tuple[int, ...]
    affiliated: frozenset[int]
    head_positions: frozenset[int]
    history: tuple[int, ...]
    target: int


@dataclass
class ExtractionStats:
    sentences: int = 0
    samples: int = 0
    skipped_unalignable: int = 0
    skipped_too_long: int = 0


def parse_alignment_line(line: str) -> frozenset[tuple[int, int]]:
    """Parse whitespace-separated "i-j" pairs into a set of (source, target) links."""
    links = set()
    pos = 0
    for token in line.split():
        col = line.index(token, pos) + 1
        pos = col - 1 + len(token)
        left, sep, right = token.partition("-")
        if not sep:
            raise ParseError(f"malformed alignment pair {token!r}: missing '-'", column=col)
        try:
            links.add((int(left), int(right)))
        except ValueError:
            raise ParseError(
                f"malformed alignment pair {token!r}: not an integer pair", column=col
            ) from None
    return frozenset(links)


def validate_heads(heads: Sequence[int], source_len: int) -> None:
    if len(heads) != source_len:
        raise CorpusError(
            f"heads line has {len(heads)} entries for {source_len} source tokens"
        )
    roots = [i for i, h in enumerate(heads) if h == ROOT_HEAD]
    if len(roots) != 1:
        raise CorpusError(f"expected exactly one root head, found {len(roots)}")
    for i, h in enumerate(heads):
        if h != ROOT_HEAD and not 0 <= h < source_len:
            raise CorpusError(f"head index {h} of token {i} out of range")
    # Every chain must reach the root; a chain longer than the sentence cycles.
    for i in range(source_len):
        node, steps = i, 0
        while heads[node] != ROOT_HEAD:
            node = heads[node]
            steps += 1
            if steps > source_len:
                raise CorpusError(f"cycle in dependency heads involving token {i}")


def parse_heads_line(line: str, source_len: int) -> tuple[int, ...]:
    """Parse one head index per source token; -1 marks the root."""
    try:
        heads = tuple(int(tok) for tok in line.split())
    except ValueError as e:
        raise ParseError(f"malformed heads line: {e}") from None
    validate_heads(heads, source_len)
    return heads


def compute_affiliations(
    alignment: Iterable[tuple[int, int]], target_len: int
) -> list[frozenset[int]]:
    """Source positions affiliated with each of ``target_len`` target positions.

    An aligned target word owns all its aligned source positions. An unaligned
    word inherits from the closest aligned target word, preferring the right
    neighbor when left and right are equidistant.
    """
    owned: dict[int, set[int]] = {}
    for s, t in alignment:
        owned.setdefault(t, set()).add(s)
    if not owned and target_len:
        raise UnalignableSentenceError(
            "unalignable sentence: no target word is aligned"
        )
    aligned = sorted(owned)
    sources = [frozenset(owned[t]) for t in aligned]
    affiliations = []
    for t in range(target_len):
        i = bisect_left(aligned, t)  # the nearest aligned position at or right of t
        if i == len(aligned) or (i > 0 and t - aligned[i - 1] < aligned[i] - t):
            i -= 1
        affiliations.append(sources[i])
    return affiliations


def pad_source(ids: Sequence[int], maxlen: int, pad_id: int) -> tuple[int, ...]:
    """Left-pad a source id sequence to exactly ``maxlen`` entries."""
    if len(ids) > maxlen:
        raise CorpusError(f"sentence exceeds maxlen ({len(ids)} > {maxlen})")
    return (pad_id,) * (maxlen - len(ids)) + tuple(ids)


def _head_positions_of(affiliated_src, heads, offset):
    if heads is None:
        return frozenset()
    # The root contributes no head position.
    return frozenset(heads[s] + offset for s in affiliated_src if heads[s] != ROOT_HEAD)


def extract_samples(
    pair: AlignedSentencePair,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    k: int,
    maxlen: int,
    emit_eos: bool = True,
    with_guides: bool = True,
) -> list[TrainingSample]:
    """Turn one sentence pair into per-target-word samples.

    Affiliated and head positions are shifted by the left-padding offset.
    When ``emit_eos`` is set, a final sample predicts EOS with the affiliation
    of the last target word. An empty target with ``emit_eos`` yields a single
    EOS sample with no affiliation (only meaningful when scoring hypotheses).
    ``with_guides=False`` skips affiliation entirely for encoders that ignore
    it, so no alignment is needed; otherwise a non-empty target with no
    aligned word raises ``UnalignableSentenceError``.
    """
    source_ids = pad_source(
        map_tokens(pair.source_tokens, src_vocab), maxlen, src_vocab.pad_id
    )
    offset = maxlen - len(pair.source_tokens)
    words = map_tokens(pair.target_tokens, tgt_vocab)
    targets = words + [tgt_vocab.eos_id] if emit_eos else words
    history = [tgt_vocab.bos_id] * k + words
    no_guides = (frozenset(), frozenset())
    if with_guides and words:
        guides = [
            (
                frozenset(s + offset for s in aff),
                _head_positions_of(aff, pair.heads, offset),
            )
            for aff in compute_affiliations(pair.alignment, len(words))
        ]
    else:
        guides = [no_guides] * len(words)
    guides.append(guides[-1] if guides else no_guides)  # the EOS event's guides
    return [
        TrainingSample(
            source_ids=source_ids,
            affiliated=affiliated,
            head_positions=head_positions,
            history=tuple(history[n : n + k]),
            target=target,
        )
        for n, (target, (affiliated, head_positions)) in enumerate(
            zip(targets, guides)
        )
    ]


def extract_corpus_samples(
    pairs: Iterable[AlignedSentencePair],
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    k: int,
    maxlen: int,
    emit_eos: bool = True,
    stats: ExtractionStats | None = None,
) -> Iterator[TrainingSample]:
    """Extract samples across a corpus, skipping sentences the model cannot use.

    Overlong sources are rejected rather than truncated, and pairs where no
    target word is aligned are skipped; both cases are counted in ``stats``.
    """
    stats = stats if stats is not None else ExtractionStats()
    for pair in pairs:
        stats.sentences += 1
        if len(pair.source_tokens) > maxlen:
            stats.skipped_too_long += 1
            log.warning(
                "skipping sentence %d: source length %d exceeds maxlen %d",
                stats.sentences, len(pair.source_tokens), maxlen,
            )
            continue
        try:
            samples = extract_samples(pair, src_vocab, tgt_vocab, k, maxlen, emit_eos)
        except UnalignableSentenceError:
            stats.skipped_unalignable += 1
            log.warning("skipping unalignable sentence %d", stats.sentences)
            continue
        stats.samples += len(samples)
        yield from samples


def iter_lines(f, path) -> Iterator[str]:
    """The lines of the UTF-8 text file ``f`` opened from ``path``, split only
    at ``\\n``, ``\\r`` and ``\\r\\n``, read as they are consumed."""
    try:
        yield from (line.rstrip("\n") for line in f)
    except UnicodeDecodeError as e:
        raise CorpusError(f"{path} is not UTF-8 text ({e.reason})") from None


def read_lines(path) -> list[str]:
    """All lines of the UTF-8 file at ``path``; see ``iter_lines``."""
    with open(path, encoding="utf-8") as f:
        return list(iter_lines(f, path))


def read_token_lines(path) -> list[tuple[str, ...]]:
    """The whitespace-separated tokens of each line of ``read_lines``."""
    return [tuple(line.split()) for line in read_lines(path)]


def read_parallel_corpus(
    source_path, target_path, alignment_path, heads_path=None
) -> list[AlignedSentencePair]:
    """Read sentence-parallel files into validated pairs.

    All provided files must have the same number of lines; a mismatch is fatal
    and names the first line at which one file has no counterpart.
    """
    files = {
        "source": read_token_lines(source_path),
        "target": read_token_lines(target_path),
        "alignment": read_lines(alignment_path),
    }
    if heads_path is not None:
        files["heads"] = read_lines(heads_path)
    n = len(files["source"])
    for name, lines in files.items():
        if len(lines) != n:
            short = min(n, len(lines))
            raise CorpusError(
                f"line count mismatch: {name} file diverges from source file "
                f"at line {short + 1}"
            )
    pairs = []
    for i in range(n):
        src = files["source"][i]
        try:
            alignment = parse_alignment_line(files["alignment"][i])
            heads = None
            if heads_path is not None:
                heads = parse_heads_line(files["heads"][i], len(src))
            pairs.append(
                AlignedSentencePair(
                    source_tokens=src,
                    target_tokens=files["target"][i],
                    alignment=alignment,
                    heads=heads,
                )
            )
        except (ParseError, CorpusError) as e:
            raise CorpusError(f"line {i + 1}: {e}") from e
    return pairs
