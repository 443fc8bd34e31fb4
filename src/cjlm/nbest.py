"""N-best hypothesis rescoring.

Each line of an n-best file is ``id ||| tokens ||| alignment ||| features |||
score``. The alignment field holds "i-j" pairs linking hypothesis word i to
source word j; it may be empty for encoders that do not consume alignments.
Rescoring appends one feature per line, the summed log-probability of the
hypothesis words (plus the end-of-sentence event for models trained with it),
and preserves every other field byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import jointlm as jm
from .corpus import (
    AlignedSentencePair,
    TrainingSample,
    extract_samples,
    parse_alignment_line,
)
from .errors import ConfigError, CorpusError, ParseError
from .serialization import ModelArtifact

FIELD_SEPARATOR = "|||"
N_FIELDS = 5
DEFAULT_FEATURE_NAME = "CJLM"


@dataclass(frozen=True)
class NBestEntry:
    """One parsed hypothesis line.

    ``alignment`` stores (source_index, hypothesis_index) links, already
    swapped from the i-j file order. ``raw_fields`` keeps the original field
    strings so reassembly is byte-identical.
    """

    sentence_id: int
    tokens: tuple[str, ...]
    alignment: frozenset[tuple[int, int]] | None
    raw_fields: tuple[str, ...]


def parse_nbest_line(line: str) -> NBestEntry:
    fields = line.rstrip("\n").split(FIELD_SEPARATOR)
    if len(fields) != N_FIELDS:
        raise ParseError(
            f"expected {N_FIELDS} '{FIELD_SEPARATOR}'-separated fields, "
            f"got {len(fields)}"
        )
    id_text = fields[0].strip()
    try:
        sentence_id = int(id_text)
    except ValueError:
        raise ParseError(f"sentence id {id_text!r} is not an integer") from None
    if sentence_id < 0:
        raise ParseError(f"sentence id {sentence_id} is negative")
    tokens = tuple(fields[1].split())
    align_text = fields[2].strip()
    alignment = None
    if align_text:
        # File pairs are hypothesis-source; flip to the internal
        # source-target orientation.
        alignment = frozenset((j, i) for i, j in parse_alignment_line(align_text))
    return NBestEntry(
        sentence_id=sentence_id,
        tokens=tokens,
        alignment=alignment,
        raw_fields=tuple(fields),
    )


def format_annotated_line(entry: NBestEntry, feature_name: str,
                          value: float) -> str:
    """Reassemble the line with the feature appended to the features field."""
    fields = list(entry.raw_fields)
    fields[3] = f"{fields[3].rstrip()} {feature_name}= {value!r} "
    return FIELD_SEPARATOR.join(fields)


def _hypothesis_samples(
    artifact: ModelArtifact,
    source_tokens: Sequence[str],
    hypothesis_tokens: Sequence[str],
    alignment: frozenset[tuple[int, int]] | None,
    heads: Sequence[int] | None,
) -> list[TrainingSample]:
    """The samples whose log-probabilities sum to one hypothesis's feature."""
    cfg = artifact.encoder_config
    pair = AlignedSentencePair(
        source_tokens=tuple(source_tokens),
        target_tokens=tuple(hypothesis_tokens),
        alignment=alignment if alignment is not None else frozenset(),
        heads=tuple(heads) if heads is not None else None,
    )
    return extract_samples(
        pair,
        artifact.source_vocab,
        artifact.target_vocab,
        k=cfg.history,
        maxlen=cfg.maxlen,
        emit_eos=artifact.emit_eos,
        with_guides=cfg.tag_bits > 0,
    )


def hypothesis_log_prob(
    artifact: ModelArtifact,
    source_tokens: Sequence[str],
    hypothesis_tokens: Sequence[str],
    alignment: frozenset[tuple[int, int]] | None,
    heads: Sequence[int] | None = None,
) -> float:
    """Sum of per-word log-probabilities for one complete hypothesis."""
    samples = _hypothesis_samples(
        artifact, source_tokens, hypothesis_tokens, alignment, heads)
    log_probs = jm.log_probs_batch(samples, artifact.encoder_config, artifact.params)
    return float(log_probs.sum())


def score_nbest(
    artifact: ModelArtifact,
    source_sentences: Sequence[Sequence[str]],
    nbest_lines: Iterable[str],
    heads: Sequence[Sequence[int]] | None = None,
    feature_name: str = DEFAULT_FEATURE_NAME,
) -> Iterator[str]:
    """Annotate each n-best line with the model's log-probability feature.

    Output lines appear in input order; all pre-existing fields pass through
    unchanged. Tag archs require a non-empty alignment field and, for the
    dependency variant, a heads row per source sentence.

    Consecutive lines with the same sentence id form one list. The parameters
    are cast once per call, and each list is scored with one
    ``log_probs_batch`` call once the first line of the next list (or the end
    of ``nbest_lines``) is read, so memory holds one list. A line that fails
    raises before any line of its list is yielded. A ``feature_name`` that
    would not read back as one feature raises before any line is read.
    """
    if (feature_name.split() != [feature_name] or "=" in feature_name
            or FIELD_SEPARATOR in feature_name):
        raise ConfigError(f"feature name {feature_name!r} must be non-empty and "
                          f"contain no whitespace, '=' or {FIELD_SEPARATOR!r}")
    cfg = artifact.encoder_config
    needs_alignment = cfg.tag_bits > 0
    params = jm.compute_params(artifact.params)
    entries: list[NBestEntry] = []
    samples: list[TrainingSample] = []
    counts: list[int] = []

    def annotated_list() -> Iterator[str]:
        log_probs = jm.log_probs_batch(samples, cfg, params)
        ends = np.cumsum(counts)
        for entry, end, count in zip(entries, ends, counts):
            value = float(log_probs[end - count : end].sum())
            yield format_annotated_line(entry, feature_name, value)

    for line_no, line in enumerate(nbest_lines, start=1):
        try:
            entry = parse_nbest_line(line)
        except ParseError as e:
            raise ParseError(f"n-best line {line_no}: {e.args[0]}") from None
        if entries and entry.sentence_id != entries[-1].sentence_id:
            yield from annotated_list()
            entries, samples, counts = [], [], []
        if not 0 <= entry.sentence_id < len(source_sentences):
            raise CorpusError(
                f"n-best line {line_no}: sentence id {entry.sentence_id} outside "
                f"source file with {len(source_sentences)} sentences"
            )
        if needs_alignment and entry.alignment is None and entry.tokens:
            raise CorpusError(
                f"n-best line {line_no}: arch {cfg.arch!r} requires an alignment "
                f"field for sentence {entry.sentence_id}"
            )
        sentence_heads = None
        if cfg.arch == "tag_dep":
            if heads is None:
                raise CorpusError(
                    f"n-best line {line_no}: arch 'tag_dep' requires a heads row "
                    f"for sentence {entry.sentence_id}"
                )
            sentence_heads = heads[entry.sentence_id]
        try:
            line_samples = _hypothesis_samples(
                artifact, source_sentences[entry.sentence_id], entry.tokens,
                entry.alignment, sentence_heads,
            )
        except CorpusError as e:
            raise CorpusError(
                f"n-best line {line_no} (sentence {entry.sentence_id}): {e.args[0]}"
            ) from None
        entries.append(entry)
        samples.extend(line_samples)
        counts.append(len(line_samples))
    if entries:
        yield from annotated_list()
