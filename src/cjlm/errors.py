"""Exception types shared across the toolkit."""


class CjlmError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CjlmError):
    """Malformed input text. Carries an optional line/column location."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc += f" at line {line}"
        if column is not None:
            loc += f"{',' if line is not None else ' at'} column {column}"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class CorpusError(CjlmError):
    """Invalid corpus data (bounds, line-count mismatches, bad trees)."""


class UnalignableSentenceError(CorpusError):
    """No target word in the sentence pair is aligned; affiliation cannot resolve."""


class ConfigError(CjlmError):
    """Inconsistent model configuration or inputs that violate it."""


class ModelFormatError(CjlmError):
    """Model file cannot be read: bad magic, version, checksum, or layout."""


class TrainingDivergedError(CjlmError):
    """A training loss, gradient or parameter became non-finite.

    ``checkpoint`` is the trained parameters, as they were at the last
    completed epoch's end or, before any, as training got them.
    """

    def __init__(self, message, checkpoint=None, metrics=None):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.metrics = metrics or []
