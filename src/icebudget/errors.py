"""Exception hierarchy shared across the package, and the line reader and
the integer check that the loaders of JSON inputs use."""

import json


def is_int(value) -> bool:
    """A JSON integer as loaded: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def jsonl_values(path):
    """(line number, JSON value) of each non-blank line of the file at
    `path`. A line that is not UTF-8 or not JSON raises ParseError naming
    the file and the line."""
    # an undecodable byte becomes a lone surrogate, which cannot encode
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode()
            except UnicodeEncodeError:
                raise ParseError(f"{path}: not UTF-8", line=lineno) from None
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid JSON: {exc.msg}",
                                 line=lineno) from exc
            yield lineno, value


class IceBudgetError(Exception):
    """Base class for all package errors."""


class ValidationError(IceBudgetError):
    """Bad input data or configuration (CLI exit code 1)."""


class StageError(IceBudgetError):
    """A pipeline stage failed on an error from outside the package, such as
    a corrupt cached artifact (the original is chained), or on a file that
    another run left behind (CLI exit code 2)."""


class ParseError(ValidationError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BackendError(IceBudgetError):
    """Answering-backend failure; may carry the partial transcript."""

    def __init__(self, message, transcript=None):
        super().__init__(message)
        self.transcript = transcript


class DecodeError(BackendError):
    """Generated completion matched no verbalizer; keeps the raw text."""

    def __init__(self, message, raw_completion=""):
        super().__init__(message)
        self.raw_completion = raw_completion
