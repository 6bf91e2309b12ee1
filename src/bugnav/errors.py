"""Exception types shared across the package, and the readers that turn
an unreadable JSON file or a wrongly shaped JSON value into one of them.

The CLI maps these onto exit codes, so anything user-facing should
raise one of them rather than a bare ValueError.
"""

import json


class BugnavError(Exception):
    """Base class for everything raised on purpose."""


class ValidationError(BugnavError):
    """Bad input: malformed query, out-of-range argument, unreadable file."""


class QueryConstructionError(BugnavError):
    """No search strategy could produce a usable query for the issue."""


class NoCandidatesError(BugnavError):
    """Every strategy ran and the platform returned nothing."""


class TransportError(BugnavError):
    """Network or fixture layer failed in a way retries did not fix."""


class RequestFailedError(TransportError):
    """One request failed: the platform answered it with an error status,
    or could not be reached within the allowed retries."""


class NotFoundError(RequestFailedError):
    """The platform says the requested object does not exist."""


class RateLimitError(TransportError):
    """Request budget exhausted after the allowed retries."""

    def __init__(self, message, retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after


class ReplayMissError(TransportError):
    """Replay mode got a request the fixture set has no recording for."""


def read_json(path, what: str, error: type = ValidationError):
    """The JSON value in the local file ``path``. Its bytes go to
    ``json.loads``, which decodes them as RFC 8259 says, whatever the
    locale. A file that cannot be read or is not JSON, nesting deeper than
    the decoder's stack included, raises ``error`` naming ``what`` (say,
    "config file") and the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def read_json_lines(path, what: str, parse) -> list:
    """``parse(value)`` of the JSON value on each non-blank line of the
    UTF-8 file ``path``. A byte order mark opening the file is skipped, as
    :func:`read_json` skips one. Lines end at a line feed only: a string may
    hold a raw U+2028, and a CRLF line's carriage return is JSON whitespace.
    An unreadable file, a line that is not JSON, or a value that ``parse``
    rejects with ValueError or ValidationError raises ValidationError
    naming ``what`` and the line."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            lines = fh.read().split("\n")
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    values = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            values.append(parse(json.loads(line)))
        except (ValueError, RecursionError, ValidationError) as exc:
            raise ValidationError(f"{what} {path} line {number}: {exc}") from exc
    return values


def read_json_object(path, what: str) -> dict:
    """The JSON object in the local file ``path``, read by
    :func:`read_json`; a value that is no object raises ValidationError."""
    data = read_json(path, what)
    if not isinstance(data, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return data


_REQUIRED = object()


def checked_list(value, items: type, where: str, error: type = ValidationError) -> list:
    """``value`` if it is an array of ``items``; ``error`` otherwise."""
    if not (isinstance(value, list) and all(isinstance(e, items) for e in value)):
        raise error(f"{where}: expected an array of {items.__name__}, not {value!r:.80}")
    return value


def checked_field(
    data: dict, key: str, expected: type, where: str, default=_REQUIRED, *,
    items: type = dict, error: type = ValidationError,
):
    """``data[key]``, or ``default`` when it is absent or null. A value of
    another type, a list with an element that is not an ``items``, or a
    required value that is missing raises ``error``."""
    value = data.get(key)
    if value is None:
        if default is _REQUIRED:
            raise error(f"{where}: {key!r} is missing")
        return default
    if expected is list:
        return checked_list(value, items, f"{where} {key!r}", error)
    if not isinstance(value, expected):
        raise error(
            f"{where}: {key!r} should be a {expected.__name__}, not {type(value).__name__}"
        )
    return value
