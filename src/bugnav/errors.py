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


def read_json_object(path, what: str) -> dict:
    """The JSON object in the local file ``path``. A file that cannot be
    read, is not JSON or holds no object raises ValidationError naming
    ``what`` (say, "config file") and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    # invalid UTF-8 or JSON, or nesting deeper than the decoder's stack
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
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
