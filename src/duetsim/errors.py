"""Exception hierarchy, value-kind checks and the record base shared across
the package."""

import copyreg


class DuetSimError(Exception):
    """Base class for all package errors.

    Every error pickles: a worker process sends it back to the parent as it
    is. It is rebuilt from its message and attributes, without ``__init__``,
    because a subclass's ``__init__`` takes the fields the message is
    formatted from, not the message.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# --- act codec ---

class NoActFound(DuetSimError):
    """No bracketed act list could be located in the text."""


class MalformedAct(DuetSimError):
    """An act list element does not have exactly four components."""


class EmptyActList(DuetSimError):
    """An operation requiring at least one act received none."""


# --- world ---

class WorldError(DuetSimError):
    pass


class WorldLoadError(WorldError):
    """World file could not be read."""


class ParseError(WorldError):
    """World file is not valid JSON."""


class SchemaViolation(WorldError):
    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


class UnknownDomain(WorldError):
    def __init__(self, domain: str):
        self.domain = domain
        super().__init__(f"unknown domain {domain!r}")


class EmptyWorld(WorldError):
    """No entities available for a sampled domain."""


class UnbookableDomain(WorldError):
    pass


class InvalidBookingSlot(WorldError):
    pass


# --- backends ---

class Timeout(DuetSimError):
    pass


class EndpointError(DuetSimError):
    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"endpoint returned {status}: {body[:200]}")


class RetriesExhausted(DuetSimError):
    pass


class MalformedResponse(DuetSimError):
    """A 200 response whose body is not a chat completion."""


class ScriptExhausted(DuetSimError):
    """Scripted backend ran out of canned responses."""


class CassetteMiss(DuetSimError):
    """A replayed dialogue sent a request its cassette holds no reply for."""


class CassetteIOError(DuetSimError):
    """A cassette file could not be read or written, or holds a bad line."""


# --- prompts ---

class MissingPriorStep(DuetSimError):
    def __init__(self, step: str, missing: str):
        self.step = step
        self.missing = missing
        super().__init__(f"step '{step}' requires prior step '{missing}' output")


class EmptyUtterance(DuetSimError):
    pass


class TemplateError(DuetSimError):
    """A prompt template is missing a required placeholder."""


# --- generator / verifier / loop ---

class StepParseFailure(DuetSimError):
    def __init__(self, step: str, raw: str = ""):
        self.step = step
        self.raw = raw
        super().__init__(f"could not parse output for step '{step}': {raw[:100]!r}")


class EmptyTranslation(DuetSimError):
    """Act-to-utterance translation came back blank."""


class UnparseableVerdict(DuetSimError):
    pass


class TurnAborted(DuetSimError):
    """All drafts rejected and the loop is configured to abort."""


# --- metrics ---

class EmptyLogSet(DuetSimError):
    pass


class ShortStream(DuetSimError):
    """Token stream too short for the requested metric."""


class ZeroFactors(DuetSimError):
    """MTLD factor count is zero (diversity never crosses the threshold)."""


# --- NLG / CLI ---

class MissingTemplate(DuetSimError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no NLG template for {key}")


class ConfigError(DuetSimError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class WorkerFailed(DuetSimError):
    """A worker process died, or its result could not be sent back; or a
    lane's backend was called after its run stopped."""


class LogParseError(DuetSimError):
    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class LogReadError(DuetSimError):
    """A log file could not be opened, e.g. a directory."""


# --- value kinds: a log or cassette reader reports each TypeError ---

def require_string(name: str, value):
    """``value``, or TypeError unless it is a str."""
    if not isinstance(value, str):
        raise TypeError(f"{name}: expected a string, got {value!r}")
    return value


def require_strings(name: str, values) -> None:
    """TypeError unless every value is a str; a log reader reports it."""
    for value in values:
        if not isinstance(value, str):
            raise TypeError(f"{name}: expected a string, got {value!r}")


def require_int(name: str, value):
    """``value``, or TypeError unless it is an int; a bool is not."""
    if type(value) is not int:  # one test: JSON gives no other int subclass
        raise TypeError(f"{name}: expected an integer, got {value!r}")
    return value


def require_type(name: str, value, kind: type) -> None:
    """TypeError unless ``value`` is a ``kind``, a dict or a list."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise TypeError(f"{name}: expected {expected}, got {value!r}")


# --- records ---

class Record:
    """Base of the package's plain record classes. Two records are equal when
    they are of one type and their ``_fields`` are equal; caches a record
    keeps beside its fields are not among them. A record is unhashable
    unless its class defines ``__hash__``, as ``hash(self._values())``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()
