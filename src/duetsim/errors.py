"""Exception hierarchy shared across the package."""


class DuetSimError(Exception):
    """Base class for all package errors."""


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
    pass


class EmptyWorld(WorldError):
    """No entities available for a sampled domain."""


class UnbookableDomain(WorldError):
    pass


class InvalidBookingSlot(WorldError):
    pass


# --- backends ---

class BackendError(DuetSimError):
    pass


class Timeout(BackendError):
    pass


class EndpointError(BackendError):
    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"endpoint returned {status}: {body[:200]}")


class RetriesExhausted(BackendError):
    pass


class MalformedResponse(BackendError):
    """A 200 response whose body is not a chat completion."""


class ScriptExhausted(BackendError):
    """Scripted backend ran out of canned responses."""


class CassetteMiss(BackendError):
    def __init__(self, digest: str):
        self.digest = digest
        super().__init__(f"no recorded response for request digest {digest}")


class CassetteIOError(BackendError):
    pass


# --- prompts ---

class PromptError(DuetSimError):
    pass


class MissingPriorStep(PromptError):
    def __init__(self, step: str, missing: str):
        self.step = step
        self.missing = missing
        super().__init__(f"step '{step}' requires prior step '{missing}' output")


class EmptyUtterance(PromptError):
    pass


class TemplateError(PromptError):
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

class MetricError(DuetSimError):
    pass


class EmptyLogSet(MetricError):
    pass


class ShortStream(MetricError):
    """Token stream too short for the requested metric."""


class ZeroFactors(MetricError):
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


class LogParseError(DuetSimError):
    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")
