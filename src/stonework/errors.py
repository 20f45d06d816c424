"""Exception types shared across the package."""


class StoneworkError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(StoneworkError):
    """An exhaustive enumeration would exceed the configured cap; the message
    names the stage that hit it, such as ``spectrum of 24 generators``."""

    def __init__(self, needed: int, limit: int, stage: str):
        self.needed = needed
        self.cap = limit
        super().__init__(f"{stage}: enumeration over 2^{needed} exceeds cap 2^{limit}")


class BadArgument(StoneworkError, ValueError):
    """A setting or argument, such as STONEWORK_CAP or --stage, is malformed or out of range."""


class UnknownGenerator(StoneworkError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown generator {name!r}")


class DuplicateGenerator(StoneworkError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate generator {name!r}")


class RelationNotKilled(StoneworkError):
    """A candidate morphism does not send some source relation to 0."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"relation {index} is not sent to 0")


class NotDisjoint(StoneworkError):
    """The two closed sets handed to the separator intersect."""


class RelationNotPreserved(StoneworkError):
    """A vertex map between relation graphs breaks a related pair."""


class InvariantViolated(StoneworkError):
    """A structural invariant (e.g. d1*d0 = 0) does not hold."""


class ParseError(StoneworkError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")
