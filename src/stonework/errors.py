"""Exception types shared across the package."""


class StoneworkError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(StoneworkError):
    """An exhaustive enumeration would exceed the configured cap."""

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(f"enumeration over 2^{needed} exceeds cap 2^{cap}")


class BadSetting(StoneworkError):
    """An environment setting, such as STONEWORK_CAP, is malformed."""


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


class SquareNotCommuting(StoneworkError):
    def __init__(self, level: int):
        self.level = level
        super().__init__(f"levelwise map does not commute with transitions at level {level}")


class RelationNotPreserved(StoneworkError):
    """A vertex map between relation graphs breaks a related pair."""


class InvariantViolated(StoneworkError):
    """A structural invariant (e.g. d1*d0 = 0) does not hold."""


class OutOfRange(StoneworkError):
    """A dyadic argument lies outside [0, 1]."""


class ParseError(StoneworkError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")
