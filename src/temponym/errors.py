"""Exception hierarchy shared by all temponym modules."""
from __future__ import annotations


class TemponymError(Exception):
    """Base class for all temponym errors."""


class MalformedLine(TemponymError):
    def __init__(self, lineno: int, line: str, reason: str = "malformed line"):
        super().__init__(f"line {lineno}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line


class InvalidSex(TemponymError):
    def __init__(self, lineno: int, sex: str):
        super().__init__(f"line {lineno}: sex code {sex!r} is not F or M")
        self.lineno = lineno
        self.sex = sex


class DuplicateRow(TemponymError):
    def __init__(self, lineno: int, name: str, sex: str):
        super().__init__(f"line {lineno}: duplicate row for {name},{sex}")
        self.lineno = lineno


class FloorViolation(TemponymError):
    def __init__(self, lineno: int, name: str, count: int):
        super().__init__(
            f"line {lineno}: {name} has count {count} below the publication floor of 5"
        )
        self.lineno = lineno


class DuplicateYear(TemponymError):
    def __init__(self, year: int):
        super().__init__(f"year {year} supplied more than once")
        self.year = year


# The lookup paths raise these two on every miss, so they keep their
# arguments in ``args`` and build the message only when it is read.

class YearNotLoaded(TemponymError):
    """``YearNotLoaded(year)``: the dataset holds no file for that year."""

    year = property(lambda self: self.args[0])

    def __str__(self):
        return f"year {self.year} is not loaded"


class NoData(TemponymError):
    """``NoData(name, context)``: no births for the name in that context (text)."""

    name = property(lambda self: self.args[0])
    context = property(lambda self: self.args[1])

    def __str__(self):
        return f"no data for {self.name!r} in {self.context}"


class EmptyInput(TemponymError):
    pass


class EmptySupport(TemponymError):
    pass


class ConfigError(TemponymError):
    pass


class NetworkError(TemponymError):
    pass


class RateLimited(TemponymError):
    def __init__(self, retry_after: float):
        super().__init__(f"rate limited; retry after {retry_after:.2f}s")
        self.retry_after = retry_after


class AuthError(TemponymError):
    pass


class ServiceUnknownName(TemponymError):
    def __init__(self, service_id: str, name: str):
        super().__init__(f"{service_id} has no prediction for {name!r}")
        self.service_id = service_id
        self.name = name


class IndexFormatError(TemponymError):
    pass
