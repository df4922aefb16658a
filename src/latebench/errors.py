"""Exception types raised across the package.

Every error latebench raises deliberately derives from LatebenchError so the
CLI can catch the lot and emit a single machine-parsable line.
"""


class LatebenchError(Exception):
    """Base class for all latebench errors."""


class EmptyMatrix(LatebenchError):
    pass


class NotNormalized(LatebenchError):
    def __init__(self, row: int, norm: float):
        super().__init__(f"row {row} has norm {norm!r}, expected 1.0")
        self.row = row
        self.norm = norm


class NonFinite(LatebenchError):
    def __init__(self, row: int, col: int):
        super().__init__(f"non-finite entry at row {row}, col {col}")
        self.row = row
        self.col = col


class DimensionMismatch(LatebenchError):
    pass


class EmptyCorpus(LatebenchError):
    pass


class TooFewVectors(LatebenchError):
    pass


class NDocsTooSmall(LatebenchError):
    pass


class UnknownDoc(LatebenchError):
    pass


class UnsupportedBits(LatebenchError):
    pass


class EmptyLengths(LatebenchError):
    pass


class NoSharedQueries(LatebenchError):
    pass


class QueryMissingFromQrels(LatebenchError):
    pass


class BadMagic(LatebenchError):
    pass


class VersionMismatch(LatebenchError):
    pass


class TruncatedPayload(LatebenchError):
    pass


class CorpusMismatch(LatebenchError):
    pass


class PayloadMismatch(LatebenchError):
    pass


class MalformedLine(LatebenchError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateJudgment(LatebenchError):
    def __init__(self, line_no: int, query_id: str, doc_id: str):
        super().__init__(f"line {line_no}: duplicate judgment for ({query_id}, {doc_id})")
        self.line_no = line_no


class NonContiguousRanks(LatebenchError):
    pass


class SpecInfeasible(LatebenchError):
    pass
