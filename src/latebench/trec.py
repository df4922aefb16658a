"""TREC text formats: qrels and run files.

Line formats (whitespace-delimited, UTF-8):
    qrels:  qid 0 docid grade
    run:    qid Q0 docid rank score tag

Parsers reject structurally invalid input with the offending line number;
they never repair. Lines that are blank or start with '#' are skipped, which
lets every CLI output carry its reproducibility header inline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import RankedList, ScoredDoc
from .errors import DuplicateJudgment, MalformedLine, NonContiguousRanks

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Qrels:
    """Graded judgments: query id -> doc id -> integer grade >= 0."""

    judgments: Mapping[str, Mapping[str, int]]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str, int]]) -> "Qrels":
        table: dict[str, dict[str, int]] = {}
        for qid, doc_id, grade in pairs:
            table.setdefault(qid, {})[doc_id] = int(grade)
        return cls(judgments=table)

    def query_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.judgments))

    def grades(self, query_id: str) -> Mapping[str, int]:
        return self.judgments.get(query_id, {})

    def relevant(self, query_id: str) -> frozenset[str]:
        return frozenset(d for d, g in self.grades(query_id).items() if g > 0)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self.judgments

    def __len__(self) -> int:
        return len(self.judgments)


@dataclass(frozen=True)
class RunFile:
    """Ranked results for a set of queries, plus the run tag: one token per run line."""

    tag: str
    rankings: Mapping[str, RankedList]

    def __post_init__(self):
        self.check_tag(self.tag)

    @staticmethod
    def check_tag(tag: str) -> None:
        """Raise ValueError unless `tag` is one token, as every run line holds it."""
        if tag.split() != [tag]:
            raise ValueError(f"run tag {tag!r} is empty or contains whitespace")

    def query_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.rankings))

    def ranking(self, query_id: str) -> RankedList:
        return self.rankings.get(query_id, RankedList(query_id=query_id, hits=()))

    def top_ids(self, query_id: str, k: int) -> tuple[str, ...]:
        return tuple(hit.doc_id for hit in self.ranking(query_id).hits[:k])

    @classmethod
    def from_ranked_lists(cls, lists: Iterable[RankedList], tag: str) -> "RunFile":
        rankings = {}
        for ranked in lists:
            if ranked.query_id in rankings:
                raise ValueError(f"duplicate query id {ranked.query_id!r} in run")
            rankings[ranked.query_id] = ranked
        return cls(tag=tag, rankings=rankings)


def _content_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped.split()


def parse_qrels(text: str) -> Qrels:
    table: dict[str, dict[str, int]] = {}
    for line_no, cols in _content_lines(text):
        if len(cols) != 4:
            raise MalformedLine(line_no, f"expected 4 columns, got {len(cols)}")
        qid, _, doc_id, grade_text = cols
        try:
            grade = int(grade_text)
        except ValueError:
            raise MalformedLine(line_no, f"grade {grade_text!r} is not an integer") from None
        if grade < 0:
            raise MalformedLine(line_no, f"grade {grade} is negative")
        per_query = table.setdefault(qid, {})
        if doc_id in per_query:
            raise DuplicateJudgment(line_no, qid, doc_id)
        per_query[doc_id] = grade
    return Qrels(judgments=table)


def write_qrels(qrels: Qrels, header: Iterable[str] = ()) -> str:
    lines = [f"# {entry}" for entry in header]
    for qid in qrels.query_ids():
        for doc_id in sorted(qrels.grades(qid)):
            lines.append(f"{qid} 0 {doc_id} {qrels.grades(qid)[doc_id]}")
    return "\n".join(lines) + "\n"


def parse_run(text: str) -> RunFile:
    entries: dict[str, list[tuple[int, str, float]]] = {}
    listed: dict[str, set[str]] = {}
    tag = "unknown"
    seen_any = False
    for line_no, cols in _content_lines(text):
        if len(cols) != 6:
            raise MalformedLine(line_no, f"expected 6 columns, got {len(cols)}")
        qid, _, doc_id, rank_text, score_text, line_tag = cols
        try:
            rank = int(rank_text)
            score = float(score_text)
        except ValueError:
            raise MalformedLine(line_no, "rank or score is not numeric") from None
        if rank < 1:
            raise MalformedLine(line_no, f"rank {rank} is not positive")
        if not seen_any:
            tag = line_tag
            seen_any = True
        docs = listed.setdefault(qid, set())
        if doc_id in docs:
            raise MalformedLine(line_no, f"doc {doc_id!r} listed twice for query {qid!r}")
        docs.add(doc_id)
        entries.setdefault(qid, []).append((rank, doc_id, score))
    rankings = {}
    for qid, rows in entries.items():
        rows.sort(key=lambda item: item[0])
        ranks = [rank for rank, _, _ in rows]
        if ranks != list(range(1, len(rows) + 1)):
            logger.warning("run has non-contiguous ranks for query %s: %s", qid, ranks[:10])
        scores = [score for _, _, score in rows]
        if any(a < b for a, b in zip(scores, scores[1:])):
            logger.warning("run scores increase with rank for query %s", qid)
        rankings[qid] = RankedList(
            query_id=qid, hits=tuple(ScoredDoc(doc_id, score) for _, doc_id, score in rows)
        )
    return RunFile(tag=tag, rankings=rankings)


def write_run(run: RunFile, header: Iterable[str] = ()) -> str:
    """Serialize with ranks 1..n; refuses lists that violate the ordering contract."""
    lines = [f"# {entry}" for entry in header]
    for qid in run.query_ids():
        ranked = run.rankings[qid]
        scores = [hit.score for hit in ranked.hits]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise NonContiguousRanks(
                f"query {qid!r}: scores are not non-increasing, ranks would lie"
            )
        for position, hit in enumerate(ranked.hits, start=1):
            lines.append(f"{qid} Q0 {hit.doc_id} {position} {hit.score!r} {run.tag}")
    return "\n".join(lines) + "\n"
