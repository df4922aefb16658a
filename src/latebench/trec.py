"""TREC text formats: qrels and run files.

Line formats (whitespace-delimited, UTF-8):
    qrels:  qid 0 docid grade
    run:    qid Q0 docid rank score tag

Parsers reject structurally invalid input with the offending line number;
they never repair. Lines that are blank or start with '#' are skipped, which
lets every CLI output carry its reproducibility header inline; so no query
id may start with '#' (`check_query_id`), and `Qrels` and `RunFile` refuse
one.

A run's ranked lists hold their hits as two columns, doc ids and scores
(`core.RankedList`), and `parse_run` reads a file in `write_run`'s layout
straight into them: unindented blank and '#' lines first, then only lines of
six tokens joined by single spaces, each query's lines contiguous with ranks
1 to n in order, one tag, and no doc twice for a query. It reads those lines
in chunks of RUN_CHUNK_LINES, one join and one split each, and keeps of each
line only its doc id and its float score: no tuple, list or `ScoredDoc` per
line. `ScoredDoc`s are made only when a list's `hits` is read. Any other file
(malformed, interleaved, out of order, or with an indented '#' line, a tab
or a run of spaces) goes through the line loop, `_run_by_lines`, which gives
what the column path would and is its reference in the tests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import count, islice, repeat
from math import isnan
from operator import gt, lt
from typing import Iterable, Mapping

from .core import RankedList
from .errors import DuplicateJudgment, MalformedLine, NonContiguousRanks

logger = logging.getLogger(__name__)

# Lines per chunk of `parse_run`'s column path. The split of one chunk is
# ~25k short strings, ~1.5 MiB at ~40 bytes of text per run line.
RUN_CHUNK_LINES = 4096


@dataclass(frozen=True)
class Qrels:
    """Graded judgments: query id -> doc id -> integer grade >= 0. Every query
    id passes `check_query_id`, and every doc id is one token, as a qrels line
    holds it."""

    judgments: Mapping[str, Mapping[str, int]]

    def __post_init__(self):
        for query_id, grades in self.judgments.items():
            check_query_id(query_id)
            for doc_id, grade in grades.items():
                _check_token("doc id", doc_id)
                if grade < 0:
                    raise ValueError(f"query {query_id!r}: doc {doc_id!r} has negative grade {grade}")

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


def _check_token(kind: str, text: str) -> None:
    """Raise ValueError unless `text` is one whitespace-free token: a run line's columns."""
    if text.split() != [text]:
        raise ValueError(f"{kind} {text!r} is empty or contains whitespace")


def check_query_id(query_id: str) -> None:
    """Raise ValueError unless `query_id` can start a qrels or run line: one
    token, and not starting '#', which the parsers would skip as a comment."""
    _check_token("query id", query_id)
    if query_id.startswith("#"):
        raise ValueError(f"query id {query_id!r} starts with '#'; its lines would read as comments")


def _no_whitespace_but_spaces(text: str) -> bool:
    """Whether the only whitespace in `text` is ' '. An ASCII text is searched
    for each other ASCII whitespace character. Any other text must be
    printable, as every whitespace character but ' ' is unprintable (a line
    break too), so it is refused for an unprintable character of any kind."""
    if text.isascii():
        return not any(space in text for space in "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f")
    return text.isprintable()


def _first_non_token(texts: tuple[str, ...]) -> str | None:
    """The first of `texts` that is not one whitespace-free token, None when
    each is one. They are checked on their one join: it holds no whitespace but
    the joining spaces, and no text is empty. Only a join that fails is walked
    text by text."""
    joined = " ".join(texts)
    if (_no_whitespace_but_spaces(joined) and joined.count(" ") == len(texts) - 1
            and "" not in texts):
        return None
    return next((text for text in texts if text.split() != [text]), None)


@dataclass(frozen=True)
class RunFile:
    """Ranked results for a set of queries, plus the run tag. The tag is one
    token, as a run line holds it, and every query id passes `check_query_id`."""

    tag: str
    rankings: Mapping[str, RankedList]

    def __post_init__(self):
        self.check_tag(self.tag)
        for query_id in self.rankings:
            check_query_id(query_id)

    @staticmethod
    def check_tag(tag: str) -> None:
        """Raise ValueError unless `tag` is one token, as every run line holds it."""
        _check_token("run tag", tag)

    def query_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.rankings))

    def ranking(self, query_id: str) -> RankedList:
        return self.rankings.get(query_id, RankedList(query_id=query_id, hits=()))

    def top_ids(self, query_id: str, k: int) -> tuple[str, ...]:
        return self.ranking(query_id).ids[:k]

    @classmethod
    def from_ranked_lists(cls, lists: Iterable[RankedList], tag: str) -> "RunFile":
        rankings = {}
        for ranked in lists:
            if ranked.query_id in rankings:
                raise ValueError(f"duplicate query id {ranked.query_id!r} in run")
            rankings[ranked.query_id] = ranked
        return cls(tag=tag, rankings=rankings)


def _content_lines(lines: list[str]):
    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped.split()


def parse_qrels(text: str) -> Qrels:
    table: dict[str, dict[str, int]] = {}
    for line_no, cols in _content_lines(text.splitlines()):
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
    """The run in `text`: by columns when it is in `write_run`'s layout (see
    the module docstring), else line by line, with the same result, errors and
    warnings either way."""
    lines = text.splitlines()
    try:
        return _run_by_columns(lines)
    except _NotInLayout:
        return _run_by_lines(lines)


class _NotInLayout(Exception):
    """The lines are not in `write_run`'s layout; `_run_by_lines` reads them."""


def _run_by_columns(lines: list[str]) -> RunFile:
    """`_run_by_lines` of lines in `write_run`'s layout; raises _NotInLayout,
    before it logs anything, on any other.

    Every check of the line loop holds for such lines, and holds on the
    columns: six tokens a line, integer ranks from 1 with none missing, float
    scores, one tag and no doc twice for a query. Each query's lines are read
    as runs that a rank "1" ends, one list slice each.
    """
    start = 0
    while start < len(lines) and (not lines[start] or lines[start][0] == "#"):
        start += 1
    columns: dict[str, tuple[list[str], list[float]]] = {}
    ranks_text: list[str] = []  # "1", "2", ... as deep as the deepest query so far
    tag = qid = None
    for lo in range(start, len(lines), RUN_CHUNK_LINES):
        chunk = lines[lo:lo + RUN_CHUNK_LINES]
        joined = " ".join(chunk)
        # No whitespace but single spaces, none at either end of a line and
        # five in each: so each line is six tokens, as `stripped.split()`
        # finds them.
        if (not _no_whitespace_but_spaces(joined) or "  " in joined or joined.startswith(" ")
                or joined.endswith(" ") or set(map(str.count, chunk, repeat(" "))) != {5}):
            raise _NotInLayout
        cols = joined.split(" ")
        tags = cols[5::6]
        if tag is None:
            tag = tags[0]
        if tags.count(tag) != len(tags):
            raise _NotInLayout
        try:
            values = list(map(float, cols[4::6]))
        except ValueError:
            raise _NotInLayout from None
        qids, docs, ranks = cols[0::6], cols[2::6], cols[3::6]
        at = 0
        while at < len(chunk):
            if qids[at] != qid:
                qid = qids[at]
                if qid in columns or qid.startswith("#"):
                    raise _NotInLayout
                columns[qid] = ([], [])
            ids, scores = columns[qid]
            try:
                end = ranks.index("1", at + 1)
            except ValueError:
                end = len(chunk)
            first, size = len(ids), end - at
            if len(ranks_text) < first + size:
                ranks_text += map(str, range(len(ranks_text) + 1, first + size + 1))
            if ranks[at:end] != ranks_text[first:first + size] or qids[at:end].count(qid) != size:
                raise _NotInLayout
            ids += docs[at:end]
            scores += values[at:end]
            at = end
    if any(len(set(ids)) != len(ids) for ids, _ in columns.values()):
        raise _NotInLayout
    for qid, (_, scores) in columns.items():
        if any(map(lt, scores, islice(scores, 1, None))):
            logger.warning("run scores increase with rank for query %s", qid)
    rankings = {qid: RankedList.from_columns(qid, ids, scores)
                for qid, (ids, scores) in columns.items()}
    return RunFile(tag="unknown" if tag is None else tag, rankings=rankings)


def _run_by_lines(lines: list[str]) -> RunFile:
    """The line loop: every run `_run_by_columns` does not take."""
    entries: dict[str, list[tuple[int, str, float]]] = {}
    listed: dict[str, set[str]] = {}
    tag = None
    for line_no, cols in _content_lines(lines):
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
        if tag is None:
            tag = line_tag
        elif line_tag != tag:
            raise MalformedLine(line_no, f"run tag {line_tag!r} differs from the first {tag!r}")
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
        rankings[qid] = RankedList.from_columns(qid, [doc_id for _, doc_id, _ in rows], scores)
    return RunFile(tag="unknown" if tag is None else tag, rankings=rankings)


def write_run(run: RunFile, header: Iterable[str] = ()) -> str:
    """Serialize with ranks 1..n. Refuses, before writing, a list that
    violates the ordering contract (scores non-increasing with NaN last), and a
    doc id that is not one token."""
    lines = [f"# {entry}" for entry in header]
    for qid in run.query_ids():
        ranked = run.rankings[qid]
        ids, scores = ranked.ids, ranked.scores
        nans = tuple(map(isnan, scores))
        if any(map(lt, scores, islice(scores, 1, None))) or any(map(gt, nans, islice(nans, 1, None))):
            raise NonContiguousRanks(
                f"query {qid!r}: scores are not non-increasing with NaN last, ranks would lie"
            )
        bad = _first_non_token(ids)
        if bad is not None:
            raise ValueError(f"query {qid!r}: doc id {bad!r} is empty or contains whitespace")
        prefix, suffix = f"{qid} Q0 ", f" {run.tag}"
        lines += [f"{prefix}{doc_id} {rank} {score!r}{suffix}"
                  for doc_id, rank, score in zip(ids, count(1), scores)]
    return "\n".join(lines) + "\n"
