import math
import re
import tracemalloc

import numpy as np
import pytest

from latebench import RankedList, parse_qrels, parse_run, trec, write_qrels, write_run
from latebench.core import ScoredDoc
from latebench.errors import DuplicateJudgment, MalformedLine, NonContiguousRanks
from latebench.trec import Qrels, RunFile

from oracles import loop_parse_run


def test_parse_single_qrels_line():
    qrels = parse_qrels("q1 0 dA 1\n")
    assert qrels.grades("q1") == {"dA": 1}


def test_parse_run_line():
    run = parse_run("q1 Q0 dA 1 12.5 latebench\n")
    assert run.tag == "latebench"
    hit = run.ranking("q1").hits[0]
    assert (hit.doc_id, hit.score) == ("dA", 12.5)


def test_qrels_tolerates_repeated_whitespace_and_comments():
    text = "# header line\n\nq1  0\tdA   2\nq1 0 dB 0\n"
    qrels = parse_qrels(text)
    assert qrels.grades("q1") == {"dA": 2, "dB": 0}


def test_qrels_rejects_wrong_column_count():
    with pytest.raises(MalformedLine) as exc:
        parse_qrels("q1 0 dA\n")
    assert exc.value.line_no == 1


def test_qrels_rejects_duplicate_judgment():
    with pytest.raises(DuplicateJudgment) as exc:
        parse_qrels("q1 0 dA 1\nq1 0 dA 2\n")
    assert exc.value.line_no == 2


def test_qrels_rejects_negative_or_non_integer_grade():
    with pytest.raises(MalformedLine):
        parse_qrels("q1 0 dA -1\n")
    with pytest.raises(MalformedLine):
        parse_qrels("q1 0 dA high\n")


def test_run_rejects_wrong_column_count_with_line_number():
    with pytest.raises(MalformedLine) as exc:
        parse_run("q1 Q0 dA 1 12.5 tag\nq1 Q0 dB 2 11.0\n")
    assert exc.value.line_no == 2


def test_run_rejects_a_line_whose_tag_differs_from_the_first():
    with pytest.raises(MalformedLine, match="'b' differs") as exc:
        parse_run("# header\nq1 Q0 dA 1 1.0 a\nq1 Q0 dB 2 0.5 b\n")
    assert exc.value.line_no == 3
    with pytest.raises(MalformedLine) as exc:
        parse_run("q1 Q0 dA 1 1.0 a\nq2 Q0 dA 1 1.0 a\nq2 Q0 dB 2 0.5 A\n")
    assert exc.value.line_no == 3
    assert parse_run("q1 Q0 dA 1 1.0 a\nq2 Q0 dA 1 1.0 a\n").tag == "a"


def test_run_rejects_duplicate_doc_per_query():
    with pytest.raises(MalformedLine) as exc:
        parse_run("q1 Q0 dA 1 2.0 t\nq1 Q0 dA 2 1.0 t\n")
    assert exc.value.line_no == 2
    text = "# header\nq1 Q0 dA 1 2.0 t\nq2 Q0 dA 1 2.0 t\nq1 Q0 dB 2 1.0 t\nq1 Q0 dA 3 0.5 t\n"
    with pytest.raises(MalformedLine) as exc:
        parse_run(text)
    assert exc.value.line_no == 5


def test_run_roundtrip_ten_line_fixture():
    lines = []
    for qi in range(2):
        for rank in range(1, 6):
            lines.append(f"q{qi} Q0 d{rank:02d} {rank} {float(10 - rank)!r} bench")
    text = "\n".join(lines) + "\n"
    assert write_run(parse_run(text)) == text


def test_run_roundtrip_preserves_scores_exactly():
    run = RunFile.from_ranked_lists(
        [RankedList(query_id="q1", hits=(ScoredDoc("dA", 0.1), ScoredDoc("dB", 0.03)))],
        tag="t",
    )
    parsed = parse_run(write_run(run))
    assert parsed.ranking("q1").hits == run.ranking("q1").hits


def test_write_run_refuses_score_inversions():
    bad = RunFile(
        tag="t",
        rankings={"q1": RankedList(query_id="q1", hits=(ScoredDoc("dA", 1.0), ScoredDoc("dB", 2.0)))},
    )
    with pytest.raises(NonContiguousRanks):
        write_run(bad)
    # NaN sorts last: a number after it would be written with a lower rank.
    def run(scores):
        return RunFile.from_ranked_lists([RankedList.from_columns("q1", ["dA", "dB"], scores)], tag="t")

    with pytest.raises(NonContiguousRanks, match="with NaN last"):
        write_run(run([math.nan, 1.0]))
    back = parse_run(write_run(run([1.0, math.nan]))).ranking("q1")
    assert back.ids == ("dA", "dB") and back.scores[0] == 1.0 and math.isnan(back.scores[1])


def test_non_contiguous_ranks_warn_on_parse(caplog):
    with caplog.at_level("WARNING"):
        run = parse_run("q1 Q0 dA 1 2.0 t\nq1 Q0 dB 5 1.0 t\n")
    assert run.ranking("q1").doc_ids() == ("dA", "dB")
    assert any("non-contiguous" in message for message in caplog.messages)


def test_qrels_roundtrip():
    qrels = parse_qrels("q1 0 dA 1\nq1 0 dB 2\nq2 0 dC 0\n")
    assert parse_qrels(write_qrels(qrels)).judgments == qrels.judgments
    made = Qrels.from_pairs([("q1", "dB", 2), ("q1", "dA", 0), ("q2", "#d", 1),
                             ("q2", "d\u00e9", 3)])
    assert parse_qrels(write_qrels(made)) == made


@pytest.mark.parametrize("doc_id, grade, message", [
    ("d 1", 1, "doc id 'd 1' is empty or contains whitespace"),
    ("", 1, "doc id '' is empty or contains whitespace"),
    ("d\t1", 1, "doc id 'd\\t1' is empty or contains whitespace"),
    ("d2", -1, "query 'q': doc 'd2' has negative grade -1"),
])
def test_qrels_refuse_a_judgment_write_qrels_could_not_write(doc_id, grade, message):
    # Its qrels line would have other than four columns, or a grade parse_qrels refuses.
    with pytest.raises(ValueError, match=re.escape(message)):
        Qrels.from_pairs([("q", "d0", 1), ("q", doc_id, grade)])


def test_write_run_emits_header_comments():
    run = RunFile.from_ranked_lists(
        [RankedList(query_id="q1", hits=(ScoredDoc("dA", 1.0),))], tag="t"
    )
    text = write_run(run, header=["command: search --k 10"])
    assert text.startswith("# command: search --k 10\n")
    assert parse_run(text).ranking("q1").doc_ids() == ("dA",)


@pytest.mark.parametrize("tag", ["", "a b", "a\tb", " a", "a\n"])
def test_run_tag_must_be_one_token(tag):
    # write_run puts the tag in every line, which parse_run splits into six columns.
    lists = [RankedList(query_id="q1", hits=(ScoredDoc("dA", 1.0),))]
    with pytest.raises(ValueError, match="run tag"):
        RunFile.from_ranked_lists(lists, tag=tag)


@pytest.mark.parametrize("query_id", ["", "q 1", "q\t1", " q1", "q1\n"])
def test_run_query_id_must_be_one_token(query_id):
    # A query id with whitespace would write a run line parse_run refuses.
    lists = [RankedList(query_id=query_id, hits=(ScoredDoc("d1", 3.0),))]
    with pytest.raises(ValueError, match="query id"):
        RunFile.from_ranked_lists(lists, tag="t")
    with pytest.raises(ValueError, match="query id"):
        RunFile("t", {query_id: lists[0]})


def test_a_query_id_starting_with_a_hash_is_refused_by_both_writers():
    # write_run and write_qrels would start its lines with '#', which both
    # parsers skip as comments: the query would be lost on re-read.
    hits = (ScoredDoc("d1", 1.0),)
    with pytest.raises(ValueError, match="query id '#q' starts with '#'"):
        RunFile.from_ranked_lists([RankedList("#q", hits)], tag="t")
    with pytest.raises(ValueError, match="'#q'"):
        RunFile("t", {"#q": RankedList("#q", hits)})
    with pytest.raises(ValueError, match="query id '#q' starts with '#'"):
        Qrels.from_pairs([("#q", "d1", 1)])
    with pytest.raises(ValueError, match="'#q'"):
        Qrels(judgments={"#q": {"d1": 1}})
    # A '#' later in the id is only a character of it.
    run = RunFile.from_ranked_lists([RankedList("q#1", (ScoredDoc("#d", 1.0),))], tag="#t")
    assert parse_run(write_run(run)) == run
    qrels = Qrels.from_pairs([("q#1", "#d", 1)])
    assert parse_qrels(write_qrels(qrels)) == qrels


@pytest.mark.parametrize("doc_id", ["", "d 2", "d\t2", "d\n2", "d\r2", "d\u20282", "d\xa02", " d2"])
def test_write_run_refuses_a_doc_id_that_is_not_one_token(doc_id):
    run = RunFile.from_ranked_lists(
        [RankedList("q1", (ScoredDoc("d1", 3.0), ScoredDoc(doc_id, 2.0), ScoredDoc("d3", 1.0)))],
        tag="t")
    with pytest.raises(ValueError, match=re.escape(f"query 'q1': doc id {doc_id!r} is empty or contains")):
        write_run(run)


def test_write_run_checks_the_whole_ids_column():
    # An empty id and an id with a space keep the join's token count: still refused.
    run = RunFile.from_ranked_lists([RankedList("q1", [("a b", 2.0), ("", 1.0)])], tag="t")
    with pytest.raises(ValueError, match="doc id 'a b'"):
        write_run(run)
    # An unprintable character that is not whitespace is part of one token.
    run = RunFile.from_ranked_lists([RankedList("q1", [("d\x01", 2.0), ("d\u00e9", 1.0)])], "t")
    assert parse_run(write_run(run)) == run


def _canonical_text(queries=3, depth=3000, tag="bench", header=("command: search", "k 3000"),
                    seed=5):
    """write_run of `queries` lists of `depth` random ids and 17-digit scores."""
    rng = np.random.default_rng(seed)
    lists = []
    for qi in range(queries):
        scores = np.sort(rng.standard_normal(depth))[::-1].tolist()
        ids = [f"d{j:05d}" for j in rng.permutation(2 * depth)[:depth].tolist()]
        lists.append(RankedList.from_columns(f"q{qi}", ids, scores))
    return write_run(RunFile.from_ranked_lists(lists, tag), header=header)


def _hexed_run(run):
    return run.tag, [(qid, r.query_id, r.ids, [s.hex() for s in r.scores])
                     for qid, r in run.rankings.items()]


def _outcome(parse, text, caplog):
    """What `parse` gives for `text`: the run by float.hex, or the error's
    type, message and line number; and what it logged."""
    caplog.clear()
    with caplog.at_level("WARNING", logger="latebench.trec"):
        try:
            result = _hexed_run(parse(text))
        except Exception as exc:  # compared as a value below
            result = (type(exc), str(exc), getattr(exc, "line_no", None))
    return result, [(r.name, r.levelname, r.getMessage()) for r in caplog.records]


def _by_columns_only(monkeypatch):
    def refuse(lines):
        raise AssertionError("a run in write_run's layout went through the line loop")
    monkeypatch.setattr(trec, "_run_by_lines", refuse)


SMALL = "# header\nq1 Q0 dA 1 3.0 t\nq1 Q0 dB 2 2.0 t\nq2 Q0 dA 1 1.0 t\n"

CANONICAL = {
    "chunked, a query across each chunk boundary": _canonical_text(),
    "one line": "q1 Q0 dA 1 12.5 t\n",
    "no header, no final newline": "q1 Q0 dA 1 2.0 t\nq2 Q0 dA 1 1.0 t",
    "header and blank lines only": "# a\n\n# b\n",
    "empty": "",
    "body of one whole chunk": _canonical_text(2, trec.RUN_CHUNK_LINES // 2, header=()),
    "body of a chunk and one line": _canonical_text(1, trec.RUN_CHUNK_LINES + 1),
    "one-line queries across a boundary": _canonical_text(trec.RUN_CHUNK_LINES + 3, 1),
    "scores increase (a warning)": "q1 Q0 dA 1 1.0 t\nq1 Q0 dB 2 2.0 t\nq2 Q0 dA 1 1.0 t\n",
    "CRLF line ends": SMALL.replace("\n", "\r\n"),
    "non-ASCII ids": "q\u00e9 Q0 d\u00e8 1 1.0 t\u00ea\n",
    "a Q0 column that is not Q0": "q1 0 dA 1 2.0 t\nq1 x dB 2 1.0 t\n",
}


@pytest.mark.parametrize("name", list(CANONICAL))
def test_column_parse_of_write_runs_layout_is_the_line_loop(name, caplog, monkeypatch):
    text = CANONICAL[name]
    want = _outcome(loop_parse_run, text, caplog)
    _by_columns_only(monkeypatch)
    assert _outcome(parse_run, text, caplog) == want


UNUSUAL = {
    "interleaved queries": "q1 Q0 dA 1 3.0 t\nq2 Q0 dA 1 1.0 t\nq1 Q0 dB 2 2.0 t\n",
    "a query's ranks out of order": "q1 Q0 dB 2 2.0 t\nq1 Q0 dA 1 3.0 t\nq1 Q0 dC 3 1.0 t\n",
    "a query back with ranks from 1": "q1 Q0 dA 1 3.0 t\nq2 Q0 dA 1 1.0 t\nq1 Q0 dB 1 2.0 t\n",
    "non-contiguous ranks": "q1 Q0 dA 1 2.0 t\nq1 Q0 dB 5 1.0 t\n",
    "ranks from 2": "q1 Q0 dA 2 2.0 t\nq1 Q0 dB 3 1.0 t\n",
    "ranks that are not canonical text": "q1 Q0 dA 01 2.0 t\nq1 Q0 dB +2 1.0 t\n",
    "a blank line in the body": "q1 Q0 dA 1 2.0 t\n\nq1 Q0 dB 2 1.0 t\n",
    "a whitespace-only line": "q1 Q0 dA 1 2.0 t\n   \nq1 Q0 dB 2 1.0 t\n",
    "a whitespace-only header line": "# h\n \t \nq1 Q0 dA 1 2.0 t\n",
    "an indented # header": "  # command: search\nq1 Q0 dA 1 2.0 t\n",
    "a # line in the body": "q1 Q0 dA 1 2.0 t\n# note\nq1 Q0 dB 2 1.0 t\n",
    "a six-token # line in the body": "q1 Q0 dA 1 2.0 t\n# Q0 dX 2 1.5 t\nq1 Q0 dB 2 1.0 t\n",
    "a six-token # line first in a query": "q1 Q0 dA 1 2.0 t\n# Q0 dX 1 1.5 t\nq2 Q0 dB 1 1.0 t\n",
    "an indented # line in the body": "q1 Q0 dA 1 2.0 t\n\t# note\nq1 Q0 dB 2 1.0 t\n",
    "tabs": SMALL.replace(" ", "\t"),
    "runs of spaces": SMALL.replace(" Q0 ", "  Q0   "),
    "indented lines": SMALL.replace("\nq", "\n  q"),
    "trailing whitespace": SMALL.replace("\n", " \t\n"),
    "a lone CR line end": SMALL.replace("\n", "\r"),
    "a no-break space between columns": "q1\xa0Q0 dA 1 2.0 t\nq1 Q0 dB 2 1.0 t\n",
    "a unit separator between columns": "q1\x1fQ0 dA 1 2.0 t\n",
    "tabs in a long run": _canonical_text(2, 3000).replace(" t\n", "\tt\n", 1),
}


@pytest.mark.parametrize("name", list(UNUSUAL))
def test_parse_of_unusual_valid_runs_is_the_line_loop(name, caplog):
    text = UNUSUAL[name]
    want = _outcome(loop_parse_run, text, caplog)
    assert not isinstance(want[0][0], type), want  # the case is valid
    assert _outcome(parse_run, text, caplog) == want


def _with_fault(kind, cols, other_doc):
    """The columns of one run line, given the fault `kind`."""
    qid, q0, doc_id, rank, score, tag = cols
    return {
        "five columns": [qid, q0, doc_id, rank, score],
        "seven columns": [*cols, "x"],
        "non-numeric rank": [qid, q0, doc_id, "r1", score, tag],
        "non-numeric score": [qid, q0, doc_id, rank, "1.0.0", tag],
        "rank 0": [qid, q0, doc_id, "0", score, tag],
        "negative rank": [qid, q0, doc_id, "-1", score, tag],
        "mixed tag": [qid, q0, doc_id, rank, score, "other"],
        "repeated doc": [qid, q0, other_doc, rank, score, tag],
    }[kind]


FAULTS = ["five columns", "seven columns", "non-numeric rank", "non-numeric score", "rank 0",
          "negative rank", "mixed tag", "repeated doc"]
BODY = _canonical_text().splitlines()
HEADER = 2
PLACES = {"first": 0, "middle": 4500, "last": len(BODY) - HEADER - 1,
          "chunk end": trec.RUN_CHUNK_LINES - 1, "chunk start": trec.RUN_CHUNK_LINES}


@pytest.mark.parametrize("place", list(PLACES))
@pytest.mark.parametrize("kind", FAULTS)
def test_malformed_runs_raise_what_the_line_loop_raises(kind, place, caplog):
    lines = list(BODY)
    at = HEADER + PLACES[place]
    neighbour = at + 1 if place == "first" else at - 1  # the same query's line
    lines[at] = " ".join(_with_fault(kind, lines[at].split(), lines[neighbour].split()[2]))
    text = "\n".join(lines) + "\n"
    want = _outcome(loop_parse_run, text, caplog)
    assert want[0][0] is MalformedLine, want
    assert _outcome(parse_run, text, caplog) == want


def test_a_short_line_and_a_long_one_that_realign_are_refused():
    # Together they hold twelve tokens that read as two good lines.
    text = "q1 Q0 dA 1 2.0\nt q1 Q0 dB 2 1.0 t\n"
    with pytest.raises(MalformedLine, match="expected 6 columns, got 5") as exc:
        parse_run(text)
    assert exc.value.line_no == 1


def test_special_scores_keep_their_bits_through_write_and_parse(monkeypatch):
    scores = [float("inf"), 2 / 3 * 1e300, 1 / 3, 0.1 + 0.2, 5e-324, 0.0, -0.0, -5e-324,
              -1.7976931348623157e308, float("-inf"), float("nan")]
    ids = [f"d{i}" for i in range(len(scores))]
    run = RunFile.from_ranked_lists([RankedList.from_columns("q1", ids, scores)], tag="t")
    text = write_run(run)
    _by_columns_only(monkeypatch)
    back = parse_run(text).ranking("q1")
    assert back.ids == tuple(ids)
    assert [s.hex() for s in back.scores] == [s.hex() for s in scores]


def test_column_parse_peaks_no_higher_than_the_line_loop():
    text = _canonical_text(100, 1000)
    peaks = []
    for parse in (parse_run, loop_parse_run):
        tracemalloc.start()
        try:
            run = parse(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(run.rankings) == 100
        del run
    assert peaks[0] <= peaks[1], peaks
