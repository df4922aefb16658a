import pytest

from latebench import RankedList, parse_qrels, parse_run, write_qrels, write_run
from latebench.core import ScoredDoc
from latebench.errors import DuplicateJudgment, MalformedLine, NonContiguousRanks
from latebench.trec import RunFile


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


def test_non_contiguous_ranks_warn_on_parse(caplog):
    with caplog.at_level("WARNING"):
        run = parse_run("q1 Q0 dA 1 2.0 t\nq1 Q0 dB 5 1.0 t\n")
    assert run.ranking("q1").doc_ids() == ("dA", "dB")
    assert any("non-contiguous" in message for message in caplog.messages)


def test_qrels_roundtrip():
    qrels = parse_qrels("q1 0 dA 1\nq1 0 dB 2\nq2 0 dC 0\n")
    assert parse_qrels(write_qrels(qrels)).judgments == qrels.judgments


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
