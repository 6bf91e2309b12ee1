"""Query construction: trace parsing, condition/summary extraction, ladder.

The golden strings in here are frozen from the published walkthrough
examples and must not be touched to make a test pass; if one of these
fails, the code is wrong.
"""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bugnav import querygen
from bugnav.corpus.models import IssueDocument, IssueHit, IssueRef
from bugnav.errors import QueryConstructionError
from oracles import (
    normalize_message_reference,
    parse_exception_text_reference,
    parse_stack_trace_reference,
)


MAUI_BODY = """\
While training the model on the supplied corpus I keep getting 500 Internal Server Errors
from the annotator service, and then the run dies with the traceback below.

org.apache.uima.analysis_engine.AnalysisEngineProcessException: Annotator processing failed.
    at org.apache.uima.analysis_engine.impl.PrimitiveAnalysisEngine_impl.callAnalysisComponentProcess(PrimitiveAnalysisEngine_impl.java:401)
    at org.apache.uima.analysis_engine.impl.PrimitiveAnalysisEngine_impl.processAndOutputNewCASes(PrimitiveAnalysisEngine_impl.java:308)
Caused by: java.lang.StringIndexOutOfBoundsException: String index out of range: 8
    at java.lang.String.substring(String.java:1963)
    at org.annolab.tt4j.TreeTaggerWrapper$2.run(TreeTaggerWrapper.java:1180)
    ... 11 more
"""

CONFIG_BODY = """\
I am using the library to serialize some fairly large configuration objects and I get the
following exception once the values pass a certain size. The exact message is:

java.io.UTFDataFormatException: encoded string too long: 93067 bytes
    at java.io.DataOutputStream.writeUTF(DataOutputStream.java:364)
    at java.io.DataOutputStream.writeUTF(DataOutputStream.java:323)
    at com.typesafe.config.impl.SerializedConfigValue.writeValueData(SerializedConfigValue.java:301)

Serializing smaller objects works fine.
"""

NPE_BODY = """\
On rotation the app dies immediately:

java.lang.NullPointerException: Attempt to invoke virtual method 'java.lang.Object.android.widget.FrameLayout.getTag(int)' on a null object reference
    at com.example.app.widget.PagerHost.restoreState(PagerHost.java:88)
"""


def _issue(title="Untitled", body="", owner="octo", repo="demo", number=1):
    return IssueDocument(ref=IssueRef(owner, repo, number), title=title, body=body)


def _search_returning(n):
    """A fake search callable producing n hits and logging queries."""
    calls = []

    def search(query):
        calls.append(query)
        return [
            IssueHit(ref=IssueRef("a", "b", i + 1), search_rank=i + 1)
            for i in range(n)
        ]

    search.calls = calls
    return search


class TestParseStackTrace:
    def test_root_cause_from_last_caused_by(self):
        info = querygen.parse_stack_trace(MAUI_BODY)
        assert info is not None
        assert info.root_exception == "java.lang.StringIndexOutOfBoundsException"
        assert info.root_message == "String index out of range: 8"
        assert info.complete

    def test_top_exception_is_first_match(self):
        info = querygen.parse_stack_trace(MAUI_BODY)
        assert info.top_exception.endswith("AnalysisEngineProcessException")
        assert info.top_message == "Annotator processing failed."

    def test_single_exception_root_equals_top(self):
        info = querygen.parse_stack_trace(CONFIG_BODY)
        assert info.root_exception == "java.io.UTFDataFormatException"
        assert info.root_message == "encoded string too long: 93067 bytes"
        assert info.root_exception == info.top_exception
        assert info.complete

    def test_truncated_trace_falls_back_to_first_line(self):
        body = (
            "com.example.TopException: outer failure\n"
            "    at com.example.Main.run(Main.java:10)\n"
            "Caused by: ...\n"
        )
        info = querygen.parse_stack_trace(body)
        assert not info.complete
        assert info.root_exception == "com.example.TopException"
        assert info.root_message == "outer failure"

    def test_no_exception_returns_none(self):
        assert querygen.parse_stack_trace("Dark theme is ignored on restart.") is None

    def test_plural_errors_word_is_not_a_match(self):
        assert querygen.parse_stack_trace("We saw 500 Internal Server Errors today") is None

    def test_lowercase_error_is_not_a_match(self):
        assert querygen.parse_stack_trace("there was an error while saving") is None


class TestExtractCondition:
    def test_golden_condition(self):
        title = "Stemmer exception when training word2vec with the supplied tweets_lean.txt file!"
        assert (
            querygen.extract_condition(title)
            == "training word2vec with the supplied tweets_lean.txt file"
        )

    def test_keyword_without_remainder(self):
        assert querygen.extract_condition("Crash when") is None

    def test_no_keyword(self):
        assert querygen.extract_condition("SwedishStemmer not thread safe") is None

    def test_case_insensitive_keyword(self):
        assert querygen.extract_condition("Crash WHEN saving the file") == "saving the file"

    def test_keyword_must_be_whole_word(self):
        # "shifted" contains "if" but is not a condition marker
        assert querygen.extract_condition("Labels shifted by one pixel") is None

    def test_first_keyword_wins(self):
        assert querygen.extract_condition("Hang if parsing while saving") == "parsing while saving"


class TestSummarizeTitle:
    def test_golden_summary(self):
        title = "SwedishStemmer (and DutchStemmer?) not thread safe"
        assert querygen.summarize_title(title, set()) == "SwedishStemmer DutchStemmer thread safe"

    def test_project_tokens_removed(self):
        out = querygen.summarize_title("deeplearning4j crash on save", {"eclipse", "deeplearning4j"})
        assert out == "crash save"

    def test_all_stopwords_is_an_error(self):
        with pytest.raises(QueryConstructionError):
            querygen.summarize_title("the a an", set())


class TestBuildQuery:
    def test_stack_trace_strategy_golden_query(self):
        issue = _issue(title="UTFDataFormatException on large objects", body=CONFIG_BODY)
        search = _search_returning(10)
        outcome = querygen.build_query(issue, search)
        q = outcome.query
        assert q.strategy == querygen.STRATEGY_STACK_TRACE
        assert q.text == "UTFDataFormatException encoded string too long"
        assert q.qualifiers == ["in:body,comments"]
        assert q.full() == "UTFDataFormatException encoded string too long in:body,comments"
        assert len(outcome.hits) == 10
        assert len(search.calls) == 1

    def test_scope_option_narrows_to_body(self):
        issue = _issue(body=CONFIG_BODY)
        outcome = querygen.build_query(issue, _search_returning(10), scope="body")
        assert outcome.query.qualifiers == ["in:body"]

    def test_npe_message_normalization_golden(self):
        issue = _issue(title="App crash on rotation", body=NPE_BODY)
        outcome = querygen.build_query(issue, _search_returning(10))
        assert outcome.query.text == (
            "NullPointerException attempt to invoke virtual method java lang Object "
            "android widget FrameLayout getTag int on a null object reference"
        )

    def test_few_results_fall_through_to_condition(self):
        issue = _issue(
            title="Stemmer exception when training word2vec with the supplied tweets_lean.txt file!",
            body=MAUI_BODY,
        )
        search = _search_returning(2)
        outcome = querygen.build_query(issue, search, n_threshold=5)
        assert outcome.query.strategy == querygen.STRATEGY_CONDITION
        assert outcome.query.text == "training word2vec with the supplied tweets_lean.txt file"
        assert outcome.query.qualifiers == ["in:title"]
        # condition is terminal even with too few results
        assert len(search.calls) == 2
        assert len(outcome.hits) == 2

    def test_no_trace_no_condition_uses_summary(self):
        issue = _issue(title="SwedishStemmer (and DutchStemmer?) not thread safe")
        search = _search_returning(7)
        outcome = querygen.build_query(issue, search)
        assert outcome.query.strategy == querygen.STRATEGY_SUMMARY_SCOPED
        assert outcome.query.full() == "SwedishStemmer DutchStemmer thread safe in:title"
        assert len(search.calls) == 1

    def test_summary_retries_without_title_qualifier(self):
        issue = _issue(title="Dark theme ignored")
        search = _search_returning(0)
        outcome = querygen.build_query(issue, search)
        assert outcome.query.strategy == querygen.STRATEGY_SUMMARY_UNSCOPED
        assert outcome.query.qualifiers == []
        assert outcome.query.full() == "Dark theme ignored"
        assert len(search.calls) == 2
        assert [q.strategy for q, _ in outcome.attempts] == [
            querygen.STRATEGY_SUMMARY_SCOPED,
            querygen.STRATEGY_SUMMARY_UNSCOPED,
        ]

    def test_empty_condition_title_falls_to_summary(self):
        issue = _issue(title="Crash when")
        outcome = querygen.build_query(issue, _search_returning(9))
        assert outcome.query.strategy == querygen.STRATEGY_SUMMARY_SCOPED
        assert outcome.query.text == "Crash"

    def test_trace_fires_but_nothing_else_available(self):
        # the last executed query is returned when later rungs cannot run
        issue = _issue(title="the a an", body=CONFIG_BODY)
        search = _search_returning(1)
        outcome = querygen.build_query(issue, search, n_threshold=5)
        assert outcome.query.strategy == querygen.STRATEGY_STACK_TRACE
        assert len(outcome.hits) == 1

    def test_nothing_works_raises(self):
        issue = _issue(title="the a an", body="no trace here")
        with pytest.raises(QueryConstructionError):
            querygen.build_query(issue, _search_returning(0))

    def test_project_name_tokens_come_from_the_ref(self):
        issue = _issue(title="demo crashes on resume", owner="octo", repo="demo")
        outcome = querygen.build_query(issue, _search_returning(8))
        assert outcome.query.text == "crashes resume"

    def test_query_budget_truncates_at_word_boundary(self):
        long_msg = "value " + " ".join(f"word{i}" for i in range(100))
        body = f"com.example.BoomException: {long_msg}\n    at com.example.A.b(A.java:1)\n"
        issue = _issue(body=body)
        outcome = querygen.build_query(issue, _search_returning(10))
        q = outcome.query
        assert len(q.full()) <= 256
        # no chopped-in-half word at the end
        assert q.text == q.text.strip()
        last = q.text.split()[-1]
        assert last in body or last == "BoomException"

    def test_deterministic(self):
        issue = _issue(title="App crash on rotation", body=NPE_BODY)
        a = querygen.build_query(issue, _search_returning(10))
        b = querygen.build_query(issue, _search_returning(10))
        assert a.query == b.query


# pieces of names and keywords, the characters of a name run, the word
# boundaries around it, and non-ASCII word, digit and space characters
_LINE_PIECES = st.sampled_from(
    ["Exception", "Error", "Errors", "Excep", "a", "Z", "E", "_", ".", "$", "..", " ", ":",
     "1", "\t", "é", "²", "ǅ", "-", "\u2003"]
)


@settings(max_examples=1500, deadline=None)
@given(st.lists(_LINE_PIECES, max_size=30).map("".join))
@example("java.io.UTFDataFormatException: encoded string too long: 93067 bytes")
@example("_Error._Error.aException.Error: x")
@example(".Error")
@example("$a.Error$")
@example("é.ErrorError.Exception")
@example("_Error.xError")
@example("_Error x.FooError: m")
@example("a$Error")
@example("aError\u0663 Error")
def test_exception_text_equals_reference(line):
    assert querygen._parse_exception_text(line) == parse_exception_text_reference(line)


# lines of a body: name runs, trace frames, "Caused by:" heads with and
# without a name after them, and the pieces between
_TRACE_PIECES = st.sampled_from(
    ["Caused by: ", "  Caused by:", "Caused by:x", "java.io.IOException", "a.b.FooError",
     "_Error.", "Exception", "Error", ": msg 12", "\tat a.B.c(B.java:3)", "$", ".", " ",
     "é", "\u0663", "\n", "\r\n"]
)


@settings(max_examples=1500, deadline=None)
@given(st.lists(_TRACE_PIECES, max_size=30).map("".join))
@example("Exception: top\nCaused by: x.RootError: root")
@example("Exception: top\nCaused by: nothing here")
@example("Caused by: a.FirstError: 1\nCaused by:\nCaused by: b.SecondError: 2")
@example("no trace\nCaused by: only.CauseError")
def test_stack_trace_equals_reference(body):
    assert querygen.parse_stack_trace(body) == parse_stack_trace_reference(body)


# the characters of a numeric tail, with non-ASCII digits and spaces
_MESSAGE_PIECES = st.sampled_from(
    [" ", " ", "  ", "\t", "\u2003", "\n", ":", "=", "0", "7", "٣", ".", ",", "a", "B",
     "bytes", "é", "(", "$"]
)


@settings(max_examples=1500, deadline=None)
@given(st.lists(_MESSAGE_PIECES, max_size=30).map("".join))
@example("encoded string too long: 93067 bytes")
@example("String index out of range: 8")
@example("size = 1,024.5 MB  ")
@example("x : = 5")
@example("x 5 a b")
@example(".5")
@example("bytes 5 ")
def test_normalized_message_equals_reference(message):
    assert querygen._normalize_message(message) == normalize_message_reference(message)


@pytest.mark.parametrize(
    "line",
    # a search scans from each word start of the first run to its end; the
    # second holds thousands of keywords, none after a place a name may
    # begin, and each would be walked back from to the run's start
    [("a." * 32768), ("_Error." * 9363)[:65536]],
    ids=["name-run", "keyword-run"],
)
def test_long_name_run_is_parsed_fast(line):
    # the reference is quick on the line that ends in a keyword
    want = parse_exception_text_reference(line + "Exception: x")
    start = time.process_time()
    assert querygen._parse_exception_text(line) is None
    assert querygen._parse_exception_text(line + "Exception: x") == want
    assert time.process_time() - start < 1.0


def test_long_run_of_spaces_in_a_message_is_normalized_fast():
    # the forward tail pattern split the run in every way at every start
    start = time.process_time()
    message = "encoded" + " " * 10_000 + "string too long: 93067 bytes"
    assert querygen._normalize_message(message) == "encoded string too long"
    assert querygen._normalize_message(message.replace(": 93067", ":" + " " * 10_000)) == (
        "encoded string too long bytes"
    )
    assert time.process_time() - start < 1.0
