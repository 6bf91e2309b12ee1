"""Shipping gate: one test per release criterion, one pass/fail line each.

Golden files live under fixtures/golden and are produced once by
tools/make_demo_fixtures.py; nothing in here regenerates them. The
frozen strings are load-bearing: a mismatch means the code drifted,
not the test.
"""

import dataclasses
import json
import random
import socket
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bugnav import cli, querygen, ranking
from bugnav.corpus.client import PlatformClient
from bugnav.corpus.fixtures import FixtureStore
from bugnav.corpus.miner import mine_similar_pairs
from bugnav.corpus.models import IssueDocument, IssueHit, IssueRef
from bugnav.corpus.transport import ReplayTransport
from bugnav.evalharness import EvalDataset, evaluate, precision_at_k
from bugnav.similarity import SimilarityVector, gst_similarity, overlap_coefficient

from oracles import dot_reference, greedy_similarity_reference, overlap_reference
from test_ranking import _tuner_dataset

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
WALKTHROUGH = FIXTURES / "walkthrough"
GOLDEN = FIXTURES / "golden"

DEFAULTS = ranking.WeightConfig()

NPE_BODY = """\
On rotation the app dies immediately:

java.lang.NullPointerException: Attempt to invoke virtual method 'java.lang.Object.android.widget.FrameLayout.getTag(int)' on a null object reference
    at com.example.app.widget.PagerHost.restoreState(PagerHost.java:88)
"""

STEMMER_DRIVER_BODY = """\
While using a Swedish language Maui Server project concurrently from multiple
processes, I got several 500 Internal Server Errors with the following traceback:

org.apache.uima.analysis_engine.AnalysisEngineProcessException: Annotator processing failed.
    at org.apache.uima.analysis_engine.impl.PrimitiveAnalysisEngine_impl.callAnalysisComponentProcess(PrimitiveAnalysisEngine_impl.java:401)
Caused by: java.lang.StringIndexOutOfBoundsException: String index out of range: 8
    at java.lang.String.substring(String.java:1963)

The root cause seems to be that the Snowball stemmer used by SwedishStemmer is
not thread safe.
"""

STEMMER_NAVIGATOR_BODY = """\
Hi, I've tried to run the word2vec (using the supplied Uima tokenizer) and I keep
getting this error for many of the words in the sentences:

org.apache.uima.analysis_engine.AnalysisEngineProcessException: Annotator processing failed.
    at org.apache.uima.analysis_engine.impl.PrimitiveAnalysisEngine_impl.callAnalysisComponentProcess(PrimitiveAnalysisEngine_impl.java:401)
Caused by: java.lang.StringIndexOutOfBoundsException: String index out of range: 7
    at java.lang.String.substring(String.java:1963)
"""


def _issue(title="Untitled", body="", number=1):
    return IssueDocument(ref=IssueRef("octo", "demo", number), title=title, body=body)


def _search_returning(n):
    def search(query):
        return [
            IssueHit(ref=IssueRef("a", "b", i + 1), search_rank=i + 1)
            for i in range(n)
        ]

    return search


def test_01_golden_generated_queries():
    start = time.monotonic()

    out = querygen.build_query(
        _issue(title="App crash on rotation", body=NPE_BODY), _search_returning(10)
    )
    assert out.query.strategy == querygen.STRATEGY_STACK_TRACE
    assert out.query.text == (
        "NullPointerException attempt to invoke virtual method java lang Object "
        "android widget FrameLayout getTag int on a null object reference"
    )

    out = querygen.build_query(
        _issue(
            title="Stemmer exception when training word2vec with the supplied tweets_lean.txt file!"
        ),
        _search_returning(2),
    )
    assert out.query.strategy == querygen.STRATEGY_CONDITION
    assert out.query.text == "training word2vec with the supplied tweets_lean.txt file"

    out = querygen.build_query(
        _issue(title="SwedishStemmer (and DutchStemmer?) not thread safe"),
        _search_returning(7),
    )
    assert out.query.strategy == querygen.STRATEGY_SUMMARY_SCOPED
    assert out.query.text == "SwedishStemmer DutchStemmer thread safe"

    assert time.monotonic() - start < 1.0


def test_02_stack_trace_root_causes():
    info = querygen.parse_stack_trace(STEMMER_DRIVER_BODY)
    assert info.top_exception == (
        "org.apache.uima.analysis_engine.AnalysisEngineProcessException"
    )
    assert info.top_message == "Annotator processing failed."
    assert info.root_exception == "java.lang.StringIndexOutOfBoundsException"
    assert info.root_message == "String index out of range: 8"

    info = querygen.parse_stack_trace(STEMMER_NAVIGATOR_BODY)
    assert info.root_exception == "java.lang.StringIndexOutOfBoundsException"
    assert info.root_message == "String index out of range: 7"


def test_03_overlap_coefficient_vs_set_oracle():
    universe = tuple(range(6))
    rng = random.Random(2026)
    for _ in range(10_000):
        xs = frozenset(u for u in universe if rng.random() < 0.5)
        ys = frozenset(u for u in universe if rng.random() < 0.5)
        got = overlap_coefficient(xs, ys)
        assert got == float(overlap_reference(xs, ys))
        assert 0.0 <= got <= 1.0
        assert got == overlap_coefficient(ys, xs)
        if xs and xs <= ys:
            assert got == 1.0
        if not xs or not ys:
            assert got == 0.0
    assert overlap_coefficient(frozenset(), frozenset()) == 0.0
    assert overlap_coefficient({1, 2}, {1, 2, 3, 4}) == 1.0


def test_04_tiling_similarity_vs_reference():
    start = time.monotonic()
    rng = random.Random(1177)
    alphabet = "abc"
    cases = 0
    while cases < 1000:
        a = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        b = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        mml = rng.choice((1, 2, 3, 9))
        assert gst_similarity(a, b, min_match_len=mml) == float(
            greedy_similarity_reference(a, b, mml)
        )
        cases += 1
    assert time.monotonic() - start < 60.0


def _random_rank_inputs(rng, *, equal_quality=False, n=None):
    n = n or rng.randint(2, 8)
    shared = ranking.QualityMetrics(
        word_count=rng.randint(0, 600),
        has_fix_commit=rng.random() < 0.5,
        comment_count=rng.randint(0, 25),
        keyword_count=rng.randint(0, 6),
    )
    inputs = []
    for i in range(n):
        metrics = shared if equal_quality else ranking.QualityMetrics(
            word_count=rng.randint(0, 600),
            has_fix_commit=rng.random() < 0.5,
            comment_count=rng.randint(0, 25),
            keyword_count=rng.randint(0, 6),
        )
        sims = SimilarityVector(
            code=rng.random(),
            dependency=rng.random(),
            permission=rng.random(),
            ui=rng.random(),
        )
        inputs.append(
            ranking.RankInput(
                issue=_issue(number=i + 1), metrics=metrics, sims=sims, search_rank=i + 1
            )
        )
    return inputs


def test_05_ranking_properties():
    rng = random.Random(40)

    # positive weight scaling never changes the winner; power-of-two
    # scales multiply every score exactly, so the whole order holds
    for _ in range(400):
        inputs = _random_rank_inputs(rng)
        base = ranking.rank(inputs, DEFAULTS)
        factor = rng.choice((0.25, 0.5, 2.0, 4.0, 8.0))
        scaled = ranking.rank(
            inputs, ranking.WeightConfig(*(factor * w for w in DEFAULTS.as_tuple()))
        )
        assert [c.issue.ref for c in scaled] == [c.issue.ref for c in base]
        rough = ranking.WeightConfig(*(3.0 * w for w in DEFAULTS.as_tuple()))
        assert ranking.rank(inputs, rough)[0].issue.ref == base[0].issue.ref

    # raising one positively weighted factor never demotes a candidate
    for _ in range(400):
        inputs = _random_rank_inputs(rng)
        pick = rng.randrange(len(inputs))
        before = ranking.rank(inputs, DEFAULTS)
        rank_before = next(c for c in before if c.search_rank == pick + 1)
        target = inputs[pick]
        sims = target.sims
        field_name = rng.choice(("code", "dependency", "permission", "ui"))
        bumped = dataclasses.replace(
            sims, **{field_name: min(1.0, getattr(sims, field_name) + 0.1)}
        )
        if getattr(bumped, field_name) == getattr(sims, field_name):
            continue
        inputs[pick] = ranking.RankInput(
            issue=target.issue, metrics=target.metrics, sims=bumped,
            search_rank=target.search_rank,
        )
        after = ranking.rank(inputs, DEFAULTS)
        rank_after = next(c for c in after if c.search_rank == pick + 1)
        assert rank_after.score > rank_before.score
        assert rank_after.final_rank <= rank_before.final_rank

    # zero similarity weights plus equal quality leave the platform order
    zeroed = ranking.WeightConfig(
        w_issue_length=DEFAULTS.w_issue_length,
        w_num_comment=DEFAULTS.w_num_comment,
        w_code=0.0, w_dep=0.0, w_perm=0.0, w_ui=0.0,
        w_has_fix=DEFAULTS.w_has_fix, w_keywords=DEFAULTS.w_keywords,
    )
    for _ in range(300):
        inputs = _random_rank_inputs(rng, equal_quality=True)
        out = ranking.rank(inputs, zeroed)
        assert [c.search_rank for c in out] == sorted(c.search_rank for c in inputs)


def test_06_scoring_identity():
    assert ranking.score(ranking.FactorVector(code=1.0), DEFAULTS) == 0.1428
    rng = random.Random(66)
    for _ in range(500):
        f = ranking.FactorVector(*(rng.random() for _ in range(8)))
        w = ranking.WeightConfig(*(rng.random() for _ in range(8)))
        assert ranking.score(f, w) == pytest.approx(
            dot_reference(f.as_tuple(), w.as_tuple()), abs=1e-12
        )


def test_07_eval_metrics_hand_computed():
    assert precision_at_k([], {IssueRef("a", "b", 1)}, 5) == 1.0
    assert precision_at_k([], frozenset(), 1) == 1.0

    report = evaluate(EvalDataset.load(FIXTURES / "eval" / "dataset.jsonl"), DEFAULTS)
    raw = report.per_system["raw_search"]
    reranked = report.per_system["reranked"]

    # entry by entry: relevant raw positions are 4, 1, none, none (empty),
    # and re-ranking moves them to 1 and 2 respectively
    assert raw.mrr == (1 / 4 + 1.0 + 0.0 + 0.0) / 4 == 0.3125
    assert reranked.mrr == (1.0 + 1 / 2 + 0.0 + 0.0) / 4 == 0.375

    assert raw.prec_at[1] == (0.0 + 1.0 + 0.0 + 1.0) / 4
    assert raw.prec_at[3] == (0.0 + 1 / 3 + 0.0 + 1.0) / 4
    assert raw.prec_at[5] == (1 / 5 + 1 / 5 + 0.0 + 1.0) / 4

    assert reranked.prec_at[1] == (1.0 + 0.0 + 0.0 + 1.0) / 4
    assert reranked.prec_at[3] == (1 / 3 + 1 / 3 + 0.0 + 1.0) / 4
    assert reranked.prec_at[5] == (1 / 5 + 1 / 5 + 0.0 + 1.0) / 4

    assert report.num_relevant == 2


def test_08_end_to_end_replay(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)

    argv = ["recommend", "lightbend/config#398", "--fixture-dir", str(WALKTHROUGH)]
    start = time.monotonic()
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert time.monotonic() - start < 10.0

    assert first == second
    assert first == (GOLDEN / "walkthrough_output.json").read_text()

    data = json.loads(first)
    top = data["candidates"][0]
    assert top["ref"] == "geotools/geotools#2156"
    assert top["search_rank"] == 4
    assert top["final_rank"] == 1


def test_09_tuner_rewards_separating_signal():
    dataset = _tuner_dataset()
    tuned = ranking.tune_weights(dataset, grid_step=0.0714)
    swept = (tuned.w_code, tuned.w_dep, tuned.w_perm, tuned.w_ui)
    assert tuned.w_dep == max(swept)
    assert tuned.w_dep == pytest.approx(11 * 0.0714, abs=1e-12)
    assert ranking.tune_weights(dataset, grid_step=0.0714) == tuned

    before = evaluate(dataset, DEFAULTS).per_system["reranked"].mrr
    after = evaluate(dataset, tuned).per_system["reranked"].mrr
    assert after > before


def test_10_miner_matches_golden_pairs():
    client = PlatformClient(ReplayTransport(FixtureStore(FIXTURES / "miner")))
    pairs = mine_similar_pairs(client)
    text = "".join(f"{d} {n}\n" for d, n in pairs)
    assert text == (GOLDEN / "miner_pairs.txt").read_text()
    assert pairs
    for driver, navigator in pairs:
        assert (driver.owner, driver.repo) != (navigator.owner, navigator.repo)


# --- bundled-example regressions beyond the numbered gate ---


def test_walkthrough_zero_similarity_weights_keep_platform_order(capsys):
    argv = [
        "recommend", "lightbend/config#398", "--fixture-dir", str(WALKTHROUGH),
        "--weight", "w_code=0", "--weight", "w_dep=0",
        "--weight", "w_perm=0", "--weight", "w_ui=0",
    ]
    assert cli.main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert [c["search_rank"] for c in data["candidates"]] == list(range(1, 11))
    assert [c["final_rank"] for c in data["candidates"]] == list(range(1, 11))


def test_evaluate_matches_golden_report(capsys):
    assert cli.main(["evaluate", str(FIXTURES / "eval" / "dataset.jsonl")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "eval_report.json").read_text()
