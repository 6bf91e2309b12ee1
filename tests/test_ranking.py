"""Ranking score, ordering, and the grid-search tuner."""

import dataclasses
import itertools
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bugnav import ranking
from bugnav.corpus.models import IssueDocument, IssueRef, PatchRef
from bugnav.errors import ValidationError
from bugnav.evalharness import EvalDataset, EvalEntry, LabeledCandidate, rerank_entry
from bugnav.similarity import SimilarityVector
from oracles import (
    dot_reference,
    grid_totals_reference,
    swept_grid_reference,
    tune_weights_reference,
)

DEFAULTS = ranking.WeightConfig()


def _issue(number, body="", comments=(), patch_refs=(), project="octo/demo"):
    owner, repo = project.split("/")
    return IssueDocument(
        ref=IssueRef(owner, repo, number),
        title="t",
        body=body,
        comments=list(comments),
        num_comments=len(comments),
        patch_refs=list(patch_refs),
    )


class TestQualityMetrics:
    def test_empty_issue(self):
        m = ranking.quality_metrics(_issue(1))
        assert (m.word_count, m.has_fix_commit, m.comment_count, m.keyword_count) == (
            0,
            False,
            0,
            0,
        )

    def test_pull_document_counts_as_fixed(self):
        doc = dataclasses.replace(_issue(9, body="This change caps the size."), is_pull=True)
        assert not doc.patch_refs
        assert ranking.quality_metrics(doc).has_fix_commit

    def test_populated_issue(self):
        # 120 whitespace-separated words, two of them descriptive keywords
        body = " ".join(["filler"] * 117 + ["steps", "to", "reproduce"])
        assert len(body.split()) == 120
        issue = _issue(
            2,
            body=body,
            comments=["c1", "c2", "c3", "c4", "c5"],
            patch_refs=[PatchRef("commit", "octo", "demo", "a" * 40)],
        )
        m = ranking.quality_metrics(issue)
        assert m.word_count == 120
        assert m.has_fix_commit is True
        assert m.comment_count == 5
        assert m.keyword_count == 2

    def test_keywords_counted_per_occurrence_in_body_and_comments(self):
        issue = _issue(3, body="error error crash", comments=["another error, fixed"])
        # 2x error + crash in body, 1x error in the comment; "fixed" is not
        # the whole word "fix" and does not count
        assert ranking.quality_metrics(issue).keyword_count == 4

    def test_keywords_case_insensitive_whole_word(self):
        issue = _issue(4, body="Expected vs ACTUAL. Errors everywhere.")
        # "Errors" is plural, not the keyword "error"
        assert ranking.quality_metrics(issue).keyword_count == 2

    def test_title_not_scanned_for_keywords(self):
        issue = _issue(5, body="nothing here")
        issue.title = "crash error exception"
        assert ranking.quality_metrics(issue).keyword_count == 0


class TestNormalizeFactors:
    def test_caps(self):
        m = ranking.QualityMetrics(
            word_count=1000, has_fix_commit=True, comment_count=40, keyword_count=9
        )
        f = ranking.normalize_factors(m, SimilarityVector())
        assert f.issue_length == 1.0
        assert f.num_comment == 1.0
        assert f.has_fix == 1.0
        assert f.keywords == 1.0

    def test_linear_below_cap(self):
        m = ranking.QualityMetrics(
            word_count=250, has_fix_commit=False, comment_count=5, keyword_count=1
        )
        f = ranking.normalize_factors(m, SimilarityVector())
        assert f.issue_length == 0.5
        assert f.num_comment == 0.25
        assert f.has_fix == 0.0
        assert f.keywords == 0.2

    def test_zero_inputs_zero_vector(self):
        m = ranking.QualityMetrics(0, False, 0, 0)
        f = ranking.normalize_factors(m, SimilarityVector())
        assert f.as_tuple() == (0.0,) * 8

    def test_similarities_pass_through(self):
        sims = SimilarityVector(code=0.594, dependency=1.0, permission=0.25, ui=0.5)
        f = ranking.normalize_factors(ranking.QualityMetrics(0, False, 0, 0), sims)
        assert (f.code, f.dep, f.perm, f.ui) == (0.594, 1.0, 0.25, 0.5)


class TestScore:
    def test_zero_vector(self):
        assert ranking.score(ranking.FactorVector(), DEFAULTS) == 0.0

    def test_code_weight_alone(self):
        f = ranking.FactorVector(code=1.0)
        assert ranking.score(f, DEFAULTS) == 0.1428

    def test_two_factor_example(self):
        f = ranking.FactorVector(issue_length=0.5, dep=1.0)
        assert ranking.score(f, DEFAULTS) == pytest.approx(0.2499, abs=1e-12)

    def test_matches_dot_oracle_on_random_vectors(self):
        rng = random.Random(21)
        for _ in range(1000):
            f = ranking.FactorVector(*(rng.random() for _ in range(8)))
            w = ranking.WeightConfig(*(rng.random() for _ in range(8)))
            want = dot_reference(f.as_tuple(), w.as_tuple())
            assert ranking.score(f, w) == want

    def test_linear_in_factors(self):
        rng = random.Random(22)
        for _ in range(200):
            vals = [rng.random() for _ in range(8)]
            alpha = rng.random() * 3
            f = ranking.FactorVector(*vals)
            scaled = ranking.FactorVector(*(alpha * v for v in vals))
            assert ranking.score(scaled, DEFAULTS) == pytest.approx(
                alpha * ranking.score(f, DEFAULTS), abs=1e-9
            )

    def test_default_weights_sum(self):
        assert sum(DEFAULTS.as_tuple()) == pytest.approx(0.9996, abs=1e-12)


def _rank_input(number, search_rank, *, word_count=0, comments=0, sims=None, fix=False):
    issue = _issue(number, body=" ".join(["w"] * word_count))
    issue.num_comments = comments
    metrics = ranking.QualityMetrics(
        word_count=word_count,
        has_fix_commit=fix,
        comment_count=comments,
        keyword_count=0,
    )
    return ranking.RankInput(
        issue=issue,
        metrics=metrics,
        sims=sims or SimilarityVector(),
        search_rank=search_rank,
    )


class TestRank:
    def test_orders_by_score_descending(self):
        a = _rank_input(1, 1, word_count=50)
        b = _rank_input(2, 2, sims=SimilarityVector(dependency=1.0))
        out = ranking.rank([a, b], DEFAULTS)
        assert [c.issue.ref.number for c in out] == [2, 1]
        assert [c.final_rank for c in out] == [1, 2]
        assert out[0].score > out[1].score

    def test_tie_broken_by_search_rank(self):
        a = _rank_input(1, 4)
        b = _rank_input(2, 2)
        out = ranking.rank([a, b], DEFAULTS)
        assert [c.search_rank for c in out] == [2, 4]

    def test_empty_input(self):
        assert ranking.rank([], DEFAULTS) == []

    def test_duplicate_search_ranks_rejected(self):
        with pytest.raises(ValidationError):
            ranking.rank([_rank_input(1, 3), _rank_input(2, 3)], DEFAULTS)

    def test_zero_similarity_equal_quality_reproduces_platform_order(self):
        inputs = [_rank_input(i, sr, word_count=100) for i, sr in enumerate([3, 1, 5, 2, 4])]
        out = ranking.rank(inputs, DEFAULTS)
        assert [c.search_rank for c in out] == [1, 2, 3, 4, 5]

    def test_final_rank_is_permutation(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 12)
            ranks = rng.sample(range(1, 40), n)
            inputs = [
                _rank_input(
                    i,
                    ranks[i],
                    word_count=rng.randint(0, 700),
                    comments=rng.randint(0, 30),
                    sims=SimilarityVector(
                        code=rng.random(), dependency=rng.random(),
                        permission=rng.random(), ui=rng.random(),
                    ),
                    fix=rng.random() < 0.5,
                )
                for i in range(n)
            ]
            out = ranking.rank(inputs, DEFAULTS)
            assert sorted(c.final_rank for c in out) == list(range(1, n + 1))
            scores = [c.score for c in out]
            assert scores == sorted(scores, reverse=True)

    def test_scaling_all_weights_keeps_order(self):
        rng = random.Random(32)
        for _ in range(100):
            n = rng.randint(2, 8)
            ranks = rng.sample(range(1, 30), n)
            inputs = [
                _rank_input(
                    i, ranks[i],
                    word_count=rng.randint(0, 600),
                    comments=rng.randint(0, 25),
                    sims=SimilarityVector(code=rng.random(), dependency=rng.random()),
                )
                for i in range(n)
            ]
            base = ranking.rank(inputs, DEFAULTS)
            scaled_w = ranking.WeightConfig(*(3.0 * w for w in DEFAULTS.as_tuple()))
            scaled = ranking.rank(inputs, scaled_w)
            assert [c.issue.ref for c in base] == [c.issue.ref for c in scaled]


# few levels each, so scores tie often
_LEVELS = st.sampled_from([0.0, 0.5, 1.0])
# None: nothing to compare, which scores as 0.0
_SIM_LEVELS = st.sampled_from([None, 0.0, 0.5, 1.0])
_RANK_INPUT_PARTS = st.tuples(
    st.sampled_from([0, 250, 500]),
    st.sampled_from([0, 10]),
    st.booleans(),
    st.builds(
        SimilarityVector,
        code=_SIM_LEVELS,
        dependency=_SIM_LEVELS,
        permission=_SIM_LEVELS,
        ui=_SIM_LEVELS,
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(_RANK_INPUT_PARTS, min_size=1, max_size=8),
    weights=st.builds(ranking.WeightConfig, *[_LEVELS] * len(ranking.FACTORS)),
    shuffle=st.randoms(use_true_random=False),
)
def test_rank_and_rerank_entry_agree(parts, weights, shuffle):
    """The shipped ranking and the one the tuner evaluates give the same
    order, ties included."""
    inputs = [
        _rank_input(i, i, word_count=words, comments=comments, sims=sims, fix=fix)
        for i, (words, comments, fix, sims) in enumerate(parts, start=1)
    ]
    entry = EvalEntry(
        driver=IssueRef("octo", "driver", 999),
        candidates=[
            LabeledCandidate(c.issue.ref, ranking.normalize_factors(c.metrics, c.sims))
            for c in inputs
        ],
        relevant=frozenset(),
    )
    shuffle.shuffle(inputs)
    ranked = [c.issue.ref for c in ranking.rank(inputs, weights)]
    assert ranked == rerank_entry(entry, weights)


def _tuner_dataset():
    """One query where the relevant candidate only wins with the whole
    swept budget on the dependency weight.

    The irrelevant candidate leads the raw order with dep 0.9 plus a
    quality edge of 0.0714 + 0.02*0.1428 = 0.074256, so the relevant
    one (dep 1.0, nothing else) overtakes iff 0.1*w_dep > 0.074256,
    i.e. w_dep > 0.74256: only the grid point w_dep = 11*0.0714 =
    0.7854 qualifies, and with margin 0.0043 on one side and 0.0029 on
    the other there is no float-tie risk.
    """
    driver = IssueRef("octo", "driver", 1)
    irrelevant = LabeledCandidate(
        ref=IssueRef("octo", "noise", 2),
        factors=ranking.FactorVector(issue_length=1.0, num_comment=0.02, dep=0.9),
    )
    relevant = LabeledCandidate(
        ref=IssueRef("octo", "signal", 3),
        factors=ranking.FactorVector(dep=1.0),
    )
    entry = EvalEntry(
        driver=driver,
        candidates=[irrelevant, relevant],
        relevant=frozenset({relevant.ref}),
    )
    return EvalDataset(entries=[entry])


def _grid_tuples(step, base=DEFAULTS):
    """Brute-force oracle: every admissible swept tuple, in lexicographic
    order."""
    fixed = base.w_issue_length + base.w_num_comment
    out = []
    top = int(round(1.0 / step)) + 1
    for ks in itertools.product(range(top), repeat=4):
        swept = tuple(k * step for k in ks)
        if abs(fixed + sum(swept) - 1.0) <= 4e-4 + 1e-9:
            out.append(swept)
    return sorted(out)


class TestTuneWeights:
    def test_grid_size_at_published_step(self):
        assert len(_grid_tuples(0.0714)) == 364

    def test_defaults_are_on_the_grid(self):
        swept = (DEFAULTS.w_code, DEFAULTS.w_dep, DEFAULTS.w_perm, DEFAULTS.w_ui)
        assert swept in _grid_tuples(0.0714)

    def test_assigns_budget_to_dependency_weight(self):
        tuned = ranking.tune_weights(_tuner_dataset(), grid_step=0.0714)
        assert tuned.w_dep == pytest.approx(11 * 0.0714)
        assert (tuned.w_code, tuned.w_perm, tuned.w_ui) == (0.0, 0.0, 0.0)
        assert tuned.w_issue_length == DEFAULTS.w_issue_length
        assert tuned.w_num_comment == DEFAULTS.w_num_comment

    def test_matches_brute_force_oracle(self):
        from bugnav.evalharness import evaluate

        dataset = _tuner_dataset()
        best = None
        for swept in _grid_tuples(0.0714):
            w = dataclasses.replace(
                DEFAULTS, w_code=swept[0], w_dep=swept[1], w_perm=swept[2], w_ui=swept[3]
            )
            mrr = evaluate(dataset, w).per_system["reranked"].mrr
            if best is None or mrr > best[0] or (mrr == best[0] and swept < best[1]):
                best = (mrr, swept)
        tuned = ranking.tune_weights(dataset, grid_step=0.0714)
        assert (tuned.w_code, tuned.w_dep, tuned.w_perm, tuned.w_ui) == best[1]

    def test_scores_only_the_reranked_system(self, monkeypatch):
        from bugnav import evalharness

        dataset = _tuner_dataset()
        expected = ranking.tune_weights(dataset, grid_step=0.0714)

        def no_report(*args):
            raise AssertionError("tune_weights built a full evaluation report")

        monkeypatch.setattr(evalharness, "_system_metrics", no_report)
        assert ranking.tune_weights(dataset, grid_step=0.0714) == expected

    def test_reranked_mrr_is_the_reports_mrr(self):
        """The MRR the tuner computes at each of the 364 points is the
        report's, bit for bit."""
        from bugnav.evalharness import evaluate

        dataset = EvalDataset.load(Path(__file__).parent.parent / "fixtures/eval/dataset.jsonl")
        points = list(ranking._grid_mrrs(dataset, DEFAULTS, 0.0714))
        assert [swept for swept, _ in points] == _grid_tuples(0.0714)
        for swept, mrr in points:
            w = dataclasses.replace(
                DEFAULTS, w_code=swept[0], w_dep=swept[1], w_perm=swept[2], w_ui=swept[3]
            )
            assert mrr == evaluate(dataset, w).mrr

    def test_all_irrelevant_returns_lexicographically_smallest(self):
        dataset = _tuner_dataset()
        entry = dataset.entries[0]
        stripped = EvalEntry(
            driver=entry.driver, candidates=entry.candidates, relevant=frozenset()
        )
        tuned = ranking.tune_weights(EvalDataset(entries=[stripped]), grid_step=0.0714)
        assert (tuned.w_code, tuned.w_dep, tuned.w_perm, tuned.w_ui) == _grid_tuples(0.0714)[0]

    def test_degenerate_grid_returns_defaults(self):
        # grid_step 1.0 admits no tuple summing with the fixed weights to
        # ~1, so the defaults are the single evaluated combination
        tuned = ranking.tune_weights(_tuner_dataset(), grid_step=1.0)
        assert tuned == DEFAULTS

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            ranking.tune_weights(EvalDataset(entries=[]), grid_step=0.5)

    @pytest.mark.parametrize("step", [0.0, -0.1, 1.5, math.nan, 1e-320])
    def test_step_outside_unit_interval_rejected(self, step):
        with pytest.raises(ValidationError, match="grid_step"):
            ranking.tune_weights(_tuner_dataset(), grid_step=step)
        with pytest.raises(ValidationError, match="grid_step"):
            ranking.grid_size(DEFAULTS, step)

    def test_improves_over_defaults_on_tuner_dataset(self):
        from bugnav.evalharness import evaluate

        dataset = _tuner_dataset()
        tuned = ranking.tune_weights(dataset, grid_step=0.0714)
        before = evaluate(dataset, DEFAULTS).per_system["reranked"].mrr
        after = evaluate(dataset, tuned).per_system["reranked"].mrr
        assert after > before
        assert before == 0.5 and after == 1.0


def _swept(base, step):
    """The grid the tuner walks: the swept tuple of each point of
    _grid_mrrs, in its order."""
    return (swept for swept, _ in ranking._grid_mrrs(_tuner_dataset(), base, step))


class TestSweptGrid:
    @pytest.mark.parametrize("step", [0.0714, 0.1, 0.125, 0.25, 1.0])
    @pytest.mark.parametrize(
        "base", [DEFAULTS, ranking.WeightConfig(w_issue_length=0.1, w_num_comment=0.1)]
    )
    def test_yields_the_sorted_grid(self, base, step):
        assert list(_swept(base, step)) == _grid_tuples(step, base)

    def test_several_totals_interleave(self):
        # five swept totals (8-12 steps) lie within the tolerance of 1
        base = ranking.WeightConfig(w_issue_length=0.998, w_num_comment=0.0)
        assert list(_swept(base, 0.0002)) == swept_grid_reference(base, 0.0002)

    @pytest.mark.parametrize("step", [0.0714, 0.05, 0.1])
    @pytest.mark.parametrize(
        "base", [DEFAULTS, ranking.WeightConfig(w_issue_length=0.1, w_num_comment=0.1)]
    )
    def test_size_counts_the_grid(self, base, step):
        assert ranking.grid_size(base, step) == len(list(_swept(base, step)))

    def test_fine_step_is_sized_from_the_band(self):
        # a scan of every total up to 1 / step took seconds here, and a
        # walk of the 8e8 totals in the band at 1e-12 took minutes
        start = time.process_time()
        assert ranking.grid_size(DEFAULTS, 0.001) == 81_550_514
        assert ranking.grid_size(DEFAULTS, 1e-7) > 0
        totals = ranking._grid_totals(DEFAULTS, 1e-12)
        assert ranking.grid_size(DEFAULTS, 1e-12) > 0
        assert time.process_time() - start < 0.5

        fixed = DEFAULTS.w_issue_length + DEFAULTS.w_num_comment

        def admissible(t):
            return abs(fixed + t * 1e-12 - 1.0) <= 4e-4 + 1e-9

        first, last = totals[0], totals[-1]
        assert admissible(first) and admissible(last)
        assert not admissible(first - 1) and not admissible(last + 1)

    def test_non_finite_weights_are_rejected(self):
        for weights in (
            {"w_issue_length": math.inf},
            {"w_code": math.nan},
            {"w_issue_length": 1e308, "w_num_comment": 1e308},
        ):
            with pytest.raises(ValidationError):
                ranking.WeightConfig(**weights)

    def test_huge_quality_weight_leaves_no_grid(self):
        # (1 - 1e10) / 1e-300 overflows to -inf
        base = ranking.WeightConfig(w_issue_length=1e10)
        assert ranking.grid_size(base, 1e-300) == 0
        assert list(_swept(base, 0.1)) == []

    def test_fine_step_is_lazy(self):
        # the whole grid at this step has 81,550,514 tuples
        first = list(itertools.islice(_swept(DEFAULTS, 0.001), 3))
        assert first == [(0.0, 0.0, k * 0.001, (786 - k) * 0.001) for k in range(3)]

    def test_very_fine_step_makes_only_the_products_it_reaches(self):
        # about 786k multiples of the step; a list of products for each
        # would take seconds and hundreds of MB
        start = time.process_time()
        first = list(itertools.islice(ranking._grid_mrrs(_tuner_dataset(), DEFAULTS, 1e-6), 3))
        assert time.process_time() - start < 0.5
        totals = ranking._grid_totals(DEFAULTS, 1e-6)
        assert totals[-1] > 780_000
        assert [swept for swept, _ in first] == [(0.0, 0.0, 0.0, t * 1e-6) for t in totals[:3]]

    @settings(max_examples=300, deadline=None)
    @given(
        fixed=st.one_of(
            st.sampled_from([0.2142, 0.2, 0.25, 0.0, 0.998, 1.0, 1.0004]),
            st.floats(0.0, 1.001),
        ),
        step=st.one_of(
            st.sampled_from([0.0714, 0.1, 0.0002, 1e-4, 1e-5, 1e-6, 1.0]),
            st.floats(1e-6, 1.0),
        ),
    )
    def test_totals_are_the_filtered_band(self, fixed, step):
        base = ranking.WeightConfig(w_issue_length=fixed, w_num_comment=0.0)
        want = grid_totals_reference(base, step)
        assert list(ranking._grid_totals(base, step)) == want
        assert ranking.grid_size(base, step) == sum(math.comb(t + 3, 3) for t in want)


_BASES = st.builds(
    lambda fixed, has_fix, keywords: dataclasses.replace(
        DEFAULTS,
        w_issue_length=fixed[0],
        w_num_comment=fixed[1],
        w_has_fix=has_fix,
        w_keywords=keywords,
    ),
    # (w_issue_length, w_num_comment) that put some grid on the simplex
    st.sampled_from([(0.0714, 0.1428), (0.1, 0.1), (0.125, 0.125), (0.25, 0.0), (0.0, 0.0)]),
    st.sampled_from([0.0, 0.17, 0.3, 1.0]),
    st.sampled_from([0.0, 0.17, 0.5]),
)


@st.composite
def _tune_entries(draw):
    entries = []
    for number in range(draw(st.integers(1, 6))):
        candidates = [
            LabeledCandidate(
                ref=IssueRef("octo", "cand", 100 * number + i),
                factors=ranking.FactorVector(*[draw(_LEVELS) for _ in ranking.FACTORS]),
            )
            for i in range(draw(st.integers(1, 12)))
        ]
        relevant = draw(
            st.lists(st.sampled_from(candidates), max_size=2, unique_by=lambda c: c.ref)
        )
        entries.append(
            EvalEntry(
                driver=IssueRef("octo", "driver", number),
                candidates=candidates,
                relevant=frozenset(c.ref for c in relevant),
            )
        )
    return EvalDataset(entries=entries)


@settings(max_examples=100, deadline=None)
@given(
    dataset=_tune_entries(),
    base=_BASES,
    step=st.sampled_from([0.0714, 0.1, 0.125, 0.25]),
)
def test_tune_weights_matches_reference(dataset, base, step):
    """Tuning from prepared factor tuples picks what a full evaluation
    per grid point picks, ties and empty grids included."""
    assert ranking.tune_weights(dataset, step, base=base) == tune_weights_reference(
        dataset, step, base=base
    )


# three decimals, as bench/gen.py draws them, whose products and sums
# round; the exact levels make equal scores likely
_DECIMALS = st.one_of(_LEVELS, st.integers(0, 1000).map(lambda n: n / 1000))


def _swapped(values, i, j):
    values = list(values)
    values[i], values[j] = values[j], values[i]
    return ranking.FactorVector(*values)


@st.composite
def _rounding_entries(draw):
    entries = []
    places = st.integers(0, len(ranking.FACTORS) - 1)
    for number in range(draw(st.integers(1, 5))):
        vectors = []
        for _ in range(draw(st.integers(0, 10))):
            how = draw(st.sampled_from(["fresh", "copy", "swap"])) if vectors else "fresh"
            if how == "fresh":
                vectors.append(ranking.FactorVector(*[draw(_DECIMALS) for _ in ranking.FACTORS]))
            elif how == "copy":
                # a tie with an earlier candidate, whatever the weights
                vectors.append(draw(st.sampled_from(vectors)))
            else:
                # an earlier candidate with two factors swapped: where their
                # weights are equal, the scores are equal but for the
                # rounding, which then depends on the order of the sum
                earlier = draw(st.sampled_from(vectors)).as_tuple()
                vectors.append(_swapped(earlier, draw(places), draw(places)))
        candidates = [
            LabeledCandidate(ref=IssueRef("octo", "cand", 100 * number + i), factors=f)
            for i, f in enumerate(vectors)
        ]
        relevant = draw(st.lists(st.sampled_from(candidates), max_size=3)) if candidates else []
        entries.append(
            EvalEntry(
                driver=IssueRef("octo", "driver", number),
                candidates=candidates,
                relevant=frozenset(c.ref for c in relevant),
            )
        )
    return EvalDataset(entries=entries)


def _labeled(*entries):
    """A dataset of entries given as lists of (factor values, relevant)."""
    return EvalDataset(
        entries=[
            EvalEntry(
                driver=IssueRef("octo", "driver", number),
                candidates=[
                    LabeledCandidate(
                        ref=IssueRef("octo", "cand", 100 * number + i),
                        factors=ranking.FactorVector(*values),
                    )
                    for i, (values, _) in enumerate(rows)
                ],
                relevant=frozenset(
                    IssueRef("octo", "cand", 100 * number + i)
                    for i, (_, relevant) in enumerate(rows)
                    if relevant
                ),
            )
            for number, rows in enumerate(entries)
        ]
    )


_TAILED = dataclasses.replace(DEFAULTS, w_has_fix=0.17, w_keywords=0.5)
# equal factors, so an equal score at every grid point
_TIE = (0.123, 0.456, 0.789, 0.321, 0.654, 0.987, 1.0, 0.2)


@settings(max_examples=60, deadline=None)
@given(
    dataset=_rounding_entries(),
    base=_BASES,
    step=st.sampled_from([0.0714, 0.1, 0.125, 0.25]),
)
# every entry without candidates
@example(dataset=_labeled([], [], []), base=_TAILED, step=0.25)
# candidates but none relevant, between two entries with relevant ones
@example(
    dataset=_labeled(
        [
            ((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.0, 0.7), False),
            ((0.3, 0.1, 0.6, 0.2, 0.9, 0.4, 0.0, 0.8), True),
        ],
        [((0.9,) * 8, False), ((0.8,) * 8, False), ((0.7,) * 8, False)],
        [((0.2, 0.7, 0.5, 0.3, 0.1, 0.8, 0.0, 0.4), True), ((0.6,) * 8, False)],
    ),
    base=_TAILED,
    step=0.0714,
)
# an equal score on either side of an entry boundary, which counts in
# neither query's place
@example(
    dataset=_labeled(
        [((0.5,) * 8, False), (_TIE, True)],
        [(_TIE, True), ((0.4,) * 8, False)],
    ),
    base=_TAILED,
    step=0.0714,
)
# zero tail weights over non-zero tail factors: the tail decides nothing
@example(
    dataset=_labeled(
        [
            ((0.2, 0.1, 0.3, 0.4, 0.5, 0.6, 1.0, 0.9), False),
            ((0.2, 0.1, 0.3, 0.4, 0.5, 0.6, 0.0, 0.1), True),
            ((0.1, 0.4, 0.3, 0.2, 0.6, 0.5, 1.0, 1.0), False),
        ],
        [((0.7, 0.3, 0.1, 0.9, 0.2, 0.4, 1.0, 0.5), True), ((0.7,) * 8, False)],
    ),
    base=DEFAULTS,
    step=0.0714,
)
# a non-zero has-fix weight over an all-zero has-fix column
@example(
    dataset=_labeled(
        [
            ((0.3, 0.2, 0.5, 0.1, 0.4, 0.7, 0.0, 0.8), False),
            ((0.3, 0.2, 0.5, 0.1, 0.4, 0.7, 0.0, 0.6), True),
            ((0.9, 0.1, 0.2, 0.3, 0.6, 0.1, 0.0, 0.0), False),
        ],
        [((0.5, 0.5, 0.4, 0.2, 0.3, 0.1, 0.0, 0.4), True)],
    ),
    base=_TAILED,
    step=0.0714,
)
# both tail weights and columns non-zero, with ties only the tail breaks
@example(
    dataset=_labeled(
        [
            ((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.0, 0.2), False),
            ((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.0, 0.6), True),
            ((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.0, 0.0), False),
        ],
        [((0.4, 0.6, 0.2, 0.8, 0.1, 0.3, 1.0, 0.4), True), ((0.2,) * 8, False)],
    ),
    base=_TAILED,
    step=0.0714,
)
def test_grid_mrrs_are_the_reports_bit_for_bit(dataset, base, step):
    """The tuner's folded scores and counted places give, at every grid
    point, the MRR that a full evaluation reports, to the last bit."""
    from bugnav.evalharness import evaluate

    points = list(ranking._grid_mrrs(dataset, base, step))
    assert [swept for swept, _ in points] == swept_grid_reference(base, step)
    for swept, mrr in points:
        w = dataclasses.replace(
            base, w_code=swept[0], w_dep=swept[1], w_perm=swept[2], w_ui=swept[3]
        )
        assert mrr == evaluate(dataset, w).mrr


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.30000000000000004, 0.3, 1.0]), min_size=1),
    data=st.data(),
)
def test_place_is_the_sorted_place(scores, data):
    indices = data.draw(
        st.lists(st.integers(0, len(scores) - 1), min_size=1, unique=True).map(sorted)
    )
    order = ranking._best_first(scores)
    assert ranking._place(scores, indices) == 1 + min(order.index(i) for i in indices)
