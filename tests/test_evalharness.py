"""Precision@k, MRR, dataset IO, and the raw-vs-reranked report."""

import json

import pytest

from bugnav import evalharness, ranking
from bugnav.corpus.models import IssueRef
from bugnav.errors import ValidationError
from bugnav.evalharness import EvalDataset, EvalEntry, LabeledCandidate
from bugnav.ranking import FactorVector, WeightConfig


def _ref(n, repo="demo"):
    return IssueRef("octo", repo, n)


class TestPrecisionAtK:
    def test_two_of_three(self):
        ranked = [_ref(1), _ref(2), _ref(3), _ref(4)]
        relevant = {_ref(1), _ref(3), _ref(4)}
        assert evalharness.precision_at_k(ranked, relevant, 3) == pytest.approx(2 / 3)

    def test_empty_list_scores_one(self):
        assert evalharness.precision_at_k([], {_ref(1)}, 5) == 1.0
        assert evalharness.precision_at_k([], set(), 1) == 1.0

    def test_no_relevant_items(self):
        assert evalharness.precision_at_k([_ref(1), _ref(2)], set(), 3) == 0.0

    def test_short_list_keeps_denominator(self):
        # one relevant hit in a 2-item list still divides by k=5
        assert evalharness.precision_at_k([_ref(1), _ref(2)], {_ref(1)}, 5) == 0.2

    def test_k_must_be_positive(self):
        with pytest.raises(ValidationError):
            evalharness.precision_at_k([_ref(1)], set(), 0)

    def test_bounded_and_monotone_under_removals(self):
        ranked = [_ref(i) for i in range(1, 8)]
        relevant = {_ref(2), _ref(3), _ref(5), _ref(7)}
        last = 1.0
        while relevant:
            p = evalharness.precision_at_k(ranked, relevant, 5)
            assert 0.0 <= p <= last <= 1.0
            last = p
            relevant = set(sorted(relevant, key=lambda r: r.number)[1:])


class TestMeanReciprocalRank:
    def test_first_hit_rank_one(self):
        assert evalharness.mean_reciprocal_rank([([_ref(1)], {_ref(1)})]) == 1.0

    def test_first_hit_rank_four(self):
        ranked = [_ref(1), _ref(2), _ref(3), _ref(4)]
        assert evalharness.mean_reciprocal_rank([(ranked, {_ref(4)})]) == 0.25

    def test_no_relevant_contributes_zero(self):
        entries = [
            ([_ref(1), _ref(2)], {_ref(2)}),
            ([_ref(3), _ref(4)], set()),
        ]
        assert evalharness.mean_reciprocal_rank(entries) == 0.25

    def test_empty_entries_rejected(self):
        with pytest.raises(ValidationError):
            evalharness.mean_reciprocal_rank([])

    def test_matches_brute_force(self):
        import random

        rng = random.Random(41)
        for _ in range(300):
            entries = []
            expected = []
            for _ in range(rng.randint(1, 6)):
                n = rng.randint(0, 8)
                ranked = [_ref(i) for i in rng.sample(range(100), n)]
                relevant = {r for r in ranked if rng.random() < 0.3}
                entries.append((ranked, relevant))
                hit = next((i + 1 for i, r in enumerate(ranked) if r in relevant), None)
                expected.append(1.0 / hit if hit else 0.0)
            want = sum(expected) / len(expected)
            assert evalharness.mean_reciprocal_rank(entries) == pytest.approx(want)


def _dataset_rank4_story():
    """Sole relevant candidate sits at raw rank 4; dependency similarity
    pulls it to rank 1 under the default weights."""
    cands = [
        LabeledCandidate(_ref(1), FactorVector(issue_length=0.2)),
        LabeledCandidate(_ref(2), FactorVector(issue_length=0.1)),
        LabeledCandidate(_ref(3), FactorVector()),
        LabeledCandidate(_ref(4), FactorVector(dep=1.0)),
    ]
    entry = EvalEntry(driver=_ref(99, "driver"), candidates=cands, relevant=frozenset({_ref(4)}))
    return EvalDataset(entries=[entry])


class TestEvaluate:
    def test_rerank_moves_relevant_to_top(self):
        report = evalharness.evaluate(_dataset_rank4_story(), WeightConfig())
        raw = report.per_system["raw_search"]
        rr = report.per_system["reranked"]
        assert raw.mrr == 0.25
        assert rr.mrr == 1.0
        assert raw.prec_at[1] == 0.0
        assert rr.prec_at[1] == 1.0
        assert raw.prec_at[3] == 0.0
        assert rr.prec_at[3] == pytest.approx(1 / 3)
        assert raw.prec_at[5] == rr.prec_at[5] == 0.2
        assert report.num_relevant == 1

    def test_zero_similarity_keeps_raw_order(self):
        cands = [LabeledCandidate(_ref(i), FactorVector()) for i in range(1, 5)]
        entry = EvalEntry(_ref(9, "driver"), cands, frozenset({_ref(2)}))
        report = evalharness.evaluate(EvalDataset([entry]), WeightConfig())
        assert report.per_system["raw_search"] == report.per_system["reranked"]

    def test_empty_candidate_list_entry(self):
        entry = EvalEntry(_ref(9, "driver"), [], frozenset())
        report = evalharness.evaluate(EvalDataset([entry]), WeightConfig())
        for system in report.per_system.values():
            assert system.prec_at == {1: 1.0, 3: 1.0, 5: 1.0}
            assert system.mrr == 0.0

    def test_report_top_level_mirrors_reranked(self):
        report = evalharness.evaluate(_dataset_rank4_story(), WeightConfig())
        assert report.mrr == report.per_system["reranked"].mrr

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            evalharness.evaluate(EvalDataset(entries=[]), WeightConfig())

    def test_deterministic(self):
        d = _dataset_rank4_story()
        w = WeightConfig()
        assert evalharness.evaluate(d, w) == evalharness.evaluate(d, w)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        dataset = _dataset_rank4_story()
        dataset.save(path)
        loaded = EvalDataset.load(path)
        assert loaded == dataset

    def test_file_is_line_delimited_json(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        _dataset_rank4_story().save(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["driver"] == "octo/driver#99"
        assert [c["ref"] for c in record["candidates"]] == [
            "octo/demo#1", "octo/demo#2", "octo/demo#3", "octo/demo#4",
        ]
        assert record["relevant"] == ["octo/demo#4"]
        assert record["candidates"][3]["factors"]["dep"] == 1.0

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085"])
    def test_row_may_hold_a_raw_line_separator(self, tmp_path, separator):
        """Rows end at a line feed only; str.splitlines would also break here."""
        path = tmp_path / "labels.jsonl"
        dataset = _dataset_rank4_story()
        dataset.save(path)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["note"] = f"a{separator}b"
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert EvalDataset.load(path) == dataset

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        dataset = EvalDataset(entries=_dataset_rank4_story().entries * 2)
        dataset.save(path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert EvalDataset.load(path) == dataset

    def test_missing_factor_keys_default_to_zero(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(
            json.dumps(
                {
                    "driver": "o/d#1",
                    "candidates": [{"ref": "o/c#2", "factors": {"code": 0.5}}],
                    "relevant": [],
                }
            )
            + "\n"
        )
        loaded = EvalDataset.load(path)
        factors = loaded.entries[0].candidates[0].factors
        assert factors.code == 0.5
        assert factors.dep == 0.0

    def test_relevant_label_outside_candidates_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(
            json.dumps(
                {
                    "driver": "o/d#1",
                    "candidates": [{"ref": "o/c#2", "factors": {}}],
                    "relevant": ["o/x#9"],
                }
            )
            + "\n"
        )
        with pytest.raises(ValidationError):
            EvalDataset.load(path)
