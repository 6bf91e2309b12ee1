import json

import pytest

from bugnav.config import RunConfig
from bugnav.errors import ValidationError
from bugnav.ranking import WeightConfig


class TestDefaults:
    def test_field_defaults(self):
        cfg = RunConfig()
        assert cfg.auth_token_source == "GITHUB_TOKEN"
        assert cfg.cache_dir is None
        assert cfg.fixture_dir is None
        assert cfg.weights == WeightConfig()
        assert cfg.n_threshold == 5
        assert cfg.max_candidates == 10
        assert cfg.qualifier_mode == "body,comments"
        assert cfg.language_filter == "java"
        assert cfg.output_format == "structured"
        assert cfg.parallelism == 4
        assert cfg.min_match_len == 9


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"output_format": "yaml"},
            {"qualifier_mode": "comments"},
            {"n_threshold": 0},
            {"max_candidates": 0},
            {"max_candidates": 1001},
            {"parallelism": 0},
            {"min_match_len": 0},
            # a bool is an int to isinstance, but no count
            {"parallelism": True},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RunConfig(**kwargs)

    def test_body_only_scope_allowed(self):
        assert RunConfig(qualifier_mode="body").qualifier_mode == "body"


class TestSerialization:
    def test_round_trip(self):
        cfg = RunConfig(
            fixture_dir="fx",
            max_candidates=25,
            weights=WeightConfig(w_dep=0.5),
        )
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_partial_dict_fills_defaults(self):
        cfg = RunConfig.from_dict({"n_threshold": 3})
        assert cfg.n_threshold == 3
        assert cfg.max_candidates == 10

    def test_nested_weights_dict(self):
        cfg = RunConfig.from_dict({"weights": {"w_code": 0.9}})
        assert cfg.weights.w_code == 0.9
        assert cfg.weights.w_dep == WeightConfig().w_dep

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig.from_dict({"max_candidatez": 3})

    def test_unknown_weight_name_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig.from_dict({"weights": {"w_bogus": 1.0}})

    @pytest.mark.parametrize("value", ["heavy", None, [0.5]])
    def test_non_numeric_weight_rejected(self, value):
        with pytest.raises(ValidationError, match="w_code must be a number"):
            RunConfig.from_dict({"weights": {"w_code": value}})

    @pytest.mark.parametrize("value", [-0.1, float("nan")])
    def test_weight_outside_its_range_rejected(self, value):
        with pytest.raises(ValidationError, match=r"w_code must lie in \[0, inf\]"):
            RunConfig.from_dict({"weights": {"w_code": value}})

    def test_empty_language_filter_means_no_filter(self):
        assert RunConfig.from_dict({"language_filter": ""}).language_filter is None
        assert RunConfig.from_dict({"language_filter": None}).language_filter is None


class TestLoadFile:
    def test_load(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"max_candidates": 50, "weights": {"w_ui": 0.0}}))
        cfg = RunConfig.load(str(path))
        assert cfg.max_candidates == 50
        assert cfg.weights.w_ui == 0.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            RunConfig.load(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            RunConfig.load(str(path))

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError):
            RunConfig.load(str(path))
