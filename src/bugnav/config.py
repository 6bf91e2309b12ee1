"""Run configuration shared by every CLI subcommand.

A config with fixture_dir set runs in replay mode: all platform traffic
comes from recorded fixtures and nothing touches the network. Live and
replay are therefore mutually exclusive by construction.

parallelism is the number of platform requests a live run keeps in
flight. A replay run fetches in the calling thread whatever its value,
as does a live run with parallelism 1.
"""

import dataclasses
import typing
from dataclasses import dataclass, field
from typing import Optional

from .corpus.client import SEARCH_RESULT_LIMIT
from .errors import ValidationError, read_json_object
from .querygen import DEFAULT_N_THRESHOLD
from .ranking import WeightConfig
from .similarity import DEFAULT_MIN_MATCH_LEN

OUTPUT_FORMATS = ("structured", "table")
QUALIFIER_MODES = ("body,comments", "body")
DEFAULT_TOKEN_ENV = "GITHUB_TOKEN"


@dataclass(frozen=True)
class RunConfig:
    auth_token_source: str = DEFAULT_TOKEN_ENV
    cache_dir: Optional[str] = None
    fixture_dir: Optional[str] = None
    weights: WeightConfig = field(default_factory=WeightConfig)
    n_threshold: int = DEFAULT_N_THRESHOLD
    max_candidates: int = 10
    qualifier_mode: str = "body,comments"
    language_filter: Optional[str] = "java"
    output_format: str = "structured"
    parallelism: int = 4
    min_match_len: int = DEFAULT_MIN_MATCH_LEN

    def __post_init__(self):
        for name, hint in typing.get_type_hints(type(self)).items():
            # Optional[str] admits (str, NoneType); a bool is an int to
            # isinstance, but JSON true is no count
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, typing.get_args(hint) or hint):
                raise ValidationError(f"{name} has the wrong type: {value!r:.40}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValidationError(f"unknown output format: {self.output_format!r}")
        if self.qualifier_mode not in QUALIFIER_MODES:
            raise ValidationError(f"unknown qualifier mode: {self.qualifier_mode!r}")
        if self.n_threshold < 1:
            raise ValidationError("n_threshold must be at least 1")
        if not 1 <= self.max_candidates <= SEARCH_RESULT_LIMIT:
            raise ValidationError(f"max_candidates must be in 1..{SEARCH_RESULT_LIMIT}")
        if self.parallelism < 1:
            raise ValidationError("parallelism must be at least 1")
        if self.min_match_len < 1:
            raise ValidationError("min_match_len must be at least 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValidationError("run configuration must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown configuration keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "weights" in kwargs and not isinstance(kwargs["weights"], WeightConfig):
            kwargs["weights"] = WeightConfig.from_dict(kwargs["weights"])
        if kwargs.get("language_filter") == "":
            kwargs["language_filter"] = None
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        data = read_json_object(path, "config file")
        try:
            return cls.from_dict(data)
        except ValidationError as exc:
            raise ValidationError(f"config file {path}: {exc}") from exc
