import argparse
import contextlib
import copy
import dataclasses
import errno
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bugnav import cli, pipeline
from bugnav.config import RunConfig
from bugnav.corpus.client import PlatformClient
from bugnav.corpus.fixtures import FixtureStore, canonical_key
from bugnav.corpus.models import FILE_KINDS, IssueRef
from bugnav.corpus.transport import ReplayTransport
from bugnav.errors import RateLimitError
from bugnav.evalharness import EvalDataset
from bugnav.ranking import WeightConfig, tune_weights
from stubs import (
    SHARED_QUERY,
    FixtureScripter,
    StubTransport,
    blob_sha,
    item,
    put_file,
    put_issue,
    put_pull,
    put_repo_tree,
    put_search,
    put_shared_repos,
)

ROOT = Path(__file__).resolve().parent.parent

DRIVER_BODY = """\
Serialization fails once the values pass a certain size:

java.io.UTFDataFormatException: encoded string too long: 93067 bytes
    at java.io.DataOutputStream.writeUTF(DataOutputStream.java:364)
    at com.typesafe.config.impl.SerializedConfigValue.writeValueData(SerializedConfigValue.java:301)
"""

MAIN_JAVA = """\
public class Main {
    public int size(byte[] data) {
        if (data == null) {
            return 0;
        }
        return data.length;
    }
}
"""

POM = """\
<project>
  <dependencies>
    <dependency>
      <groupId>com.typesafe</groupId>
      <artifactId>config</artifactId>
      <version>1.3.0</version>
    </dependency>
  </dependencies>
</project>
"""

FIX_BODY = (
    "Steps to reproduce the error are below. The exception only shows up "
    "with large payloads and the fix keeps the actual size in bounds."
)

PLAIN_BODY = "Plain body without much detail."

HAPPY_Q = (
    "UTFDataFormatException encoded string too long in:body,comments"
    " language:java state:closed"
)


@pytest.fixture()
def fxdir(tmp_path):
    """Recorded corpus: one driver, five closed candidates, one good patch."""
    store_dir = tmp_path / "fixtures"
    store_dir.mkdir()
    fx = FixtureScripter(FixtureStore(str(store_dir)))

    put_issue(fx, "octo", "driver", 7, title="UTFDataFormatException on large objects",
              body=DRIVER_BODY, state="open")
    put_repo_tree(fx, "octo", "driver", {"pom.xml": POM, "src/Main.java": MAIN_JAVA})

    put_search(fx, HAPPY_Q, [
        item("acme", "alpha", 11, "alpha bug"),
        item("acme", "beta", 22, "beta bug"),
        item("acme", "gamma", 33, "gamma bug"),
        item("acme", "delta", 44, "delta bug"),
        item("acme", "edge", 55, "edge bug"),
    ])
    for repo, number in (("alpha", 11), ("beta", 22), ("gamma", 33), ("edge", 55)):
        put_issue(fx, "acme", repo, number, title=f"{repo} bug", body=PLAIN_BODY)
        put_repo_tree(fx, "acme", repo, {})
    put_issue(fx, "acme", "delta", 44, title="delta bug", body=FIX_BODY,
              comments=["Fixed by https://github.com/acme/delta/pull/9"])
    put_repo_tree(fx, "acme", "delta", {"pom.xml": POM})
    put_pull(fx, "acme", "delta", 9, [("src/Fix.java", "modified")])
    put_file(fx, "acme", "delta", "src/Fix.java", "f" * 40, MAIN_JAVA)

    # Driver with no stack trace whose title queries come back empty.
    put_issue(fx, "octo", "driver", 8, title="ZstdCompressor checksum mismatch",
              body="No trace here, just a sad report.", state="open")
    put_search(fx, "ZstdCompressor checksum mismatch in:title language:java state:closed", [])
    put_search(fx, "ZstdCompressor checksum mismatch language:java state:closed", [])

    # Driver that cannot produce any query at all.
    put_issue(fx, "octo", "driver", 9, title="the of and or but",
              body="Nothing resembling an error report.", state="open")

    # Mining corpus.
    put_search(fx, '"similar bug" in:body,comments', [
        item("alpha", "one", 1, "one"),
        item("beta", "two", 2, "two"),
    ])
    put_search(fx, '"similar problem" in:body,comments', [])
    put_issue(fx, "alpha", "one", 1, title="one",
              body="This is a similar bug to https://github.com/gamma/three/issues/30")
    put_issue(fx, "beta", "two", 2, title="two",
              body="similar bug to https://github.com/beta/two/issues/5 in our own tracker")

    return store_dir


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _recommend(capsys, fxdir, *extra):
    return _run(capsys, ["recommend", "octo/driver#7", "--fixture-dir", str(fxdir), *extra])


# what replaces the driver's fixture file in each case of
# test_unreadable_payload_exit_code: nothing for "missing", a directory
# for "directory"
_DAMAGE = {
    "missing": None,
    "corrupt": b'{"title": ',
    "deep": b"[" * 100_000,
    "deep-payload": b'{"status": 200, "payload": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "not-utf8": b"\xff",
    "array": b"[1, 2]",
    "string-status": b'{"status": "200", "payload": {}}',
    "true-status": b'{"status": true, "payload": {}}',
    "truncated": b'{"status": 200, "payl',
    "no-status": b'{"endpoint": "get_issue"}',
    "no-payload": b'{"endpoint": "get_issue", "status": 200}',
    "directory": None,
}


class TestRecommend:
    def test_structured_output_ranks_patched_candidate_first(self, capsys, fxdir):
        rc, out, err = _recommend(capsys, fxdir)
        assert rc == 0
        data = json.loads(out)
        assert data["driver"] == "octo/driver#7"
        assert data["query"]["strategy"] == "stack_trace"
        refs = [c["ref"] for c in data["candidates"]]
        assert refs[0] == "acme/delta#44"
        assert refs[1:] == ["acme/alpha#11", "acme/beta#22", "acme/gamma#33", "acme/edge#55"]
        top = data["candidates"][0]
        assert top["search_rank"] == 4
        assert top["final_rank"] == 1
        assert top["similarities"]["code"] == 1.0
        assert top["similarities"]["dependency"] == 1.0
        assert top["metrics"]["has_fix_commit"] is True
        assert data["weights"] == WeightConfig().to_dict()

    def test_replay_runs_are_byte_identical(self, capsys, fxdir):
        rc1, out1, _ = _recommend(capsys, fxdir)
        rc2, out2, _ = _recommend(capsys, fxdir, "--parallelism", "1")
        assert (rc1, rc2) == (0, 0)
        assert out1 == out2

    def test_cache_dir_round_trip(self, capsys, fxdir, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        rc0, out0, _ = _recommend(capsys, fxdir)
        rc1, out1, _ = _recommend(capsys, fxdir, "--cache-dir", str(cache))
        # the driver's two files; acme/delta's pom.xml is the same blob
        assert {p.name: p.read_bytes() for p in (cache / "blobs").iterdir()} == {
            blob_sha(POM): POM.encode(), blob_sha(MAIN_JAVA): MAIN_JAVA.encode(),
        }
        # the second run reads them from the store alone
        for path in ("pom.xml", "src/Main.java"):
            key = canonical_key("get_file_content", {
                "owner": "octo", "repo": "driver", "path": path, "ref": "c" * 40,
            })
            (fxdir / "payloads" / f"{key}.json").unlink()
        rc2, out2, _ = _recommend(capsys, fxdir, "--cache-dir", str(cache))
        assert (rc0, rc1, rc2) == (0, 0, 0)
        assert out0 == out1 == out2
        assert sorted(cache.iterdir()) == [cache / "blobs"]

    def test_table_format(self, capsys, fxdir):
        rc, out, _ = _recommend(capsys, fxdir, "--format", "table")
        assert rc == 0
        assert "UTFDataFormatException encoded string too long" in out
        assert "acme/delta#44" in out
        lines = [l for l in out.splitlines() if "acme/" in l]
        assert lines[0].lstrip().startswith("1")

    def test_zero_weights_keep_platform_order(self, capsys, fxdir):
        flags = []
        for name in WeightConfig().to_dict():
            flags += ["--weight", f"{name}=0"]
        rc, out, _ = _recommend(capsys, fxdir, *flags)
        assert rc == 0
        refs = [c["ref"] for c in json.loads(out)["candidates"]]
        assert refs == [
            "acme/alpha#11", "acme/beta#22", "acme/gamma#33",
            "acme/delta#44", "acme/edge#55",
        ]

    def test_config_file_and_flag_precedence(self, capsys, fxdir, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"weights": {"w_dep": 0.5}}))
        rc, out, _ = _recommend(capsys, fxdir, "--config", str(cfg_path))
        assert rc == 0
        assert json.loads(out)["weights"]["w_dep"] == 0.5
        rc, out, _ = _recommend(
            capsys, fxdir, "--config", str(cfg_path), "--weight", "w_dep=0.6"
        )
        assert rc == 0
        assert json.loads(out)["weights"]["w_dep"] == 0.6

    def test_local_issue_file_driver(self, capsys, fxdir, tmp_path):
        issue_path = tmp_path / "issue.json"
        issue_path.write_text(json.dumps({
            "ref": "octo/driver#7",
            "title": "UTFDataFormatException on large objects",
            "body": DRIVER_BODY,
        }))
        rc, out, _ = _run(capsys, [
            "recommend", str(issue_path), "--fixture-dir", str(fxdir),
        ])
        assert rc == 0
        data = json.loads(out)
        assert data["driver"] == "octo/driver#7"
        assert data["candidates"][0]["ref"] == "acme/delta#44"

    def test_zero_candidates_exit_code(self, capsys, fxdir):
        rc, out, err = _run(capsys, [
            "recommend", "octo/driver#8", "--fixture-dir", str(fxdir),
        ])
        assert rc == 2
        assert out == ""
        assert "error:" in err
        assert "summary" in err

    def test_no_query_exit_code(self, capsys, fxdir):
        rc, out, err = _run(capsys, [
            "recommend", "octo/driver#9", "--fixture-dir", str(fxdir),
        ])
        assert rc == 3
        assert "error:" in err
        assert "stack trace" in err

    def test_replay_miss_exit_code(self, capsys, fxdir):
        """A miss on the driver, or on candidate acme/beta#22 in the fetch
        stage, exits 4 with the same error line serially and at the default."""
        key = canonical_key("get_issue", {"owner": "acme", "repo": "beta", "number": "22"})
        (fxdir / "payloads" / f"{key}.json").unlink()
        for driver, missed in (("octo/driver#999", "'999'"), ("octo/driver#7", "'22'")):
            argv = ["recommend", driver, "--fixture-dir", str(fxdir)]
            serial = _run(capsys, [*argv, "--parallelism", "1"])
            default = _run(capsys, argv)
            assert serial == default
            rc, out, err = default
            assert (rc, out) == (4, "")
            assert err.startswith("error:") and "get_issue" in err and missed in err

    @pytest.mark.parametrize("retry_after, hint", [(7.0, " (retry after 7s)"), (None, "")])
    def test_rate_limit_exit_code(self, capsys, fxdir, monkeypatch, retry_after, hint):
        def limited(issue, client):
            raise RateLimitError("API rate limit exceeded", retry_after=retry_after)

        monkeypatch.setattr(pipeline, "resolve_driver", limited)
        assert _recommend(capsys, fxdir) == (4, "", f"error: API rate limit exceeded{hint}\n")

    @pytest.mark.parametrize("driver", ["octo/driver#0", "octo/driver#00", "octo/driver#007"])
    def test_zero_or_zero_padded_number_is_a_usage_error(self, capsys, fxdir, driver):
        """No request is made for an issue number the platform never
        assigns, nor for one written in another form than it prints."""
        rc, out, err = _run(capsys, ["recommend", driver, "--fixture-dir", str(fxdir)])
        assert (rc, out) == (1, "")
        assert err.startswith("error:") and repr(driver) in err

    @pytest.mark.parametrize("damage", _DAMAGE)
    def test_unreadable_payload_exit_code(self, capsys, fxdir, damage):
        """A missing fixture file is a replay miss; any other that cannot be
        read, or holds no integer status and payload, is named."""
        key = canonical_key("get_issue", {"owner": "octo", "repo": "driver", "number": "7"})
        path = fxdir / "payloads" / f"{key}.json"
        path.unlink()
        if damage == "directory":
            path.mkdir()
        elif _DAMAGE[damage] is not None:
            path.write_bytes(_DAMAGE[damage])
        rc, out, err = _recommend(capsys, fxdir)
        assert (rc, out) == (4, "")
        assert err.startswith("error:") and err.count("\n") == 1
        if damage == "missing":
            assert "no fixture recorded for get_issue" in err
        else:
            assert str(path) in err

    @pytest.mark.parametrize(
        "endpoint, params, payload",
        [
            # a search page that is an array, a comment page that is an object
            ("search_issues", {"q": SHARED_QUERY, "page": "1", "per_page": "100"}, []),
            ("list_comments",
             {"owner": "octo", "repo": "driver", "number": "7", "page": "1", "per_page": "100"},
             {"body": "x"}),
            ("list_comments",
             {"owner": "acme", "repo": "alpha", "number": "11", "page": "1", "per_page": "100"},
             ["not an object"]),
            ("get_pull_files",
             {"owner": "acme", "repo": "alpha", "number": "9", "page": "1", "per_page": "100"},
             {"filename": "src/Fix.java"}),
            ("get_issue", {"owner": "acme", "repo": "beta", "number": "21"}, ["x"]),
            ("get_tree",
             {"owner": "acme", "repo": "alpha", "ref": "main", "recursive": "1"}, "tree"),
        ],
    )
    def test_wrong_payload_type_exit_code(self, capsys, monkeypatch, endpoint, params, payload):
        transport = StubTransport()
        put_shared_repos(transport)
        transport.put(endpoint, params, payload)
        monkeypatch.setattr(pipeline, "build_client", lambda config: PlatformClient(transport))
        rc, out, err = _run(capsys, ["recommend", "octo/driver#7", "--n-threshold", "2"])
        assert rc == 4
        assert out == ""
        assert endpoint in err

    def test_bad_weight_flag(self, capsys, fxdir):
        rc, _, err = _recommend(capsys, fxdir, "--weight", "w_bogus=1")
        assert rc == 1
        assert "error:" in err
        rc, _, err = _recommend(capsys, fxdir, "--weight", "nonsense")
        assert rc == 1

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e309"])
    def test_non_finite_weight_flag(self, capsys, fxdir, value):
        rc, out, err = _recommend(capsys, fxdir, "--weight", f"w_has_fix={value}")
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and "w_has_fix" in err

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"w_code": Infinity}', "w_code"),
            ('{"w_code": 1e308, "w_dep": 1e308}', "finite sum"),
        ],
    )
    def test_non_finite_weights_file(self, capsys, fxdir, tmp_path, text, named):
        path = tmp_path / "weights.json"
        path.write_text(text)
        rc, out, err = _recommend(capsys, fxdir, "--weights-file", str(path))
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and named in err

    def test_missing_fixture_dir(self, capsys, tmp_path):
        rc, _, err = _run(capsys, [
            "recommend", "octo/driver#7", "--fixture-dir", str(tmp_path / "gone"),
        ])
        assert rc == 1
        assert "error:" in err


class _Platform(StubTransport):
    """Answers a request nobody scripted as the platform would: 404."""

    def fetch_raw(self, endpoint, params):
        key = (endpoint, json.dumps(params, sort_keys=True))
        return self.responses.get(key, (404, {"message": "Not Found"}))


def _positions(value, path=()):
    """The path of every value inside a JSON value, its own first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _positions(child, path + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3)
    ),
    max_leaves=6,
)


def _reshape(data, value):
    """A deep copy of a JSON value with one value inside it, or the whole,
    replaced by drawn JSON, or dropped from its object; and that value's path."""
    value = copy.deepcopy(value)
    path = data.draw(st.sampled_from(list(_positions(value))))
    replacement = data.draw(_JSON)
    if not path:
        return path, replacement
    parent = value
    for step in path[:-1]:
        parent = parent[step]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return path, value


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_reshaped_payload_exits_with_a_documented_code(data):
    """Every endpoint's reply, with any one value inside it replaced or
    dropped, ends ``recommend`` with an exit code of 0-4, not a traceback."""
    transport = _Platform()
    put_shared_repos(transport)
    # a candidate whose fix is a bare commit id, so get_commit is scripted too
    put_issue(transport, "acme", "beta", 21, title="beta bug", comments=["Fixed in a1b2c3d"])
    transport.put("get_commit", {"owner": "acme", "repo": "beta", "sha": "a1b2c3d"},
                  {"sha": "a" * 40, "files": [{"filename": "src/B.java", "status": "added"}]})
    put_file(transport, "acme", "beta", "src/B.java", "a" * 40, MAIN_JAVA)

    key = data.draw(st.sampled_from(sorted(transport.responses)))
    status, payload = transport.responses[key]
    path, payload = _reshape(data, payload)
    transport.responses[key] = (status, payload)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(pipeline, "build_client", lambda config: PlatformClient(transport)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["recommend", "octo/driver#7", "--n-threshold", "2"])
    assert rc in range(5), (key, path, err.getvalue())


DATASET_ENTRY = {
    "driver": "octo/driver#99",
    "candidates": [
        {"ref": "octo/demo#1", "factors": {"issue_length": 0.2}},
        {"ref": "octo/demo#4", "factors": {"dep": 1.0}},
    ],
    "relevant": ["octo/demo#4"],
}

CONFIG = {
    "max_candidates": 5,
    "n_threshold": 2,
    "parallelism": 2,
    "min_match_len": 9,
    "cache_dir": "cache",
    "language_filter": "java",
    "qualifier_mode": "body,comments",
    "output_format": "table",
    "weights": {"w_code": 0.5},
}

ISSUE_FILE = {
    "ref": "octo/driver#7",
    "title": "UTFDataFormatException on large objects",
    "body": DRIVER_BODY,
    "comments": ["Seen with 1.3.0 too."],
    "state": "open",
    "labels": ["bug"],
}


@pytest.fixture()
def dataset_path(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text(json.dumps(DATASET_ENTRY) + "\n")
    return path


def _input_argv(kind, path, fxdir, workdir):
    """A command that reads the input file ``path`` of ``kind``. Replay
    and the cache directory always come from flags, so no file value can
    send a request to the network or a write outside ``workdir``."""
    if kind == "dataset":
        return ["evaluate", str(path)]
    local = ["--fixture-dir", str(fxdir), "--cache-dir", str(workdir / "cache")]
    if kind == "config":
        return ["recommend", "octo/driver#7", "--config", str(path), *local]
    if kind == "weights":
        return ["recommend", "octo/driver#7", "--weights-file", str(path), *local]
    return ["recommend", str(path), *local]


@pytest.mark.parametrize("kind,value,named", [
    ("dataset", [1, 2], "line 1"),
    ("dataset", dict(DATASET_ENTRY, driver=5), "line 1"),
    ("dataset", dict(DATASET_ENTRY, candidates=[5]), "line 1"),
    ("dataset", dict(DATASET_ENTRY, candidates=None), "line 1"),
    ("dataset", dict(DATASET_ENTRY, candidates=[
        {"ref": "octo/demo#4", "factors": {"dep": 1.5}}]), "line 1"),
    ("dataset", dict(DATASET_ENTRY, candidates=[
        {"ref": "octo/demo#4", "factors": {"dep": float("nan")}}]), "line 1"),
    ("config", {"max_candidates": "x"}, "max_candidates"),
    ("config", {"n_threshold": "3"}, "n_threshold"),
    ("config", {"parallelism": None}, "parallelism"),
    ("config", {"min_match_len": 2.5}, "min_match_len"),
    ("config", {"cache_dir": 7}, "cache_dir"),
    ("config", {"weights": 5}, "weights"),
    ("issue", dict(ISSUE_FILE, comments=5), "comments"),
    ("issue", dict(ISSUE_FILE, body=7), "body"),
    ("issue", dict(ISSUE_FILE, labels=["bug", 3]), "labels"),
    ("weights", {"w_code": "x"}, "w_code"),
    ("weights", {"w_bogus": 1.0}, "w_bogus"),
    ("weights", [1.0], "weights"),
    # JSON true is no number
    ("config", {"max_candidates": True}, "max_candidates"),
    ("weights", {"w_code": True}, "w_code"),
    ("dataset", dict(DATASET_ENTRY, candidates=[
        {"ref": "octo/demo#4", "factors": {"dep": True}}]), "factor dep"),
    # nor is a numeric string
    ("weights", {"w_code": "0.5"}, "w_code"),
    ("dataset", dict(DATASET_ENTRY, candidates=[
        {"ref": "octo/demo#4", "factors": {"dep": "1"}}]), "factor dep"),
    # an issue number is written as it prints
    ("dataset", dict(DATASET_ENTRY, driver="octo/driver#0"), "line 1"),
    ("dataset", dict(DATASET_ENTRY, relevant=["octo/demo#00"]), "line 1"),
    ("dataset", dict(DATASET_ENTRY, candidates=[
        {"ref": "octo/demo#007", "factors": {}}]), "line 1"),
    ("issue", dict(ISSUE_FILE, ref="octo/driver#0"), "octo/driver#0"),
    # checked though no factor reads it
    ("issue", dict(ISSUE_FILE, state=7), "state"),
])
def test_malformed_input_file_is_a_usage_error(capsys, fxdir, tmp_path, kind, value, named):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(value) + "\n")
    rc, _, err = _run(capsys, _input_argv(kind, path, fxdir, tmp_path))
    assert rc == 1
    assert err.startswith("error: ") and str(path) in err and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["dataset", "config", "issue", "weights"])
@pytest.mark.parametrize("raw", [b"[" * 100_000, b'{"ref": "\xff"}'], ids=["deep", "not-utf8"])
def test_unparseable_input_file_is_a_usage_error(capsys, fxdir, tmp_path, kind, raw):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(raw)
    rc, _, err = _run(capsys, _input_argv(kind, path, fxdir, tmp_path))
    assert rc == 1
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize(
    "argv",
    [["recommend", "octo/driver#7", "--bogus", "x"],
     ["recommend", "octo/driver#7", "--max-candidates", "abc"],
     []],
    ids=["unknown-flag", "bad-int", "no-subcommand"],
)
def test_argument_errors_exit_with_the_usage_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero_and_names_each_scope(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["recommend", "--help"])
    assert exc.value.code == 0
    assert "--scope {body,comments|body}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(RunConfig) if f.name != "weights"]
)
def test_each_config_field_is_set_by_its_flag(name):
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    parser = subparsers.choices["recommend"]
    (action,) = [a for a in parser._actions if a.dest == name]
    default = getattr(RunConfig(), name)
    if action.choices:
        value = next(c for c in action.choices if c != default)
    elif action.type is int:
        value = default + 1
    else:
        value = "x"
    args = parser.parse_args(["octo/driver#7", action.option_strings[0], str(value)])
    assert getattr(cli._config_from_args(args), name) == value


# the config flags each subcommand other than recommend does not read
UNREAD_FLAGS = {
    "evaluate": ["--fixture-dir", "--cache-dir", "--token-env", "--language",
                 "--max-candidates", "--n-threshold", "--scope", "--parallelism",
                 "--min-match-len"],
    "mine": ["--cache-dir", "--language", "--max-candidates", "--n-threshold", "--scope",
             "--format", "--parallelism", "--min-match-len", "--weight", "--weights-file"],
    "tune": ["--fixture-dir", "--cache-dir", "--token-env", "--language",
             "--max-candidates", "--n-threshold", "--scope", "--format", "--parallelism",
             "--min-match-len"],
}


@pytest.mark.parametrize(
    "command,flag", [(command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags]
)
def test_subcommand_refuses_a_config_flag_it_does_not_read(
    capsys, fxdir, dataset_path, tmp_path, command, flag
):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(WeightConfig().to_dict()))
    value = {
        "--fixture-dir": str(fxdir), "--cache-dir": str(tmp_path / "cache"),
        "--token-env": "BUGNAV_TOKEN", "--language": "java", "--max-candidates": "5",
        "--n-threshold": "2", "--scope": "body", "--format": "table", "--parallelism": "2",
        "--min-match-len": "5", "--weight": "w_code=0.5", "--weights-file": str(weights),
    }[flag]
    argv = {
        "evaluate": ["evaluate", str(dataset_path)],
        "mine": ["mine", "--fixture-dir", str(fxdir)],
        "tune": ["tune", str(dataset_path), "--grid-step", "1.0"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, value])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    # the subcommand's usage, which lists the flags it takes
    assert err.startswith(f"usage: bugnav {command} [-h]")
    assert f"bugnav {command}: error: unrecognized arguments: {flag}" in err


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_reshaped_input_file_exits_with_a_documented_code(fxdir, data):
    """A dataset line, config file or issue file with any one value
    replaced or dropped ends its command with an exit code of 0-4."""
    kind, base = data.draw(st.sampled_from(
        [("dataset", DATASET_ENTRY), ("config", CONFIG), ("issue", ISSUE_FILE)]
    ))
    _, value = _reshape(data, base)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        path = workdir / f"{kind}.json"
        path.write_text(json.dumps(value) + "\n")
        argv = _input_argv(kind, path, fxdir, workdir)
        if kind == "dataset" and data.draw(st.booleans()):
            argv = ["tune", str(path), "--grid-step", "1.0"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    assert rc in range(5), (kind, value, err.getvalue())


class TestEvaluate:
    def test_structured_report(self, capsys, dataset_path):
        rc, out, _ = _run(capsys, ["evaluate", str(dataset_path)])
        assert rc == 0
        data = json.loads(out)
        assert data["per_system"]["raw_search"]["mrr"] == 0.5
        assert data["per_system"]["reranked"]["mrr"] == 1.0
        assert data["per_system"]["reranked"]["prec_at"]["1"] == 1.0
        assert data["num_relevant"] == 1

    def test_table_report(self, capsys, dataset_path):
        rc, out, _ = _run(capsys, ["evaluate", str(dataset_path), "--format", "table"])
        assert rc == 0
        assert "raw_search" in out
        assert "reranked" in out

    def test_missing_dataset(self, capsys, tmp_path):
        rc, _, err = _run(capsys, ["evaluate", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert "error:" in err


class TestMine:
    def test_golden_pairs(self, capsys, fxdir, tmp_path):
        out_path = tmp_path / "pairs.txt"
        rc, out, _ = _run(capsys, [
            "mine", "--fixture-dir", str(fxdir), "--output", str(out_path),
        ])
        assert rc == 0
        assert out_path.read_text() == "alpha/one#1 gamma/three#30\n"
        assert "alpha/one#1 gamma/three#30" in out

    def test_stdout_only(self, capsys, fxdir):
        rc, out, _ = _run(capsys, ["mine", "--fixture-dir", str(fxdir)])
        assert rc == 0
        assert out == "alpha/one#1 gamma/three#30\n"


def test_unwritable_output_is_a_usage_error(capsys, fxdir, dataset_path, tmp_path):
    target = tmp_path / "gone" / "out.txt"
    for argv in (
        ["mine", "--fixture-dir", str(fxdir)],
        ["tune", str(dataset_path), "--grid-step", "1.0"],
    ):
        rc, out, err = _run(capsys, [*argv, "--output", str(target)])
        assert rc == 1
        assert out == ""
        last = err.splitlines()[-1]
        assert last.startswith("error:") and str(target) in last


class TestTune:
    def test_identity_grid_echoes_defaults(self, capsys, dataset_path, tmp_path):
        out_path = tmp_path / "weights.json"
        rc, out, _ = _run(capsys, [
            "tune", str(dataset_path), "--grid-step", "1.0", "--output", str(out_path),
        ])
        assert rc == 0
        assert json.loads(out) == WeightConfig().to_dict()
        assert json.loads(out_path.read_text()) == WeightConfig().to_dict()

    def test_grid_size_goes_to_stderr(self, capsys, dataset_path):
        rc, out, err = _run(capsys, ["tune", str(dataset_path)])
        assert rc == 0
        assert err == "tune: searching 364 grid points\n"
        tuned = tune_weights(EvalDataset.load(str(dataset_path)), 0.0714)
        assert out == json.dumps(tuned.to_dict(), indent=2, sort_keys=True) + "\n"

    def test_missing_dataset(self, capsys, tmp_path):
        rc, _, err = _run(capsys, ["tune", str(tmp_path / "nope.jsonl")])
        assert rc == 1


# an ASCII locale, with neither UTF-8 mode nor locale coercion to undo it
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


def _cli_in_ascii_locale(*argv):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
    env.update(ASCII_LOCALE, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "bugnav.cli", *argv], env=env, capture_output=True, timeout=120,
    )


# one run of each subcommand that writes to stdout
_STDOUT_RUNS = {
    "recommend": ["recommend", "lightbend/config#398",
                  "--fixture-dir", str(ROOT / "fixtures" / "walkthrough")],
    "evaluate": ["evaluate", str(ROOT / "fixtures" / "eval" / "dataset.jsonl"),
                 "--format", "table"],
    "mine": ["mine", "--fixture-dir", str(ROOT / "fixtures" / "miner")],
    "tune": ["tune", str(ROOT / "fixtures" / "eval" / "dataset.jsonl"), "--grid-step", "1.0"],
}


def _cli_writing_to(stdout, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "bugnav.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120,
    )
    return proc.returncode, proc.stderr.decode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("name", _STDOUT_RUNS)
def test_full_stdout_is_a_usage_error(name):
    with open("/dev/full", "wb") as full:
        rc, err = _cli_writing_to(full, _STDOUT_RUNS[name])
    assert rc == 1
    assert err.splitlines()[-1] == (
        f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}"
    )
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("name", _STDOUT_RUNS)
def test_closed_stdout_pipe_is_a_usage_error(name):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        rc, err = _cli_writing_to(write_end, _STDOUT_RUNS[name])
    finally:
        os.close(write_end)
    assert rc == 1
    assert err.splitlines()[-1] == (
        f"error: cannot write standard output: {os.strerror(errno.EPIPE)}"
    )
    assert "Traceback" not in err and "Exception ignored" not in err


def _cli_with_full_stderr(argv):
    """Exit code and stdout of a run whose stderr is full; stderr is
    buffered, as by default, so that a failed write stays in its buffer."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(ROOT / "src"))
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "bugnav.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=full, timeout=120,
        )
    return proc.returncode, proc.stdout.decode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stderr_keeps_the_tune_output(capsys):
    """The progress line is lost on a full stderr; the weights are not."""
    rc, out = _cli_with_full_stderr(_STDOUT_RUNS["tune"])
    assert (rc, out) == _run(capsys, _STDOUT_RUNS["tune"])[:2]
    assert rc == 0 and "w_code" in json.loads(out)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stderr_keeps_the_exit_code(tmp_path):
    """A replay miss exits 4 though its error line cannot be written."""
    rc, out = _cli_with_full_stderr(
        ["recommend", "octo/driver#1", "--fixture-dir", str(tmp_path)]
    )
    assert (rc, out) == (4, "")


def test_json_files_are_read_as_utf8_in_an_ascii_locale(tmp_path):
    """Raw UTF-8 in a fixture payload or a dataset line reads the same
    whatever the locale's encoding."""
    fixtures = tmp_path / "walkthrough"
    shutil.copytree(ROOT / "fixtures" / "walkthrough", fixtures)
    key = canonical_key("get_issue", {"owner": "lightbend", "repo": "config", "number": "398"})
    payload = fixtures / "payloads" / f"{key}.json"
    record = json.loads(payload.read_bytes())
    record["payload"]["note"] = "Café"
    payload.write_bytes(json.dumps(record, ensure_ascii=False).encode("utf-8"))
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_bytes(json.dumps({**DATASET_ENTRY, "note": "Café"}, ensure_ascii=False).encode())

    run = _cli_in_ascii_locale("recommend", "lightbend/config#398", "--fixture-dir", str(fixtures))
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (ROOT / "fixtures" / "golden" / "walkthrough_output.json").read_bytes()
    run = _cli_in_ascii_locale("evaluate", str(dataset))
    assert (run.returncode, run.stderr) == (0, b"")


def test_dataset_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    dataset = ROOT / "fixtures" / "eval" / "dataset.jsonl"
    marked = tmp_path / "dataset.jsonl"
    marked.write_bytes(b"\xef\xbb\xbf" + dataset.read_bytes())
    rc, plain, _ = _run(capsys, ["evaluate", str(dataset)])
    assert rc == 0
    rc, out, err = _run(capsys, ["evaluate", str(marked)])
    assert (rc, err) == (0, "")
    assert out == plain


def test_long_run_of_y_in_a_comment_is_stemmed(capsys, tmp_path):
    """A thread word far longer than the interpreter's recursion limit
    stems like any other."""
    fixtures = ROOT / "fixtures" / "walkthrough"
    client = PlatformClient(ReplayTransport(FixtureStore(str(fixtures))))
    driver = client.fetch_issue(IssueRef("lightbend", "config", 398))
    issue_path = tmp_path / "issue.json"
    issue_path.write_text(json.dumps({
        "ref": "lightbend/config#398", "title": driver.title, "body": driver.body,
        "comments": [*driver.comments, "y" * 3000],
    }))
    rc, out, err = _run(capsys, ["recommend", str(issue_path), "--fixture-dir", str(fixtures)])
    assert rc == 0 and "Traceback" not in err
    assert json.loads(out)["driver"] == "lightbend/config#398"


@pytest.mark.parametrize("call", ["os.fdopen", "os.replace"])
def test_full_disk_under_the_snapshot_cache_costs_only_the_cache(
    capsys, caplog, tmp_path, call
):
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    fixtures = ROOT / "fixtures" / "walkthrough"
    open_fds = os.listdir("/proc/self/fd")
    with mock.patch(call, side_effect=full), caplog.at_level(logging.WARNING):
        rc, out, _ = _run(capsys, [
            "recommend", "lightbend/config#398", "--fixture-dir", str(fixtures),
            "--cache-dir", str(tmp_path),
        ])
    assert rc == 0
    assert out.encode() == (ROOT / "fixtures" / "golden" / "walkthrough_output.json").read_bytes()
    # the driver's Java file is the one tree entry with a blob sha
    warned = [r for r in caplog.records if "cannot write file cache" in r.getMessage()]
    assert len(warned) == 1 and str(tmp_path / "blobs") in warned[0].getMessage()
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []
    # no temp file's descriptor stays open
    assert sorted(os.listdir("/proc/self/fd")) == sorted(open_fds)


def test_replies_odd_only_in_unread_fields_print_the_golden(capsys, tmp_path):
    """No factor reads a search hit's title or an issue's state and labels,
    so values of any type there change no byte of the output."""
    fixtures = tmp_path / "walkthrough"
    shutil.copytree(ROOT / "fixtures" / "walkthrough", fixtures)
    changed = set()
    for path in (fixtures / "payloads").iterdir():
        record = json.loads(path.read_text())
        if record["endpoint"] == "search_issues":
            for hit in record["payload"]["items"]:
                hit["title"] = 5
        elif record["endpoint"] == "get_issue":
            record["payload"].update(labels=[{"name": 3}], state=7)
        else:
            continue
        changed.add(record["endpoint"])
        path.write_text(json.dumps(record))
    assert changed == {"search_issues", "get_issue"}
    rc, out, err = _run(
        capsys, ["recommend", "lightbend/config#398", "--fixture-dir", str(fixtures)]
    )
    assert (rc, err) == (0, "")
    assert out.encode() == (ROOT / "fixtures" / "golden" / "walkthrough_output.json").read_bytes()


def test_snapshot_cache_in_the_earlier_layout_is_a_miss(capsys, caplog, tmp_path):
    """Whole-snapshot files that earlier versions wrote, here holding other
    text for the driver's Java file, are never read: the output is the
    golden, no warning names them, and they stay as they were."""
    argv = ["recommend", "lightbend/config#398", "--fixture-dir",
            str(ROOT / "fixtures" / "walkthrough"), "--cache-dir", str(tmp_path)]
    repo = {"owner": "lightbend", "repo": "config", "head": "f00d" * 10}
    stale = {"config/src/main/java/com/typesafe/config/impl/SerializedConfigValue.java":
             "class Stale { void f() { } }"}
    written = {}
    for key, files in (
        (dict(repo, kinds=",".join(sorted(FILE_KINDS))), stale),
        (repo, dict(repo, files=stale)),
    ):
        path = tmp_path / f"{canonical_key('snapshot', key)}.json"
        written[path] = json.dumps(files)
        path.write_text(written[path])
    with caplog.at_level(logging.WARNING, logger="bugnav.corpus.client"):
        rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert out.encode() == (ROOT / "fixtures" / "golden" / "walkthrough_output.json").read_bytes()
    assert caplog.records == []
    assert {path: path.read_text() for path in written} == written
    assert len(list((tmp_path / "blobs").iterdir())) == 1


def test_long_name_run_and_space_run_in_the_driver(capsys, tmp_path):
    """A 65,536-character name run before the trace and a 10,000-space run
    inside its message change no byte of the output."""
    fixtures = ROOT / "fixtures" / "walkthrough"
    client = PlatformClient(ReplayTransport(FixtureStore(str(fixtures))))
    driver = client.fetch_issue(IssueRef("lightbend", "config", 398))
    body = driver.body.replace("is:\n", "is:\n" + "a." * 32768 + "\n", 1)
    body = body.replace("encoded string", "encoded" + " " * 10_000 + "string", 1)
    assert body.count("a.a.") and body.count(" " * 10_000)
    issue_path = tmp_path / "issue.json"
    issue_path.write_text(json.dumps({
        "ref": "lightbend/config#398", "title": driver.title, "body": body,
        "comments": driver.comments,
    }))
    rc, out, _ = _run(capsys, ["recommend", str(issue_path), "--fixture-dir", str(fixtures)])
    assert rc == 0
    assert out.encode() == (ROOT / "fixtures" / "golden" / "walkthrough_output.json").read_bytes()
