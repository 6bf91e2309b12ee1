"""The names the benchmark (bench/) and the fixture generator (tools/)
import from bugnav keep resolving, so a refactor that drops one fails
here rather than in a benchmark run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name, directory="bench"):
    spec = importlib.util.spec_from_file_location(
        f"{directory}_{name}", ROOT / directory / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    saved_path, saved_modules = list(sys.path), dict(sys.modules)
    try:
        # gen imports tools/make_demo_fixtures, which imports from bugnav
        # every name the fixture generator uses
        _load("gen")
        yield _load("tracer")
    finally:
        sys.path[:] = saved_path
        # bugnav stays imported: other tests hold its classes
        for name in set(sys.modules) - set(saved_modules):
            if not name.startswith("bugnav"):
                del sys.modules[name]


def test_every_target_is_traced(tracer, capsys):
    """``installed`` resolves each TARGETS and AGGREGATED entry itself; a
    missing target is only a warning there, a missing aggregate raises."""
    with tracer.installed(tracer.Tracer(), tracer.RequestLog()):
        for module_name, attr in tracer.AGGREGATED:
            assert getattr(importlib.import_module(module_name), attr).__name__ == attr
    assert "not traced" not in capsys.readouterr().err


def test_snapshot_fetch_takes_owner_and_repo_first():
    """``tracer._note_snapshot`` reads the repository from a traced call's
    positional arguments, ``args[1]`` and ``args[2]`` after ``self``."""
    from bugnav.corpus.client import PlatformClient

    params = list(inspect.signature(PlatformClient.fetch_repo_snapshot).parameters.values())
    assert [p.name for p in params[:3]] == ["self", "owner", "repo"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:3])


def test_run_names_resolve(tracer, monkeypatch):
    """What bench/run.py calls, with the request log its counting
    transport keeps through ``pipeline.ReplayTransport``."""
    from bugnav import pipeline
    from bugnav.config import RunConfig
    from bugnav.evalharness import EvalDataset, evaluate
    from bugnav.ranking import WeightConfig, tune_weights

    log = tracer.RequestLog()
    replay = pipeline.ReplayTransport
    monkeypatch.setattr(
        pipeline, "ReplayTransport", lambda store: tracer.CountingTransport(replay(store), log)
    )
    config = RunConfig(
        fixture_dir=str(ROOT / "fixtures" / "walkthrough"),
        max_candidates=10,
        parallelism=1,
        cache_dir=None,
    )
    client = pipeline.build_client(config)
    driver = pipeline.resolve_driver("lightbend/config#398", client)
    rec = pipeline.recommend(driver, config, client)
    assert pipeline.recommendation_to_dict(rec)["candidates"][0]["final_rank"] == 1
    assert log.counts["get_issue"] > 1

    dataset = EvalDataset.load(ROOT / "fixtures" / "eval" / "dataset.jsonl")
    tuned = WeightConfig.from_dict(tune_weights(dataset, 0.0714).to_dict())
    assert evaluate(dataset, tuned).mrr >= evaluate(dataset, WeightConfig()).mrr


def test_recommend_records_every_layer_span(tracer, capsys):
    """The benchmark's per-layer numbers come from spans around these
    names; a recommend with Java in the driver's repository, a candidate's
    repository and a candidate's patch must still record each of them,
    and fetch each repository's snapshot once."""
    from bugnav import pipeline
    from bugnav.config import RunConfig
    from bugnav.corpus.client import PlatformClient
    from bugnav.corpus.models import IssueRef
    from stubs import StubTransport, put_shared_repos

    transport = StubTransport()
    put_shared_repos(transport)
    client = PlatformClient(transport)
    driver = client.fetch_issue(IssueRef("octo", "driver", 7))
    spans = tracer.Tracer()
    with tracer.installed(spans, tracer.RequestLog()):
        spans.begin_op(1)
        pipeline.recommend(driver, RunConfig(n_threshold=2, parallelism=1), client)
    assert "not traced" not in capsys.readouterr().err
    names = {s.name for s in spans.spans}
    for name in ("tokenize_code", "build_repo_context", "extract_mentions",
                 "code_similarity", "gst_similarity"):
        assert name in names, name
    m = tracer.op_metrics(spans.spans, 1)
    assert m["corpus.snapshot_calls"] == m["corpus.snapshot_repos"] == 4
    # the driver's one Java file and the one patch file
    assert m["extract.files_lexed"] == 2


def test_fixture_generator_code_similarity_check():
    """The check tools/make_demo_fixtures.py makes before it writes the
    walkthrough: the driver's Java is closest to the geotools patch, at a
    similarity the goldens were generated with."""
    saved_path = list(sys.path)
    try:
        demo = _load("make_demo_fixtures", "tools")
    finally:
        sys.path[:] = saved_path
        sys.modules.pop("tools_make_demo_fixtures", None)
    sims = demo.code_similarities()
    assert 0.55 < sims["geotools"] < 0.65, sims
    assert sims["geotools"] > max(sims["hazelketl"], sims["orc-metrics"]), sims
