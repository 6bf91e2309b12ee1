#!/usr/bin/env python3
"""bugnav benchmark: three seeded workloads, timed from one process.

    python3 bench/run.py --workload {gst-pairs,fanout,tune} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The corpus is generated from the
seed under ``.bench_work/`` and deleted afterwards. Each iteration is
the program's set-up (``build_client`` + ``resolve_driver``, or
``EvalDataset.load``) followed by one op (``recommend`` plus JSON
serialization, or one ``tune_weights`` call). Iterations repeat until
``--seconds`` have passed. Every op's output is checked; an op that
raises or fails a check counts as failed and makes ``correct`` false.

End-to-end times are CPU time of the process (all threads), not wall
time, scaled to a fixed host speed by ``hostspeed.Sampler``: on a
shared VM the wall clock also counts the time the host gives other
guests, and the CPU time of the same work drifts as they load the
cores, both by more than the largest bound allowed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` iterations alternate untraced and traced, the last
line carries the per-layer metrics, and the spans are written to
``.bench_out/``. METRICS.md lists every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from time import perf_counter, process_time

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

GRID_STEP = 0.0714
SETUPS_PER_ITERATION = 5
MAX_ITERATIONS = 20


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Recommend:
    """gst-pairs and fanout: one driver's recommend plus serialization."""

    def __init__(self, name, corpus, work: Path, parallelism: int):
        from bugnav.config import RunConfig

        self.corpus = corpus
        self.work = work
        # fanout replays a live run's configuration: a snapshot cache
        # that starts empty every iteration. It runs one worker: with
        # two, a pool thread can read a cache file another is still
        # writing (a JSONDecodeError), so its failure count would vary
        # from run to run.
        self.fresh_cache = name == "fanout"
        self.config = RunConfig(
            fixture_dir=str(corpus.fixture_dir),
            max_candidates=corpus.max_candidates,
            parallelism=1 if self.fresh_cache else parallelism,
        )
        self.parallelism = self.config.parallelism
        self.caches = 0

    def setup(self):
        from bugnav import pipeline

        config = self.config
        if self.fresh_cache:
            self.caches += 1
            config = replace(config, cache_dir=str(self.work / f"cache-{self.caches}"))
        client = pipeline.build_client(config)
        driver = pipeline.resolve_driver(self.corpus.driver, client)
        return config, client, driver

    def teardown(self, state):
        if state[0].cache_dir:
            shutil.rmtree(state[0].cache_dir, ignore_errors=True)

    def cache_bytes(self, state) -> int:
        if not state[0].cache_dir or not os.path.isdir(state[0].cache_dir):
            return 0
        return sum(p.stat().st_size for p in Path(state[0].cache_dir).iterdir())

    def op(self, state, tracer) -> str:
        from bugnav import pipeline

        config, client, driver = state
        rec = pipeline.recommend(driver, config, client)
        with tracer.span("serialize", "pipeline") if tracer else nullcontext():
            return json.dumps(pipeline.recommendation_to_dict(rec), indent=2, sort_keys=True) + "\n"

    def check(self, output: str):
        data = json.loads(output)
        cands = data["candidates"]
        if len(cands) != self.corpus.max_candidates:
            return f"{len(cands)} candidates ranked, expected {self.corpus.max_candidates}"
        if cands[0]["ref"] != self.corpus.navigator or cands[0]["final_rank"] != 1:
            return f"top candidate {cands[0]['ref']}, planted navigator {self.corpus.navigator}"
        return None


class Tune:
    """tune: one grid search over a labeled dataset."""

    def __init__(self, name, corpus, work: Path, parallelism: int):
        self.corpus = corpus
        # tune_weights sizes its own pool
        self.parallelism = parallelism
        self._checked = set()

    def setup(self):
        from bugnav.evalharness import EvalDataset

        return EvalDataset.load(self.corpus.dataset)

    def teardown(self, state):
        pass

    def cache_bytes(self, state) -> int:
        return 0

    def op(self, dataset, tracer) -> str:
        from bugnav.ranking import tune_weights

        tuned = tune_weights(dataset, GRID_STEP)
        return json.dumps(tuned.to_dict(), indent=2, sort_keys=True) + "\n"

    def check(self, output: str):
        """The tuned weights reach at least the base weights' MRR, which
        lie on the grid."""
        if output in self._checked:
            return None
        from bugnav.evalharness import EvalDataset, evaluate
        from bugnav.ranking import WeightConfig

        dataset = EvalDataset.load(self.corpus.dataset)
        tuned = WeightConfig.from_dict(json.loads(output))
        base_mrr = evaluate(dataset, WeightConfig()).mrr
        tuned_mrr = evaluate(dataset, tuned).mrr
        if tuned_mrr < base_mrr:
            return f"tuned MRR {tuned_mrr} below base MRR {base_mrr}"
        self._checked.add(output)
        return None


WORKLOADS = {"gst-pairs": Recommend, "fanout": Recommend, "tune": Tune}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def import_program():
    """Put the checkout's sources first on the path; returns a problem
    or None."""
    if not (SRC / "bugnav" / "__init__.py").is_file():
        return f"no bugnav sources at {SRC}; run from a checkout"
    sys.path.insert(0, str(SRC))
    import bugnav

    if Path(bugnav.__file__).resolve().parent != (SRC / "bugnav").resolve():
        return f"imported bugnav from {bugnav.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    import gen
    import tracer as tr

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, work, gen, tr)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parallelism() -> int:
    """gst-pairs runs recommend with one worker per available core."""
    return len(os.sched_getaffinity(0))


def _run(args, work: Path, gen, tr) -> int:
    corpus_dir = work / "corpus"
    corpus = gen.GENERATORS[args.workload](args.seed, corpus_dir)
    corpus_hash = gen.corpus_sha256(corpus_dir)
    expected = json.loads((HERE / "expected.json").read_text()).get(args.workload, {})
    recorded = expected.get(str(args.seed))
    if recorded and recorded["corpus_sha256"] != corpus_hash:
        print(f"warning: corpus hash {corpus_hash} differs from the recorded "
              f"{recorded['corpus_sha256']}", file=sys.stderr)

    log = tr.RequestLog()
    tr.install_request_log(log)
    workload = WORKLOADS[args.workload](args.workload, corpus, work, parallelism())
    workers = workload.parallelism

    setup_samples = []
    sampler = hostspeed.Sampler()

    def time_setups():
        # spread over the run, so the median sees more than one phase of
        # the host's load
        for _ in range(SETUPS_PER_ITERATION):
            m0, c0 = sampler.mark(), process_time()
            state = workload.setup()
            c1, m1 = process_time(), sampler.mark()
            scale, spent = sampler.window(m0, m1)
            setup_samples.append((c1 - c0 - spent) * scale)
            workload.teardown(state)

    attempted = failed = wrong = 0
    causes = Counter()
    digests = set()
    # untraced iterations: CPU time scaled to the reference host speed
    # (the end-to-end metrics), raw CPU time and wall time
    untraced = {"cpu_s": [], "op_cpu_s": [], "raw_cpu_s": [], "wall_s": [], "op_p50_s": []}
    traced_wall = []
    core, search, per_op_layers = [], [], []
    tracer_all = []

    def iteration(traced: bool, timed: bool):
        nonlocal attempted, failed, wrong
        tracer = tr.Tracer() if traced else None
        attempted += 1
        m0, t0, c0 = sampler.mark(), perf_counter(), process_time()
        try:
            with tr.installed(tracer, log) if traced else nullcontext():
                state = workload.setup()
                t1, c1, m1 = perf_counter(), process_time(), sampler.mark()
                before = log.snapshot()
                if tracer:
                    tracer.begin_op(attempted)
                output = workload.op(state, tracer)
                t2, c2, m2 = perf_counter(), process_time(), sampler.mark()
        except Exception as exc:  # a failed op is counted, never retried
            failed += 1
            wrong += 1
            causes[f"{type(exc).__name__}: {exc}"] += 1
            return
        op_requests = log.snapshot() - before
        problem = workload.check(output)
        digest = _digest(output)
        digests.add(digest)
        if recorded and digest != recorded["output_sha256"]:
            problem = problem or f"output sha256 {digest} differs from the recorded digest"
        if len(digests) > 1:
            problem = problem or "output differs between iterations"
        cache_bytes = workload.cache_bytes(state)
        workload.teardown(state)
        if problem:
            failed += 1
            wrong += 1
            causes[f"wrong output: {problem}"] += 1
            return
        if not timed:
            return
        core.append(sum(n for e, n in op_requests.items() if e != "search_issues"))
        search.append(op_requests["search_issues"])
        if traced:
            traced_wall.append(t2 - t0)
            # spans of the set-up (resolve_driver) carry no op id
            spans = [s for s in tracer.spans if s.op == attempted]
            m = tr.op_metrics(spans, workers)
            for endpoint in tr.ENDPOINTS:
                m[f"corpus.requests.{endpoint}"] = op_requests[endpoint]
            m["corpus.cache_bytes_written"] = cache_bytes
            m["core_requests"] = core[-1]
            m["search_requests"] = search[-1]
            per_op_layers.append(m)
            tracer_all.extend(spans)
        else:
            scale, spent = sampler.window(m0, m2)
            op_spent = sampler.window(m1, m2)[1]
            untraced["cpu_s"].append((c2 - c0 - spent) * scale)
            untraced["op_cpu_s"].append((c2 - c1 - op_spent) * scale)
            untraced["raw_cpu_s"].append(c2 - c0 - spent)
            untraced["wall_s"].append(t2 - t0)
            untraced["op_p50_s"].append(t2 - t1)

    def enough() -> bool:
        return bool(untraced["cpu_s"]) and (bool(traced_wall) or not args.trace)

    with sampler:
        # one untimed iteration first, so lazy set-up and caches are warm
        iteration(traced=False, timed=False)
        deadline = perf_counter() + args.seconds
        k = 0
        # past the deadline, keep going (up to a cap) until every kind
        # of sample exists, since failed ops give none
        while perf_counter() < deadline or (not enough() and k < MAX_ITERATIONS):
            iteration(traced=bool(args.trace) and k % 2 == 1, timed=True)
            time_setups()
            k += 1

    if not enough():
        print("error: too few ops succeeded to report metrics", file=sys.stderr)
        for cause, n in sorted(causes.items()):
            print(f"failed {n}x: {cause}", file=sys.stderr)
        return 1
    if args.workload != "tune" and not any(core):
        print("error: the counting transport saw no requests", file=sys.stderr)
        return 1

    sizing = dict(corpus.sizing)
    print(f"workload={args.workload} seed={args.seed} corpus_sha256={corpus_hash} "
          f"parallelism={workers} untraced={len(untraced['cpu_s'])} traced={len(traced_wall)} "
          f"output_sha256={sorted(digests)[0] if digests else None}")
    print(f"sizing {json.dumps(sizing, sort_keys=True)}")
    for cause, n in sorted(causes.items()):
        print(f"failed {n}x: {cause}")

    if args.trace:
        keys = per_op_layers[0].keys()
        metrics = {k: statistics.median(m[k] for m in per_op_layers) for k in keys}
        metrics["failed_frac"] = failed / attempted
        metrics["wall_s"] = statistics.median(untraced["wall_s"])
        metrics["op_p50_s"] = statistics.median(untraced["op_p50_s"])
        metrics["trace.overhead_frac"] = statistics.median(traced_wall) / metrics["wall_s"] - 1.0
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps([s.to_dict() for s in tracer_all])
        )
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = {
            "cpu_s": statistics.median(untraced["cpu_s"]),
            "op_cpu_s": statistics.median(untraced["op_cpu_s"]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"cpu_s": "s", "op_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        for name in ("cpu_s", "raw_cpu_s", "wall_s"):
            values = untraced[name]
            q1, q3 = _quartiles(values)
            print(f"{name} quartiles {q1:.6f} {q3:.6f} over {len(values)} iterations: "
                  + " ".join(f"{v:.4f}" for v in values))

    for name in sorted(metrics):
        print(f"{name} {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
