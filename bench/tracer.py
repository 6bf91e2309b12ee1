"""Spans and request counts taken from outside the program.

The benchmark does not instrument bugnav's sources. It wraps public
functions of each module while a traced iteration runs, keeps the
spans in memory, and derives per-layer numbers from them afterwards.
Requests are counted by a transport that implements the public
``fetch_raw`` protocol around ``ReplayTransport``; it stays on in
untraced runs too.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter, thread_time
from typing import Dict, List, Optional

ENDPOINTS = (
    "search_issues", "get_issue", "list_comments", "get_pull", "get_pull_files",
    "get_commit", "get_repo", "get_tree", "get_file_content",
)
LAYERS = ("corpus", "querygen", "extract", "similarity", "ranking", "evalharness", "pipeline")


class Span:
    """``start``/``end`` are wall clock, for intervals across threads;
    ``cpu_start``/``cpu_end`` are the thread's CPU clock, which does not
    run while the thread waits for the interpreter lock, so durations
    measure work and not how many threads share the cores."""

    __slots__ = ("id", "name", "layer", "start", "end", "cpu_start", "cpu_end",
                 "parent", "thread", "op", "attrs", "agg_s", "agg_calls")

    def __init__(self, id, name, layer, parent, thread, op):
        self.id = id
        self.name = name
        self.layer = layer
        self.start = self.end = perf_counter()
        self.cpu_start = self.cpu_end = thread_time()
        self.parent = parent
        self.thread = thread
        self.op = op
        self.attrs = {}
        # CPU time and calls of `ranking.score`, aggregated rather than
        # one span per call, on the span that made the calls
        self.agg_s = 0.0
        self.agg_calls = 0

    @property
    def dur(self) -> float:
        """CPU time of the span's thread between open and close."""
        return self.cpu_end - self.cpu_start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory spans with name, start, end, parent, thread and op id.

    Context variables do not cross ``ThreadPoolExecutor``, so a span
    opened on a pool thread with nothing open on that thread takes the
    op id the benchmark set, and as parent the innermost span open on
    the thread that runs the op (the one that started the pool).
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._op_stack = self._stack()

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            outer = self._op_stack
            parent = outer[-1].id if outer else None
        span = Span(next(self._ids), name, layer, parent, threading.get_ident(), self.op)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.cpu_end = thread_time()
        span.end = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, layer: str):
        s = self.open(name, layer)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name: str, layer: str, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                note(span, args, result)
            return result

        return traced

    def aggregate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = thread_time() - t0
                stack = tracer._stack()
                if stack:  # every caller in bugnav runs inside a traced span
                    stack[-1].agg_s += dt
                    stack[-1].agg_calls += 1

        return counted


# ---------------------------------------------------------------------------
# requests


class RequestLog:
    """Per-endpoint request counts, plus request spans while tracing."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.lock = threading.Lock()
        self.tracer: Optional[Tracer] = None

    def snapshot(self) -> Counter:
        with self.lock:
            return Counter(self.counts)


class CountingTransport:
    """``fetch_raw`` around another transport, counting every request."""

    def __init__(self, inner, log: RequestLog):
        self._inner = inner
        self._log = log

    def fetch_raw(self, endpoint, params):
        with self._log.lock:
            self._log.counts[endpoint] += 1
        tracer = self._log.tracer
        if tracer is None:
            return self._inner.fetch_raw(endpoint, params)
        span = tracer.open("request", "corpus")
        span.attrs["endpoint"] = endpoint
        try:
            return self._inner.fetch_raw(endpoint, params)
        finally:
            tracer.close(span)


def install_request_log(log: RequestLog) -> None:
    """Make ``pipeline.build_client`` wrap its replay transport in a
    ``CountingTransport``."""
    from bugnav import pipeline

    replay = pipeline.ReplayTransport
    pipeline.ReplayTransport = lambda store: CountingTransport(replay(store), log)


# ---------------------------------------------------------------------------
# wrapping public functions


def _note_snapshot(span, args, result):
    span.attrs["repo"] = f"{args[1]}/{args[2]}"
    span.attrs["files"] = len(result.files)


def _note_query(span, args, result):
    span.attrs["rungs"] = len(result.attempts)


def _note_tokens(span, args, result):
    span.attrs["tokens"] = len(result)


def _note_gst(span, args, result):
    a, b = args[0], args[1]
    span.attrs["cells"] = len(a) * len(b)
    span.attrs["streams"] = [(len(a), hash(tuple(a))), (len(b), hash(tuple(b)))]


# (module, attribute, layer, note); "Class.method" patches the class
TARGETS = [
    ("bugnav.corpus.client", "PlatformClient.search_issues", "corpus", None),
    ("bugnav.corpus.client", "PlatformClient.fetch_issue", "corpus", None),
    ("bugnav.corpus.client", "PlatformClient.fetch_patch", "corpus", None),
    ("bugnav.corpus.client", "PlatformClient.fetch_repo_snapshot", "corpus", _note_snapshot),
    ("bugnav.querygen", "build_query", "querygen", _note_query),
    ("bugnav.extract", "tokenize_code", "extract", _note_tokens),
    ("bugnav.extract", "build_repo_context", "extract", None),
    ("bugnav.extract", "extract_mentions", "extract", None),
    ("bugnav.similarity", "similarity_vector", "similarity", None),
    ("bugnav.similarity", "code_similarity", "similarity", None),
    ("bugnav.similarity", "gst_similarity", "similarity", _note_gst),
    ("bugnav.ranking", "quality_metrics", "ranking", None),
    ("bugnav.ranking", "rank", "ranking", None),
    ("bugnav.ranking", "tune_weights", "ranking", None),
    ("bugnav.evalharness", "evaluate", "evalharness", None),
    ("bugnav.evalharness", "rerank_entry", "evalharness", None),
    ("bugnav.pipeline", "recommend", "pipeline", None),
]
AGGREGATED = [("bugnav.ranking", "score")]


@contextmanager
def installed(tracer: Tracer, log: RequestLog):
    """Wrap every target for the duration of the block. A function
    imported by name into another bugnav module is replaced there too."""
    undo = []

    def replace_everywhere(original, wrapped):
        for name, module in list(sys.modules.items()):
            if not name.startswith("bugnav") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapped)

    try:
        for module_name, attr, layer, note in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__.get(meth)
                if original is None:
                    print(f"trace: {attr} not found, not traced", file=sys.stderr)
                    continue
                undo.append((cls, meth, original))
                setattr(cls, meth, tracer.wrap(original, meth, layer, note))
            else:
                original = getattr(module, attr, None)
                if original is None:
                    print(f"trace: {module_name}.{attr} not found, not traced", file=sys.stderr)
                    continue
                replace_everywhere(original, tracer.wrap(original, attr, layer, note))
        for module_name, attr in AGGREGATED:
            original = getattr(importlib.import_module(module_name), attr)
            replace_everywhere(original, tracer.aggregate(original))
        log.tracer = tracer
        yield
    finally:
        log.tracer = None
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer numbers of one op


def _union(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """CPU duration minus that of its children on the same thread,
    minus aggregated calls made from it. Children on pool threads run
    on another thread's clock and take nothing from the parent."""
    children = defaultdict(float)
    for s in spans:
        children[(s.parent, s.thread)] += s.dur
    return {s.id: s.dur - children[(s.id, s.thread)] - s.agg_s for s in spans}


def op_metrics(spans: List[Span], parallelism: int) -> Dict[str, float]:
    """Per-layer numbers for the spans of one traced op."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in spans}

    def total(name):
        return sum(s.dur for s in by_name[name])

    def self_total(name):
        return sum(selfs[s.id] for s in by_name[name])

    m: Dict[str, float] = {}

    # corpus
    requests = by_name["request"]
    m["corpus.request_s"] = sum(s.dur for s in requests)
    snaps = by_name["fetch_repo_snapshot"]
    content = Counter(
        s.parent for s in requests if s.attrs["endpoint"] == "get_file_content"
    )
    m["corpus.snapshot_s"] = self_total("fetch_repo_snapshot")
    m["corpus.snapshot_calls"] = len(snaps)
    m["corpus.snapshot_repos"] = len({s.attrs.get("repo") for s in snaps})
    m["corpus.snapshot_cache_hits"] = sum(
        1 for s in snaps if s.attrs.get("files") and not content[s.id]
    )
    m["corpus.issue_s"] = total("fetch_issue")
    m["corpus.patch_s"] = total("fetch_patch")

    # querygen
    m["querygen.build_query_s"] = self_total("build_query")
    m["querygen.rungs_tried"] = sum(s.attrs.get("rungs", 0) for s in by_name["build_query"])

    # extract
    lexed = by_name["tokenize_code"]
    tokens_lexed = sum(s.attrs.get("tokens", 0) for s in lexed)
    m["extract.lex_s"] = total("tokenize_code")
    m["extract.tokens_lexed"] = tokens_lexed
    m["extract.files_lexed"] = len(lexed)
    gst = by_name["gst_similarity"]
    used = {key for s in gst for key in map(tuple, s.attrs.get("streams", ()))}
    m["extract.tokens_used_ratio"] = (
        sum(n for n, _ in used) / tokens_lexed if tokens_lexed else 0.0
    )
    m["extract.context_s"] = self_total("build_repo_context")
    m["extract.mentions_s"] = total("extract_mentions")

    # similarity
    pair_ms = sorted(s.dur * 1e3 for s in gst)
    m["similarity.gst_s"] = total("gst_similarity")
    m["similarity.gst_pairs"] = len(gst)
    m["similarity.gst_cells"] = sum(s.attrs.get("cells", 0) for s in gst)
    m["similarity.gst_pair_p50_ms"] = statistics.median(pair_ms) if pair_ms else 0.0
    m["similarity.gst_pair_max_ms"] = pair_ms[-1] if pair_ms else 0.0
    scored = {s.parent for s in gst}
    m["similarity.gst_best_pair_ratio"] = len(scored) / len(gst) if gst else 0.0
    m["similarity.vector_self_s"] = self_total("similarity_vector")

    # ranking
    m["ranking.rank_s"] = total("rank")
    m["ranking.quality_s"] = total("quality_metrics")
    m["ranking.score_calls"] = sum(s.agg_calls for s in spans)
    m["ranking.score_s"] = sum(s.agg_s for s in spans)
    m["ranking.tune_self_s"] = self_total("tune_weights")

    # evalharness
    m["evalharness.evaluate_s"] = self_total("evaluate")
    m["evalharness.evaluate_calls"] = len(by_name["evaluate"])
    m["evalharness.rerank_s"] = total("rerank_entry")

    # pipeline
    m["pipeline.recommend_self_s"] = self_total("recommend")
    m["pipeline.serialize_s"] = total("serialize")
    busy = 0.0
    op_time = 0.0
    for rec in by_name["recommend"]:
        op_time += rec.end - rec.start
        per_thread = defaultdict(list)
        for s in spans:
            parent = by_id.get(s.parent)
            if parent is rec and s.thread != rec.thread:
                per_thread[s.thread].append((s.start, s.end))
        busy += sum(_union(iv) for iv in per_thread.values())
    m["pipeline.pool_busy_ratio"] = busy / (op_time * parallelism) if op_time else 0.0

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += selfs[s.id]
    layer_self["ranking"] += m["ranking.score_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
