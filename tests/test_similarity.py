"""Similarity analyses against the reference oracles."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bugnav import extract, ranking, similarity
from bugnav.corpus.models import (
    IssueDocument,
    IssueRef,
    ModifiedFile,
    Patch,
    PatchRef,
    RepoSnapshot,
)
from oracles import (
    greedy_coverage_reference,
    greedy_similarity_reference,
    greedy_tiles_reference,
    optimal_coverage,
    overlap_reference,
    shared_cover_reference,
)


class TestOverlapCoefficient:
    def test_half_shared(self):
        assert similarity.overlap_coefficient({"a", "b"}, {"b", "c"}) == 0.5

    def test_subset_is_one(self):
        assert similarity.overlap_coefficient({"a"}, {"a", "b", "c"}) == 1.0

    def test_empty_is_zero(self):
        assert similarity.overlap_coefficient(set(), {"a"}) == 0.0
        assert similarity.overlap_coefficient({"a"}, set()) == 0.0
        assert similarity.overlap_coefficient(set(), set()) == 0.0

    def test_matches_reference_on_random_sets(self):
        rng = random.Random(3)
        universe = list("abcdef")
        for _ in range(2000):
            xs = {u for u in universe if rng.random() < 0.5}
            ys = {u for u in universe if rng.random() < 0.5}
            got = similarity.overlap_coefficient(xs, ys)
            want = float(overlap_reference(xs, ys))
            assert got == want
            assert 0.0 <= got <= 1.0
            assert got == similarity.overlap_coefficient(ys, xs)


def _rand_stream(rng, alphabet, max_len):
    return "".join(chr(65 + rng.randrange(alphabet)) for _ in range(rng.randint(0, max_len)))


def _rand_pair(rng, alphabet=6, max_len=12):
    return _rand_stream(rng, alphabet, max_len), _rand_stream(rng, alphabet, max_len)


class TestGstSimilarity:
    def test_spec_example_20_over_22(self):
        a, b = "ABCDEFGHIJX", "ABCDEFGHIJY"
        got = similarity.gst_similarity(a, b, min_match_len=9)
        assert got == pytest.approx(20 / 22)
        # the one-tile case is also the true optimum over all tilings
        assert optimal_coverage(a, b, 9) == 10

    def test_identical_streams(self):
        a = "ABCDEFGHIJK"
        assert similarity.gst_similarity(a, a, min_match_len=9) == 1.0

    def test_empty_streams(self):
        assert similarity.gst_similarity("", "", min_match_len=9) == 1.0
        assert similarity.gst_similarity("", "AB", min_match_len=1) == 0.0
        assert similarity.gst_similarity("AB", "", min_match_len=1) == 0.0

    def test_below_min_match_len_scores_zero(self):
        assert similarity.gst_similarity("ABC", "ABC", min_match_len=9) == 0.0

    def test_mixed_stream_types_raise(self):
        # a str window never equals a tuple window: mixing the two would
        # score 0.0 for equal streams instead of failing
        a = "ABCDEFGHIJK"
        with pytest.raises(TypeError):
            similarity.gst_similarity(a, tuple(a), min_match_len=9)
        with pytest.raises(TypeError):
            similarity.gst_similarity(tuple(a), a, min_match_len=9)
        assert similarity.gst_similarity(tuple(a), tuple(a), min_match_len=9) == 1.0

    def test_matches_greedy_reference_on_random_streams(self):
        rng = random.Random(5)
        for _ in range(400):
            a, b = _rand_pair(rng)
            mml = rng.choice([1, 2, 3])
            got = similarity.gst_similarity(a, b, min_match_len=mml)
            want = float(greedy_similarity_reference(a, b, mml))
            assert got == want, (a, b, mml)

    def test_greedy_rule_is_not_globally_optimal(self):
        # The greedy maximal-match rule is the published algorithm, and it
        # is NOT the same thing as the best possible tiling: here greedy
        # tiles BCDE (coverage 4) while ABC+DE would cover 5. Recorded so
        # nobody "fixes" the implementation toward the optimum.
        a, b = "ABCDE", "BCDEABC"
        assert greedy_coverage_reference(a, b, 2) == 4
        assert optimal_coverage(a, b, 2) == 5
        assert similarity.gst_similarity(a, b, min_match_len=2) == pytest.approx(8 / 12)

    def test_raising_min_match_len_never_increases(self):
        rng = random.Random(9)
        for _ in range(300):
            a, b = _rand_pair(rng)
            sims = [similarity.gst_similarity(a, b, min_match_len=m) for m in (1, 2, 3, 4)]
            assert sims == sorted(sims, reverse=True)

    def test_bounded(self):
        rng = random.Random(13)
        for _ in range(300):
            a, b = _rand_pair(rng)
            s = similarity.gst_similarity(a, b, min_match_len=2)
            assert 0.0 <= s <= 1.0

    def test_deterministic(self):
        rng = random.Random(17)
        for _ in range(50):
            a, b = _rand_pair(rng)
            first = similarity.gst_similarity(a, b, min_match_len=2)
            assert all(
                similarity.gst_similarity(a, b, min_match_len=2) == first for _ in range(3)
            )


@st.composite
def _stream_pairs(draw):
    alphabet = st.sampled_from("ABCDEF"[: draw(st.integers(1, 6))])
    a = draw(st.text(alphabet, max_size=40))
    b = draw(st.text(alphabet, max_size=40))
    return a, b, draw(st.integers(1, 6))


@settings(max_examples=500, deadline=None)
@given(_stream_pairs())
@example(("ABCDE", "BCDEABC", 2))
@example(("A" * 40, "A" * 17, 3))
# Every position of `a` lies in a window `b` also holds, but "q" lies in
# none of `a`'s, which splits `b` into ABCDEF and EFGH. The first tile is
# ABCDEF, which leaves GH of `a`: a piece of a match that is shorter than
# min_match_len, against EFGH still unmarked in `b`. The tiling is
# [(0, 0, 6)].
@example(("ABCDEFGH", "ABCDEFqEFGH", 4))
# A match starts where either stream starts and ends where either stream
# ends: one that spans both whole streams, one that runs to a's last token
# but ends inside b, one that starts at b's first token but inside a, and
# single tokens with min_match_len 1.
@example(("ABCDEF", "ABCDEF", 3))
@example(("XABCDE", "YABCDEZ", 3))
@example(("XABCDEY", "ABCDEZ", 3))
@example(("ABCAB", "BCABA", 1))
def test_greedy_tiles_equal_reference_tile_for_tile(case):
    a, b, mml = case
    assert similarity._greedy_tiles(a, b, mml) == greedy_tiles_reference(a, b, mml)


@st.composite
def _planted_pairs(draw):
    """Streams of up to about 200 tokens around a common core of up to 120,
    copied into ``b`` with a few point changes: round 1 gallops through
    several doublings, and the pieces of the core give later rounds
    lengths just below the previous one."""
    alphabet = "ABCDEFGH"[: draw(st.integers(2, 8))]

    def text(lo, hi):
        # sizes drawn as integers spread more evenly than text's own
        size = draw(st.integers(lo, hi))
        return draw(st.text(alphabet, min_size=size, max_size=size))

    core = text(16, 120)
    copy = list(core)
    for at in draw(st.lists(st.integers(0, len(core) - 1), max_size=3)):
        copy[at] = "Z"
    a = text(0, 40) + core + text(0, 40)
    b = text(0, 40) + "".join(copy) + text(0, 40)
    return a, b, draw(st.integers(2, 12))


@settings(max_examples=100, deadline=None)
@given(_planted_pairs())
@example(("X" + "ABCDEFGH" * 12 + "Y", "ABCDEFGH" * 12, 3))
def test_greedy_tiles_on_planted_core_equal_reference(case):
    a, b, mml = case
    assert similarity._greedy_tiles(a, b, mml) == greedy_tiles_reference(a, b, mml)


@st.composite
def _periodic_pairs(draw):
    """Two cuts of one motif of 1-4 symbols repeated, each with up to two
    point edits: streams whose equal windows pair up quadratically."""
    motif = draw(st.text("ABCD", min_size=1, max_size=4))

    def cut():
        start = draw(st.integers(0, len(motif) - 1))
        stream = list((motif * 40)[start : start + draw(st.integers(0, 40))])
        for _ in range(draw(st.integers(0, 2)) if stream else 0):
            stream[draw(st.integers(0, len(stream) - 1))] = draw(st.sampled_from("ABCDZ"))
        return "".join(stream)

    return cut(), cut(), draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(_periodic_pairs())
@example(("ABABABABAB", "BABABABA", 2))
def test_greedy_tiles_on_periodic_streams_equal_reference(case):
    a, b, mml = case
    assert similarity._greedy_tiles(a, b, mml) == greedy_tiles_reference(a, b, mml)


@pytest.mark.parametrize(
    "a, b",
    [("0" * 4000, "0" * 3000), ("01" * 2000, "01" * 1500), ("012" * 1300, "012" * 1000)],
    ids=["0", "01", "012"],
)
def test_long_periodic_streams_tile_fast(a, b):
    # every window of one stream equals a quadratic number of the other's;
    # listing those pairs takes seconds at this size
    start = time.process_time()
    tiles = similarity._greedy_tiles(a, b, 9)
    assert time.process_time() - start < 1.0
    assert tiles == [(0, 0, 3000)]


def _ctx(files):
    return extract.build_repo_context(RepoSnapshot(files))


def _driver(files, issue=None, project="octo/demo", mml=9):
    issue = issue or _issue(project=project)
    return similarity.Driver.prepare(issue, RepoSnapshot(files), min_match_len=mml)


def _code(files, mml):
    return _driver(files, mml=mml)


def _vector(driver, candidate_ctx, patch=None):
    repo = similarity.repo_similarity(driver, candidate_ctx)
    return similarity.similarity_vector(driver, [repo], [patch])[0]


# the ranking factor each similarity feeds
_FACTOR_OF = {"code": "code", "dependency": "dep", "permission": "perm", "ui": "ui"}


def _assert_not_applicable(vec, name):
    """Nothing to compare: the factor is None, outside ``applicable``,
    and 0.0 once normalized for scoring."""
    assert getattr(vec, name) is None
    assert name not in vec.applicable
    factors = ranking.normalize_factors(ranking.QualityMetrics(0, False, 0, 0), vec)
    assert getattr(factors, _FACTOR_OF[name]) == 0.0


def _patch(files):
    return Patch(
        ref=PatchRef("pull", "octo", "demo", "7"),
        files=[ModifiedFile(path=p, new_content=c) for p, c in files.items()],
    )


class TestCodeSimilarity:
    def test_max_over_file_pairs(self):
        driver = _code(
            {
                "src/A.java": "int a = readHeader(buf); if (a > limit) { throw fail(a); }",
                "src/B.java": "return items.size();",
            },
            3,
        )
        patch = _patch(
            {
                "src/X.java": "int z = readHeader(data); if (z > max) { throw fail(z); }",
                "src/Y.java": "log.warn(msg); return;",
            }
        )
        [got] = similarity.code_similarity(driver, [patch])
        pairwise = [
            similarity.gst_similarity(ds, extract.tokenize_code(pc), min_match_len=3)
            for ds in driver.code
            for pc in [
                "int z = readHeader(data); if (z > max) { throw fail(z); }",
                "log.warn(msg); return;",
            ]
        ]
        assert got == max(pairwise)
        assert got > 0.5

    def test_no_java_in_patch_is_not_applicable(self):
        driver = _code({"src/A.java": "int a = 0;"}, 3)
        patch = _patch({"res/layout/main.xml": "<LinearLayout/>"})
        assert similarity.code_similarity(driver, [patch]) == [None]

    def test_no_java_in_driver_is_not_applicable(self):
        driver = _code({"README.md": "hello"}, 3)
        patch = _patch({"src/X.java": "int a = 0;"})
        assert similarity.code_similarity(driver, [patch]) == [None]

    def test_min_match_len_below_one_raises(self):
        with pytest.raises(ValueError):
            _code({"src/A.java": "int a = 0;"}, 0)
        with pytest.raises(ValueError):
            similarity.gst_similarity("AB", "AB", min_match_len=0)

    def test_patch_file_without_content_skipped(self):
        driver = _code({"src/A.java": "int a = 0;"}, 3)
        patch = Patch(
            ref=PatchRef("commit", "octo", "demo", "a" * 7),
            files=[ModifiedFile(path="src/X.java", new_content=None)],
        )
        assert similarity.code_similarity(driver, [patch]) == [None]


# Java fragments over a few token kinds, so files share runs of kinds
# and GST has tiles to find; comments lex to nothing
_FRAGMENTS = [
    "int a = 0;",
    "return a;",
    "if (a > b) { c(); }",
    "x.y(z);",
    "a = b + 1;",
    "throw fail(a);",
    "// only a comment\n",
    "/* block */",
]
COMMENT_ONLY = "// nothing but a comment\n/* and another */"
_java_file = st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map(" ".join)
_java_files = st.lists(_java_file, min_size=1, max_size=4)
# up to 20 files a side, so the bound has many pairs to order and prune
_many_java_files = st.lists(_java_file, min_size=1, max_size=20)


def _brute_force_max(driver_sources, patch_sources, mml):
    """The best GST score over every pair of files that lex to some tokens,
    or None when a side has no such file."""
    ds = [kinds for kinds in map(extract.tokenize_code, driver_sources) if kinds]
    ps = [kinds for kinds in map(extract.tokenize_code, patch_sources) if kinds]
    if not (ds and ps):
        return None
    return max(similarity.gst_similarity(d, p, min_match_len=mml) for d in ds for p in ps)


@settings(max_examples=200, deadline=None)
@given(_many_java_files, _many_java_files, st.integers(1, 6))
@example([COMMENT_ONLY], ["int a = 0; return a;"], 1)
@example(["int a = 0; return a;", "x.y(z);"], [COMMENT_ONLY], 1)
@example([COMMENT_ONLY], [COMMENT_ONLY, "/* block */"], 3)
def test_pruned_code_similarity_equals_brute_force_max(driver_sources, patch_sources, mml):
    driver = _code({f"src/D{k}.java": src for k, src in enumerate(driver_sources)}, mml)
    patch = _patch({f"src/P{k}.java": src for k, src in enumerate(patch_sources)})
    brute = _brute_force_max(driver_sources, patch_sources, mml)
    assert similarity.code_similarity(driver, [patch]) == [brute]


_kind_streams = st.lists(st.text("ABC", max_size=30), min_size=1, max_size=20)


def _windows(stream, length):
    return [stream[i : i + length] for i in range(len(stream) - length + 1)]


@settings(max_examples=200, deadline=None)
@given(_kind_streams, _kind_streams, st.integers(1, 6))
@example(["ABCABC", "", "CAB"] * 3, ["BCABCA", "AAAA"] * 9, 2)
def test_pair_covers_equal_patch_side_set_probes(driver_streams, patch_streams, mml):
    # the span OR of a pair's matches from one sweep of the driver file
    # against the index of every patch stream
    index = similarity._index(patch_streams, mml)
    patch_windows = [_windows(s, mml) for s in patch_streams]
    for d_stream in driver_streams:
        swept = similarity._matches(index, d_stream, mml)
        d_windows = set(_windows(d_stream, mml))
        for p, p_windows in enumerate(patch_windows):
            cover = similarity._covered(swept.get(p, ()))
            assert cover == shared_cover_reference(p_windows, d_windows, mml)


@settings(max_examples=200, deadline=None)
@given(_kind_streams, _kind_streams, st.integers(1, 6))
@example(["ABABAB"], ["BABA", "ABABABAB"], 2)
def test_pair_cover_bounds_each_pairs_coverage(driver_streams, patch_streams, mml):
    index = similarity._index(patch_streams, mml)
    for d_stream in driver_streams:
        swept = similarity._matches(index, d_stream, mml)
        for p, p_stream in enumerate(patch_streams):
            cover = similarity._covered(swept.get(p, ()))
            assert greedy_coverage_reference(d_stream, p_stream, mml) <= cover


# token kinds no _FRAGMENTS line has, so patches can bring kinds new to the driver
_PATCH_ONLY = ["while (a != b) { a--; }", "c = d instanceof E ? 'x' : \"y\";", "f <<= 2;"]
_patch_files = st.lists(
    st.lists(st.sampled_from(_FRAGMENTS + _PATCH_ONLY), max_size=12).map(" ".join),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(_java_files, st.lists(_patch_files, min_size=1, max_size=4), st.integers(1, 6))
@example(["int a = 0;"], [["while (a != b) { a--; }"], ["int a = 0;"]], 1)
def test_prepared_driver_reused_over_patches_equals_brute_force_max(
    driver_sources, patches, mml
):
    driver = _code({f"src/D{k}.java": src for k, src in enumerate(driver_sources)}, mml)
    for patch_sources in patches:
        patch = _patch({f"src/P{k}.java": src for k, src in enumerate(patch_sources)})
        brute = _brute_force_max(driver_sources, patch_sources, mml)
        assert similarity.code_similarity(driver, [patch]) == [brute]


# a patch file: Java, comment-only Java, Java without fetched content, or
# a layout that is not Java at all
_patch_file = st.one_of(
    st.tuples(st.just("src/F.java"), _java_file),
    st.just(("src/C.java", COMMENT_ONLY)),
    st.just(("src/N.java", None)),
    st.just(("res/layout/main.xml", "<LinearLayout/>")),
)


@st.composite
def _run_patches(draw):
    """A run's patches, some None, drawn from one pool of files so that
    two patches can share a file."""
    pool = draw(st.lists(_patch_file, min_size=1, max_size=6))
    return draw(st.lists(st.none() | st.lists(st.sampled_from(pool), max_size=4), max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.lists(_java_file, max_size=4), _run_patches(), st.integers(1, 6))
@example(["int a = 0; return a;"], [None, [("src/F.java", "int a = 0; return a;")]] * 2, 2)
@example(["x.y(z);"], [[("res/layout/main.xml", "<LinearLayout/>")], None, []], 1)
@example([COMMENT_ONLY], [[("src/C.java", COMMENT_ONLY)], [("src/N.java", None)]], 3)
@example([], [[("src/F.java", "int a = 0;")]], 1)
def test_run_wide_code_similarity_equals_brute_force_max_per_patch(
    driver_sources, patches, mml
):
    driver = _code({f"src/D{k}.java": src for k, src in enumerate(driver_sources)}, mml)
    runs = [
        None if files is None else Patch(
            ref=PatchRef("pull", "octo", "demo", str(k + 1)),
            files=[ModifiedFile(path=path, new_content=content) for path, content in files],
        )
        for k, files in enumerate(patches)
    ]
    want = [
        _brute_force_max(
            driver_sources,
            [c for path, c in files or () if path.endswith(".java") and c is not None],
            mml,
        )
        for files in patches
    ]
    assert similarity.code_similarity(driver, runs) == want


def test_pair_whose_bound_is_no_better_than_the_best_is_not_tiled(monkeypatch):
    # D1 holds most of the patch file, a bound of 0.91 under the 1.0 of D0
    fix = "int a = readHeader(buf); if (a > limit) { throw fail(a); } return a;"
    part = "int a = readHeader(buf); if (a > limit) { log(a); }"
    driver = _code({"src/D0.java": fix, "src/D1.java": part}, 3)
    tiled = []
    gst = similarity.gst_similarity
    monkeypatch.setattr(
        similarity, "gst_similarity", lambda a, b, **kw: tiled.append(a) or gst(a, b, **kw)
    )
    assert similarity.code_similarity(driver, [_patch({"src/X.java": fix})]) == [1.0]
    assert tiled == [driver.code[0]]


def test_comment_only_files_are_not_compared():
    # two files without tokens are not an identical pair
    driver = _code({"src/A.java": COMMENT_ONLY}, 9)
    patch = _patch({"src/X.java": "// fixed\n"})
    assert similarity.code_similarity(driver, [patch]) == [None]
    assert similarity.gst_similarity("", "") == 1.0
    # a token-less file beside a real one leaves the real pair's score
    driver = _code({"src/A.java": COMMENT_ONLY, "src/B.java": "int a = 0;"}, 3)
    patch = _patch({"src/X.java": "// fixed\n", "src/Y.java": "int b = 1;"})
    assert similarity.code_similarity(driver, [patch]) == [1.0]


MANIFEST = """\
<manifest xmlns:android="http://schemas.android.com/apk/res/android">
    <uses-permission android:name="android.permission.CAMERA" />
    <uses-permission android:name="android.permission.INTERNET" />
</manifest>
"""

GRADLE_STEMMER = """\
dependencies {
    implementation 'org.tartarus:snowball-stemmer:1.3.0'
}
"""


def _issue(title="t", body="", project="octo/demo", number=1, comments=()):
    owner, repo = project.split("/")
    return IssueDocument(
        ref=IssueRef(owner, repo, number),
        title=title,
        body=body,
        comments=list(comments),
    )


class TestSimilarityVector:
    def test_shared_declared_dependency(self):
        driver = _driver({"pom.xml": (
            "<project><dependencies><dependency>"
            "<groupId>org.tartarus</groupId><artifactId>snowball-stemmer</artifactId>"
            "</dependency><dependency>"
            "<groupId>junit</groupId><artifactId>junit</artifactId>"
            "</dependency></dependencies></project>"
        )}, project="zelandiya/maui")
        cand_ctx = _ctx({"build.gradle": GRADLE_STEMMER})
        vec = _vector(driver, cand_ctx)
        assert "dependency" in vec.applicable
        assert vec.dependency == 1.0  # cand declares 1 dep, shared -> 1/min(2,1)
        _assert_not_applicable(vec, "code")

    def test_mentioned_dependency_counts_for_driver(self):
        # driver declares nothing but the report text names the library
        cand_ctx = _ctx({"build.gradle": GRADLE_STEMMER})
        issue = _issue(
            body="The SnowballStemmer dies while training on Swedish tweets",
            project="zelandiya/maui",
        )
        driver = _driver({"src/A.java": "class A {}"}, issue, project="zelandiya/maui")
        vec = _vector(driver, cand_ctx)
        assert vec.dependency == 1.0
        assert "dependency" in vec.applicable

    def test_dependency_not_applicable_when_either_side_empty(self):
        driver = _driver({"src/A.java": "class A {}"})
        cand_ctx = _ctx({"build.gradle": GRADLE_STEMMER})
        vec = _vector(driver, cand_ctx)
        _assert_not_applicable(vec, "dependency")

    def test_android_permissions_and_ui(self):
        files = {
            "AndroidManifest.xml": MANIFEST,
            "res/layout/main.xml": (
                '<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">'
                '<Button android:id="@+id/save_btn"/></LinearLayout>'
            ),
        }
        vec = _vector(_driver(dict(files)), _ctx(dict(files)))
        assert {"permission", "ui"} <= vec.applicable
        assert vec.permission == 1.0
        assert vec.ui == 1.0

    def test_permission_ui_not_applicable_for_plain_java(self):
        d = _driver({"pom.xml": "<project/>", "src/A.java": "class A {}"})
        n = _ctx({"AndroidManifest.xml": MANIFEST})
        vec = _vector(d, n)
        _assert_not_applicable(vec, "permission")
        _assert_not_applicable(vec, "ui")

    def test_code_component_uses_patch(self):
        shared = "int a = readHeader(buf); if (a > limit) { throw fail(a); } return a;"
        d = _driver({"src/A.java": shared}, mml=3)
        n = _ctx({"src/B.java": "class B {}"})
        patch = _patch({"src/Fix.java": shared})
        vec = _vector(d, n, patch)
        assert "code" in vec.applicable
        assert vec.code == 1.0

    def test_values_stay_in_unit_interval(self):
        d = _driver({"AndroidManifest.xml": MANIFEST, "src/A.java": "int a = 0;"})
        n = _ctx({"AndroidManifest.xml": MANIFEST.replace("INTERNET", "CAMERA")})
        vec = _vector(d, n)
        assert vec.applicable == {"permission", "ui"}
        for name in vec.applicable:
            assert 0.0 <= getattr(vec, name) <= 1.0
