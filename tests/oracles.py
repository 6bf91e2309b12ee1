"""Reference implementations used as test oracles.

Everything in here is written for obviousness, not speed: naive scans,
no data structures fancier than a list. The production code is checked
against these on inputs small enough for them to finish.
"""

import dataclasses
import logging
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from typing import AbstractSet, List, Optional, Sequence, Tuple

from bugnav.corpus.models import PatchRef
from bugnav.querygen import StackTraceInfo
from bugnav.textprep import split_camel, stem


# ---------------------------------------------------------------------------
# repository file kinds


def file_kinds_reference(path):
    """Every kind the extractors read ``path`` as, by the predicates each
    of them applied on its own before they shared one rule. A pom.xml or
    manifest directly inside a layout directory was read as two kinds."""
    name = path.rsplit("/", 1)[-1]
    parts = path.split("/")
    kinds = set()
    if path.endswith(".java"):
        kinds.add("java")
    if name == "pom.xml":
        kinds.add("pom")
    if name in ("build.gradle", "build.gradle.kts"):
        kinds.add("gradle")
    if name == "AndroidManifest.xml":
        kinds.add("manifest")
    if (
        path.endswith(".xml")
        and len(parts) >= 2
        and parts[-2].startswith("layout")
        and "res" in parts[:-1]
    ):
        kinds.add("layout")
    return kinds


# ---------------------------------------------------------------------------
# repository facts

_log = logging.getLogger(__name__)

_GRADLE_COORD_RE = re.compile(r"""['"]([\w.-]+):([\w.-]+):[^'"]+['"]""")
_GRADLE_MAP_RE = re.compile(
    r"""group\s*:\s*['"]([\w.-]+)['"]\s*,\s*name\s*:\s*['"]([\w.-]+)['"]"""
)
_ANDROID_PERMISSION_PREFIX = "android.permission."


def _localname(tag):
    return tag.rsplit("}", 1)[-1]


def _parse_xml(path, text):
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        _log.warning("skipping unparseable xml %s: %s", path, exc)
        return None


def _named_attr(elem, leaf):
    for key, value in elem.attrib.items():
        if key == leaf or key.endswith("}" + leaf) or key == f"android:{leaf}":
            return value
    return None


def repo_context_reference(snapshot):
    """The repository facts by the three extractors as each once parsed
    its own files: one loop per extractor, each filtering the snapshot by
    kind, parsing and skipping what does not parse."""
    from bugnav.corpus.models import file_kind
    from bugnav.extract import RepoContext

    pairs = []
    for path, text in snapshot.files.items():
        kind = file_kind(path)
        if kind == "pom":
            root = _parse_xml(path, text)
            if root is None:
                continue
            for elem in root.iter():
                if _localname(elem.tag) != "dependency":
                    continue
                group = artifact = None
                for child in elem:
                    if _localname(child.tag) == "groupId":
                        group = (child.text or "").strip()
                    elif _localname(child.tag) == "artifactId":
                        artifact = (child.text or "").strip()
                if group and artifact:
                    pairs.append((group, artifact))
        elif kind == "gradle":
            for line in text.splitlines():
                m = _GRADLE_COORD_RE.search(line) or _GRADLE_MAP_RE.search(line)
                if m:
                    pairs.append(m.groups())
    dependencies = {
        f"{group.lower()}:{artifact.lower()}": artifact.lower() for group, artifact in pairs
    }

    perms = set()
    for path, text in snapshot.files.items():
        if file_kind(path) != "manifest":
            continue
        root = _parse_xml(path, text)
        if root is None:
            continue
        for elem in root.iter():
            if _localname(elem.tag) != "uses-permission":
                continue
            value = _named_attr(elem, "name")
            if not value:
                continue
            value = value.strip()
            if value.startswith(_ANDROID_PERMISSION_PREFIX):
                value = value[len(_ANDROID_PERMISSION_PREFIX):]
            perms.add(value.lower())

    ui = set()
    for path, text in snapshot.files.items():
        if file_kind(path) != "layout":
            continue
        root = _parse_xml(path, text)
        if root is None:
            continue
        for elem in root.iter():
            tag = _localname(elem.tag)
            ui.add(tag.rsplit(".", 1)[-1].lower())
            ident = _named_attr(elem, "id")
            if ident and "/" in ident:
                ui.add(ident.rsplit("/", 1)[-1].lower())

    return RepoContext(
        dependencies=dependencies,
        permissions=perms,
        ui_elements=ui,
        is_android=any(file_kind(p) == "manifest" for p in snapshot.files),
    )


# ---------------------------------------------------------------------------
# greedy string tiling


def greedy_tiles_reference(a, b, min_match_len):
    """Tile two sequences with the greedy maximal-match rule, naively.

    Each round rescans every index pair from scratch, collects the longest
    common extensions over unmarked positions, and marks every match of
    that length in ascending (i, j) scan order, skipping matches occluded
    by marks laid down earlier in the same round. Rounds repeat until the
    longest surviving match is shorter than min_match_len.

    Returns a list of (i, j, length) tiles.
    """
    marked_a = [False] * len(a)
    marked_b = [False] * len(b)
    tiles = []
    while True:
        best = min_match_len - 1
        matches = []
        for i in range(len(a)):
            for j in range(len(b)):
                k = 0
                while (
                    i + k < len(a)
                    and j + k < len(b)
                    and not marked_a[i + k]
                    and not marked_b[j + k]
                    and a[i + k] == b[j + k]
                ):
                    k += 1
                if k > best:
                    best = k
                    matches = [(i, j)]
                elif k == best and k >= min_match_len:
                    matches.append((i, j))
        if best < min_match_len:
            break
        for i, j in matches:
            if any(marked_a[i + t] or marked_b[j + t] for t in range(best)):
                continue
            for t in range(best):
                marked_a[i + t] = True
                marked_b[j + t] = True
            tiles.append((i, j, best))
    return tiles


def maximal_matches_reference(a, b, min_match_len):
    """Every maximal match of ``a`` against ``b`` of min_match_len tokens
    or more, by brute force over diagonals: a run of equal token pairs on
    diagonal ``d = j - i`` that neither stream extends at either end.

    Returns a list of (i, j, length), by diagonal and then by i.
    """
    matches = []
    for d in range(1 - len(a), len(b)):
        run = 0
        # one step past the diagonal's last pair ends the run left open
        for i in range(max(0, -d), min(len(a), len(b) - d) + 1):
            if i < len(a) and i + d < len(b) and a[i] == b[i + d]:
                run += 1
                continue
            if run >= min_match_len:
                matches.append((i - run, i - run + d, run))
            run = 0
    return matches


def greedy_coverage_reference(a, b, min_match_len):
    """Total length covered by the reference greedy tiling."""
    return sum(length for _, _, length in greedy_tiles_reference(a, b, min_match_len))


def greedy_similarity_reference(a, b, min_match_len):
    """The similarity value implied by the reference tiling, as a Fraction."""
    if not a and not b:
        return Fraction(1)
    if not a or not b:
        return Fraction(0)
    cov = greedy_coverage_reference(a, b, min_match_len)
    return Fraction(2 * cov, len(a) + len(b))


def optimal_coverage(a, b, min_match_len):
    """Maximum coverage over ALL tilings (not just greedy ones).

    Exhaustive search with bitmask overlap tests. Exponential; only call
    on streams of a dozen tokens or so. Exists to document where the
    greedy rule falls short of the true optimum, and to confirm the two
    agree on cases where only one tile can exist.
    """
    cands = []
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            for length in range(min_match_len, k + 1):
                cands.append((length, i, j))
    cands.sort(reverse=True)
    suffix_total = [0] * (len(cands) + 1)
    for t in range(len(cands) - 1, -1, -1):
        suffix_total[t] = suffix_total[t + 1] + cands[t][0]

    best = 0

    def rec(idx, mask_a, mask_b, cov):
        nonlocal best
        if cov > best:
            best = cov
        if cov + suffix_total[idx] <= best:
            return
        for t in range(idx, len(cands)):
            length, i, j = cands[t]
            ma = ((1 << length) - 1) << i
            mb = ((1 << length) - 1) << j
            if mask_a & ma or mask_b & mb:
                continue
            rec(t + 1, mask_a | ma, mask_b | mb, cov + length)

    rec(0, 0, 0, 0)
    return best


# ---------------------------------------------------------------------------
# pair bound of code similarity: the shared cover by a scan over runs of
# set hits, independent of the sweep's maximal matches and their spans

_HITS = re.compile(b"\x01+")


def shared_cover_reference(windows: Sequence[str], other: AbstractSet[str], length: int) -> int:
    """Positions of a stream, given as its ``length``-windows in order,
    that lie inside some window also in ``other``."""
    hits = bytes(map(other.__contains__, windows))
    covered = end = 0
    for run in _HITS.finditer(hits):
        stop = run.end() + length - 1
        covered += stop - max(run.start(), end)
        end = stop
    return covered


# ---------------------------------------------------------------------------
# Java lexer: a character-at-a-time scanner with its own copy of the
# keyword and operator tables


_JAVA_KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null
    var record yield sealed permits""".split()
)

# longest first so >>= wins over >> wins over >
_OPERATORS = [
    (">>>=", "urshift_eq"), ("<<=", "lshift_eq"), (">>=", "rshift_eq"),
    (">>>", "urshift"), ("...", "ellipsis"), ("==", "eq_eq"), ("!=", "ne"),
    ("<=", "le"), (">=", "ge"), ("&&", "and_and"), ("||", "or_or"),
    ("++", "inc"), ("--", "dec"), ("+=", "plus_eq"), ("-=", "minus_eq"),
    ("*=", "star_eq"), ("/=", "slash_eq"), ("%=", "percent_eq"),
    ("&=", "amp_eq"), ("|=", "pipe_eq"), ("^=", "caret_eq"), ("<<", "lshift"),
    (">>", "rshift"), ("::", "colcol"), ("->", "arrow"), ("{", "lbrace"),
    ("}", "rbrace"), ("(", "lparen"), (")", "rparen"), ("[", "lbracket"),
    ("]", "rbracket"), (";", "semi"), (",", "comma"), (".", "dot"),
    ("=", "eq"), ("<", "lt"), (">", "gt"), ("+", "plus"), ("-", "minus"),
    ("*", "star"), ("/", "slash"), ("%", "percent"), ("!", "not"),
    ("&", "amp"), ("|", "pipe"), ("^", "caret"), ("~", "tilde"),
    ("?", "question"), (":", "colon"), ("@", "at"),
]

_IDENT_START = re.compile(r"[A-Za-z_$]")
_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_NUM_RE = re.compile(r"(?:0[xXbB][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?)[fFdDlL]?")


def tokenize_code_reference(source):
    """Token kinds of Java-family source, one character decision at a time.

    Comments disappear entirely; string and char literals collapse to a
    bare kind with their contents excluded; identifiers become ``ident``.
    """
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if source.startswith("//", i):
            nl = source.find("\n", i)
            i = n if nl == -1 else nl + 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            i = n if end == -1 else end + 2
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                j += 2 if source[j] == "\\" else 1
            tokens.append("str")
            i = j + 1
            continue
        if ch == "'":
            j = i + 1
            while j < n and source[j] != "'":
                j += 2 if source[j] == "\\" else 1
            tokens.append("chr")
            i = j + 1
            continue
        m = _NUM_RE.match(source, i)
        if m and ch.isdigit():
            tokens.append("num")
            i = m.end()
            continue
        if _IDENT_START.match(ch):
            m = _IDENT_RE.match(source, i)
            word = m.group()
            if word in _JAVA_KEYWORDS:
                tokens.append(f"kw_{word}")
            else:
                tokens.append("ident")
            i = m.end()
            continue
        for op, kind in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(kind)
                i += len(op)
                break
        else:
            # something outside the language; skip it quietly
            i += 1
    return tokens


# ---------------------------------------------------------------------------
# mentions


def _stemmed_words_reference(text):
    return [stem(part) for word in re.findall(r"[A-Za-z0-9]+", text) for part in split_camel(word)]


def _entry_tokens_reference(match_text):
    return [
        stem(part)
        for piece in re.split(r"[-_.\s]+", match_text)
        if piece
        for part in split_camel(piece)
    ]


def _contains_subsequence(haystack, needle):
    if not needle:
        return False
    size = len(needle)
    for start in range(len(haystack) - size + 1):
        if haystack[start : start + size] == needle:
            return True
    return False


def extract_mentions_reference(issue, vocabulary):
    """Vocabulary entries the issue thread mentions, by scanning the whole
    stemmed thread from every position for each entry."""
    if not isinstance(vocabulary, dict):
        vocabulary = {entry: entry for entry in vocabulary}
    text_tokens = []
    for text in issue.thread_texts():
        text_tokens.extend(_stemmed_words_reference(text))
    return {
        canonical
        for canonical, match_text in vocabulary.items()
        if _contains_subsequence(text_tokens, _entry_tokens_reference(match_text))
    }


# ---------------------------------------------------------------------------
# stemming: the five-step suffix stripper with its per-letter helpers and
# its own copy of the rule tables


_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC sequences in [C](VC)^m[V]."""
    n = len(stem)
    i = 0
    while i < n and _is_consonant(stem, i):
        i += 1
    m = 0
    while i < n:
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        while i < n and _is_consonant(stem, i):
            i += 1
        m += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    return (
        len(stem) >= 3
        and _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


# (suffix, replacement) in longest-first order; None condition = m > 0
_STEP2 = [
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("tional", "tion"),
    ("biliti", "ble"), ("ation", "ate"), ("alism", "al"),
    ("aliti", "al"), ("iviti", "ive"), ("ousli", "ous"),
    ("entli", "ent"), ("alli", "al"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
    ("ator", "ate"), ("eli", "e"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"),
    ("iciti", "ic"), ("ical", "ic"), ("ness", ""), ("ful", ""),
]

_STEP4 = [
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent",
    "ion", "ism", "ate", "iti", "ous", "ive", "ize", "al", "er",
    "ic", "ou",
]


def stem_reference(token: str) -> str:
    """The stem of ``token`` as it was computed before the stemmer wrote
    each word's consonant/vowel form in one pass: a recursive consonant
    test per letter, and a helper per rule condition."""
    word = token.lower()
    if len(word) <= 2:
        return word

    # step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # step 1b
    touched = False
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed"):
        if _has_vowel(word[:-2]):
            word = word[:-2]
            touched = True
    elif word.endswith("ing"):
        if _has_vowel(word[:-3]):
            word = word[:-3]
            touched = True
    if touched:
        if word.endswith(("at", "bl", "iz")):
            word += "e"
        elif _ends_double_consonant(word) and word[-1] not in "lsz":
            word = word[:-1]
        elif _measure(word) == 1 and _ends_cvc(word):
            word += "e"

    # step 1c
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # step 2
    for suffix, repl in _STEP2:
        if word.endswith(suffix):
            base = word[: -len(suffix)]
            if _measure(base) > 0:
                word = base + repl
            break

    # step 3
    for suffix, repl in _STEP3:
        if word.endswith(suffix):
            base = word[: -len(suffix)]
            if _measure(base) > 0:
                word = base + repl
            break

    # step 4
    for suffix in _STEP4:
        if word.endswith(suffix):
            base = word[: -len(suffix)]
            if _measure(base) > 1:
                if suffix == "ion" and not base.endswith(("s", "t")):
                    break
                word = base
            break

    # step 5a
    if word.endswith("e"):
        base = word[:-1]
        m = _measure(base)
        if m > 1 or (m == 1 and not _ends_cvc(base)):
            word = base

    # step 5b
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word


# ---------------------------------------------------------------------------
# query text


# querygen's patterns as they were searched with before its scans were made
# linear: _EXC_RE is quadratic in a long [\w.$] run, _NUM_TAIL_RE cubic in
# a run of spaces
_EXC_RE = re.compile(r"\b(?:[A-Za-z][\w.$]*)?(?:Exception|Error)\b")
_CAUSED_RE = re.compile(r"^\s*Caused by:\s*(.*)$")
_NUM_TAIL_RE = re.compile(r"\s*[:=]?\s*\d[\d.,]*(?:\s+[A-Za-z]+)?\s*$")
_JUNK_RE = re.compile(r"['\"`()\[\]{}<>:;,!?]")


def parse_exception_text_reference(text: str) -> Optional[Tuple[str, str]]:
    """Pick "name: message" out of one line of text."""
    m = _EXC_RE.search(text)
    if not m:
        return None
    name = m.group().strip(".")
    rest = text[m.end():]
    message = rest[1:].strip() if rest.startswith(":") else ""
    return name, message


# querygen.parse_stack_trace as it was before it took one loop over the lines
def parse_stack_trace_reference(body: str) -> Optional[StackTraceInfo]:
    """Locate the stack trace in an issue body and find its root cause.

    The root cause is the exception of the last "Caused by:" block.
    When a "Caused by:" line exists but nothing after it parses (the
    reporter pasted a partial trace), fall back to the first exception
    line and mark the result incomplete.
    """
    lines = body.splitlines()
    top = None
    for line in lines:
        parsed = parse_exception_text_reference(line)
        if parsed:
            top = parsed
            break
    if top is None:
        return None

    caused: List[Optional[Tuple[str, str]]] = []
    for line in lines:
        cm = _CAUSED_RE.match(line)
        if cm:
            caused.append(parse_exception_text_reference(cm.group(1)))

    complete = True
    root = top
    if caused:
        if caused[-1] is not None:
            root = caused[-1]
        else:
            complete = False

    return StackTraceInfo(
        top_exception=top[0],
        top_message=top[1],
        root_exception=root[0],
        root_message=root[1],
        complete=complete,
    )


def normalize_message_reference(message: str) -> str:
    """Shape an exception message for use as query text.

    Numeric tails (": 93067 bytes") carry no reusable signal and are cut;
    quote and bracket characters become spaces so identifiers split apart
    cleanly; dots and dollar signs become spaces for the same reason.
    Only the leading character is lowercased; interior casing is the
    reporter's and stays.
    """
    msg = _NUM_TAIL_RE.sub("", message.strip())
    msg = re.sub(r"[.$]", " ", msg)
    msg = _JUNK_RE.sub(" ", msg)
    msg = re.sub(r"\s+", " ", msg).strip()
    if msg:
        msg = msg[0].lower() + msg[1:]
    return msg


# ---------------------------------------------------------------------------
# patch pointers in issue text


# corpus.models' patterns, and find_patch_refs as it was before it
# bisected the URL spans: each bare id scans every span
_PULL_URL_RE = re.compile(r"https?://github\.com/([\w.-]+)/([\w.-]+)/pull/(\d+)")
_COMMIT_URL_RE = re.compile(
    r"https?://github\.com/([\w.-]+)/([\w.-]+)/commit/([0-9a-f]{7,40})"
)
_BARE_SHA_RE = re.compile(r"(?<![\w/])([0-9a-f]{7,40})(?![\w/])")
_ANY_URL_RE = re.compile(r"https?://\S+")


def find_patch_refs_reference(owner: str, repo: str, texts: List[str]) -> List[PatchRef]:
    """Scan issue texts for patch pointers, in document order.

    Pull request and commit URLs carry their own repository, unless its
    owner or repo is "." or ".."; a bare commit id is taken to belong to
    the issue's home repository. Duplicates keep their first position.
    """
    found: List[PatchRef] = []
    seen = set()

    def add(ref: PatchRef):
        if ref not in seen:
            seen.add(ref)
            found.append(ref)

    for text in texts:
        if not text:
            continue
        events = []
        for kind, url_re in (("pull", _PULL_URL_RE), ("commit", _COMMIT_URL_RE)):
            for m in url_re.finditer(text):
                # no request can name an owner or repo of "." or ".."
                if m.group(1) not in (".", "..") and m.group(2) not in (".", ".."):
                    events.append((m.start(), PatchRef(kind, *m.groups())))
        url_spans = [m.span() for m in _ANY_URL_RE.finditer(text)]
        for m in _BARE_SHA_RE.finditer(text):
            inside_url = any(s <= m.start(1) < e for s, e in url_spans)
            if not inside_url:
                events.append((m.start(), PatchRef("commit", owner, repo, m.group(1))))
        events.sort(key=lambda pair: pair[0])
        for _, ref in events:
            add(ref)
    return found


# ---------------------------------------------------------------------------
# set overlap


def overlap_reference(xs, ys):
    """Overlap coefficient by explicit membership loops, as a Fraction."""
    xs = list(dict.fromkeys(xs))
    ys = list(dict.fromkeys(ys))
    if not xs or not ys:
        return Fraction(0)
    shared = 0
    for x in xs:
        for y in ys:
            if x == y:
                shared += 1
                break
    return Fraction(shared, min(len(xs), len(ys)))


# ---------------------------------------------------------------------------
# weighted scores


def dot_reference(values, weights):
    """Plain accumulator dot product over aligned lists."""
    assert len(values) == len(weights)
    total = 0.0
    for v, w in zip(values, weights):
        total += v * w
    return total


# ---------------------------------------------------------------------------
# weight tuning


def grid_totals_reference(base, grid_step):
    """The admissible swept totals as they were found before the tuner
    bisected for the ends: every total in the band around
    (1 - fixed) / grid_step, tested in turn."""
    tolerance = 4e-4 + 1e-9
    fixed = base.w_issue_length + base.w_num_comment
    if fixed - 1.0 > tolerance:
        return []
    lo, hi = ((1.0 - fixed + d) / grid_step for d in (-tolerance, tolerance))
    band = range(max(0, math.ceil(lo) - 1), min(round(1.0 / grid_step), math.floor(hi) + 1) + 1)
    return [t for t in band if abs(fixed + t * grid_step - 1.0) <= tolerance]


def swept_grid_reference(base, grid_step):
    """The tuner's grid as it was built before it became lazy: every
    admissible tuple in a list, sorted."""
    fixed = base.w_issue_length + base.w_num_comment
    max_units = int(round(1.0 / grid_step))
    totals = [
        t
        for t in range(max_units + 1)
        if abs(fixed + t * grid_step - 1.0) <= 4e-4 + 1e-9
    ]
    grid = []
    for total in totals:
        for k_code in range(total + 1):
            for k_dep in range(total - k_code + 1):
                for k_perm in range(total - k_code - k_dep + 1):
                    k_ui = total - k_code - k_dep - k_perm
                    grid.append(
                        (
                            k_code * grid_step,
                            k_dep * grid_step,
                            k_perm * grid_step,
                            k_ui * grid_step,
                        )
                    )
    grid.sort()
    return grid


def tune_weights_reference(dataset, grid_step, *, base=None):
    """The grid search as it was before it scored from prepared factor
    tuples: a WeightConfig per point, and the MRR of each point read
    from a full evaluation report."""
    from bugnav.evalharness import evaluate
    from bugnav.errors import ValidationError
    from bugnav.ranking import WeightConfig

    if not dataset.entries:
        raise ValidationError("tuning needs a non-empty dataset")
    if not 0.0 < grid_step <= 1.0:
        raise ValidationError("grid_step must be in (0, 1]")
    if base is None:
        base = WeightConfig()

    grid = swept_grid_reference(base, grid_step)
    if not grid:
        return base

    def evaluate_point(swept):
        weights = dataclasses.replace(
            base, w_code=swept[0], w_dep=swept[1], w_perm=swept[2], w_ui=swept[3]
        )
        return evaluate(dataset, weights).mrr, weights

    results = list(map(evaluate_point, grid))

    # grid is sorted ascending, so keeping strict improvements leaves
    # the lexicographically smallest tuple as the tie winner
    best_mrr, best_weights = results[0]
    for mrr, weights in results[1:]:
        if mrr > best_mrr:
            best_mrr, best_weights = mrr, weights
    return best_weights


# ---------------------------------------------------------------------------
# recommend, end to end


def _repo_factors_reference(driver, ours, theirs):
    """The dependency, permission and UI factors of one candidate
    repository, each driver set widened by the candidate vocabulary the
    report thread mentions."""
    their_deps = set(theirs.dependencies)
    our_deps = set(ours.dependencies) | extract_mentions_reference(driver, theirs.dependencies)
    factors = {"dependency": None}
    if our_deps and their_deps:
        factors["dependency"] = float(overlap_reference(our_deps, their_deps))
    if ours.is_android and theirs.is_android:
        for name, mine, other in (
            ("permission", ours.permissions, theirs.permissions),
            ("ui", ours.ui_elements, theirs.ui_elements),
        ):
            widened = set(mine) | extract_mentions_reference(driver, other)
            factors[name] = float(overlap_reference(widened, other))
    return factors


def recommend_reference(driver, config, client):
    """The recommendation pipeline from the reference pieces above: each
    candidate fetched and compared on its own, its code similarity the
    plain max of the reference GST over every pair of driver and patch
    Java file, its score an accumulator dot product, and the ranking a
    sort on (-score, platform index). The query ladder, the fetches, the
    repository facts, the quality metrics and the normalization are the
    program's own."""
    from bugnav.corpus.models import RepoSnapshot, file_kind
    from bugnav.errors import NoCandidatesError, NotFoundError, RequestFailedError
    from bugnav.extract import build_repo_context
    from bugnav.pipeline import Recommendation
    from bugnav.querygen import build_query
    from bugnav.ranking import RankedCandidate, normalize_factors, quality_metrics
    from bugnav.similarity import SimilarityVector

    def search(query):
        return client.search_issues(
            query,
            language=config.language_filter,
            state="closed",
            max_results=config.max_candidates,
        )

    def snapshot(ref):
        try:
            return client.fetch_repo_snapshot(ref.owner, ref.repo)
        except NotFoundError:
            return RepoSnapshot()

    def java_streams(files):
        """The token streams of the Java files; a file with none has nothing to compare."""
        streams = [
            tokenize_code_reference(content)
            for path, content in files
            if file_kind(path) == "java" and content is not None
        ]
        return [stream for stream in streams if stream]

    outcome = build_query(
        driver, search, n_threshold=config.n_threshold, scope=config.qualifier_mode
    )
    hits = sorted(
        (hit for hit in outcome.hits if hit.ref != driver.ref), key=lambda hit: hit.search_rank
    )
    if not hits:
        raise NoCandidatesError(f"no candidates for {driver.ref}")
    home = snapshot(driver.ref)
    ours = build_repo_context(home)
    driver_code = java_streams(home.files.items())
    rows = []
    for hit in hits:
        try:
            issue = client.fetch_issue(hit.ref)
            patch = client.fetch_patch(issue)
        except RequestFailedError:
            continue
        code = None
        if patch is not None:
            patch_code = java_streams((f.path, f.new_content) for f in patch.files)
            if driver_code and patch_code:
                code = float(
                    max(
                        greedy_similarity_reference(d, p, config.min_match_len)
                        for d in driver_code
                        for p in patch_code
                    )
                )
        theirs = build_repo_context(snapshot(hit.ref))
        sims = SimilarityVector(code=code, **_repo_factors_reference(driver, ours, theirs))
        metrics = quality_metrics(issue)
        factors = normalize_factors(metrics, sims)
        score = dot_reference(factors.as_tuple(), config.weights.as_tuple())
        rows.append((score, issue, metrics, sims, hit.search_rank, factors))
    if not rows:
        raise NoCandidatesError(f"every candidate for {driver.ref} failed to fetch")
    order = sorted(range(len(rows)), key=lambda k: (-rows[k][0], k))
    candidates = []
    for position, k in enumerate(order, start=1):
        score, issue, metrics, sims, search_rank, factors = rows[k]
        candidates.append(
            RankedCandidate(
                issue=issue,
                metrics=metrics,
                sims=sims,
                search_rank=search_rank,
                factors=factors,
                score=score,
                final_rank=position,
            )
        )
    return Recommendation(
        driver=driver, outcome=outcome, weights=config.weights, candidates=candidates
    )
