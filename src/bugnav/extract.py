"""Pull structured facts out of a repository snapshot.

Dependencies from Maven and Gradle build files, permissions from the
Android manifest, widget names and ids from layout XML, and token
kinds from Java sources. Extractors never raise on malformed input;
they log a warning and return what they could read. The XML extractors
share one walk, :func:`_xml_elements`, which skips a file that does not parse.

Only the driver's Java files are ever compared (against candidates'
patches), so a :class:`RepoContext` carries no token streams:
:func:`code_kinds` lexes the driver's sources once per run. A context
reads only the :data:`CONTEXT_KINDS` files, so a candidate repository's
snapshot is fetched without its Java.
"""

from __future__ import annotations

import logging
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, Iterator, Mapping, Optional, Set, Tuple

from bugnav.corpus.models import FILE_KINDS, IssueDocument, RepoSnapshot, file_kind
from bugnav.textprep import split_camel, stem

log = logging.getLogger(__name__)

# quoted coordinate: implementation 'group:artifact:version'
_GRADLE_COORD_RE = re.compile(r"""['"]([\w.-]+):([\w.-]+):[^'"]+['"]""")
# map style: group: 'x', name: 'y'
_GRADLE_MAP_RE = re.compile(
    r"""group\s*:\s*['"]([\w.-]+)['"]\s*,\s*name\s*:\s*['"]([\w.-]+)['"]"""
)
_ANDROID_PERMISSION_PREFIX = "android.permission."

# the file kinds build_repo_context reads; code_kinds reads "java"
CONTEXT_KINDS = FILE_KINDS - {"java"}


@dataclass
class RepoContext:
    """Everything the similarity analyses want to know about one repo."""

    # "group:artifact" -> artifact, both lowercased
    dependencies: Dict[str, str] = field(default_factory=dict)
    permissions: Set[str] = field(default_factory=set)
    ui_elements: Set[str] = field(default_factory=set)
    is_android: bool = False


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _xml_elements(snapshot: RepoSnapshot, kind: str) -> Iterator[Tuple[str, ET.Element]]:
    """``(local tag, element)`` for every element of every file of ``kind``
    that parses, in document order; a file that does not parse is logged
    and skipped."""
    for path, text in snapshot.files.items():
        if file_kind(path) != kind:
            continue
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            log.warning("skipping unparseable xml %s: %s", path, exc)
            continue
        for elem in root.iter():
            yield _localname(elem.tag), elem


def _named_attr(elem: ET.Element, leaf: str) -> Optional[str]:
    """The value of the first attribute named ``leaf`` in any namespace."""
    for key, value in elem.attrib.items():
        if _localname(key) == leaf:
            return value
    return None


def extract_dependencies(snapshot: RepoSnapshot) -> Dict[str, str]:
    """Declared dependencies from every pom.xml and build.gradle found, as
    ``"group:artifact"`` mapped to the artifact, both lowercased."""
    pairs = []
    for tag, elem in _xml_elements(snapshot, "pom"):
        if tag == "dependency":
            # a repeated child counts with its last value
            named = {_localname(child.tag): (child.text or "").strip() for child in elem}
            pairs.append((named.get("groupId"), named.get("artifactId")))
    for path, text in snapshot.files.items():
        if file_kind(path) == "gradle":
            for line in text.splitlines():
                m = _GRADLE_COORD_RE.search(line) or _GRADLE_MAP_RE.search(line)
                if m:
                    pairs.append(m.groups())
    return {f"{g.lower()}:{a.lower()}": a.lower() for g, a in pairs if g and a}


def extract_permissions(snapshot: RepoSnapshot) -> Set[str]:
    """uses-permission values, lowercased, platform prefix stripped."""
    perms: Set[str] = set()
    for tag, elem in _xml_elements(snapshot, "manifest"):
        value = tag == "uses-permission" and _named_attr(elem, "name")
        if value:
            perms.add(value.strip().removeprefix(_ANDROID_PERMISSION_PREFIX).lower())
    return perms


def extract_ui_elements(snapshot: RepoSnapshot) -> Set[str]:
    """Widget tag names and android:id leaf names from layout files."""
    ui: Set[str] = set()
    for tag, elem in _xml_elements(snapshot, "layout"):
        ui.add(tag.rsplit(".", 1)[-1].lower())
        ident = _named_attr(elem, "id")
        if ident and "/" in ident:
            ui.add(ident.rsplit("/", 1)[-1].lower())
    return ui


def is_android(snapshot: RepoSnapshot) -> bool:
    return any(file_kind(p) == "manifest" for p in snapshot.files)


# ---------------------------------------------------------------------------
# Java-family lexer

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

#: Every token kind by name, and the one character that stands for it in
#: a lexed stream. All codes are below 128, so streams are compact strs.
KIND_CODES = {
    name: chr(code)
    for code, name in enumerate(
        ["ident", "str", "chr", "num"]
        + [f"kw_{word}" for word in sorted(_JAVA_KEYWORDS)]
        + [name for _, name in _OPERATORS]
    )
}

# Every token is one match of _TOKEN_RE: the token, then the text skipped
# up to the next one (whitespace, comments, characters that start no
# token), so matches abut; _SKIP_RE skips what precedes the first token.
# The skip trails rather than leads: a leading skip would fail on input
# that ends in skipped text, and findall would retry one character on,
# inside the comment. The one group holds a word, an operator (longest
# first) or a literal's opening quote, whose body follows through a
# lookbehind; it is empty for a number. An unclosed comment or literal
# runs to the end of the input; a backslash in a literal escapes the next
# character. Python 3.10 has no atomic groups or possessive repeats.
_OPERATOR = "|".join(re.escape(op) for op, _ in _OPERATORS)
_NUMBER = r"(?:0[xXbB][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?)[fFdDlL]?"
_STARTS = "".join(sorted({re.escape(op[0]) for op, _ in _OPERATORS})) + "\"'\\dA-Za-z_$"
_SKIP = rf"(?:[^{_STARTS}]+|//[^\n]*|/\*.*?(?:\*/|\Z))*"


def _literal_body(quote: str) -> str:
    return rf"(?<={quote})[^{quote}\\]*(?:\\.[^{quote}\\]*)*(?:{quote}|\\?\Z)"


_SKIP_RE = re.compile(_SKIP, re.DOTALL)
_TOKEN_RE = re.compile(
    rf"""(?:([A-Za-z_$][A-Za-z0-9_$]*|{_OPERATOR}|["'])|{_NUMBER})"""
    rf"""(?:{_literal_body('"')}|{_literal_body("'")})?{_SKIP}""",
    re.DOTALL,
)

# the code of each _TOKEN_RE group; a word missing from it is an identifier
_CODES = {word: KIND_CODES[f"kw_{word}"] for word in _JAVA_KEYWORDS}
_CODES.update((op, KIND_CODES[name]) for op, name in _OPERATORS)
_CODES.update({'"': KIND_CODES["str"], "'": KIND_CODES["chr"], "": KIND_CODES["num"]})
_IDENT = KIND_CODES["ident"]


def tokenize_code(source: str) -> str:
    """Lex Java-family source into its token kinds, one character per
    token, as fixed in :data:`KIND_CODES`.

    Identifiers are abstracted to ``ident``. Comments disappear
    entirely; string and char literals collapse to a bare kind with
    their contents excluded, so similarity does not hinge on message
    wording.
    """
    tokens = _TOKEN_RE.findall(source, _SKIP_RE.match(source).end())
    return "".join(map(_CODES.get, tokens, repeat(_IDENT)))


# ---------------------------------------------------------------------------
# mentions

def _spaced_stems(words: Iterable[str]) -> str:
    """The stemmed lowercase subtokens of ``words``, camelCase split,
    joined and enclosed by single spaces; " " when there are none."""
    return " ".join(["", *(stem(part) for word in words for part in split_camel(word)), ""])


def stemmed_thread(issue: IssueDocument) -> str:
    """The report thread as its stemmed words, joined and enclosed by
    single spaces, so that :func:`extract_mentions` finds a phrase with
    one substring test. No stemmed word holds whitespace: thread words
    are ``[A-Za-z0-9]+`` runs, and entries are split on whitespace."""
    return _spaced_stems(re.findall(r"[A-Za-z0-9]+", " ".join(issue.thread_texts())))


def extract_mentions(thread: str, vocabulary) -> Set[str]:
    """Which vocabulary entries does the report thread mention, as
    :func:`stemmed_thread` returns it? An entry is mentioned where its
    stemmed words occur contiguously, in order.

    `vocabulary` maps a canonical entry to the text to match on (for a
    dependency that is its artifact name); a plain set matches entries
    on themselves. Matching is stemmed and camelCase-insensitive, so
    body text "SnowballStemmer" finds artifact "snowball-stemmer".
    """
    if not isinstance(vocabulary, Mapping):
        vocabulary = {entry: entry for entry in vocabulary}
    found = set()
    for canonical, match_text in vocabulary.items():
        phrase = _spaced_stems(piece for piece in re.split(r"[-_.\s]+", match_text) if piece)
        if phrase != " " and phrase in thread:
            found.add(canonical)
    return found


def code_kinds(snapshot: RepoSnapshot) -> Dict[str, str]:
    """Token kinds of every Java file in the snapshot, by path, in path order."""
    return {
        path: tokenize_code(snapshot.files[path])
        for path in sorted(snapshot.files)
        if file_kind(path) == "java"
    }


def build_repo_context(snapshot: RepoSnapshot) -> RepoContext:
    """Run every fact extractor over a snapshot and bundle the results."""
    return RepoContext(
        dependencies=extract_dependencies(snapshot),
        permissions=extract_permissions(snapshot),
        ui_elements=extract_ui_elements(snapshot),
        is_android=is_android(snapshot),
    )
