"""Seeded synthetic corpora for the benchmark workloads.

Every corpus is a replay fixture directory recorded with the
``Scripter`` of ``tools/make_demo_fixtures.py``, or, for ``tune``, a labeled dataset in the JSONL format that
``EvalDataset.load`` reads. The same seed gives a byte-identical
corpus; ``corpus_sha256`` hashes it.

Java sources come from a small statement grammar, not from spliced
demo files: spliced files share long runs by construction, which makes
unrelated files look about 50 % similar and inflates GST work. Each
recommend workload plants one navigator whose patch file shares an
identifier-renamed method with one driver file, so the navigator must
come out at final rank 1.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from make_demo_fixtures import Scripter, search_item  # noqa: E402

# ---------------------------------------------------------------------------
# words and names

# Every syllable carries a consonant outside a-f, so no generated word
# reads as a bare commit id to the patch-reference scanner. Prose uses
# consonants of its own, so report text never mentions a generated
# dependency, permission or layout id by accident.
_CONSONANTS = "klmnprstvz"
_PROSE_CONSONANTS = "ghjw"
_VOWELS = "aeiou"
_JAVA_WORDS = frozenset(
    "abstract assert boolean break byte case catch char class const continue "
    "default do double else enum extends final finally float for goto if "
    "implements import instanceof int interface long native new package "
    "private protected public return short static strictfp super switch "
    "synchronized this throw throws transient try void volatile while true "
    "false null var record yield sealed permits".split()
)
_TYPES = ["int", "long", "boolean", "String", "double", "Object", "byte[]"]
_WIDGETS = ["LinearLayout", "TextView", "Button", "ImageView", "EditText", "RecyclerView"]
_PERMISSIONS = [
    "CAMERA", "INTERNET", "RECORD_AUDIO", "READ_CONTACTS", "WAKE_LOCK",
    "VIBRATE", "BLUETOOTH", "NFC", "ACCESS_WIFI_STATE", "READ_CALENDAR",
]
_ANDROID_NS = "http://schemas.android.com/apk/res/android"


class Words:
    """Seeded pseudo-words; `fresh` never repeats within one corpus."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = set()

    def syllables(self, n: int, consonants: str = _CONSONANTS) -> str:
        return "".join(
            self.rng.choice(consonants) + self.rng.choice(_VOWELS) for _ in range(n)
        )

    def fresh(self, min_syl: int = 2, max_syl: int = 3) -> str:
        while True:
            word = self.syllables(self.rng.randint(min_syl, max_syl))
            if word not in self.used and word not in _JAVA_WORDS:
                self.used.add(word)
                return word

    def ident(self) -> str:
        first = self.fresh()
        return first + self.syllables(self.rng.randint(1, 2)).capitalize()

    def type_name(self) -> str:
        return self.fresh().capitalize() + self.syllables(self.rng.randint(1, 2)).capitalize()

    def sentence(self, n: int) -> str:
        return " ".join(
            self.syllables(self.rng.randint(2, 3), _PROSE_CONSONANTS) for _ in range(n)
        )


# ---------------------------------------------------------------------------
# Java statement grammar

ID = "id"  # identifier tokens, renamed when a method is planted
LX = "lx"  # every other lexeme

Token = Tuple[str, str]


class JavaGen:
    """Java-like sources from a small statement grammar, built as
    lexeme lists so a method can be copied with its identifiers
    renamed while every token kind stays the same.

    Structure (statement and expression shapes, sizes) is drawn from
    `shape`, a stream fixed per role in a workload; names and prose come
    from the seeded `words`. So token-kind streams, and with them the
    lexing and GST work, are the same for every seed, while spellings,
    names, texts and orders change with it.
    """

    def __init__(self, shape: str, words: Words):
        self.rng = random.Random(shape)
        self.pick = words.rng
        self.words = words
        self.locals = [words.ident() for _ in range(24)]
        self.methods = [words.ident() for _ in range(24)]
        self.classes = [words.type_name() for _ in range(12)]

    def _lx(self, *texts) -> List[Token]:
        return [(LX, t) for t in texts]

    def _name(self) -> Token:
        return (ID, self.pick.choice(self.locals))

    def expr(self, depth: int = 0) -> List[Token]:
        r = self.rng.random()
        if depth >= 2 or r < 0.25:
            pick = self.rng.random()
            if pick < 0.6:
                return [self._name()]
            if pick < 0.85:
                return self._lx(str(self.rng.randint(0, 4096)))
            return self._lx('"' + self.words.sentence(2) + '"')
        if r < 0.45:
            op = self.rng.choice(["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"])
            return self.expr(depth + 1) + self._lx(op) + self.expr(depth + 1)
        if r < 0.65:
            return [self._name()] + self._lx(".") + [(ID, self.pick.choice(self.methods))] + self.args(depth)
        if r < 0.75:
            return self._lx("new") + [(ID, self.pick.choice(self.classes))] + self.args(depth)
        if r < 0.85:
            return [self._name()] + self._lx("[") + self.expr(depth + 1) + self._lx("]")
        if r < 0.93:
            return self._lx("(") + self.expr(depth + 1) + self._lx(")")
        return self.cond(depth + 1) + self._lx("?") + self.expr(depth + 1) + self._lx(":") + self.expr(depth + 1)

    def args(self, depth: int) -> List[Token]:
        out = self._lx("(")
        for k in range(self.rng.randint(0, 3)):
            if k:
                out += self._lx(",")
            out += self.expr(depth + 1)
        return out + self._lx(")")

    def cond(self, depth: int = 0) -> List[Token]:
        op = self.rng.choice(["<", ">", "<=", ">=", "==", "!="])
        out = self.expr(depth + 1) + self._lx(op) + self.expr(depth + 1)
        if self.rng.random() < 0.25:
            out += self._lx(self.rng.choice(["&&", "||"])) + [self._name()]
        return out

    def block(self, depth: int) -> List[Token]:
        out = self._lx("{")
        for _ in range(self.rng.randint(1, 3)):
            out += self.stmt(depth + 1)
        return out + self._lx("}")

    def stmt(self, depth: int = 0) -> List[Token]:
        r = self.rng.random()
        if depth >= 2:
            r *= 0.5  # no nested compound statements below two levels
        if r < 0.18:
            return self._lx(self.rng.choice(_TYPES)) + [self._name()] + self._lx("=") + self.expr() + self._lx(";")
        if r < 0.34:
            op = self.rng.choice(["=", "+=", "-=", "|="])
            return [self._name()] + self._lx(op) + self.expr() + self._lx(";")
        if r < 0.46:
            return [self._name()] + self._lx(".") + [(ID, self.pick.choice(self.methods))] + self.args(0) + self._lx(";")
        if r < 0.50:
            return self._lx("return") + self.expr() + self._lx(";")
        if r < 0.64:
            out = self._lx("if", "(") + self.cond() + self._lx(")") + self.block(depth)
            if self.rng.random() < 0.4:
                out += self._lx("else") + self.block(depth)
            return out
        if r < 0.76:
            i = self._name()
            return (
                self._lx("for", "(", "int") + [i] + self._lx("=", "0", ";") + [i] + self._lx("<")
                + self.expr(1) + self._lx(";") + [i] + self._lx("++", ")") + self.block(depth)
            )
        if r < 0.84:
            return self._lx("while", "(") + self.cond() + self._lx(")") + self.block(depth)
        if r < 0.92:
            return (
                self._lx("try") + self.block(depth) + self._lx("catch", "(")
                + [(ID, self.pick.choice(self.classes)), self._name()] + self._lx(")") + self.block(depth)
            )
        return self._lx("throw", "new") + [(ID, self.pick.choice(self.classes))] + self._lx("(", '"' + self.words.sentence(3) + '"', ")", ";")

    def method(self, n_tokens: int) -> List[Token]:
        """One method of n_tokens lexemes, give or take three, so file
        sizes and with them GST cost hardly vary between seeds."""
        out = self._lx(self.rng.choice(["public", "private", "static", "protected"]))
        out += self._lx(self.rng.choice(_TYPES + ["void"])) + [(ID, self.words.ident())]
        out += self._lx("(")
        for k in range(self.rng.randint(0, 2)):
            if k:
                out += self._lx(",")
            out += self._lx(self.rng.choice(_TYPES)) + [self._name()]
        out += self._lx(")", "{")
        room = n_tokens - 1
        for _ in range(200):
            if room - len(out) < 8:
                break
            stmt = self.stmt()
            if len(out) + len(stmt) <= room:
                out += stmt
        while room - len(out) >= 4:
            out += [self._name()] + self._lx("=") + [self._name()] + self._lx(";")
        return out + self._lx("}")

    def compilation_unit(self, package: str, class_name: str, n_tokens: int,
                         planted: Optional[List[Token]] = None) -> str:
        """A class of about n_tokens lexemes; `planted` goes in as its
        middle method."""
        head = self._lx("package") + _dotted(package) + self._lx(";")
        for _ in range(2):
            head += self._lx("import") + _dotted(package) + self._lx(".") + [(ID, self.pick.choice(self.classes)), (LX, ";")]
        head += self._lx("public", "class", class_name, "{")
        for _ in range(self.rng.randint(1, 3)):
            head += self._lx("private", self.rng.choice(_TYPES)) + [self._name()] + self._lx(";")
        methods: List[List[Token]] = []
        left = n_tokens - len(head) - 1 - (len(planted) if planted else 0)
        while left >= 20:
            size = left if left < 100 else self.rng.randint(40, 70)
            methods.append(self.method(size))
            left -= len(methods[-1])
        if planted:
            methods.insert(len(methods) // 2, planted)
        body = [head] + methods + [self._lx("}")]
        return "\n\n".join(_render(part, self.words) for part in body) + "\n"


def _dotted(package: str) -> List[Token]:
    out: List[Token] = []
    for k, part in enumerate(package.split(".")):
        if k:
            out.append((LX, "."))
        out.append((LX, part))
    return out


def _render(tokens: List[Token], words: Words) -> str:
    lines = ["// " + words.sentence(5)]
    line: List[str] = []
    for _, text in tokens:
        line.append(text)
        if text in (";", "{", "}"):
            lines.append(" ".join(line))
            line = []
    if line:
        lines.append(" ".join(line))
    return "\n".join(lines)


def rename(tokens: List[Token], words: Words) -> List[Token]:
    """Same token kinds, every identifier spelled differently."""
    mapping: Dict[str, str] = {}
    out = []
    for kind, text in tokens:
        if kind == ID:
            if text not in mapping:
                mapping[text] = words.ident()
            text = mapping[text]
        out.append((kind, text))
    return out


# ---------------------------------------------------------------------------
# fixture scripting with the demo fixtures' Scripter


def record_repo(fx: Scripter, owner, repo, head, files: Dict[str, str]) -> None:
    """Repository metadata, its tree, and one blob per file."""
    fx.tree(owner, repo, head, sorted(files))
    for path in sorted(files):
        fx.blob(owner, repo, path, head, files[path])


def corpus_sha256(root: Path) -> str:
    """Hash of every file under root, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# workload corpora


@dataclass
class RecommendCorpus:
    fixture_dir: Path
    driver: str
    navigator: str
    max_candidates: int
    sizing: Dict[str, int] = field(default_factory=dict)


@dataclass
class TuneCorpus:
    dataset: Path
    sizing: Dict[str, int] = field(default_factory=dict)


def _head(rng: random.Random) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(40))


def _thread(words: Words, n_words: int) -> Tuple[str, List[str]]:
    """Candidate body of exactly n_words words and two comments, so the
    quality factors tie across candidates and similarity decides."""
    return words.sentence(n_words) + ".", [words.sentence(8) + ".", words.sentence(6) + "."]


def _stack_trace_body(words: Words, gen: JavaGen, package: str, message: str) -> str:
    frames = "\n".join(
        f"    at {package}.{gen.pick.choice(gen.classes)}.{gen.pick.choice(gen.methods)}"
        f"({gen.pick.choice(gen.classes)}.java:{gen.pick.randint(20, 900)})"
        for _ in range(4)
    )
    return (
        f"{words.sentence(24)}.\n\n"
        f"java.lang.IllegalStateException: {message}\n{frames}\n\n"
        f"{words.sentence(16)}.\n"
    )


def _pom(deps: List[Tuple[str, str]]) -> str:
    rows = "".join(
        f"    <dependency><groupId>{g}</groupId><artifactId>{a}</artifactId>"
        f"<version>1.0</version></dependency>\n"
        for g, a in deps
    )
    return f"<project>\n  <dependencies>\n{rows}  </dependencies>\n</project>\n"


# gst-pairs sizing: one op takes about two seconds on a 2-vCPU VM
GST_DRIVER_FILES = 24
GST_CANDIDATES = 10
GST_PATCH_FILES = 20  # spread 1-3 per candidate
GST_FILE_TOKENS = 150
GST_PLANTED_TOKENS = 90


def _search_order(rng: random.Random, n: int) -> List[int]:
    """A seeded order of candidates 0..n-1 in which candidate 0, the
    navigator, is never first, so re-ranking has to lift it."""
    order = list(range(n))
    rng.shuffle(order)
    if order[0] == 0:
        k = rng.randrange(1, n)
        order[0], order[k] = order[k], order[0]
    return order


def gst_pairs(seed: int, root: Path) -> RecommendCorpus:
    """A non-Android driver repo and ten single-repo candidates whose
    pull requests touch 1-3 Java files each: GST over every driver x
    patch file pair is almost all of the work."""
    rng = random.Random(f"gst-pairs/{seed}")
    words = Words(rng)
    driver_gen = JavaGen("gst-pairs/driver", words)
    snap_gen = JavaGen("gst-pairs/snapshot", words)
    patch_gen = JavaGen("gst-pairs/patch", words)
    fx = Scripter(root)

    shared_dep = (words.fresh() + ".lib", words.fresh())
    d_owner, d_repo = words.fresh(), words.fresh()
    d_pkg = f"org.{d_owner}.{d_repo}"
    planted = driver_gen.method(GST_PLANTED_TOKENS)
    driver_files = {"pom.xml": _pom([shared_dep] + [(words.fresh() + ".x", words.fresh()) for _ in range(2)])}
    for k in range(GST_DRIVER_FILES):
        name = words.type_name()
        driver_files[f"src/main/java/{d_pkg.replace('.', '/')}/{name}.java"] = driver_gen.compilation_unit(
            d_pkg, name, GST_FILE_TOKENS, planted if k == GST_DRIVER_FILES // 2 else None
        )
    record_repo(fx, d_owner, d_repo, _head(rng), driver_files)
    d_number = rng.randint(100, 999)
    message = words.sentence(3)
    fx.issue(d_owner, d_repo, d_number, state="open",
             title=f"{words.sentence(3).capitalize()} {words.sentence(2)}",
             body=_stack_trace_body(words, driver_gen, d_pkg, message))

    # candidate 0 is the navigator; its first patch file carries the
    # planted method under new names
    counts = [GST_PATCH_FILES // GST_CANDIDATES] * GST_CANDIDATES
    for _ in range(GST_CANDIDATES // 2):
        i, j = rng.sample(range(GST_CANDIDATES), 2)
        if counts[i] < 3 and counts[j] > 1:
            counts[i] += 1
            counts[j] -= 1
    items = []
    for c in range(GST_CANDIDATES):
        owner = repo = words.fresh()
        pkg = f"io.{owner}.core"
        number = rng.randint(10, 4000)
        title = words.sentence(5).capitalize()
        body, comments = _thread(words, 40)
        fx.issue(owner, repo, number, title=title, body=body, comments=comments, pull=True)
        snapshot = {"pom.xml": _pom([shared_dep] + [(words.fresh() + ".y", words.fresh()) for _ in range(2)])}
        for _ in range(2):
            name = words.type_name()
            snapshot[f"src/main/java/{pkg.replace('.', '/')}/{name}.java"] = snap_gen.compilation_unit(pkg, name, 120)
        record_repo(fx, owner, repo, _head(rng), snapshot)
        head = _head(rng)
        paths = []
        for k in range(counts[c]):
            name = words.type_name()
            path = f"src/main/java/{pkg.replace('.', '/')}/{name}.java"
            plant = rename(planted, words) if c == 0 and k == 0 else None
            fx.blob(owner, repo, path, head, patch_gen.compilation_unit(pkg, name, GST_FILE_TOKENS, plant))
            paths.append(path)
        fx.pull(owner, repo, number, head, paths)
        items.append(search_item(owner, repo, number, title, pull=True))
    navigator = items[0]

    fx.search(
        f"IllegalStateException {message} in:body,comments language:java state:closed",
        [items[c] for c in _search_order(rng, GST_CANDIDATES)],
    )
    return RecommendCorpus(
        fixture_dir=root,
        driver=f"{d_owner}/{d_repo}#{d_number}",
        navigator=_item_ref(navigator),
        max_candidates=GST_CANDIDATES,
        sizing={
            "driver_java_files": GST_DRIVER_FILES,
            "candidates": GST_CANDIDATES,
            "patch_java_files": sum(counts),
            "file_tokens": GST_FILE_TOKENS,
            "planted_tokens": GST_PLANTED_TOKENS,
            "gst_pairs_per_op": GST_DRIVER_FILES * sum(counts),
        },
    )


def _item_ref(item: dict) -> str:
    owner, repo = item["repository_url"].rsplit("/repos/", 1)[1].split("/")
    return f"{owner}/{repo}#{item['number']}"


# fanout sizing
FAN_REPOS = 10
FAN_PER_REPO = 10
FAN_JAVA_FILES = 20
FAN_LAYOUTS = 4
FAN_FILE_TOKENS = 260
FAN_DRIVER_FILE_TOKENS = 120  # GST runs against these; small keeps it cheap
FAN_JAVA_PATCHES = 2  # candidates whose patch carries a Java file, navigator included
FAN_PATCH_TOKENS = 60
FAN_PLANTED_TOKENS = 40


def _manifest(package: str, perms: List[str]) -> str:
    rows = "".join(f'  <uses-permission android:name="android.permission.{p}"/>\n' for p in perms)
    return (
        f'<manifest xmlns:android="{_ANDROID_NS}" package="{package}">\n{rows}'
        f'  <application android:label="app"/>\n</manifest>\n'
    )


def _layout(ids: List[str]) -> str:
    rows = "".join(
        f'  <{_WIDGETS[1 + k % (len(_WIDGETS) - 1)]} android:id="@+id/{ident}"'
        f' android:layout_width="match_parent" android:layout_height="wrap_content"/>\n'
        for k, ident in enumerate(ids)
    )
    return f'<LinearLayout xmlns:android="{_ANDROID_NS}" android:orientation="vertical">\n{rows}</LinearLayout>\n'


def _gradle(deps: List[Tuple[str, str]]) -> str:
    rows = "".join(f"    implementation '{g}:{a}:1.0'\n" for g, a in deps)
    return f"apply plugin: 'com.android.application'\n\ndependencies {{\n{rows}}}\n"


def _android_repo(gen: JavaGen, words: Words, package: str, perms: List[str],
                  deps, file_tokens: int, planted=None) -> Dict[str, str]:
    files = {
        "app/src/main/AndroidManifest.xml": _manifest(package, perms),
        "app/build.gradle": _gradle(deps),
    }
    for _ in range(FAN_LAYOUTS):
        ids = [words.fresh() + "_" + words.syllables(1) for _ in range(5)]
        files[f"app/src/main/res/layout/{words.fresh()}_screen.xml"] = _layout(ids)
    for k in range(FAN_JAVA_FILES):
        name = words.type_name()
        files[f"app/src/main/java/{package.replace('.', '/')}/{name}.java"] = gen.compilation_unit(
            package, name, file_tokens, planted if k == FAN_JAVA_FILES // 2 else None
        )
    return files


def fanout(seed: int, root: Path) -> RecommendCorpus:
    """One hundred candidates over ten Android repos. Patches touch
    layout XML and, for two candidates, one small Java file, so the
    work is fetching and re-extracting each candidate's repo snapshot,
    not GST."""
    rng = random.Random(f"fanout/{seed}")
    words = Words(rng)
    driver_gen = JavaGen("fanout/driver", words)
    repo_gen = JavaGen("fanout/repo", words)
    patch_gen = JavaGen("fanout/patch", words)
    fx = Scripter(root)

    shared_dep = ("androidx." + words.fresh(), words.fresh())
    planted = driver_gen.method(FAN_PLANTED_TOKENS)
    d_owner, d_repo = words.fresh(), words.fresh()
    d_pkg = f"com.{d_owner}.{d_repo}"
    # every repo shares two of four permissions with the driver, one of
    # three dependencies and every widget tag, so the Android overlaps
    # tie and code similarity decides the top
    d_perms = _PERMISSIONS[:4]
    record_repo(fx, d_owner, d_repo, _head(rng), _android_repo(
        driver_gen, words, d_pkg, d_perms,
        [shared_dep] + [("com." + words.fresh(), words.fresh()) for _ in range(2)],
        FAN_DRIVER_FILE_TOKENS, planted,
    ))
    d_number = rng.randint(100, 999)
    condition = words.sentence(3)
    message = words.sentence(3)
    fx.issue(d_owner, d_repo, d_number, state="open",
             title=f"{words.sentence(2).capitalize()} fails when {condition}",
             body=_stack_trace_body(words, driver_gen, d_pkg, message))

    repos = []
    for _ in range(FAN_REPOS):
        owner, repo = words.fresh(), words.fresh()
        perms = rng.sample(d_perms, 2) + rng.sample(_PERMISSIONS[4:], 2)
        deps = [shared_dep] + [("org." + words.fresh(), words.fresh()) for _ in range(2)]
        pkg = f"com.{owner}.{repo}"
        record_repo(fx, owner, repo, _head(rng), _android_repo(repo_gen, words, pkg, perms, deps, FAN_FILE_TOKENS))
        repos.append((owner, repo, pkg))

    # candidate c belongs to repo c % FAN_REPOS; candidates 0 and 1 carry
    # a Java file and candidate 0, the navigator, the planted method
    items = []
    numbers = rng.sample(range(10, 5000), FAN_REPOS * FAN_PER_REPO)
    for c, number in enumerate(numbers):
        owner, repo, pkg = repos[c % FAN_REPOS]
        title = words.sentence(4).capitalize()
        body, comments = _thread(words, 40)
        fx.issue(owner, repo, number, title=title, body=body, comments=comments, pull=True)
        head = _head(rng)
        paths = [f"app/src/main/res/layout/{words.fresh()}_item.xml" for _ in range(1 + c % 2)]
        if c < FAN_JAVA_PATCHES:
            name = words.type_name()
            path = f"app/src/main/java/{pkg.replace('.', '/')}/{name}.java"
            plant = rename(planted, words) if c == 0 else None
            fx.blob(owner, repo, path, head, patch_gen.compilation_unit(pkg, name, FAN_PATCH_TOKENS, plant))
            paths.append(path)
        fx.pull(owner, repo, number, head, paths)
        items.append(search_item(owner, repo, number, title, pull=True))

    # the stack-trace rung finds too few hits, so the ladder falls
    # through to the condition rung
    decoys = [search_item(words.fresh(), words.fresh(), rng.randint(1, 99), words.sentence(3), pull=True) for _ in range(3)]
    fx.search(f"IllegalStateException {message} in:body,comments language:java state:closed", decoys)
    fx.search(f"{condition} in:title language:java state:closed",
              [items[c] for c in _search_order(rng, len(items))])
    return RecommendCorpus(
        fixture_dir=root,
        driver=f"{d_owner}/{d_repo}#{d_number}",
        navigator=_item_ref(items[0]),
        max_candidates=len(items),
        sizing={
            "repos": FAN_REPOS,
            "candidates": len(items),
            "java_files_per_repo": FAN_JAVA_FILES,
            "layouts_per_repo": FAN_LAYOUTS,
            "file_tokens": FAN_FILE_TOKENS,
            "driver_file_tokens": FAN_DRIVER_FILE_TOKENS,
            "candidates_with_java_patch": FAN_JAVA_PATCHES,
        },
    )


# tune sizing: one tune_weights call takes a few seconds
TUNE_ENTRIES = 5
TUNE_CANDIDATES = 50


def tune(seed: int, root: Path) -> TuneCorpus:
    """A labeled dataset for grid-search tuning; no fixtures, no I/O
    beyond loading it."""
    rng = random.Random(f"tune/{seed}")
    words = Words(rng)
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for _ in range(TUNE_ENTRIES):
        cands = []
        for _ in range(TUNE_CANDIDATES):
            owner = words.fresh()
            cands.append({
                "ref": f"{owner}/{owner}#{rng.randint(1, 9999)}",
                "factors": {
                    "issue_length": round(rng.random(), 3),
                    "num_comment": round(rng.random(), 3),
                    "code": round(rng.random() ** 2, 3),
                    "dep": round(rng.random(), 3),
                    "perm": round(rng.random(), 3),
                    "ui": round(rng.random(), 3),
                    "has_fix": float(rng.random() < 0.5),
                    "keywords": round(rng.random(), 3),
                },
            })
        relevant = rng.sample([c["ref"] for c in cands], rng.randint(1, 2))
        owner = words.fresh()
        lines.append(json.dumps({
            "driver": f"{owner}/{owner}#{rng.randint(1, 999)}",
            "candidates": cands,
            "relevant": sorted(relevant),
        }, sort_keys=True))
    path = root / "dataset.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return TuneCorpus(dataset=path, sizing={"entries": TUNE_ENTRIES, "candidates_per_entry": TUNE_CANDIDATES})


GENERATORS = {"gst-pairs": gst_pairs, "fanout": fanout, "tune": tune}
