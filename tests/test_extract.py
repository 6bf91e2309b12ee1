"""Build-file, manifest, layout, lexer, and mention extraction tests."""

import base64
import json
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bugnav import extract
from bugnav.corpus.models import IssueDocument, IssueRef, RepoSnapshot
from oracles import (
    extract_mentions_reference,
    repo_context_reference,
    tokenize_code_reference,
)

try:
    from re import _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_parse

WALKTHROUGH = Path(__file__).resolve().parent.parent / "fixtures" / "walkthrough"


POM = """\
<project>
  <modelVersion>4.0.0</modelVersion>
  <dependencies>
    <dependency>
      <groupId>org.annolab.tt4j</groupId>
      <artifactId>org.annolab.tt4j</artifactId>
      <version>1.2.1</version>
    </dependency>
    <dependency>
      <groupId>junit</groupId>
      <artifactId>junit</artifactId>
      <version>4.12</version>
      <scope>test</scope>
    </dependency>
  </dependencies>
</project>
"""

POM_NAMESPACED = """\
<project xmlns="http://maven.apache.org/POM/4.0.0">
  <dependencies>
    <dependency>
      <groupId>org.apache.opennlp</groupId>
      <artifactId>opennlp-tools</artifactId>
      <version>1.9.0</version>
    </dependency>
  </dependencies>
</project>
"""

GRADLE = """\
apply plugin: 'com.android.application'

dependencies {
    implementation 'com.google.android.material:material:1.1.0'
    implementation "androidx.appcompat:appcompat:1.2.0"
    implementation group: 'org.nd4j', name: 'nd4j-native', version: '1.0.0-beta7'
    testImplementation 'junit:junit:4.12'
}
"""

MANIFEST = """\
<?xml version="1.0" encoding="utf-8"?>
<manifest xmlns:android="http://schemas.android.com/apk/res/android"
    package="com.example.app">
    <uses-permission android:name="android.permission.CAMERA" />
    <uses-permission android:name="android.permission.WRITE_EXTERNAL_STORAGE" />
    <uses-permission android:name="com.example.app.CUSTOM" />
    <application android:label="demo" />
</manifest>
"""

LAYOUT = """\
<?xml version="1.0" encoding="utf-8"?>
<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android"
    android:id="@+id/root_panel"
    android:orientation="vertical">
    <TextView android:id="@+id/status_text" />
    <com.google.android.material.button.MaterialButton android:id="@+id/save_btn" />
</LinearLayout>
"""


def _snapshot(files):
    return RepoSnapshot(files)


class TestDependencies:
    def test_pom(self):
        deps = extract.extract_dependencies(_snapshot({"pom.xml": POM}))
        assert deps == {
            "org.annolab.tt4j:org.annolab.tt4j": "org.annolab.tt4j",
            "junit:junit": "junit",
        }

    def test_pom_with_namespace(self):
        deps = extract.extract_dependencies(_snapshot({"pom.xml": POM_NAMESPACED}))
        assert deps == {"org.apache.opennlp:opennlp-tools": "opennlp-tools"}

    def test_gradle_both_styles(self):
        deps = extract.extract_dependencies(_snapshot({"app/build.gradle": GRADLE}))
        assert deps == {
            "com.google.android.material:material": "material",
            "androidx.appcompat:appcompat": "appcompat",
            "org.nd4j:nd4j-native": "nd4j-native",  # map style
            "junit:junit": "junit",
        }

    def test_malformed_pom_degrades_to_empty(self):
        deps = extract.extract_dependencies(_snapshot({"pom.xml": "<project><depend"}))
        assert deps == {}

    def test_no_build_files(self):
        assert extract.extract_dependencies(_snapshot({"src/A.java": "class A {}"})) == {}

    def test_canonical_is_lowercase(self):
        pom = POM.replace("junit", "JUnit")
        deps = extract.extract_dependencies(_snapshot({"pom.xml": pom}))
        assert deps["junit:junit"] == "junit"


class TestPermissions:
    def test_manifest_permissions(self):
        perms = extract.extract_permissions(_snapshot({"app/src/main/AndroidManifest.xml": MANIFEST}))
        assert perms == {"camera", "write_external_storage", "com.example.app.custom"}

    def test_malformed_manifest(self):
        perms = extract.extract_permissions(_snapshot({"AndroidManifest.xml": "<manifest"}))
        assert perms == set()

    def test_not_android(self):
        assert extract.extract_permissions(_snapshot({"pom.xml": POM})) == set()


class TestUiElements:
    def test_widgets_and_ids(self):
        ui = extract.extract_ui_elements(
            _snapshot({"app/src/main/res/layout/activity_main.xml": LAYOUT})
        )
        assert "linearlayout" in ui
        assert "textview" in ui
        assert "materialbutton" in ui  # dotted widget keeps its leaf name
        assert {"root_panel", "status_text", "save_btn"} <= ui

    def test_layout_variants_counted(self):
        ui = extract.extract_ui_elements(_snapshot({"res/layout-land/main.xml": LAYOUT}))
        assert "save_btn" in ui

    def test_non_layout_xml_ignored(self):
        ui = extract.extract_ui_elements(_snapshot({"res/values/strings.xml": "<resources/>"}))
        assert ui == set()


def _encoded(kinds):
    """Kind names as the lexer writes them: one character per kind."""
    return "".join(extract.KIND_CODES[k] for k in kinds)


class TestCodeLexer:
    def test_spec_example(self):
        kinds = extract.tokenize_code("int x = 0; // hi")
        assert kinds == _encoded(("kw_int", "ident", "eq", "num", "semi"))

    def test_string_contents_dropped(self):
        kinds = extract.tokenize_code('String s = "hello world";')
        assert kinds == _encoded(("ident", "ident", "eq", "str", "semi"))

    def test_block_comments_dropped(self):
        a = extract.tokenize_code("int a = 1; /* a long\n comment */ int b = 2;")
        b = extract.tokenize_code("int a = 1; int b = 2;")
        assert a == b

    def test_identifier_abstraction(self):
        a = extract.tokenize_code("int total = count + 1;")
        b = extract.tokenize_code("int sum = items + 1;")
        assert a == b

    def test_multichar_operators(self):
        kinds = extract.tokenize_code("if (a >= b && c != d) { a >>= 2; }")
        assert all(extract.KIND_CODES[k] in kinds for k in ("ge", "and_and", "ne"))

    def test_empty_source(self):
        assert extract.tokenize_code("") == ""

    def test_kind_codes_are_one_to_one_and_ascii(self):
        codes = list(extract.KIND_CODES.values())
        assert len(set(codes)) == len(codes) == 112
        assert all(len(c) == 1 and c < chr(128) for c in codes)


# pieces that open, close or straddle every kind of token: unclosed
# comments and literals, escapes, the longest operators and their
# prefixes, control characters that count as whitespace (\x1c, \r,
# \u2028) or as nothing (\x00, `), digits outside ASCII that the number
# pattern matches (٣, ٠, 𝟘) or that only str.isdigit accepts (²), and
# number prefixes with no digits after them
_LEX_PIECES = [
    " ", "\n", "\t", "\x1c", "\r", "\u2028", "//", "/*", "*/", "/*/", "/", "*", '"', "'",
    "\\", "a", "x", "e", "E", "f", "L", "_", "$", "0", "1", "9", "0x", "0b", ".", "..", "+",
    "-", "->", "::", "٣", "٠", "𝟘", "²", "é", "#", "`", "\x00", "int", "null", "=", "<", ">",
    ">>", ">>=", ">>>=", "!", "&", ":",
]


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_LEX_PIECES), max_size=30).map("".join), st.text()))
@example("/*/ int a;")
@example('s = "abc\\')
@example("٣")
@example("x²")
@example("1.5e+3f")
# input that ends in skipped text
@example("//")
@example("x //")
@example("a /* b")
@example("x \n")
@example('"a\\')
def test_lexer_equals_reference_scanner(source):
    assert extract.tokenize_code(source) == _encoded(tokenize_code_reference(source))


def _walkthrough_java():
    """Every Java file the walkthrough fixtures serve, decoded as the
    client decodes it."""
    blobs = []
    for path in sorted((WALKTHROUGH / "payloads").iterdir()):
        record = json.loads(path.read_bytes())
        if record["endpoint"] == "get_file_content" and record["params"]["path"].endswith(".java"):
            content = record["payload"]["content"]
            blobs.append(base64.b64decode(content).decode("utf-8", errors="replace"))
    return blobs


def test_walkthrough_java_lexes_as_the_reference_scanner():
    blobs = _walkthrough_java()
    assert len(blobs) == 4
    for source in blobs:
        assert extract.tokenize_code(source) == _encoded(tokenize_code_reference(source))


def _opcodes(parsed):
    """The name of every opcode in a parsed pattern, nested ones included."""
    for op, arg in parsed:
        yield op.name
        stack = [arg]
        while stack:
            item = stack.pop()
            if isinstance(item, sre_parse.SubPattern):
                yield from _opcodes(item)
            elif isinstance(item, (tuple, list)):
                stack.extend(item)


def test_lexer_patterns_compile_on_python_3_10():
    # atomic groups and possessive repeats came in Python 3.11
    newer = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}
    if sys.version_info >= (3, 11):
        assert newer <= set(_opcodes(sre_parse.parse("(?>a)|b++")))
    for pattern in (extract._SKIP_RE, extract._TOKEN_RE):
        assert not newer & set(_opcodes(sre_parse.parse(pattern.pattern, pattern.flags)))


class TestMentions:
    def _issue(self, body, comments=()):
        return extract.stemmed_thread(
            IssueDocument(
                ref=IssueRef("octo", "demo", 1),
                title="a title",
                body=body,
                comments=list(comments),
            )
        )

    def test_camel_case_matches_hyphenated_artifact(self):
        issue = self._issue("The SnowballStemmer blows up on Swedish input")
        vocab = {"org.tartarus:snowball-stemmer": "snowball-stemmer"}
        assert extract.extract_mentions(issue, vocab) == {"org.tartarus:snowball-stemmer"}

    def test_single_word(self):
        issue = self._issue("camera permission denied on resume")
        vocab = {"camera": "camera", "internet": "internet"}
        assert extract.extract_mentions(issue, vocab) == {"camera"}

    def test_multiword_needs_contiguous_tokens(self):
        vocab = {"save_btn": "save_btn"}
        hit = self._issue("the save btn disappears")
        miss = self._issue("press the save button now")
        assert extract.extract_mentions(hit, vocab) == {"save_btn"}
        assert extract.extract_mentions(miss, vocab) == set()

    def test_stemming_bridges_inflection(self):
        # "stemmers" in text, "stemmer" in the artifact name
        issue = self._issue("both stemmers crash under load")
        vocab = {"x:stemmer": "stemmer"}
        assert extract.extract_mentions(issue, vocab) == {"x:stemmer"}

    def test_comments_are_searched(self):
        issue = self._issue("body says nothing", comments=["try the camera fix"])
        assert extract.extract_mentions(issue, {"camera": "camera"}) == {"camera"}

    def test_thread_is_stemmed_words_between_single_spaces(self):
        assert self._issue("SnowballStemmers, v2") == " a titl snowbal stemmer v2 "

    def test_long_run_of_y_in_an_entry(self):
        entry = "layout_" + "y" * 3000
        issue = self._issue(f"the {entry} view is blank")
        assert extract.extract_mentions(issue, {entry: entry}) == {entry}


# few stems, so phrases recur and partly match; camelCase, digits and
# the entry separators (- _ . whitespace) exercise the word splitting
_WORDS = ["save", "saving", "Saved", "btn", "Button", "camera", "cameras", "Snowball",
          "stemmer", "HTTPServer", "v2", "x"]
_SEPARATORS = [" ", "-", "_", ".", ", ", "\n", ""]
_texts = st.lists(
    st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPARATORS)), max_size=12
).map(lambda parts: "".join(w + sep for w, sep in parts))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_texts, min_size=2, max_size=4),
    st.one_of(
        st.dictionaries(_texts, _texts, max_size=6),
        st.sets(_texts, max_size=6),
    ),
)
@example(["save btn", "the save btn save button"], {"save_btn": "save_btn", "b": "save"})
@example(["", ""], {"empty": "", "dots": ".-_"})
@example(["save", "btn here"], {"save_btn": "save_btn"})
@example(["cameraman", ""], {"camera": "camera"})
@example(["x y", ""], {"x-é-y": "x-é-y"})
def test_thread_mentions_equal_reference_scan(texts, vocabulary):
    issue = IssueDocument(
        ref=IssueRef("octo", "demo", 1), title=texts[0], body=texts[1], comments=texts[2:]
    )
    assert extract.extract_mentions(extract.stemmed_thread(issue), vocabulary) == (
        extract_mentions_reference(issue, vocabulary)
    )


class TestRepoContext:
    def test_android_context(self):
        snap = _snapshot(
            {
                "app/build.gradle": GRADLE,
                "app/src/main/AndroidManifest.xml": MANIFEST,
                "app/src/main/res/layout/activity_main.xml": LAYOUT,
                "app/src/main/java/com/example/app/Main.java": "class Main { int x = 0; }",
            }
        )
        ctx = extract.build_repo_context(snap)
        assert ctx.is_android
        assert "camera" in ctx.permissions
        assert "save_btn" in ctx.ui_elements
        assert ctx.dependencies["com.google.android.material:material"] == "material"
        assert list(extract.code_kinds(snap)) == ["app/src/main/java/com/example/app/Main.java"]

    def test_plain_java_context(self):
        snap = _snapshot({"pom.xml": POM, "src/A.java": "class A {}"})
        ctx = extract.build_repo_context(snap)
        assert not ctx.is_android
        assert ctx.permissions == set()
        assert ctx.ui_elements == set()
        assert len(ctx.dependencies) == 2


_ANDROID_NS = ' xmlns:android="http://schemas.android.com/apk/res/android"'
_VALUES = st.sampled_from(["junit", "JUnit", "org.Foo", " a.b-c ", "", "  "])


@st.composite
def _pom(draw):
    ns = draw(st.sampled_from(["", ' xmlns="http://maven.apache.org/POM/4.0.0"']))
    # groupId may be missing or repeated; any child order
    children = st.tuples(st.sampled_from(["groupId", "artifactId", "version", "scope"]), _VALUES)
    deps = draw(st.lists(st.lists(children, max_size=5), max_size=4))
    body = "".join(
        "<dependency>" + "".join(f"<{tag}>{text}</{tag}>" for tag, text in dep) + "</dependency>"
        for dep in deps
    )
    return f"<project{ns}><dependencies>{body}</dependencies></project>"


_GRADLE_LINES = st.sampled_from([
    "implementation 'com.google:material:1.1.0'",
    'implementation "androidx.appcompat:AppCompat:1.2.0"',
    "implementation group: 'org.nd4j', name: 'nd4j-native', version: '1.0'",
    "testImplementation 'junit:junit:4.12'",
    "apply plugin: 'com.android.application'",
    "dependencies {",
])


@st.composite
def _manifest(draw):
    # the android namespace under its usual prefix or another one
    prefix = draw(st.sampled_from(["android", "a"]))
    ns = f' xmlns:{prefix}="http://schemas.android.com/apk/res/android"'
    prefix += ":"
    names = st.sampled_from([
        "android.permission.CAMERA", "CAMERA", " android.permission.INTERNET ",
        "com.example.app.CUSTOM", "", "  ",
    ])
    elems = draw(st.lists(
        st.one_of(
            names.map(lambda n: f'<uses-permission {prefix}name="{n}" />'),
            names.map(lambda n: f'<uses-permission name="{n}" />'),
            st.just("<uses-permission />"),
            st.just(f'<application {prefix}label="demo" />'),
        ),
        max_size=5,
    ))
    return f"<manifest{ns}>{''.join(elems)}</manifest>"


@st.composite
def _layout(draw):
    tags = st.sampled_from([
        "LinearLayout", "TextView", "com.google.android.material.button.MaterialButton", "a.b.C",
    ])
    ids = st.sampled_from(["@+id/save_btn", "@id/Status_Text", "plain", "@+id/a/b", ""])
    children = draw(st.lists(st.tuples(tags, st.none() | ids), max_size=5))
    body = "".join(
        f"<{tag} />" if ident is None else f'<{tag} android:id="{ident}" />'
        for tag, ident in children
    )
    root = draw(tags)
    return f"<{root}{_ANDROID_NS}>{body}</{root}>"


_GRADLE = st.lists(_GRADLE_LINES, max_size=6).map("\n".join)
_JAVA = st.just("class A { int x; }")
# each path with content of its kind; a path no extractor reads gets
# content that one would read
_CONTENT_BY_PATH = {
    "pom.xml": _pom(), "lib/pom.xml": _pom(),
    "build.gradle": _GRADLE, "app/build.gradle.kts": _GRADLE,
    "AndroidManifest.xml": _manifest(), "app/src/main/AndroidManifest.xml": _manifest(),
    "res/layout/main.xml": _layout(), "app/src/main/res/layout-land/b.xml": _layout(),
    "res/values/strings.xml": _layout(), "src/A.java": _JAVA, "README.md": _GRADLE,
}
_ANY_CONTENT = st.one_of(_pom(), _manifest(), _layout(), _GRADLE, _JAVA)


@st.composite
def _snapshots(draw):
    files = {}
    for path in draw(st.lists(st.sampled_from(sorted(_CONTENT_BY_PATH)), unique=True, max_size=6)):
        # mostly the content of the path's kind, sometimes another kind's
        text = draw(_CONTENT_BY_PATH[path] if draw(st.integers(0, 3)) else _ANY_CONTENT)
        # a file cut short does not parse
        files[path] = text if draw(st.integers(0, 3)) else text[: draw(st.integers(0, len(text)))]
    return _snapshot(files)


@settings(max_examples=300, deadline=None)
@given(_snapshots())
def test_repo_context_equals_reference(snapshot):
    assert extract.build_repo_context(snapshot) == repo_context_reference(snapshot)
