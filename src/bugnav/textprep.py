"""Word-level text preparation: word splitting, stopwords, stemming.

Everything here is deliberately self-contained. The stopword list is
the classic 174-word English list embedded verbatim, and the stemmer is
the original five-step suffix stripper, so runs are reproducible with
no model or corpus downloads.
"""

from __future__ import annotations

import re
from typing import List

# the classic English list, verbatim
STOPWORDS = frozenset("""
i me my myself we our ours ourselves you your yours yourself yourselves
he him his himself she her hers herself it its itself they them their
theirs themselves what which who whom this that these those am is are
was were be been being have has had having do does did doing would
should could ought i'm you're he's she's it's we're they're i've you've
we've they've i'd you'd he'd she'd we'd they'd i'll you'll he'll she'll
we'll they'll isn't aren't wasn't weren't hasn't haven't hadn't doesn't
don't didn't won't wouldn't shan't shouldn't can't cannot couldn't
mustn't let's that's who's what's here's there's when's where's why's
how's a an the and but if or because as until while of at by for with
about against between into through during before after above below to
from up down in out on off over under again further then once here
there when where why how all any both each few more most other some
such no nor not only own same so than too very
""".split())

# dots and underscores survive between alphanumeric runs, so file names
# and dotted paths stay in one piece
_WORD_IDENT_RE = re.compile(r"[A-Za-z0-9']+(?:[._][A-Za-z0-9']+)*")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+[0-9]*|[A-Z]+[0-9]*|[0-9]+")


def split_words(text: str) -> List[str]:
    """Whitespace/punctuation split that keeps the original casing.

    Used where the surface form matters (query text is emitted exactly
    as written by the reporter, minus the junk characters).
    """
    return [w.strip("'") for w in _WORD_IDENT_RE.findall(text) if w.strip("'")]


def split_camel(word: str) -> List[str]:
    """Break a camelCase or PascalCase identifier into lowercase parts.

    "HTTPServer" -> ["http", "server"]; a plain word comes back as
    itself. Digits stick to the run they follow.
    """
    parts = _CAMEL_RE.findall(word)
    return [p.lower() for p in parts] if parts else [word.lower()]


# ---------------------------------------------------------------------------
# suffix-stripping stemmer (the classic five-step algorithm)

def _form(word: str) -> str:
    """The consonant/vowel form of ``word``: one "c" or "v" per letter.
    a, e, i, o and u are vowels, and so is a "y" that follows a consonant.
    A prefix's form is the prefix of the word's form, so the measure m of
    [C](VC)^m[V] of any prefix is its form's count of "vc"."""
    form = ""
    last = "v"
    for ch in word:
        last = "v" if ch in "aeiou" or ch == "y" and last == "c" else "c"
        form += last
    return form


# (suffix, replacement) in longest-first order
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


def stem(token: str) -> str:
    """Reduce an English word to its suffix-stripped stem.

    Applied when matching mentions against declared names; never
    applied to text that ends up in an emitted query.
    """
    word = token.lower()
    if len(word) <= 2:
        return word

    # step 1a
    if word.endswith(("sses", "ies")):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]

    # step 1b; from here on, form is always the form of word
    form = _form(word)
    if word.endswith("eed"):
        if "vc" in form[:-3]:
            word, form = word[:-1], form[:-1]
    elif word.endswith(("ed", "ing")):
        size = 2 if word.endswith("ed") else 3
        if "v" in form[:-size]:
            word, form = word[:-size], form[:-size]
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif word[-1:] == word[-2:-1] and form[-1] == "c" and word[-1] not in "lsz":
                word = word[:-1]
            elif form.count("vc") == 1 and form.endswith("cvc") and word[-1] not in "wxy":
                word += "e"
            form = _form(word)

    # step 1c
    if word.endswith("y") and "v" in form[:-1]:
        word, form = word[:-1] + "i", form[:-1] + "v"

    # steps 2 and 3: the first listed suffix of each table is replaced if m > 0
    for table in (_STEP2, _STEP3):
        for suffix, repl in table:
            if word.endswith(suffix):
                if "vc" in form[: -len(suffix)]:
                    word = word[: -len(suffix)] + repl
                    form = _form(word)
                break

    # step 4
    for suffix in _STEP4:
        if word.endswith(suffix):
            keep = len(word) - len(suffix)
            if form[:keep].count("vc") > 1 and (suffix != "ion" or word[keep - 1] in "st"):
                word, form = word[:keep], form[:keep]
            break

    # step 5a
    if word.endswith("e"):
        m = form[:-1].count("vc")
        if m > 1 or m == 1 and not (form[:-1].endswith("cvc") and word[-2] not in "wxy"):
            word, form = word[:-1], form[:-1]

    # step 5b
    if word.endswith("ll") and form.count("vc") > 1:
        word = word[:-1]

    return word
