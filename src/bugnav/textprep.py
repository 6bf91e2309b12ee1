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


def stem(token: str) -> str:
    """Reduce an English word to its suffix-stripped stem.

    Applied when matching mentions against declared names; never
    applied to text that ends up in an emitted query.
    """
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
