"""Word splitting, stopword list, and stemmer checks.

The stem pairs below were worked out by hand from the published suffix
stripping rules (measure arithmetic and all), not copied from any
implementation, so they stand as an independent oracle. Several of the
well-known per-step illustrations (relational->relate and friends) are
only snapshots of a single step; the frozen values here are what the
full five-step pipeline produces.
"""

import pytest

from bugnav import textprep


# Hand-traced through all five steps. Tuples are (word, stem).
PORTER_FROZEN = [
    # plurals
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("crashes", "crash"),
    # -ed / -ing
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    # y -> i
    ("happy", "happi"),
    ("sky", "sky"),
    # long suffix chains
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("generalizations", "gener"),
    ("oscillators", "oscil"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    # domain words the mention matcher leans on
    ("exception", "except"),
    ("errors", "error"),
    ("stemmers", "stemmer"),
    ("training", "train"),
    ("reproduce", "reproduc"),
    # degenerate
    ("safe", "safe"),
    ("x", "x"),
]


class TestStem:
    @pytest.mark.parametrize("word,expected", PORTER_FROZEN)
    def test_frozen_pairs(self, word, expected):
        assert textprep.stem(word) == expected

    # The classic algorithm is not idempotent everywhere: rule 1a strips a
    # bare trailing s ("decis" -> "deci", "callous" -> "callou") and rule
    # 5a can fire again on a stem that still ends in e ("agre" -> "agr").
    # Those are properties of the published rules, re-derived by hand, so
    # they are frozen as such and excluded from the fixed-point check.
    NON_FIXED_POINTS = {
        "agre": "agr",
        "decis": "deci",
        "callous": "callou",
        "ceas": "cea",
    }

    def test_idempotent_on_oracle_vocabulary(self):
        for _, stemmed in PORTER_FROZEN:
            if stemmed in self.NON_FIXED_POINTS:
                continue
            assert textprep.stem(stemmed) == stemmed

    def test_known_non_fixed_points(self):
        for stemmed, again in self.NON_FIXED_POINTS.items():
            assert textprep.stem(stemmed) == again

    def test_lowercases_input(self):
        assert textprep.stem("Caresses") == "caress"


class TestStopwords:
    def test_list_size_is_the_classic_list(self):
        assert len(textprep.STOPWORDS) == 174

    def test_all_lowercase_entries(self):
        assert all(w == w.lower() for w in textprep.STOPWORDS)


class TestSurfaceForms:
    def test_split_words_preserves_case(self):
        words = textprep.split_words("SwedishStemmer (and DutchStemmer?) not thread safe")
        assert words == ["SwedishStemmer", "and", "DutchStemmer", "not", "thread", "safe"]
        # file names stay whole; a sentence-final period does not stick
        words = textprep.split_words("It fails on tweets_lean.txt.")
        assert words == ["It", "fails", "on", "tweets_lean.txt"]

    def test_camel_split(self):
        assert textprep.split_camel("SnowballStemmer") == ["snowball", "stemmer"]
        assert textprep.split_camel("getTag") == ["get", "tag"]
        assert textprep.split_camel("HTTPServer") == ["http", "server"]
        assert textprep.split_camel("plain") == ["plain"]
