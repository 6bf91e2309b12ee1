#!/usr/bin/env python3
"""Rebuild the committed demo fixtures and their golden outputs.

Everything under fixtures/ is produced by this script: the recorded
corpus for the end-to-end recommendation walkthrough, the mining
corpus, the evaluation dataset, and the golden files the acceptance
suite compares against byte-for-byte. Rerun it after changing fixture
content or the structured output format, then commit the result.
"""

import hashlib
import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bugnav import cli  # noqa: E402
from bugnav.corpus.fixtures import FixtureStore  # noqa: E402
from bugnav.corpus.models import IssueRef  # noqa: E402
from bugnav.evalharness import EvalDataset, EvalEntry, LabeledCandidate  # noqa: E402
from bugnav.extract import tokenize_code  # noqa: E402
from bugnav.ranking import FactorVector, count_keywords  # noqa: E402
from bugnav.similarity import gst_similarity  # noqa: E402

FIXTURES = ROOT / "fixtures"
WALKTHROUGH = FIXTURES / "walkthrough"
MINER = FIXTURES / "miner"
EVAL = FIXTURES / "eval"
GOLDEN = FIXTURES / "golden"

# ---------------------------------------------------------------------------
# fixture store scripting

def b64(text):
    import base64

    return base64.b64encode(text.encode()).decode()


class Scripter:
    def __init__(self, store_dir):
        self.store = FixtureStore(str(store_dir))

    def put(self, endpoint, params, payload, status=200):
        self.store.record(endpoint, params, status, payload)

    def search(self, q, items):
        pages = [items[i : i + 100] for i in range(0, len(items), 100)] or [[]]
        for page_no, page in enumerate(pages, start=1):
            self.put(
                "search_issues",
                {"q": q, "page": str(page_no), "per_page": "100"},
                {"total_count": len(items), "items": page},
            )

    def issue(self, owner, repo, number, *, title, body, state="closed",
              comments=(), pull=False):
        payload = {
            "number": number,
            "title": title,
            "body": body,
            "state": state,
            "comments": len(comments),
            "labels": [],
        }
        if pull:
            payload["pull_request"] = {"url": "..."}
        self.put("get_issue", {"owner": owner, "repo": repo, "number": str(number)}, payload)
        self.put(
            "list_comments",
            {"owner": owner, "repo": repo, "number": str(number), "page": "1", "per_page": "100"},
            [{"body": c} for c in comments],
        )

    def pull(self, owner, repo, number, head, files):
        self.put(
            "get_pull",
            {"owner": owner, "repo": repo, "number": str(number)},
            {"number": number, "head": {"sha": head, "repo": {"full_name": f"{owner}/{repo}"}}},
        )
        self.put(
            "get_pull_files",
            {"owner": owner, "repo": repo, "number": str(number), "page": "1", "per_page": "100"},
            [{"filename": path, "status": "modified", "patch": "@@ -1,4 +1,9 @@"} for path in files],
        )

    def blob(self, owner, repo, path, ref, content):
        self.put(
            "get_file_content",
            {"owner": owner, "repo": repo, "path": path, "ref": ref},
            {"content": b64(content), "encoding": "base64"},
        )

    def tree(self, owner, repo, head, files, branch="main"):
        """Repository metadata and its tree. ``files`` is a list of paths, or
        a {path: text} map whose entries each carry their git blob sha."""
        self.put("get_repo", {"owner": owner, "repo": repo}, {"default_branch": branch})
        entries = [{"path": p, "type": "blob"} for p in files]
        if isinstance(files, dict):
            for entry in entries:
                entry["sha"] = blob_sha(files[entry["path"]])
        self.put(
            "get_tree",
            {"owner": owner, "repo": repo, "ref": branch, "recursive": "1"},
            {"sha": head, "tree": entries},
        )


def blob_sha(text):
    """The sha git names a file of this UTF-8 text by."""
    data = text.encode()
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def save_dataset(dataset, path):
    """Write ``dataset`` as the JSONL file ``EvalDataset.load`` reads: one
    sorted-key object per entry."""
    lines = [
        json.dumps({
            "driver": str(entry.driver),
            "candidates": [
                {"ref": str(c.ref), "factors": c.factors.to_dict()} for c in entry.candidates
            ],
            "relevant": sorted(str(r) for r in entry.relevant),
        }, sort_keys=True)
        for entry in dataset.entries
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def search_item(owner, repo, number, title, pull=False):
    entry = {
        "number": number,
        "title": title,
        "repository_url": f"https://api.github.com/repos/{owner}/{repo}",
    }
    if pull:
        entry["pull_request"] = {"url": "..."}
    return entry


def fresh(dir_path):
    if dir_path.exists():
        shutil.rmtree(dir_path)
    dir_path.mkdir(parents=True)
    return dir_path


# ---------------------------------------------------------------------------
# walkthrough corpus: a config-serialization bug whose best match is a
# geospatial library's pull request, surfaced from platform rank 4

DRIVER_BODY = """\
I am serializing fairly large configuration objects and the process dies once
the rendered values pass a certain size. The exact message is:

java.io.UTFDataFormatException: encoded string too long: 93067 bytes
    at java.io.DataOutputStream.writeUTF(DataOutputStream.java:364)
    at java.io.DataOutputStream.writeUTF(DataOutputStream.java:323)
    at com.typesafe.config.impl.SerializedConfigValue.writeValueData(SerializedConfigValue.java:301)

Smaller objects serialize fine, so this looks like the 16-bit length limit of
writeUTF rather than anything in our data.
"""

DRIVER_JAVA = """\
package com.typesafe.config.impl;

import java.io.DataOutputStream;
import java.io.IOException;

final class SerializedConfigValue {

    private static final int MAX_UTF_BYTES = 65535;

    private final DataOutputStream out;

    SerializedConfigValue(DataOutputStream out) {
        this.out = out;
    }

    void writeValueData(String value) throws IOException {
        int length = utf8Length(value);
        if (length > MAX_UTF_BYTES) {
            throw new IOException("encoded string too long: " + length + " bytes");
        }
        out.writeUTF(value);
    }

    static int utf8Length(String value) {
        int total = 0;
        for (int i = 0; i < value.length(); i++) {
            char c = value.charAt(i);
            if (c < 0x80) {
                total += 1;
            } else if (c < 0x800) {
                total += 2;
            } else {
                total += 3;
            }
        }
        return total;
    }
}
"""

GEO_JAVA = """\
package org.geotools.data.util;

import java.io.IOException;
import java.io.RandomAccessFile;

final class SimpleFeatureIO {

    private static final int MAX_CHUNK_BYTES = 65535;

    private final RandomAccessFile raf;

    SimpleFeatureIO(RandomAccessFile raf) {
        this.raf = raf;
    }

    void writeString(String attribute) throws IOException {
        int size = encodedLength(attribute);
        if (size > MAX_CHUNK_BYTES) {
            throw new IOException("encoded string too long: " + size + " bytes");
        }
        raf.writeUTF(attribute);
    }

    static int encodedLength(String attribute) {
        int total = 0;
        for (int i = 0; i < attribute.length(); i++) {
            char c = attribute.charAt(i);
            if (c < 0x80) {
                total += 1;
            } else if (c < 0x800) {
                total += 2;
            } else {
                total += 3;
            }
        }
        return total;
    }

    String readBigString(int parts) throws IOException {
        StringBuilder sb = new StringBuilder();
        for (int i = 0; i < parts; i++) {
            sb.append(raf.readUTF());
        }
        return sb.toString();
    }

    void writeBigString(String attribute, int limit) throws IOException {
        int chunks = (attribute.length() + limit - 1) / limit;
        raf.writeInt(chunks);
        for (int i = 0; i < chunks; i++) {
            int from = i * limit;
            int to = Math.min(attribute.length(), from + limit);
            raf.writeUTF(attribute.substring(from, to));
        }
    }

    long seekFeature(long offset, int slot, int width) throws IOException {
        long position = offset + (long) slot * width;
        raf.seek(position);
        return position;
    }

    boolean hasRemaining(long featureEnd) throws IOException {
        return raf.getFilePointer() < featureEnd;
    }

    int featureCount(long tableBytes, int width) {
        return (int) (tableBytes / width);
    }

    void close() throws IOException {
        raf.close();
    }
}
"""

HAZEL_JAVA = """\
package io.hazelketl;

import java.io.*;
import java.util.*;
import java.util.zip.CRC32;

public final class FrameWriter {

    private final CRC32 crc = new CRC32();
    private OutputStream sink;
    private long written;
    static final int HEADER_BYTES = 2;

    public FrameWriter(OutputStream sink, long alreadyWritten) {
        this.sink = Objects.requireNonNull(sink);
        this.written = alreadyWritten;
    }

    public void frame(byte[] payload, int off, int len) throws IOException {
        crc.reset();
        crc.update(payload, off, len);
        sink.write(len >>> 8 & 0xFF);
        sink.write(len & 0xFF);
        sink.write(payload, off, len);
        written += len + HEADER_BYTES;
    }

    public long bytesWritten() {
        return written;
    }

    static int byteLength(String header) {
        int total = 0;
        for (int i = 0; i < header.length(); i++) {
            char c = header.charAt(i);
            if (c < 0x80) {
                total += 1;
            } else if (c < 0x800) {
                total += 2;
            } else {
                total += 3;
            }
        }
        return total;
    }
}
"""

ORC_JAVA = """\
package dev.orcmetrics.store;

import java.io.IOException;
import java.io.Writer;
import java.util.List;

public class MetricLog {

    private Writer out;
    private String separator = "=";
    private int flushEvery = 64;
    private int pending;

    public void open(Writer target) {
        out = target;
        pending = 0;
    }

    public void record(List<String> names, double[] values) throws IOException {
        int row = 0;
        while (row < values.length) {
            String name = row < names.size() ? names.get(row) : "metric" + row;
            out.write(name + separator + values[row] + "\\n");
            row++;
            pending++;
        }
        if (pending >= flushEvery) {
            out.flush();
            pending = 0;
        }
    }
}
"""

GEO_BODY = """\
Writing a String attribute with a big size (String bytes greater than 65535
bytes) on SimpleFeatureIO we got an exception:

java.io.UTFDataFormatException: encoded string too long: 71530 bytes

This change splits big strings into chunks before writeUTF so the writer stays
under the limit and the error no longer appears when features carry large
text attributes.
"""

# Every candidate body mentions its failure with exactly one "exception"
# and one "error" so the keyword counts tie across the board.
DECOY_BODIES = {
    "hazelketl": (
        "Large frames overflow the length header and the writer dies with an "
        "exception. The error surfaces only when a frame crosses the 65535 "
        "byte boundary."
    ),
    "orc-metrics": (
        "Recording many metrics in a tight loop used to raise an exception "
        "in the log writer. The error went away after batching the flushes."
    ),
    "finchdb": (
        "Restoring a snapshot with oversized keys fails; the loader reports an "
        "exception and aborts. We traced the error to the varint prefix "
        "running out of range."
    ),
    "jberyl": (
        "Serializing beans with huge string fields throws an exception from "
        "the UTF writer. The error mentions a byte length over the protocol "
        "limit."
    ),
    "kryoflux-io": (
        "Round-tripping a document with a multi-megabyte text field triggers "
        "an exception. The error comes from the char buffer refusing to grow "
        "past the cap."
    ),
    "plasmaio": (
        "Uploading attachments bigger than the chunk size ends with an "
        "exception in the encoder. The error log shows the frame length field "
        "wrapping around."
    ),
    "tyrus-relay": (
        "Relaying messages with long headers kills the session with an "
        "exception. The error disappears when the header block stays under "
        "64k."
    ),
    "quillstream": (
        "Persisting rich text above the segment limit produces an exception "
        "during flush. The error names the UTF length check in the writer."
    ),
    "vexillum": (
        "Exporting flag descriptions with embedded translations hits an "
        "exception in the serializer. The error only shows for strings above "
        "the encoder limit."
    ),
}

# (owner == repo for the decoys; platform rank is the list position)
CANDIDATES = [
    ("hazelketl", 512, "FrameWriter corrupts frames above 64k"),
    ("orc-metrics", 88, "Metric log loses rows under heavy load"),
    ("finchdb", 1401, "Snapshot restore fails for oversized keys"),
    ("geotools", 2156, "Support for big String (byte length > 65535) on SimpleFeatureIO"),
    ("jberyl", 233, "Bean serializer rejects huge string fields"),
    ("kryoflux-io", 77, "Char buffer cap breaks large document round-trips"),
    ("plasmaio", 3054, "Chunked upload encoder wraps frame length"),
    ("tyrus-relay", 129, "Session drop on long message headers"),
    ("quillstream", 466, "Flush of large rich text segments aborts"),
    ("vexillum", 910, "Serializer limit hit by translated flag descriptions"),
]

NEUTRAL_COMMENTS = {
    "hazelketl": ["Fixed by https://github.com/hazelketl/hazelketl/pull/513",
                  "Thanks, closing."],
    "orc-metrics": ["Resolved via https://github.com/orc-metrics/orc-metrics/pull/89",
                    "Released in 2.4.1."],
    "finchdb": ["We worked around it by shortening the keys.",
                "Stale, closing this out."],
    "geotools": ["Merged, thanks for the detailed investigation.",
                 "Backported to the stable branch."],
    "jberyl": ["Duplicate of an older report, closing.",
               "The limit is documented now."],
    "kryoflux-io": ["No longer applies after the buffer rewrite.",
                    "Closing as outdated."],
    "plasmaio": ["Cannot happen since the encoder rewrite.",
                 "Please reopen if it comes back."],
    "tyrus-relay": ["Mitigated by fragmenting the headers.",
                    "Tracked internally from here."],
    "quillstream": ["Happens on 1.9 only, closing.",
                    "The segment limit is configurable now."],
    "vexillum": ["Workaround documented in the wiki.",
                 "Closing due to inactivity."],
}

PAD_WORDS = ["More", "environment", "details", "and", "version", "notes",
             "follow", "below", "for", "completeness."]

KEYWORD_TARGET = 2

DRIVER_HEAD = "f00d" * 10
GEO_HEAD = "beef" * 10
HAZEL_HEAD = "cafe" * 10
ORC_HEAD = "dead" * 10

WALKTHROUGH_QUERY = (
    "UTFDataFormatException encoded string too long in:body,comments"
    " language:java state:closed"
)


def pad_body(body, target_words):
    words = body.split()
    assert len(words) <= target_words, f"body already longer than {target_words} words"
    i = 0
    while len(words) < target_words:
        words.append(PAD_WORDS[i % len(PAD_WORDS)])
        i += 1
    return " ".join(words)


def code_similarities():
    """GST similarity of the driver's Java to each candidate patch's Java."""
    driver_kinds = tokenize_code(DRIVER_JAVA)
    return {
        name: gst_similarity(driver_kinds, tokenize_code(code))
        for name, code in (("geotools", GEO_JAVA), ("hazelketl", HAZEL_JAVA),
                           ("orc-metrics", ORC_JAVA))
    }


def build_walkthrough():
    fx = Scripter(fresh(WALKTHROUGH))

    bodies = dict(DECOY_BODIES)
    bodies["geotools"] = GEO_BODY
    target = max(len(b.split()) for b in bodies.values())
    bodies = {name: pad_body(b, target) for name, b in bodies.items()}
    for name, body in bodies.items():
        words = len(body.split())
        hits = count_keywords([body, *NEUTRAL_COMMENTS[name]])
        assert words == target, (name, words, target)
        assert hits == KEYWORD_TARGET, (name, hits)

    fx.issue("lightbend", "config", 398,
             title="UTFDataFormatException in SerializedConfigValue",
             body=DRIVER_BODY, state="open")
    driver_java = "config/src/main/java/com/typesafe/config/impl/SerializedConfigValue.java"
    fx.tree("lightbend", "config", DRIVER_HEAD, {driver_java: DRIVER_JAVA})
    fx.blob("lightbend", "config", driver_java, DRIVER_HEAD, DRIVER_JAVA)

    fx.search(WALKTHROUGH_QUERY, [
        search_item(name, name, number, title, pull=(name == "geotools"))
        for name, number, title in CANDIDATES
    ])

    for name, number, title in CANDIDATES:
        fx.issue(name, name, number, title=title, body=bodies[name],
                 comments=NEUTRAL_COMMENTS[name], pull=(name == "geotools"))
        fx.tree(name, name, "ab" * 20, {})

    geo_java = "modules/library/main/src/main/java/org/geotools/data/util/SimpleFeatureIO.java"
    fx.pull("geotools", "geotools", 2156, GEO_HEAD, [geo_java])
    fx.blob("geotools", "geotools", geo_java, GEO_HEAD, GEO_JAVA)

    fx.pull("hazelketl", "hazelketl", 513, HAZEL_HEAD, ["src/main/java/io/hazelketl/buffer/FrameWriter.java"])
    fx.blob("hazelketl", "hazelketl", "src/main/java/io/hazelketl/buffer/FrameWriter.java",
            HAZEL_HEAD, HAZEL_JAVA)

    fx.pull("orc-metrics", "orc-metrics", 89, ORC_HEAD, ["store/src/main/java/dev/orcmetrics/store/MetricLog.java"])
    fx.blob("orc-metrics", "orc-metrics", "store/src/main/java/dev/orcmetrics/store/MetricLog.java",
            ORC_HEAD, ORC_JAVA)

    sims = code_similarities()
    print(f"  code similarity vs driver: {sims}")
    assert sims["geotools"] > max(sims["hazelketl"], sims["orc-metrics"]), sims
    assert 0.55 < sims["geotools"] < 0.65, sims


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, f"cli {argv} exited {rc}"
    return buf.getvalue()


def golden_walkthrough():
    argv = ["recommend", "lightbend/config#398", "--fixture-dir", str(WALKTHROUGH)]
    out = run_cli(argv)
    assert out == run_cli(argv), "walkthrough output is not deterministic"
    data = json.loads(out)
    top = data["candidates"][0]
    assert top["ref"] == "geotools/geotools#2156", top
    assert top["search_rank"] == 4 and top["final_rank"] == 1, top
    rest = [c["search_rank"] for c in data["candidates"][1:]]
    print(f"  final order by platform rank: [4] + {rest}")
    (GOLDEN / "walkthrough_output.json").write_text(out)


def build_miner():
    fx = Scripter(fresh(MINER))
    fx.search('"similar bug" in:body,comments', [
        search_item("streamfork", "jetcache", 41, "Evictions stall under load"),
        search_item("mosaicdb", "mosaicdb", 17, "Compaction loop on tiny segments"),
        search_item("pdfbridge", "pdfbridge", 8, "Glyph table truncated"),
    ])
    fx.search('"similar problem" in:body,comments', [
        search_item("qubit-ml", "qubit-ml", 230, "Gradient underflow on half precision"),
        search_item("streamfork", "jetcache", 41, "Evictions stall under load"),
    ])
    fx.issue("streamfork", "jetcache", 41, title="Evictions stall under load",
             body="Looks like a similar bug to the pool starvation fixed in "
                  "https://github.com/poolcore/poolcore/issues/252, same idle "
                  "sweep pattern.")
    fx.issue("mosaicdb", "mosaicdb", 17, title="Compaction loop on tiny segments",
             body="A similar bug was reported earlier in "
                  "https://github.com/mosaicdb/mosaicdb/issues/9 but never "
                  "diagnosed.")
    fx.issue("pdfbridge", "pdfbridge", 8, title="Glyph table truncated",
             body="We keep hitting a similar bug whenever subsetting kicks in, "
                  "still collecting traces.")
    fx.issue("qubit-ml", "qubit-ml", 230, title="Gradient underflow on half precision",
             body="Training collapses after epoch 3; a similar problem is "
                  "described in https://github.com/tensorforge/tensorforge/issues/88.")


def golden_miner():
    out = run_cli(["mine", "--fixture-dir", str(MINER)])
    expected = (
        "streamfork/jetcache#41 poolcore/poolcore#252\n"
        "qubit-ml/qubit-ml#230 tensorforge/tensorforge#88\n"
    )
    assert out == expected, out
    for line in out.splitlines():
        d, n = (IssueRef.parse(part) for part in line.split())
        assert (d.owner, d.repo) != (n.owner, n.repo), line
    (GOLDEN / "miner_pairs.txt").write_text(out)
    print(f"  {len(out.splitlines())} mined pairs, no same-project links")


def build_eval():
    fresh(EVAL)

    def cand(ref, **factors):
        return LabeledCandidate(ref=IssueRef.parse(ref), factors=FactorVector.from_dict(factors))

    quality = {"issue_length": 0.12, "num_comment": 0.1}
    entries = [
        # reranking promotes the platform's rank 4 to the top
        EvalEntry(
            driver=IssueRef.parse("lightbend/config#398"),
            candidates=[
                cand("hazelketl/hazelketl#512", has_fix=1.0, **quality),
                cand("orc-metrics/orc-metrics#88", has_fix=1.0, **quality),
                cand("finchdb/finchdb#1401", **quality),
                cand("geotools/geotools#2156", code=0.62, has_fix=1.0, **quality),
                cand("jberyl/jberyl#233", **quality),
            ],
            relevant=frozenset({IssueRef.parse("geotools/geotools#2156")}),
        ),
        # reranking demotes a relevant top hit behind a code lookalike
        EvalEntry(
            driver=IssueRef.parse("lumen-http/lumen-http#12"),
            candidates=[
                cand("corsair-net/corsair-net#3"),
                cand("ferrite-io/ferrite-io#210", code=0.9),
                cand("ampere-web/ampere-web#55"),
                cand("ion-gate/ion-gate#7"),
            ],
            relevant=frozenset({IssueRef.parse("corsair-net/corsair-net#3")}),
        ),
        # nothing relevant in the result list at all
        EvalEntry(
            driver=IssueRef.parse("casks/brew-metrics#3"),
            candidates=[
                cand("opaline/opaline#19"),
                cand("rustle-pk/rustle-pk#2"),
                cand("thornbird/thornbird#404", issue_length=0.3),
            ],
            relevant=frozenset(),
        ),
        # the search came back empty: precision defaults to 1 by convention
        EvalEntry(
            driver=IssueRef.parse("nullco/empty#1"),
            candidates=[],
            relevant=frozenset(),
        ),
    ]
    save_dataset(EvalDataset(entries), EVAL / "dataset.jsonl")


def golden_eval():
    out = run_cli(["evaluate", str(EVAL / "dataset.jsonl")])
    report = json.loads(out)
    assert report["per_system"]["raw_search"]["mrr"] == 0.3125, report
    assert report["per_system"]["reranked"]["mrr"] == 0.375, report
    (GOLDEN / "eval_report.json").write_text(out)
    print("  eval MRR: raw 0.3125 -> reranked 0.375")


def main():
    fresh(GOLDEN)
    print("walkthrough corpus")
    build_walkthrough()
    golden_walkthrough()
    print("miner corpus")
    build_miner()
    golden_miner()
    print("eval dataset")
    build_eval()
    golden_eval()
    print("done")


if __name__ == "__main__":
    main()
