#!/usr/bin/env python3
"""Record the digests that run.py checks outputs against.

    python3 bench/record_expected.py

For each workload and each of the seeds 0-15 it generates the corpus,
runs one op with one worker (the output does not depend on
parallelism, and one worker cannot race on the snapshot cache) and
writes the corpus and output sha256 into bench/expected.json. Run it
only at a commit whose outputs are known good: every later run with a
recorded seed must reproduce them byte for byte.
"""

import hashlib
import json
import shutil
import sys

import run

SEEDS = 16


def main() -> int:
    problem = run.import_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import gen

    work = run.ROOT / ".bench_work" / "record"
    try:
        expected = _record(work, gen)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if expected is None:
        return 1
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


def _record(work, gen):
    expected = {}
    for name, cls in run.WORKLOADS.items():
        expected[name] = {}
        for seed in range(SEEDS):
            shutil.rmtree(work, ignore_errors=True)
            corpus = gen.GENERATORS[name](seed, work / "corpus")
            workload = cls(name, corpus, work, 1)
            state = workload.setup()
            output = workload.op(state, None)
            workload.teardown(state)
            problem = workload.check(output)
            if problem:
                print(f"error: {name} seed {seed}: {problem}", file=sys.stderr)
                return None
            expected[name][str(seed)] = {
                "corpus_sha256": gen.corpus_sha256(work / "corpus"),
                "output_sha256": hashlib.sha256(output.encode("utf-8")).hexdigest(),
            }
            print(name, seed, expected[name][str(seed)]["output_sha256"])
    return expected


if __name__ == "__main__":
    sys.exit(main())
