#!/usr/bin/env python3
"""Write bench/reference.json: the SHA-256 of every outcome that does not depend on the seed.

    python3 bench/make_reference.py

Run it only when a change is meant to alter findings, and say so in the
change.  It refuses to write when any reference check fails.
"""

from __future__ import annotations

import json
import sys

from run import HERE, SRC, WORKDIR, evaluate, fresh_import, run_ops, sha256
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))

    reference, bad = {}, []
    for workload in WORKLOADS.values():
        workdir = WORKDIR / workload.name
        workdir.mkdir(parents=True, exist_ok=True)
        lib = fresh_import()
        state, ops = workload.setup(lib, workdir, seed=0)
        outcome, ok = workload.setup_check(state)
        hashes = {"setup": sha256(outcome)}
        bad += [] if ok else [f"{workload.name}:setup"]
        for i, result, error, _, _ in run_ops(ops):
            op = ops[i]
            outcome, ok = evaluate(op, result, error, lib.errors)
            bad += [] if ok else [f"{workload.name}:{op.key}"]
            if not op.seeded:
                hashes[op.key] = sha256(outcome)
        reference[workload.name] = dict(sorted(hashes.items()))
    if bad:
        print(f"reference checks failed, nothing written: {bad}", file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
