"""Write perfbench/reference.json: the stdout digest of every CLI invocation
that any variant of any workload checks.

    python3 perfbench/make_reference.py

Run it from the root of a checkout of the commit whose output is the
reference (the digests in the repository come from the source tree the
benchmark was introduced on, whose output every later version must
reproduce byte for byte).  It only adds digests: when the output of an
invocation that already has one differs, it writes nothing and fails.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
WORKERS = 2  # output does not depend on it; the runs check it with 1 worker


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    old = json.loads(REFERENCE.read_text())["digests"] if REFERENCE.is_file() else {}
    argvs = {}
    for workload in workloads.WORKLOADS.values():
        for variant in range(workloads.VARIANTS):
            for op in workload.build(variant, random.Random(0)):
                for ref_argv in op.reference_argvs:
                    argvs.setdefault(workloads.cli_key(ref_argv), list(ref_argv))
    digests, changed = {}, []
    for n, (key, ref_argv) in enumerate(sorted(argvs.items()), start=1):
        rc, out, err = workloads.invoke(ref_argv + ["--workers", str(WORKERS)])
        if rc != 0:
            print(f"error: {key}: exit {rc}: {err.strip()}", file=sys.stderr)
            return 1
        digests[key] = workloads.digest(out)
        if key in old and old[key] != digests[key]:
            changed.append(key)
        print(f"[{n}/{len(argvs)}] {key}", file=sys.stderr)
    if changed:
        for key in changed:
            print(f"error: output changed for {key}", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
