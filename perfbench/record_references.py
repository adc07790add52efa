#!/usr/bin/env python3
"""Record each workload's reference outputs for a range of seeds.

    python3 perfbench/record_references.py --workload loto_proposed_qda --seeds 0-99

Runs one repetition per seed, requires it to pass the invariant checks
(no failed fold, macro F1 above the floor, online labels equal to the
batched call) and merges its summary into perfbench/references/<workload>.json,
which run.py compares every repetition against.  Record only at a commit
whose outputs are trusted.
"""

import argparse
import json
import sys

from run import HERE, import_program
from speed import Meter


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    first, last = (int(v) for v in args.seeds.split("-"))
    path = HERE / "references" / f"{wl.name}.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    path.parent.mkdir(exist_ok=True)
    for seed in range(first, last + 1):
        state = wl.setup(seed)
        rep = wl.rep(state, Meter(enabled=False))
        _, failed, notes = wl.check(state, rep, None)
        if failed:
            sys.exit(f"{wl.name} seed {seed}: {notes}")
        refs[str(seed)] = wl.summary(state, rep)
        path.write_text(json.dumps(dict(sorted(refs.items(), key=lambda kv: int(kv[0]))),
                                   separators=(",", ":")) + "\n")
        print(f"{wl.name} seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
