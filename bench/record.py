"""Store reference outputs for the default and the held-out seed.

Usage: python3 bench/record.py [--workload NAME ...]

Runs one untraced pass per seed and workload and writes
bench/references/<workload>.json.  Outputs that do not depend on the
seed are stored once, under "any".  Refuses to store a pass that fails
its own checks.
"""

import argparse
import json
import sys

import checkout


def dump(refs: dict) -> str:
    """JSON with one line per stored operation output."""
    blocks = []
    for key in sorted(refs):
        ops = ",\n".join(f" {json.dumps(label)}: {json.dumps(doc)}"
                         for label, doc in sorted(refs[key].items()))
        blocks.append(f"{json.dumps(key)}: {{\n{ops}\n}}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    checkout.prepare()
    import harness

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", nargs="*", default=sorted(harness.WORKLOADS))
    args = parser.parse_args()
    for name in args.workload:
        refs = {}
        for seed in (harness.DEFAULT_SEED, harness.HELD_OUT_SEED):
            result = harness.run(name, seed, seconds=0, trace=False, references={})
            if not result.correct:
                print("\n".join(result.problems), file=sys.stderr)
                return 1
            for op in result.ops:
                key = str(seed) if op.seeded else "any"
                refs.setdefault(key, {})[op.label] = harness.reference_view(result.outputs[op.label])
        path = harness.REFERENCES / f"{name}.json"
        path.write_text(dump(refs))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
