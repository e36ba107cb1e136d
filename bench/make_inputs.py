"""Write one workload's inputs; the benchmark times this script as its set-up.

Usage: python3 bench/make_inputs.py WORKLOAD SEED DIRECTORY [--tiny]
"""

import argparse
from pathlib import Path

import checkout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("directory", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    checkout.prepare()
    from workloads import WORKLOADS

    WORKLOADS[args.workload].make_inputs(args.seed, args.directory, args.tiny)


if __name__ == "__main__":
    main()
