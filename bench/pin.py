"""Write bench/pins.json: the verdict digest of each workload's first round
for a range of seeds plus the held-out seed.

    python3 bench/pin.py [--seeds FIRST-LAST]

Run from the repository root.  Refuses to pin a seed whose first round has
a failing check, so a pin always records passing verdicts.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    ap = argparse.ArgumentParser(prog="bench/pin.py")
    ap.add_argument("--seeds", default="0-49",
                    help="inclusive seed range FIRST-LAST (default 0-49)")
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1)) + [run.HELD_OUT_SEED]

    pins = {}
    for name, workload in sorted(run.load_library().WORKLOADS.items()):
        pins[name] = {}
        for seed in seeds:
            tally = run.Tally()
            for inst in workload.rounds(seed, 1)[0]:
                tally.check(inst, True)
            if tally.failed:
                print("%s seed %d: %d checks failed, not pinned"
                      % (name, seed, tally.failed), file=sys.stderr)
                return 1
            pins[name][str(seed)] = tally.digest()
            print(name, seed, pins[name][str(seed)], flush=True)
    with open(run.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
