"""Time one workload's set-up in a fresh interpreter; print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD [--random3-seeds 100,101]
                                              [--track-file PATH]

Set-up is importing raceplan, then building or parsing the tracks, building
the gate sequences and initializing, up to the first objective evaluation.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--random3-seeds", default="")
    parser.add_argument("--track-file")
    args = parser.parse_args()
    import workloads

    seeds = [int(s) for s in args.random3_seeds.split(",") if s]
    workloads.setup(args.workload, random3_seeds=seeds, track_file=args.track_file)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
