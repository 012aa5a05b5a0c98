"""One benchmark set-up, timed from outside by run.py: import numpy and
gompkit, warm up BLAS and build the workload's inputs, then exit.

    python3 bench/setup_probe.py --workload ric-oracle --seed 1 --scale full
"""

import argparse

import workloads

if __name__ == "__main__":
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    args = p.parse_args()
    workloads.warm_blas()
    workloads.WORKLOADS[args.workload](args.seed, workloads.SCALES[args.scale])
