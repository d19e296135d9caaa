#!/usr/bin/env python3
"""Maximality evidence for the one-parameter four-basis families in H^3.

Runs the family/stabilizer grid sweep for a fifth basis and the direct
descent search.  Both finding nothing is evidence at the chosen grid
resolution only, not a proof.

Usage: python scripts/h3_maximality.py [--grid N] [--conj-grid M]
       [--restarts R] [--seed S] [--s S --t T]
"""

import argparse
import math
import time
from types import SimpleNamespace

from qstoch.mub import direct_maximality_search, extend_search, one_param_h3


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument("--conj-grid", type=int, default=32)
    parser.add_argument("--restarts", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--s", type=float, default=math.sqrt(3) / 2)
    parser.add_argument("--t", type=float, default=0.0)
    args = parser.parse_args()

    mubset = one_param_h3(args.s, args.t)
    state = SimpleNamespace(checked=0, near_misses=0)
    start = time.time()
    found = extend_search(mubset, args.grid, args.conj_grid, state=state)
    mid = time.time()
    print(f"grid sweep: candidates={state.checked:,} near_misses="
          f"{state.near_misses} found={found is not None} "
          f"({mid - start:.1f}s)")
    viol, _ = direct_maximality_search(mubset, args.restarts, args.seed)
    print(f"direct search: best violation {viol:.3e} over {args.restarts} "
          f"restarts ({time.time() - mid:.1f}s)")
    if found is None and viol >= 1e-3:
        print(f"no extension at grid={args.grid} conj_grid={args.conj_grid}; "
              "evidence of maximality at this resolution")
    else:
        print("extension candidate found or violation small; inspect further")


if __name__ == "__main__":
    main()
