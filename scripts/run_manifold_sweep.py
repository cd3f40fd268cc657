#!/usr/bin/env python3
"""Quantisation-field sweep of the manifold-selection cost: median/min/max of
the ten lowest costs and gate times per field point (thin wrapper over the
`ionvq manifold --field-sweep` subcommand)."""

import argparse
import sys

from ionvq.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sweep", default="1:70:36", help="lo:hi:steps in gauss")
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--top-k", type=int, default=10)
    ap.add_argument("--out", default="manifold_sweep.csv")
    args = ap.parse_args()
    rc = cli_main([
        "manifold", "--field-sweep", args.sweep, "--n", str(args.n),
        "--top-k", str(args.top_k), "--out", args.out,
    ])
    if rc == 0:
        print(f"wrote {args.out}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
