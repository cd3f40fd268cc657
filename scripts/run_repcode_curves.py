#!/usr/bin/env python3
"""Logical vs physical error curves for the repetition-code memory experiment
at matched ion counts: for each chain length L, the single-qubit encoding
runs distance L-2 while the paired encoding runs distance 2(L-2)+1 (thin
wrapper over `ionvq repcode --L`, one call per L and encoding, with the CSVs
concatenated under one header)."""

import argparse
import contextlib
import io
import sys

from ionvq.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lengths", default="5,9", help="comma list of matched L")
    ap.add_argument("--p-lo", type=float, default=1e-3)
    ap.add_argument("--p-hi", type=float, default=1e-1)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--shots", type=int, default=10**5)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    header, rows = None, []
    for L in args.lengths.split(","):
        for n in ("1", "2"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli_main([
                    "repcode", "--L", L.strip(), "--n", n,
                    "--p-grid", f"{args.p_lo}:{args.p_hi}:{args.points}",
                    "--shots", str(args.shots), "--seed", str(args.seed),
                ])
            if rc != 0:
                return rc
            header, *body = buf.getvalue().splitlines(keepends=True)
            rows.extend(body)
    text = header + "".join(rows)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
