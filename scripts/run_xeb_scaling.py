#!/usr/bin/env python3
"""Gates needed for the cross-entropy statistic to reach its threshold, as a
function of total qubit count and of how many virtual qubits each ion holds.

Writes one CSV row per (N, n, policy) with the ensemble mean and standard
error, plus the N log2 N fit coefficient per curve on stderr (thin wrapper
over `ionvq xeb --format json`, one call per point).
"""

import argparse
import contextlib
import csv
import io
import json
import sys

from ionvq.cli import main as cli_main
from ionvq.sampling import ALL_TO_ALL, nlogn_fit


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qubits", default="8,12,16", help="comma list of N")
    ap.add_argument("--encodings", default="1,2,3", help="comma list of n")
    ap.add_argument("--policies", default=ALL_TO_ALL, help="comma list of connectivity modes")
    ap.add_argument("--statistic", choices=["xeb", "moment"], default="xeb")
    ap.add_argument("--threshold", type=float, default=None)
    ap.add_argument("--circuits", type=int, default=20)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    qubits = [int(v) for v in args.qubits.split(",")]
    encodings = [int(v) for v in args.encodings.split(",")]
    extra = [] if args.threshold is None else ["--threshold", str(args.threshold)]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["N", "n", "policy", "mean_gates", "stderr", "circuits", "threshold", "seed"])
    curves = {}
    for policy_name in args.policies.split(","):
        for n in encodings:
            xs, ys = [], []
            for N in qubits:
                if N % n or (N // n) % 2:
                    continue
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli_main([
                        "xeb", "--qubits", str(N), "--n", str(n), "--policy", policy_name,
                        "--statistic", args.statistic, "--circuits", str(args.circuits),
                        "--seed", str(args.seed), "--format", "json", *extra,
                    ])
                if rc != 0:
                    return rc
                res = json.loads(out.getvalue())
                w.writerow([N, n, policy_name, f"{res['mean_gates']:.2f}",
                            f"{res['stderr']:.2f}", args.circuits, res["threshold"], args.seed])
                xs.append(N)
                ys.append(res["mean_gates"])
            if len(xs) >= 2:
                curves[(policy_name, n)] = nlogn_fit(xs, ys)
    if args.out == "-":
        sys.stdout.write(buf.getvalue())
    else:
        with open(args.out, "w") as fh:
            fh.write(buf.getvalue())
    for (policy_name, n), c in curves.items():
        print(f"# {policy_name} n={n}: mean gates ~ {c:.2f} * N log2 N", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
