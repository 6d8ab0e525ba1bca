#!/usr/bin/env python3
"""Encoded certificate sizes from bench_auth.

Reads BENCH_auth.json (the --json artifact of `bench_auth`) and prints a
GitHub-flavored markdown table with, per authenticator scheme and cluster
size n, the bytes a QC, a VC and a BatchCert occupy on the wire, each
beside the O(kappa) size the byte accounting charges for it. The sizes
are exact (they do not depend on the host). Informational only: it
asserts nothing. CI appends the output to $GITHUB_STEP_SUMMARY; locally it
just prints.

Usage: tools/cert_wire_report.py [BENCH_auth.json]
"""

import json
import sys


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_auth.json"
    with open(path) as f:
        report = json.load(f)
    if report.get("bench") != "auth":
        sys.exit(f"{path}: not a bench_auth artifact")
    rows = [row for row in report.get("rows", []) if row.get("section") == "cert-wire"]
    if not rows:
        sys.exit(f"no cert-wire rows found in {path}")

    print("### Certificate wire bytes")
    print()
    print("Encoded bytes per certificate (varint n, n-bit signer bitmap, scheme tag;")
    print("no statement digest), with the modeled O(kappa) size in brackets.")
    print()
    print("| scheme | n | QC | VC | BatchCert |")
    print("|---|---:|---:|---:|---:|")
    for row in rows:
        print(
            f"| {row['scheme']} | {row['n']} "
            f"| {row['qc_bytes']} [{row['qc_model_bytes']}] "
            f"| {row['vc_bytes']} [{row['vc_model_bytes']}] "
            f"| {row['batch_cert_bytes']} [{row['batch_cert_model_bytes']}] |"
        )


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
