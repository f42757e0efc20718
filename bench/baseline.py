"""Rebuild the ROADMAP Baseline table from traced queries.

    python3 bench/baseline.py [--seed 1]

Runs one query of each needed kind under bench/tracer.py (about 1.5 minutes
on two cores), checks its output, and prints the table in Markdown with
times taken from the spans around each layer function.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys

import check
import layers
import run
import workloads


def traced(workload: str, kind: str, seed: int, work) -> tuple[dict, object]:
    """Per-layer metrics of one traced query of `kind`, and its directory."""
    q = workloads.make_query(workload, kind, random.Random(f"{workload}/{seed}"))
    qdir = work / f"{workload}-{kind}"
    o = run.run_query(q, qdir, run.child_env(), workloads.TIME_LIMITS[workload], traced=True)
    run.check_outcome(q, o, qdir)
    if o.error:
        raise SystemExit(f"{workload} {kind}: {o.error} (last stderr: {o.last_stderr!r})")
    spans = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(qdir.glob("spans*.json"))]
    return layers.reduce([spans]), qdir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with run.work_dir("baseline") as work:
        n4_refute, _ = traced("decide-n4", "imply-", args.seed, work)
        n4_cert, _ = traced("decide-n4", "imply+", args.seed, work)
        n4_member, _ = traced("decide-n4", "member+", args.seed, work)
        body, body_dir = traced("construct-n4", "imply-body", args.seed, work)
        body_kb = (body_dir / "body.json").stat().st_size / 1024
        body_bits = check.body_max_bits(body_dir / "body.json")
        n5_refute, _ = traced("cone-n5", "imply-", args.seed, work)
        n5_member, _ = traced("cone-n5", "member+", args.seed, work)

    def shape(m):
        return f"{m['simplex.lp_rows_max']} rows x {m['simplex.lp_cols_max']} cols"

    rows = [
        ("`build_bt_system(4)`", n4_refute["cone.build_s"],
         f"{n4_refute['covers.covers_enumerated']:.0f} covers enumerated ({n4_refute['covers.enumerate_s']:.2f} s), "
         f"then `decompose` ({n4_refute['covers.decompose_s']:.2f} s), giving {n4_refute['cone.generators']} generators"),
        ("`build_bt_system(5, k_max=3)`", n5_refute["cone.build_s"],
         f"{n5_refute['covers.covers_enumerated']:.0f} covers enumerated ({n5_refute['covers.enumerate_s']:.2f} s), "
         f"`decompose` {n5_refute['covers.decompose_s']:.2f} s, {n5_refute['cone.generators']} generators"),
        ("`check_implication`, n=4, certificate", n4_cert["farkas.check_s"], shape(n4_cert)),
        ("`check_implication`, n=4, refutation", n4_refute["farkas.check_s"], shape(n4_refute)),
        ("`check_implication`, n=5, k<=3, refutation", n5_refute["farkas.check_s"], shape(n5_refute)),
        ("`violating_body` for the n=4 guess", body["farkas.violating_body_s"],
         f"{body['simplex.lp_calls']:.0f} LPs in the query ({body['simplex.lp_s']:.2f} s), {body['realize.lambdas_tried']:.0f} "
         f"lambdas tried, {body['realize.box_system_calls']:.0f} box systems; output {body_kb:.1f} KB of body "
         f"JSON, endpoints up to {body_bits} bits"),
        ("`membership`, n=4 / n=5", n4_member["cone.membership_s"],
         f"{1000 * n4_member['cone.membership_s']:.1f} ms / {1000 * n5_member['cone.membership_s']:.1f} ms"),
    ]
    print(f"Traced, seed {args.seed}: Python {platform.python_version()}, {os.cpu_count()} CPUs, "
          f"{platform.machine()}; single runs, tracing on.\n")
    print("| What | Time | Notes |")
    print("|---|---|---|")
    for what, seconds, notes in rows:
        print(f"| {what} | {seconds:.3f} s | {notes} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
