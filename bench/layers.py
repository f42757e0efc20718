"""Reduce traced spans to the per-layer metrics.

Input: one span file per traced process (written by tracer.py), grouped by
query.  Counts and seconds are per traced query (totals over the run divided
by the number of traced queries), so they do not grow with the number of
queries a run happens to finish; *_max metrics are maxima, *_ratio, *_frac
and *_share metrics are ratios of run totals.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

from collections import defaultdict

#: per-layer metric name -> unit, in the order they are reported
UNITS = {
    "covers.enumerate_calls": "count",
    "covers.enumerate_s": "s",
    "covers.covers_enumerated": "count",
    "covers.decompose_calls": "count",
    "covers.decompose_s": "s",
    "covers.irreducible_calls": "count",
    "covers.irreducible_ratio": "ratio",
    "cone.build_calls": "count",
    "cone.build_s": "s",
    "cone.build_self_s": "s",
    "cone.build_share": "ratio",
    "cone.generators": "count",
    "cone.membership_calls": "count",
    "cone.membership_s": "s",
    "simplex.lp_calls": "count",
    "simplex.lp_s": "s",
    "simplex.lp_share": "ratio",
    "simplex.lp_rows_max": "count",
    "simplex.lp_cols_max": "count",
    "simplex.infeasible_frac": "ratio",
    "simplex.max_bits": "bits",
    "farkas.check_calls": "count",
    "farkas.check_s": "s",
    "farkas.check_self_s": "s",
    "farkas.certificates": "count",
    "farkas.witnesses": "count",
    "farkas.violating_body_s": "s",
    "realize.find_lambda_s": "s",
    "realize.lambdas_tried": "count",
    "realize.infeasible_attempts": "count",
    "realize.attempt_ratio": "ratio",
    "realize.box_system_calls": "count",
    "realize.box_system_self_s": "s",
    "boxgeom.projection_calls": "count",
    "boxgeom.projection_s": "s",
    "boxgeom.disjoint_offset_s": "s",
    "boxgeom.body_io_s": "s",
    "core.log_exp_calls": "count",
    "core.log_exp_s": "s",
    "core.io_s": "s",
    "witness.analyze_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def reduce(queries: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of the traced queries; each query is a list of span files."""
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(float)
    maxima: dict[str, int] = defaultdict(int)
    import_s = 0.0
    for files in queries:
        for doc in files:
            import_s += doc["import_s"]
            spans = doc["spans"]
            child = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child[parent] += end - start
            for (name, start, end, parent, attrs), inner in zip(spans, child):
                count[name] += 1
                total[name] += end - start
                self_s[name] += end - start - inner
                attrs = attrs or {}
                if "raised" in attrs:
                    sums[name + ".raised"] += 1
                    sums[name + ".raised." + attrs["raised"]] += 1
                if name == "covers.enumerate_covers":
                    sums["covers"] += attrs["covers"]
                elif name == "covers.decompose":
                    sums["kept"] += attrs["kept"]
                elif name == "cone.build_bt_system":
                    maxima["generators"] = max(maxima["generators"], attrs.get("generators", 0))
                elif name == "farkas.check_implication" and "result" in attrs:
                    sums[attrs["result"]] += 1
                elif name == "simplex.solve_equality_lp" and "rows" in attrs:
                    maxima["rows"] = max(maxima["rows"], attrs["rows"])
                    maxima["cols"] = max(maxima["cols"], attrs["cols"])
                    maxima["bits"] = max(maxima["bits"], attrs["bits"])
                    sums["infeasible"] += attrs["status"] == "infeasible"
    q = max(len(queries), 1)
    attempts = count["realize.realize_vector"]
    main_s = total["cli.main"]
    return {
        "covers.enumerate_calls": count["covers.enumerate_covers"] / q,
        "covers.enumerate_s": total["covers.enumerate_covers"] / q,
        "covers.covers_enumerated": sums["covers"] / q,
        "covers.decompose_calls": count["covers.decompose"] / q,
        "covers.decompose_s": total["covers.decompose"] / q,
        "covers.irreducible_calls": count["covers.irreducible_covers"] / q,
        "covers.irreducible_ratio": _ratio(sums["kept"], sums["covers"]),
        "cone.build_calls": count["cone.build_bt_system"] / q,
        "cone.build_s": total["cone.build_bt_system"] / q,
        "cone.build_self_s": self_s["cone.build_bt_system"] / q,
        "cone.build_share": _ratio(total["cone.build_bt_system"], main_s),
        "cone.generators": maxima["generators"],
        "cone.membership_calls": count["cone.membership"] / q,
        "cone.membership_s": total["cone.membership"] / q,
        "simplex.lp_calls": count["simplex.solve_equality_lp"] / q,
        "simplex.lp_s": total["simplex.solve_equality_lp"] / q,
        "simplex.lp_share": _ratio(total["simplex.solve_equality_lp"], main_s),
        "simplex.lp_rows_max": maxima["rows"],
        "simplex.lp_cols_max": maxima["cols"],
        "simplex.infeasible_frac": _ratio(sums["infeasible"], count["simplex.solve_equality_lp"]),
        "simplex.max_bits": maxima["bits"],
        "farkas.check_calls": count["farkas.check_implication"] / q,
        "farkas.check_s": total["farkas.check_implication"] / q,
        "farkas.check_self_s": self_s["farkas.check_implication"] / q,
        "farkas.certificates": sums["FarkasCertificate"] / q,
        "farkas.witnesses": sums["SeparatingWitness"] / q,
        "farkas.violating_body_s": total["farkas.violating_body"] / q,
        "realize.find_lambda_s": total["realize.find_lambda"] / q,
        "realize.lambdas_tried": attempts / q,
        "realize.infeasible_attempts": sums["realize.realize_vector.raised.BoxSystemInfeasible"] / q,
        "realize.attempt_ratio": _ratio(attempts - sums["realize.realize_vector.raised"], attempts),
        "realize.box_system_calls": count["realize.solve_box_system"] / q,
        "realize.box_system_self_s": self_s["realize.solve_box_system"] / q,
        "boxgeom.projection_calls": count["boxgeom.projection_volume"] / q,
        "boxgeom.projection_s": total["boxgeom.projection_volume"] / q,
        "boxgeom.disjoint_offset_s": total["boxgeom.disjoint_offset"] / q,
        "boxgeom.body_io_s": (total["boxgeom.read_body"] + total["boxgeom.write_body"]) / q,
        "core.log_exp_calls": (count["core.log_fraction"] + count["core.exp_fraction"]) / q,
        "core.log_exp_s": (total["core.log_fraction"] + total["core.exp_fraction"]) / q,
        "core.io_s": (total["core.read_vector"] + total["core.write_vector"] + total["farkas.read_inequality"]) / q,
        "witness.analyze_s": total["witness.analyze_witness"] / q,
        "cli.import_s": import_s / q,
        "cli.main_s": main_s / q,
        "cli.self_s": self_s["cli.main"] / q,
    }
