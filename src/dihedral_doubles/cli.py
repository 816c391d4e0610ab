"""Command-line surface: construct, compute, and verify from a shell.

Five subcommands cover the package: ``weights`` lists the catalog,
``tensor`` decomposes a product of two weights, ``simple`` prints the
graded character of one simple module, ``verify`` replays the verification
sweeps with a nonzero exit on any mismatch, and ``spherical`` reports the
pivot structure of an index set.  Output is either aligned text or JSON
with a fixed, diff-stable ordering.

Exit codes: 0 success, 1 verification mismatch or failed internal check
(an ``AssertionError``, or an ``ArithmeticError`` such as a zero division),
2 usage or parse error.  ``simple`` exits 1 when the relations or the
degree-zero congruence fail on the standard module, and in table mode
names the failed checks under the table.  ``verify`` reports a case whose
internal check fails as that case's error and still reports every other
case; in table mode a mismatched case names the checks it failed, and
outside the proven regime (``--unsafe-m`` with m < 12 or 4 not dividing m)
it is reported as such rather than as a mismatch, on its own line and in
the summary line.  A ``--weights`` label outside the catalog is a usage
error, reported before any case runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .dihedral import DihedralContext, get_context, in_proven_regime
from .nichols import IndexSet, parse_index_set, valid_pairs
from .qdouble import build_verma, check_relations, graded_character, head, socle, theta_congruence
from .theorems import (
    RIGID,
    classify_weight,
    is_spherical,
    spherical_report,
    verify_rigid_tensor,
    verify_simple,
)
from .weights import (
    build_weight,
    class_key,
    decomposition_counts,
    parse_weight_label,
    parse_weight_list,
    summand_text,
    tensor_dd,
    weight_catalog,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _character_lines(char) -> list[str]:
    return [f"[{z:>3}]  {summand_text(entries)}" for z, entries in char.layers]


def _failed_checks(report: dict) -> list[str]:
    """Names of the checks a case's JSON report failed; a recursion check names its pair."""
    names = []
    for name, value in report.get("checks", {}).items():
        if name == "recursion":
            names += [f"recursion ({rec['pair'][0]},{rec['pair'][1]})" for rec in value if not rec["ok"]]
        elif value is False:
            names.append(name)
    return names


def _case_status(ok: bool, report: dict) -> str:
    if "error" in report:
        return f"ERROR: {report['error']}"
    if ok:
        return "ok"
    status = "OUTSIDE REGIME" if report.get("regime") == "unproven" else "MISMATCH"
    failed = _failed_checks(report)
    return f"{status}: " + ", ".join(failed) if failed else status


def _context_from(args) -> DihedralContext:
    return get_context(args.m, unsafe=args.unsafe_m)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_weights(args) -> int:
    ctx = _context_from(args)
    catalog = weight_catalog(ctx)
    n = ctx.n
    rows = [
        {"label": str(label), "dimension": label.dimension(n), "class": class_key(ctx, label)}
        for label in catalog.labels
    ]
    total_sq = sum(row["dimension"] ** 2 for row in rows)
    if args.output == "json":
        _print_json(
            {"m": ctx.m, "count": len(rows), "total_dim_sq": total_sq, "weights": rows}
        )
    else:
        width = max(len(row["label"]) for row in rows)
        for row in rows:
            print(f"{row['label']:<{width}}  dim {row['dimension']:>2}  class {row['class']}")
        print(f"{len(rows)} weights, sum of squared dimensions {total_sq}")
    return EXIT_OK


def cmd_tensor(args) -> int:
    ctx = _context_from(args)
    left = parse_weight_label(args.left)
    right = parse_weight_label(args.right)
    product = tensor_dd(build_weight(ctx, left), build_weight(ctx, right))
    counts = decomposition_counts(ctx, product)
    if args.output == "json":
        _print_json(
            {
                "m": ctx.m,
                "left": str(left),
                "right": str(right),
                "dimension": product.dim,
                "summands": [{"label": str(lab), "mult": mult} for lab, mult in counts],
            }
        )
    else:
        print(f"{left} x {right} = {summand_text(counts)}")
    return EXIT_OK


def _named_index_set(ctx: DihedralContext, text: str) -> IndexSet:
    """The index set ``--index`` names; one with no pair is a usage error."""
    index_set = parse_index_set(ctx, text)
    if not index_set.pairs:
        raise ValueError(f"--index names no pair: {text!r}")
    return index_set


def cmd_simple(args) -> int:
    ctx = _context_from(args)
    index_set = _named_index_set(ctx, args.index)
    label = parse_weight_label(args.weight)
    verma = build_verma(ctx, index_set, label)
    relations_ok = not check_relations(verma)
    theta_ok = not theta_congruence(verma)
    simple = head(verma)
    soc = socle(verma)
    head_char = graded_character(simple)
    socle_char = graded_character(soc)
    obj = {
        "m": ctx.m,
        "index_set": [list(pair) for pair in index_set.pairs],
        "weight": str(label),
        "dimension": simple.dim,
        "graded_character": head_char.to_json_obj(),
        "socle": socle_char.to_json_obj(),
        "checks": {"relations": relations_ok, "theta": theta_ok},
    }
    if args.full:
        verma_char = graded_character(verma)
        obj["verma_dimension"] = verma.dim
        obj["verma_character"] = verma_char.to_json_obj()
    failed = _failed_checks(obj)
    if args.output == "json":
        _print_json(obj)
    else:
        print(f"simple module of {label} over {index_set} at m={ctx.m}: dimension {simple.dim}")
        for line in _character_lines(head_char):
            print("  " + line)
        print("socle:")
        for line in _character_lines(socle_char):
            print("  " + line)
        if args.full:
            print(f"standard module: dimension {verma.dim}")
            for line in _character_lines(verma_char):
                print("  " + line)
        if failed:
            print("MISMATCH: " + ", ".join(failed))
    return EXIT_MISMATCH if failed else EXIT_OK


def _verify_weight_task(payload: tuple[int, bool, str, str]) -> tuple[str, bool, dict]:
    """Verify one weight; a failed internal check is reported as the case's ``error``.

    Internal checks raise ``AssertionError``, or ``ArithmeticError`` where
    the arithmetic itself breaks down (a zero division, a norm that is not
    a nonzero rational, a volume twist that is not one weight).  A failing
    case outside the proven regime is marked ``"regime": "unproven"``.
    """
    m, unsafe, index_text, weight_text = payload
    ctx = get_context(m, unsafe=unsafe)
    index_set = parse_index_set(ctx, index_text)
    label = parse_weight_label(weight_text)
    try:
        report = verify_simple(ctx, index_set, label)
    except (AssertionError, ArithmeticError) as exc:
        ok = False
        obj = {
            "m": m,
            "index_set": [list(pair) for pair in index_set.pairs],
            "weight": weight_text,
            "ok": False,
            "error": str(exc) or type(exc).__name__,
        }
    else:
        ok, obj = report.ok, report.to_json_obj()
    if not ok and not in_proven_regime(m):
        obj["regime"] = "unproven"
    return weight_text, ok, obj


def cmd_verify(args) -> int:
    if args.threads < 0:
        raise ValueError(f"--threads must be 0 (all cores) or positive, got {args.threads}")
    ctx = _context_from(args)
    index_set = _named_index_set(ctx, args.index)
    catalog = weight_catalog(ctx)
    if args.weights == "all":
        labels = list(catalog.labels)
    else:
        labels = parse_weight_list(args.weights)
        if not labels:
            raise ValueError(f"--weights names no weight: {args.weights!r}")
        unknown = [str(label) for label in labels if label not in catalog]
        if unknown:
            raise ValueError(f"--weights names weights not in the catalog for m={ctx.m}: {', '.join(unknown)}")
    failures: list[str] = []
    results: list[dict] = []
    tensor_failures: list[dict] = []

    payloads = [(ctx.m, args.unsafe_m, args.index, str(label)) for label in labels]
    # the pool starts every worker up front, so never ask for more than there are cases
    workers = min(args.threads or os.cpu_count() or 1, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_verify_weight_task, payloads))
    else:
        outcomes = [_verify_weight_task(p) for p in payloads]
    for weight_text, ok, obj in outcomes:
        results.append(obj)
        if not ok:
            failures.append(weight_text)
        if args.output != "json":
            print(f"{weight_text:<10} {_case_status(ok, obj)}")

    if args.spherical:
        spherical_expected = is_spherical(ctx, index_set)
        pivots = spherical_report(ctx, index_set)
        agrees = spherical_expected == any(pivots.values())
        if not agrees:
            failures.append("spherical")
        if args.output != "json":
            word = "spherical" if spherical_expected else "not spherical"
            print(f"index set {index_set}: {word}; pivot candidates {pivots}"
                  + ("" if agrees else "  MISMATCH"))

    if args.tensor_rigid:
        rigid = [
            label
            for label in catalog.labels
            if not label.is_reflection_type
            and all(classify_weight(ctx, label, pair) == RIGID for pair in index_set.pairs)
        ]
        partners = list(catalog.labels[:4]) + [
            label for label in catalog.labels if label.is_reflection_type
        ][:2]
        for mu in rigid:
            for lam in partners:
                try:
                    verify_rigid_tensor(ctx, index_set, mu, lam)
                except (AssertionError, ArithmeticError) as exc:
                    error = str(exc) or type(exc).__name__
                    failures.append(f"tensor {mu} x {lam}")
                    tensor_failures.append({"mu": str(mu), "lam": str(lam), "error": error})
                    if args.output != "json":
                        print(f"tensor {mu} x {lam}: MISMATCH: {error}")
        if args.output != "json" and not tensor_failures:
            print(f"rigid tensor checks: {len(rigid)} x {len(partners)} ok")

    if args.output == "json":
        obj = {
            "m": ctx.m,
            "index_set": [list(pair) for pair in index_set.pairs],
            "cases": results,
            "failures": failures,
            "ok": not failures,
        }
        if args.tensor_rigid:
            obj["tensor_rigid"] = tensor_failures
        _print_json(obj)
    elif failures and not in_proven_regime(ctx.m):
        print(f"{len(failures)} failures outside the proven regime (m={ctx.m}): {', '.join(failures)}")
    elif failures:
        print(f"{len(failures)} mismatches: {', '.join(failures)}")
    else:
        print(f"all {len(labels)} cases verified")
    return EXIT_MISMATCH if failures else EXIT_OK


def cmd_spherical(args) -> int:
    ctx = _context_from(args)
    named = parse_index_set(ctx, args.index)
    if named.pairs:
        sets = [named]
    else:
        sets = [IndexSet(ctx.m, (pair,)) for pair in valid_pairs(ctx)]
    rows = []
    for index_set in sets:
        expected = is_spherical(ctx, index_set)
        pivots = spherical_report(ctx, index_set)
        rows.append(
            {
                "index_set": [list(pair) for pair in index_set.pairs],
                "spherical": expected,
                "pivots": {str(j): ok for j, ok in pivots.items()},
                "consistent": expected == any(pivots.values()),
            }
        )
    if args.output == "json":
        _print_json({"m": ctx.m, "index_sets": rows})
    else:
        for row in rows:
            text = ",".join(f"({i},{k})" for i, k in row["index_set"])
            word = "spherical" if row["spherical"] else "not spherical"
            flag = "" if row["consistent"] else "  PIVOT MISMATCH"
            print(f"{text:<16} {word}{flag}")
    if all(row["consistent"] for row in rows):
        return EXIT_OK
    return EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=12, help="order of the rotation (default 12)")
    parser.add_argument(
        "--unsafe-m",
        action="store_true",
        help="allow any even m >= 4 instead of requiring m >= 12 divisible by 4",
    )
    parser.add_argument(
        "--output", choices=("json", "table"), default="table", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dihedral-doubles",
        description="Simple modules of Drinfeld doubles over dihedral groups, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="list the weight catalog")
    _add_common(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("tensor", help="decompose a tensor product of two weights")
    p.add_argument("left", help="first weight label, e.g. 'M2,3'")
    p.add_argument("right", help="second weight label, e.g. 'Mx:0,0'")
    _add_common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("simple", help="graded character of one simple module")
    p.add_argument("--index", required=True, help="index set, e.g. '(2,3)' or '(1,6),(3,6)'")
    p.add_argument("--weight", required=True, help="weight label, e.g. 'Mx:0,0'")
    p.add_argument("--full", action="store_true", help="also print the standard module")
    _add_common(p)
    p.set_defaults(func=cmd_simple)

    p = sub.add_parser("verify", help="verify the classification for an index set")
    p.add_argument("--index", required=True, help="index set, e.g. '(2,3)'")
    p.add_argument(
        "--weights",
        default="all",
        help="'all' or a list of weight labels separated by commas, spaces, or semicolons",
    )
    p.add_argument("--spherical", action="store_true", help="also check the pivot structure")
    p.add_argument(
        "--tensor-rigid", action="store_true", help="also check rigid tensor semisimplicity"
    )
    p.add_argument(
        "--threads",
        type=int,
        default=0,
        help="worker processes, at most one per case (default: all cores)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spherical", help="pivot structure of index sets")
    p.add_argument("--index", default="", help="index set; default: every valid single pair")
    _add_common(p)
    p.set_defaults(func=cmd_spherical)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, ArithmeticError) as exc:
        print(f"verification failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
