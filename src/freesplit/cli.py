"""Command-line driver: enumeration, pair verdicts, blow-ups, verifiers.

Exit codes: 0 on success or a passing verification, 1 on a verification
failure, 2 on usage errors (unknown subcommand, malformed partition or
word specs, rank guard violations).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import blowup, complexes, freegroup, partitions, verify
from .partitions import Partition, class_of, parse_class


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_enum(args) -> int:
    edges = partitions.enumerate_ideal_edges(args.rank, thick_only=args.thick_only)
    _emit({
        "rank": args.rank,
        "count": len(edges),
        # The N petals and the thick ideal edges, read off the one scan.
        "class_count": args.rank + sum(map(partitions.is_thick, edges)),
        "partitions": [p.to_json() for p in edges],
    })
    return 0


def _cmd_pair(args) -> int:
    p = Partition.parse(args.rank, args.p)
    q = Partition.parse(args.rank, args.q)
    both_ideal = partitions.is_ideal(p) and partitions.is_ideal(q)
    distinct = class_of(p) != class_of(q)
    crossing = partitions.crosses(p, q)
    verdict = {
        "rank": args.rank,
        "p": p.to_json(),
        "q": q.to_json(),
        "ideal": both_ideal,
        "distinct_splittings": distinct,
        "crosses": crossing,
        "compatible": not crossing,
        "corner_sets": dict(zip(("k11", "k12", "k21", "k22"),
                                map(partitions.side_names, partitions.corner_masks(p, q)))),
        "rose_compatible": None,
        "circle_compatible": None,
        "cagey": None,
        "boundary_type": None,
    }
    if both_ideal and distinct and not crossing:
        verdict["rose_compatible"] = partitions.rose_compatible(p, q)
        verdict["circle_compatible"] = partitions.circle_compatible(p, q)
    if both_ideal:
        verdict["cagey"] = distinct and partitions.is_cagey(p, q)
    if both_ideal and crossing:
        verdict["boundary_type"] = blowup.boundary_splitting(p, q).tag
    _emit(verdict)
    return 0


def _shape_json(graph) -> dict:
    """The ``shape`` object of ``blowup``: the shape key read as rose, cage
    and theta, with valences, vertex ranks and separating-edge flags."""
    loops, bundles = graph.shape()
    edges = [label for label, _ in graph.edges]
    return {
        "valence_profile": list(graph.valence_profile()),
        "vertex_ranks": list(graph.vertex_ranks()),
        "rose": len(edges) if not bundles else None,
        "cage": len(edges) if not loops and len(bundles) == 1 else None,
        "theta_with_loop": (loops, bundles) == (1, (3,)),
        "has_separating_edge": any(graph.disconnects_without([a]) for a in edges),
        "has_separating_edge_pair": any(
            graph.disconnects_without(pair) for pair in itertools.combinations(edges, 2)
        ),
    }


def _cmd_blowup(args) -> int:
    with open(args.family, "r", encoding="utf-8") as handle:
        specs = json.load(handle)
    if not isinstance(specs, list) or not all(isinstance(spec, str) for spec in specs):
        raise ValueError("family file must hold a JSON array of class specs")
    family = [parse_class(args.rank, spec) for spec in specs]
    graph = blowup.blow_up(family, args.rank)
    if args.format == "dot":
        sys.stdout.write(graph.to_dot() + "\n")
    else:
        payload = graph.to_json()
        payload["shape"] = _shape_json(graph)
        _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    if args.lemma == "battery":
        if args.rank is not None:
            raise ValueError("verify battery takes no --rank: each entry has its own")
        reports = verify.run_battery()
        sys.stdout.write(verify.battery_json(reports))
        return 0 if all(r.passed for r in reports) else 1
    report = verify.run_verifier(args.lemma, args.rank)
    _emit(report.to_json())
    return 0 if report.passed else 1


def _cmd_whitehead(args) -> int:
    if not 1 <= args.rank <= partitions.MAX_RANK:
        raise ValueError("rank %d outside the whitehead guard [1, %d]"
                         % (args.rank, partitions.MAX_RANK))
    w = freegroup.Word.from_string(args.rank, args.word)
    if w.is_trivial():
        raise ValueError("the trivial word has no simplicity verdict")
    minimized = freegroup.whitehead_minimize(w)
    _emit({
        "rank": args.rank,
        "word": w.to_string(),
        # Simplicity is invariant under automorphisms, so the minimum answers for w.
        "simple": freegroup.is_simple(minimized.as_word()),
        "minimized": minimized.as_word().to_string(),
        "cyclic_length": len(minimized),
    })
    return 0


def _cmd_kgraph(args) -> int:
    graph = complexes.k_graph_local(args.rank)
    if args.format == "dot":
        sys.stdout.write(graph.to_dot() + "\n")
    else:
        _emit(graph.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freesplit",
        description="Partition calculus for splittings relative to a rose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum_p = sub.add_parser("enum", help="list the ideal partitions at a rank")
    enum_p.add_argument("--rank", type=int, required=True)
    enum_p.add_argument("--thick-only", action="store_true")
    enum_p.set_defaults(run=_cmd_enum)

    pair_p = sub.add_parser("pair", help="pairwise verdicts for two partitions")
    pair_p.add_argument("--rank", type=int, required=True)
    pair_p.add_argument("--p", required=True, help="side spec, e.g. 'x2+,x3-'")
    pair_p.add_argument("--q", required=True)
    pair_p.set_defaults(run=_cmd_pair)

    blow_p = sub.add_parser("blowup", help="blow up the rose along a family file")
    blow_p.add_argument("--rank", type=int, required=True)
    blow_p.add_argument("--family", required=True,
                        help="JSON array of 'petal:i' or side specs")
    blow_p.add_argument("--format", choices=("json", "dot"), default="json")
    blow_p.set_defaults(run=_cmd_blowup)

    verify_p = sub.add_parser("verify", help="run a lemma verifier")
    verify_p.add_argument("lemma", choices=sorted(verify.VERIFIERS) + ["battery"])
    verify_p.add_argument("--rank", type=int, default=None)
    verify_p.set_defaults(run=_cmd_verify)

    wh_p = sub.add_parser("whitehead", help="free-group word queries")
    wh_sub = wh_p.add_subparsers(dest="subcommand", required=True)
    simple_p = wh_sub.add_parser("simple", help="decide containment in a proper free factor")
    simple_p.add_argument("--rank", type=int, required=True)
    simple_p.add_argument("--word", required=True, help="tokens x<i> / X<i>, e.g. x1X2")
    simple_p.set_defaults(run=_cmd_whitehead)

    k_p = sub.add_parser("kgraph", help="local rose graph on the universe")
    k_p.add_argument("--rank", type=int, required=True)
    k_p.add_argument("--format", choices=("json", "dot"), default="json")
    k_p.set_defaults(run=_cmd_kgraph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
