"""Command-line surface: analyze, verify, psl2, screen, fuzz.

Exactly one JSON document goes to stdout per invocation (or raw DOT with
--format dot); diagnostics go to stderr.  Exit codes: 0 all checks pass,
1 a check failed (screen FAIL, corpus overall_pass false), 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import corpus as corpus_mod
from . import duke, psl2
from .graphs import DegreeSet, PrimeGraph, build_graph
from .primes import first_primes

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudorandom generator (Steele, Lea, Flood 2014).

    Fixed algorithm: the fuzz subcommand's output for a given seed is part
    of the external contract and must never change silently.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


@dataclass
class FuzzStats:
    """Aggregates of one fuzz run; identical seed and parameters give
    identical stats byte for byte."""

    graphs_generated: int = 0
    by_diameter: dict[int, int] = field(default_factory=dict)
    diam3_duke: int = 0
    diam3_nonduke: int = 0
    diam3_complement_bipartite: int = 0
    nonfeasible_emitted: int = 0
    seed: int = 0

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "graphs_generated": self.graphs_generated,
            "by_diameter": {str(k): self.by_diameter[k] for k in sorted(self.by_diameter)},
            "diam3_duke": self.diam3_duke,
            "diam3_nonduke": self.diam3_nonduke,
            "diam3_complement_bipartite": self.diam3_complement_bipartite,
            "nonfeasible_emitted": self.nonfeasible_emitted,
            "seed": self.seed,
        }


def fuzz(
    k: int,
    edge_prob: Fraction,
    trials: int,
    seed: int,
    out_dir: Path | None = None,
) -> FuzzStats:
    """Classify `trials` random graphs on the first k primes.

    Each of the k(k-1)/2 edges is drawn independently: edge present iff
    the next SplitMix64 output is below edge_prob * 2**64, in ascending
    pair order.  Every diameter-3 graph without a duke partition is a
    certified non-degree-graph; with an output directory those are written
    out as trial_NNNNNN.dot plus trial_NNNNNN.json (the screen report).
    """
    if not 4 <= k <= 10:
        raise ValueError(f"k must be in 4..10, got {k}")
    if not 0 < edge_prob <= 1:
        raise ValueError(f"edge_prob must be in (0, 1], got {edge_prob}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")

    verts = first_primes(k)
    n_pairs = k * (k - 1) // 2
    threshold = (edge_prob.numerator << 64) // edge_prob.denominator
    rng = SplitMix64(seed)
    stats = FuzzStats(seed=seed & _MASK64)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    for trial in range(trials):
        bits = 0
        for bit in range(n_pairs):
            if rng.next64() < threshold:
                bits |= 1 << bit
        g = PrimeGraph(verts, bits)
        diam = g.diameter()
        stats.graphs_generated += 1
        stats.by_diameter[diam] = stats.by_diameter.get(diam, 0) + 1
        if diam != 3:
            continue
        report = duke.screen(g)
        if duke.DIAM3_NOT_DUKE in report.reasons:
            stats.diam3_nonduke += 1
        else:
            stats.diam3_duke += 1
        if duke.DIAM3_COMPLEMENT_NOT_BIPARTITE not in report.reasons:
            stats.diam3_complement_bipartite += 1
        if not report.passed and out_dir is not None:
            stem = f"trial_{trial:06d}"
            (out_dir / f"{stem}.dot").write_text(g.to_dot(), encoding="utf-8")
            (out_dir / f"{stem}.json").write_text(
                _dumps(report.to_json_dict()) + "\n", encoding="utf-8"
            )
            stats.nonfeasible_emitted += 1
    return stats


# -- argument helpers --------------------------------------------------------


def _dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _emit(obj: Any) -> None:
    print(_dumps(obj))


def _parse_degrees(text: str) -> DegreeSet:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad degree list {text!r}: {exc}") from exc
    return DegreeSet.of(values)


def _parse_graph(edges_text: str | None, isolated_text: str | None) -> PrimeGraph:
    edges = []
    if edges_text:
        for token in edges_text.split(","):
            token = token.strip()
            if not token:
                continue
            parts = token.split("-")
            if len(parts) != 2:
                raise ValueError(f"bad edge {token!r}, expected 'p-q'")
            edges.append((int(parts[0]), int(parts[1])))
    isolated = [int(tok) for tok in (isolated_text or "").split(",") if tok.strip()]
    return PrimeGraph.from_edges(edges, isolated=isolated)


def _graph_block(g: PrimeGraph) -> dict[str, Any]:
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges()],
        "components": [sorted(c) for c in g.components()],
        "diameter": g.diameter() if g.vertices else None,
    }


# -- subcommands ---------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    cd = _parse_degrees(args.degrees)
    g = build_graph(cd)
    if args.format == "dot":
        sys.stdout.write(g.to_dot())
        return 0
    report = duke.screen(g) if g.vertices else None
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "graph.dot").write_text(g.to_dot(), encoding="utf-8")
    _emit(
        {
            "degrees": cd.sorted(),
            "graph": _graph_block(g),
            "dot": g.to_dot(),
            "screen": report.to_json_dict() if report else None,
        }
    )
    return 0 if report is None or report.passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.bundled:
        text = corpus_mod.bundled_corpus_path().read_text(encoding="utf-8")
    else:
        if args.corpus is None:
            raise ValueError("verify needs a corpus path (or --bundled)")
        text = Path(args.corpus).read_text(encoding="utf-8")
    report = corpus_mod.verify_lines(text.splitlines(), strict=not args.lax)
    _emit(report.to_json_dict())
    return 0 if report.overall_pass else 1


def _cmd_psl2(args: argparse.Namespace) -> int:
    pq = psl2.PrimePowerQ.of(args.q)
    g = psl2.lemma24_graph(pq)
    if args.format == "dot":
        sys.stdout.write(g.to_dot())
        return 0
    agrees = psl2.crosscheck(pq)
    _emit(
        {
            "q": pq.q,
            "p": pq.p,
            "f": pq.f,
            "degrees": psl2.psl2_degrees(pq).sorted(),
            "graph": _graph_block(g),
            "dot": g.to_dot(),
            "crosscheck": agrees,
        }
    )
    return 0 if agrees else 1


def _cmd_screen(args: argparse.Namespace) -> int:
    g = _parse_graph(args.edges, args.isolated)
    report = duke.screen(g)
    _emit(report.to_json_dict())
    return 0 if report.passed else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    stats = fuzz(
        k=args.k,
        edge_prob=Fraction(args.edge_prob),
        trials=args.trials,
        seed=args.seed,
        out_dir=Path(args.out) if args.out else None,
    )
    _emit(stats.to_json_dict())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargraph",
        description="Build and screen prime graphs of character degree sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="degree set -> graph stats, DOT, screening")
    p.add_argument("--degrees", required=True, help="comma-separated integers, e.g. 1,5,10,11,12")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", help="directory to write graph.dot into")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("verify", help="verify a JSONL corpus of degree-set records")
    p.add_argument("corpus", nargs="?", help="path to a JSONL corpus file")
    p.add_argument("--bundled", action="store_true", help="use the corpus shipped in the package")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", default=True, help="explicit alias of the default strict mode: reject unknown fields")
    mode.add_argument("--lax", action="store_true", help="warn on unknown fields instead")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("psl2", help="degree set, graph, and crosscheck for PSL2(q)")
    p.add_argument("--q", type=int, required=True, help="prime power >= 4")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(handler=_cmd_psl2)

    p = sub.add_parser("screen", help="feasibility-screen an explicit graph")
    p.add_argument("--edges", default="", help='comma-separated edges, e.g. "2-3,3-5,5-7"')
    p.add_argument("--isolated", default="", help="comma-separated isolated vertices")
    p.set_defaults(handler=_cmd_screen)

    p = sub.add_parser("fuzz", help="classify random graphs; emit certified non-degree-graphs")
    p.add_argument("--k", type=int, required=True, help="vertex count, 4..10")
    p.add_argument("--edge-prob", required=True, help="edge probability, e.g. 1/2 or 0.5")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="directory for DOT + report pairs")
    p.set_defaults(handler=_cmd_fuzz)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
