"""Command-line surface: analyze, verify, psl2, screen, fuzz.

Exactly one JSON document goes to stdout per invocation (or raw DOT with
--format dot); diagnostics go to stderr.  Exit codes: 0 all checks pass,
1 a check failed (screen FAIL, corpus overall_pass false), 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Any, Sequence

from . import corpus as corpus_mod
from . import duke, psl2
from .graphs import DegreeSet, PrimeGraph, build_graph
from .primes import first_primes

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Lane carry byte 0 (output below the threshold) -> edge bit "1", 1 -> "0".
_CARRY_TO_EDGE = bytes.maketrans(b"\x00\x01", b"10")


@lru_cache(maxsize=16)
def _lanes(n: int) -> tuple[int, int, int]:
    """Constants of n 128-bit lanes, lane b at bits 128b..128b+127: a 1 in
    every lane, the offsets (b + 1) * gamma mod 2**64, and a 64-bit mask."""
    ones = sum(1 << 128 * b for b in range(n))
    steps = sum(((b + 1) * _GAMMA & _MASK64) << 128 * b for b in range(n))
    return ones, steps, ones * _MASK64


class SplitMix64:
    """SplitMix64 pseudorandom generator (Steele, Lea, Flood 2014).

    Fixed algorithm: the fuzz subcommand's output for a given seed is part
    of the external contract and must never change silently.  `draw_bits`
    computes a whole trial's draws together from the same `next64` stream;
    the reference values in the tests pin that stream.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def draw_bits(self, n: int, threshold: int) -> int:
        """The int whose bit b is set iff the b-th of the next n `next64`
        outputs is below threshold, leaving the same state as those n calls.

        Output b mixes state + (b + 1) * gamma, so all n are mixed at once,
        each in its own 128-bit lane of one int: every lane is cut to 64
        bits before a multiply, so no product reaches the next lane.  Adding
        2**64 - threshold to a lane carries into its bit 64 iff its output
        is at least threshold.  Raises ValueError for n < 0 or a threshold
        outside [0, 2**64].
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if not 0 <= threshold <= 1 << 64:
            raise ValueError(f"threshold must be in [0, 2**64], got {threshold}")
        ones, steps, low = _lanes(n)
        z = (self.state * ones + steps) & low
        self.state = (self.state + n * _GAMMA) & _MASK64
        z = ((z ^ z >> 30) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ z >> 27) & low) * 0x94D049BB133111EB & low
        z = ((z ^ z >> 31) & low) + ((1 << 64) - threshold) * ones
        # Big-endian, lane b's carry byte sits at 16 * (n - 1 - b) + 7: the
        # carries come out highest lane first, as int(..., 2) reads them.
        carries = z.to_bytes(16 * n, "big")[7::16]
        return int(carries.translate(_CARRY_TO_EDGE) or b"0", 2)


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
        g = PrimeGraph(verts, rng.draw_bits(n_pairs, threshold))
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
    """`obj` as the `json` module writes it with indent=2, sort_keys=True
    and its other defaults (ASCII escapes, NaN and Infinity allowed), byte
    for byte, raising the same TypeError for what it cannot write.

    On Python 3.11 any indent runs the `json` module's pure-Python
    generator encoder; this builds each container's text with one join."""
    return _encode(obj, "\n")


def _encode(obj: Any, pad: str) -> str:
    """`obj`'s JSON text, its nested lines indented by `pad` plus two."""
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [
            (_escape(k) if type(k) is str else _key(k)) + ": " + _encode(v, inner)
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in obj]) + pad + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    # Subclasses, as the json module takes them: an IntEnum by its int value.
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        return _encode(list(obj), pad)
    if isinstance(obj, dict):
        return _encode(dict(obj.items()), pad)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _key(key: Any) -> str:
    """A dict key as the json module writes it: a string as itself, a
    number, boolean or null as the string of its JSON text."""
    if isinstance(key, str):
        return _escape(key)
    if key is None or isinstance(key, (int, float)):
        return _escape(_encode(key, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(obj: Any) -> None:
    print(_dumps(obj))


def _parse_degrees(text: str) -> DegreeSet:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad degree list {text!r}: {exc}") from exc
    return DegreeSet.of(values)


def _parse_probability(text: str) -> Fraction:
    """`text` as an exact fraction (1/2, 0.5, 5e-1).  Fraction expands a
    decimal exponent e into 10**|e|, so an exponent of more than four
    digits is refused rather than left to run without bound."""
    if sum(map(str.isdigit, text.upper().partition("E")[2])) > 4:
        raise ValueError(f"edge probability {text!r} has an exponent of more than 4 digits")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"edge probability {text!r} has a zero denominator") from exc


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
        edge_prob=_parse_probability(args.edge_prob),
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
