"""The four benchmark workloads: inputs made from a seed, the timed call into
the program, and the checks on its outputs.

Each workload is a small class with the same four steps:

  prepare(seed)              -> input   untimed; the program sees only this
  run(input, tracer, timed)  -> output  each call into the program goes
                                        through timed(fn, *args); tracer
                                        None is the untraced run
  check(input, output)       -> (failed items, notes)
  digests(input, output)     -> {key: sha256}, compared against pins.json
                                        and between traced and untraced runs

`items(input)` is the number of work items, the unit of `items_per_ref`
and `items_per_s`.  `layers` names the spans a traced repeat must record:
a layer that stops being reached, or a binding the tracer can no longer
find, fails the repeat instead of reading as a free layer.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from chargraph import cli, corpus, duke, primes, psl2
from chargraph.graphs import PrimeGraph

from tracer import Tracer

MASK64 = (1 << 64) - 1
EDGE_PROB = Fraction(1, 2)

# timed(fn, *args) calls fn(*args) and records its duration.
Timed = Callable[..., Any]


def untimed(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


class Rng:
    """SplitMix64 for the benchmark's own inputs, independent of the
    generator inside the program under test."""

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n


def repeat_seed(seed: int, index: int) -> int:
    """The `index`-th seed derived from `seed` (of a repeat, or of a chunk)."""
    return Rng(seed ^ (index * 0xD1B54A32D192ED03)).next64()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dumps(obj: Any) -> str:
    """The program's JSON output format (indented, sorted keys)."""
    return json.dumps(obj, indent=2, sort_keys=True)


# -- fuzz ------------------------------------------------------------------------

# Work is done in chunks of a few tens of milliseconds, so that the worker
# can time the reference kernel between them (see reference.py).
FUZZ_CHUNK_TRIALS = 100


class MemDir:
    """A fresh, empty certificate directory held in memory: the part of
    the `Path` interface that `cli.fuzz` uses (`mkdir`, `/`, `write_text`).

    On a shared 2-vCPU VM with an ext4 disk, creating one file cost 0.2 to
    1 ms of kernel time and varied threefold between runs, more than all of
    a k=7 trial's own work, and the benchmark writes nothing outside its
    checkout, so there is no tmpfs to put the files on.  In memory,
    `fuzz-k7-certs` times what the program does to emit a certificate
    (`to_dot`, the report JSON, the write calls) rather than the host's
    filesystem.  A program that stops writing through `Path.write_text`
    raises here, and the repeat fails.
    """

    def __init__(self) -> None:
        self.files: dict[str, str] = {}

    def mkdir(self, parents: bool = False, exist_ok: bool = False) -> None:
        pass

    def __truediv__(self, name: str) -> MemFile:
        return MemFile(self.files, name)


@dataclass
class MemFile:
    files: dict[str, str]
    name: str

    def write_text(self, data: str, encoding: str | None = None) -> int:
        self.files[self.name] = data
        return len(data)


@dataclass
class FuzzChunk:
    seed: int
    trials: int
    out_dir: MemDir | None


FUZZ_LAYERS = ("cli.fuzz_trial", "cli.splitmix64", "graphs.construct", "graphs.masks",
               "graphs.diameter", "graphs.complement", "graphs.bipartition",
               "duke.find_duke", "duke.lemma31", "duke.screen")
CERT_LAYERS = ("graphs.to_dot", "duke.report_json", "io.write")


class Fuzz:
    """`cli.fuzz(k, 1/2, trials, seed)` in chunks of 100 trials, each with
    its own seed and, with certificates, its own fresh empty `MemDir`."""

    def __init__(self, k: int, trials: int, certs: bool) -> None:
        self.k = k
        self.size = trials
        self.certs = certs
        self.layers = FUZZ_LAYERS + (CERT_LAYERS if certs else ())

    def prepare(self, seed: int) -> list[FuzzChunk]:
        chunks = []
        for j, start in enumerate(range(0, self.size, FUZZ_CHUNK_TRIALS)):
            trials = min(FUZZ_CHUNK_TRIALS, self.size - start)
            out_dir = MemDir() if self.certs else None
            chunks.append(FuzzChunk(repeat_seed(seed, j), trials, out_dir))
        return chunks

    def items(self, chunks: list[FuzzChunk]) -> int:
        return sum(c.trials for c in chunks)

    def run(self, chunks: list[FuzzChunk], tracer: Tracer | None, timed: Timed) -> list[str]:
        outs = []
        for c in chunks:
            if tracer is None:
                stats = timed(cli.fuzz, self.k, EDGE_PROB, c.trials, c.seed, c.out_dir)
            else:
                stats = timed(self._replay, c, tracer)
            outs.append(dumps(stats.to_json_dict()))
        return outs

    def _replay(self, c: FuzzChunk, tr: Tracer) -> cli.FuzzStats:
        """The public call sequence of `cli.fuzz`, with a span per trial and
        per step; SplitMix64 draws and graph calls are spanned by tracer.install."""
        verts = primes.first_primes(self.k)
        n_pairs = self.k * (self.k - 1) // 2
        threshold = (EDGE_PROB.numerator << 64) // EDGE_PROB.denominator
        rng = cli.SplitMix64(c.seed)
        stats = cli.FuzzStats(seed=c.seed & MASK64)
        for trial in range(c.trials):
            span = tr.begin("cli.fuzz_trial")
            bits = 0
            for bit in range(n_pairs):
                if rng.next64() < threshold:
                    bits |= 1 << bit
            g = PrimeGraph(verts, bits)
            g.masks
            diam = g.diameter()
            stats.graphs_generated += 1
            stats.by_diameter[diam] = stats.by_diameter.get(diam, 0) + 1
            if diam == 3:
                tr.count("cli.diam3_trials")
                report = duke.screen(g)
                if duke.DIAM3_NOT_DUKE in report.reasons:
                    stats.diam3_nonduke += 1
                else:
                    stats.diam3_duke += 1
                if duke.DIAM3_COMPLEMENT_NOT_BIPARTITE not in report.reasons:
                    stats.diam3_complement_bipartite += 1
                if not report.passed and c.out_dir is not None:
                    stem = f"trial_{trial:06d}"
                    dot = g.to_dot()
                    js = tr.begin("duke.report_json")
                    body = dumps(report.to_json_dict()) + "\n"
                    tr.end(js)
                    for name, text in ((f"{stem}.dot", dot), (f"{stem}.json", body)):
                        w = tr.begin("io.write")
                        (c.out_dir / name).write_text(text, encoding="utf-8")
                        tr.end(w)
                        tr.count("io.files_written")
                        tr.count("io.bytes_written", len(text.encode("utf-8")))
                    tr.count("duke.certificates_emitted")
                    stats.nonfeasible_emitted += 1
            tr.end(span)
        return stats

    @staticmethod
    def _files(c: FuzzChunk) -> dict[str, str]:
        return dict(sorted(c.out_dir.files.items())) if c.out_dir is not None else {}

    def check(self, chunks: list[FuzzChunk], outs: list[str]) -> tuple[int, list[str]]:
        failed, notes = 0, []
        for c, out in zip(chunks, outs):
            f, n = self._check_chunk(c, out)
            failed, notes = failed + f, notes + n
        return failed, notes

    def _check_chunk(self, c: FuzzChunk, out: str) -> tuple[int, list[str]]:
        files = self._files(c)
        problem = self._stats_problem(json.loads(out), c, files)
        if problem:
            return c.trials, [f"seed {c.seed}: {problem}"]
        failed, notes = 0, []
        k_verts = primes.first_primes(self.k)
        for name in sorted(files):
            if not name.endswith(".dot"):
                continue
            stem = name[: -len(".dot")]
            try:
                g = PrimeGraph.from_dot(files[name])
                report = duke.screen(g)
                ok = (
                    g.vertices == k_verts
                    and g.diameter() == 3
                    and not report.passed
                    and files.get(stem + ".json") == dumps(report.to_json_dict()) + "\n"
                )
            except ValueError as exc:
                ok, notes = False, notes + [f"{name}: {exc}"]
            if not ok:
                failed += 1
                notes.append(f"seed {c.seed} {stem}: DOT does not re-screen to its report")
        return failed, notes

    def _stats_problem(self, stats: dict[str, Any], c: FuzzChunk, files: dict[str, str]) -> str:
        """Why the stats are not internally consistent, or '' if they are."""
        by_diam = stats.get("by_diameter", {})
        keys = [int(d) for d in by_diam]
        d3 = by_diam.get("3", 0)
        dots = sum(1 for n in files if n.endswith(".dot"))
        reports = sum(1 for n in files if n.endswith(".json"))
        emitted = stats.get("nonfeasible_emitted")
        rules = [
            (stats.get("graphs_generated") == c.trials, "graphs_generated != trials"),
            (sum(by_diam.values()) == c.trials, "by_diameter does not sum to trials"),
            (keys == sorted(keys) and all(d >= 0 for d in keys), "by_diameter keys"),
            (stats.get("diam3_duke", -1) + stats.get("diam3_nonduke", -1) == d3,
             "duke + nonduke != diameter-3 count"),
            # A duke partition makes the complement bipartite, and a graph
            # fails the screen exactly when it has no duke partition.
            (stats.get("diam3_duke", 0) <= stats.get("diam3_complement_bipartite", -1) <= d3,
             "complement-bipartite count out of range"),
            (stats.get("seed") == c.seed & MASK64, "seed not echoed"),
            (emitted == (stats.get("diam3_nonduke") if self.certs else 0),
             "nonfeasible_emitted != certified non-duke count"),
            (dots == reports == (emitted if self.certs else 0), "emitted file count"),
        ]
        return next((msg for ok, msg in rules if not ok), "")

    def digests(self, chunks: list[FuzzChunk], outs: list[str]) -> dict[str, str]:
        out = {}
        for j, (c, text) in enumerate(zip(chunks, outs)):
            out[f"{j}/stats"] = sha(text)
            out.update({f"{j}/{name}": sha(body) for name, body in self._files(c).items()})
        return out


# -- psl2 sweep ----------------------------------------------------------------------

PSL2_RANGE = 10_000
PSL2_BLOCK = 1_000


class Psl2Sweep:
    """`psl2.prime_powers_in` over [4, Q] in ranges of 10^4, then
    `psl2.crosscheck(q)` for each q found, in blocks of 1000.  The input is
    the bound Q alone, so the seed is unused."""

    layers = ("psl2.crosscheck", "psl2.degrees", "psl2.lemma24", "graphs.build_graph",
              "graphs.construct", "primes.factorize")

    def __init__(self, q_max: int) -> None:
        self.size = q_max

    def prepare(self, seed: int) -> list[int]:
        return _prime_powers(4, self.size)

    def items(self, expected: list[int]) -> int:
        return len(expected)

    def run(self, expected: list[int], tracer: Tracer | None, timed: Timed) -> tuple[list[int], list[bool]]:
        edges = list(range(0, self.size, PSL2_RANGE)) + [self.size]
        qs: list[int] = []
        for lo, hi in zip(edges, edges[1:]):
            qs += timed(psl2.prime_powers_in, max(4, lo + 1), hi)
        agrees: list[bool] = []
        for k in range(0, len(qs), PSL2_BLOCK):
            agrees += timed(_crosscheck_all, qs[k : k + PSL2_BLOCK])
        return qs, agrees

    def check(self, expected: list[int], output: tuple[list[int], list[bool]]) -> tuple[int, list[str]]:
        qs, agrees = output
        got = dict(zip(qs, agrees))
        bad = [q for q in expected if got.get(q) is not True]
        extra = sorted(set(qs) - set(expected))
        notes = [f"crosscheck not True for q in {bad[:5]}"] if bad else []
        if extra:
            notes.append(f"not prime powers: {extra[:5]}")
        return len(bad) + len(extra), notes

    def digests(self, expected: list[int], output: tuple[list[int], list[bool]]) -> dict[str, str]:
        return {"output": sha(json.dumps(output))}


def _crosscheck_all(qs: list[int]) -> list[bool]:
    return [psl2.crosscheck(q) for q in qs]


def _prime_powers(lo: int, hi: int) -> list[int]:
    """Prime powers in [lo, hi] from a sieve, independent of the program."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, hi + 1, p)))
    out = []
    for p in range(2, hi + 1):
        if sieve[p]:
            q = p
            while q <= hi:
                if q >= lo:
                    out.append(q)
                q *= p
    return sorted(out)


# -- corpus verify -------------------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
CORPUS_BLOCK = 50
# Drawn uniformly: how many large primes a record's degrees use.
LARGE_PRIMES_PER_RECORD = (0,) * 20 + (1, 1, 1, 2)


@dataclass(frozen=True)
class Expected:
    """What the generator built for one record."""

    name: str
    k0_field: str | None
    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    solvable: bool | None


@dataclass
class CorpusInput:
    lines: list[str]
    expected: list[Expected]


class CorpusVerify:
    """`corpus.verify_lines(lines, strict=True)` over a synthetic JSONL
    corpus in files of 50 records, each followed by the JSON text
    `chargraph verify` prints."""

    layers = ("corpus.parse_record", "corpus.report_json", "graphs.build_graph",
              "graphs.construct", "graphs.diameter", "graphs.bipartition", "duke.screen",
              "primes.factorize")

    def __init__(self, records: int) -> None:
        self.size = records

    def prepare(self, seed: int) -> CorpusInput:
        return make_corpus(seed, self.size)

    def items(self, inp: CorpusInput) -> int:
        return len(inp.lines)

    def run(self, inp: CorpusInput, tracer: Tracer | None, timed: Timed) -> list[str]:
        texts = [timed(self._verify, inp.lines[k : k + CORPUS_BLOCK], tracer)
                 for k in range(0, len(inp.lines), CORPUS_BLOCK)]
        if tracer is not None:
            tracer.count("corpus.screens_run", tracer.names.count("duke.screen"))
        return texts

    @staticmethod
    def _verify(lines: list[str], tracer: Tracer | None) -> str:
        report = corpus.verify_lines(lines, strict=True)
        if tracer is None:
            return dumps(report.to_json_dict())
        js = tracer.begin("corpus.report_json")
        text = dumps(report.to_json_dict())
        tracer.end(js)
        tracer.count("corpus.records_checked", len(report.entries))
        return text

    def check(self, inp: CorpusInput, texts: list[str]) -> tuple[int, list[str]]:
        failed, notes = 0, []
        for k, text in zip(range(0, len(inp.expected), CORPUS_BLOCK), texts):
            f, n = _check_report(inp.expected[k : k + CORPUS_BLOCK], json.loads(text))
            failed, notes = failed + f, notes + n
        return failed, notes

    def digests(self, inp: CorpusInput, texts: list[str]) -> dict[str, str]:
        return {f"{j}/output": sha(text) for j, text in enumerate(texts)}


def _check_report(expected: list[Expected], doc: dict[str, Any]) -> tuple[int, list[str]]:
    entries = doc.get("entries", [])
    if len(entries) != len(expected):
        return len(expected), [f"{len(entries)} entries for {len(expected)} records"]
    failed, notes = 0, []
    n_failing = 0
    for exp, entry in zip(expected, entries):
        problem = _entry_problem(exp, entry)
        if problem:
            failed += 1
            notes.append(f"{exp.name}: {problem}")
        n_failing += not all(c.get("pass") for c in entry.get("checks", {}).values())
    totals = {"records": len(entries), "records_passed": len(entries) - n_failing,
              "records_failed": n_failing}
    if doc.get("totals") != totals or doc.get("overall_pass") != (n_failing == 0):
        return len(expected), ["totals or overall_pass inconsistent with entries"]
    return failed, notes


def _entry_problem(exp: Expected, entry: dict[str, Any]) -> str:
    """Why a report entry disagrees with the generated record, or ''."""
    if entry.get("name") != exp.name:
        return f"name {entry.get('name')!r}"
    checks = entry.get("checks", {})
    if exp.k0_field is not None:
        k0 = checks.get("K0", {})
        ok = (entry.get("summary") is None and list(checks) == ["K0"] and k0.get("pass") is False
              and k0.get("certificate", {}).get("field") == exp.k0_field)
        return "" if ok else "expected a K0 failure"
    diam, n_comp = _diameter_and_components(exp.vertices, exp.edges)
    summary = {"vertices": len(exp.vertices), "edges": len(exp.edges),
               "components": n_comp, "diameter": diam}
    if entry.get("summary") != summary:
        return f"summary {entry.get('summary')} != generated {summary}"
    if checks.get("K1", {}).get("pass") != (diam <= 3):
        return "K1 verdict"
    if ("K2" in checks) != (diam == 3):
        return "K2 present iff diameter 3"
    if ("K3" in checks) != (exp.solvable is True):
        return "K3 present iff flagged solvable"
    if "K3" in checks and checks["K3"].get("pass") != _complement_bipartite(exp.vertices, exp.edges):
        return "K3 verdict"
    return ""


def _adjacency(vertices: tuple[int, ...], edges: frozenset[tuple[int, int]]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _diameter_and_components(
    vertices: tuple[int, ...], edges: frozenset[tuple[int, int]]
) -> tuple[int, int]:
    adj = _adjacency(vertices, edges)
    diam, roots = 0, set()
    for src in vertices:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        diam = max(diam, max(dist.values()))
        roots.add(min(dist))
    return diam, len(roots)


def _complement_bipartite(vertices: tuple[int, ...], edges: frozenset[tuple[int, int]]) -> bool:
    adj = _adjacency(vertices, edges)
    colour: dict[int, int] = {}
    for root in vertices:
        if root in colour:
            continue
        colour[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in vertices:
                if v == u or v in adj[u]:
                    continue
                if v not in colour:
                    colour[v] = colour[u] ^ 1
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return False
    return True


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.2e9."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _large_prime(rng: Rng) -> int:
    while True:
        n = (10**6 + rng.below(10**8 - 10**6)) | 1
        if _is_prime(n):
            return n


def make_corpus(seed: int, n_records: int) -> CorpusInput:
    """A JSONL corpus of `n_records` degree sets built from chosen primes.

    Each degree is a product over a group of 1-3 vertex primes, at most one
    of them a large prime in [10^6, 10^8], so the program's trial division
    meets both small and large operands.  LARGE_PRIMES_PER_RECORD is set so
    that factorize on operands >= 10^6 takes about half of the traced time,
    near the ~48% this workload is meant to have.  The rest of the mix is
    the benchmark's own choice, not taken from any real corpus: about 40%
    of records carry a valid `order`, 30% are flagged solvable, 8% are
    invalid on purpose (an order some degree does not divide, or an unknown
    field), which the verifier must report as K0 failures, and 30% are
    paths through their small primes, which gives diameters above 3.
    """
    rng = Rng(seed)
    lines, expected = [], []
    for idx in range(n_records):
        small = _pick(rng, SMALL_PRIMES, 2 + rng.below(5))
        n_large = LARGE_PRIMES_PER_RECORD[rng.below(len(LARGE_PRIMES_PER_RECORD))]
        large = sorted({_large_prime(rng) for _ in range(n_large)})
        verts = tuple(sorted(small + large))
        groups: list[tuple[int, ...]] = []
        if rng.below(10) < 3:
            # A path through the small primes: diameters beyond 3 and the
            # distance-3 pairs the screen examines.
            groups += [tuple(sorted(small[i : i + 2])) for i in range(len(small) - 1)]
            groups += [tuple(sorted((small[rng.below(len(small))], p))) for p in large]
        else:
            for _ in range(2 + rng.below(4)):
                group = _pick(rng, small, min(len(small), 1 + rng.below(3)))
                if large and rng.below(2):
                    group = group[1:] + [large[rng.below(len(large))]]
                groups.append(tuple(sorted(group)))
        covered = {p for g in groups for p in g}
        groups += [(p,) for p in verts if p not in covered]
        degrees = sorted({1} | {_degree(rng, g, large) for g in groups})
        edges = frozenset((a, b) for g in groups for i, a in enumerate(g) for b in g[i + 1 :])

        name = f"synthetic-{seed % 100000}-{idx}"
        record: dict[str, Any] = {"name": name, "degrees": degrees, "source": "bench generator"}
        roll = rng.below(100)
        k0_field = None
        if roll < 40:
            lcm = 1
            for d in degrees:
                lcm = lcm * d // _gcd(lcm, d)
            record["order"] = lcm * (degrees[-1] ** 2 // lcm + 1)
            if roll < 5:
                record["order"] += 1
                k0_field = "degrees"
        elif roll < 43:
            record["notes"] = "unexpected"
            k0_field = "notes"
        solvable_roll = rng.below(10)
        solvable = True if solvable_roll < 3 else False if solvable_roll < 4 else None
        if solvable is not None:
            record["solvable"] = solvable
        lines.append(json.dumps(record))
        expected.append(Expected(name, k0_field, verts, edges, solvable))
    return CorpusInput(lines, expected)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _pick(rng: Rng, pool: tuple[int, ...] | list[int], count: int) -> list[int]:
    rest = list(pool)
    return [rest.pop(rng.below(len(rest))) for _ in range(count)]


def _degree(rng: Rng, group: tuple[int, ...], large: list[int]) -> int:
    d = 1
    for p in group:
        d *= p if p in large else p ** (1 + rng.below(2))
    return d


WORKLOADS: dict[str, Any] = {
    "fuzz-k10": Fuzz(k=10, trials=1000, certs=False),
    "fuzz-k7-certs": Fuzz(k=7, trials=1000, certs=True),
    "psl2-sweep": Psl2Sweep(q_max=100_000),
    "corpus-verify": CorpusVerify(records=1000),
}

# (seed, size) of each workload's pinned run, whose output digests are
# stored in pins.json.
PINNED: dict[str, tuple[int, int]] = {
    "fuzz-k10": (42, 400),
    "fuzz-k7-certs": (7, 200),
    "corpus-verify": (1, 100),
}
