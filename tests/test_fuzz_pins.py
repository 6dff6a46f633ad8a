"""Byte-identity pins for fuzz output and for screen certificates.

The digests were taken from the distance layer built on per-source BFS
over a float distance matrix; any later distance layer must reproduce
them exactly: the same stats JSON, the same emitted files, the same
reason codes, certificate pairs and lexicographic tie-breaks.

`fuzz` screens only diameter-3 graphs, so its files pin the
DIAM3_NOT_DUKE anchor pair and the DIAM3_LEMMA31_FAILS triple.  The
DIAMETER_EXCEEDS_3 witness pair, and the corpus K1 pair, are pinned by
screening and verifying sparse random graphs directly (`screen_digest`).
"""

from __future__ import annotations

import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from chargraph.cli import SplitMix64, run
from chargraph.corpus import GroupRecord, verify_corpus
from chargraph.duke import screen
from chargraph.graphs import DegreeSet, PrimeGraph
from chargraph.primes import first_primes

FUZZ_TRIALS = 400
SCREEN_GRAPHS = 400


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fuzz_digests(k: int, seed: int, out_dir: Path) -> dict:
    """Digests of `chargraph fuzz` stdout and of every file it writes."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(
            ["fuzz", "--k", str(k), "--edge-prob", "1/2", "--trials", str(FUZZ_TRIALS),
             "--seed", str(seed), "--out", str(out_dir)]
        )
    manifest = []
    reasons: Counter[str] = Counter()
    for path in sorted(out_dir.iterdir()):
        manifest.append(f"{path.name} {_sha(path.read_bytes())}\n")
        if path.suffix == ".json":
            reasons.update(json.loads(path.read_text(encoding="utf-8"))["reasons"])
    return {
        "exit": code,
        "stats": _sha(buf.getvalue().encode()),
        "files": len(manifest),
        "manifest": _sha("".join(manifest).encode()),
        "reasons": dict(sorted(reasons.items())),
    }


def screen_digest(k: int, seed: int) -> dict:
    """Digests of the screen reports, and of the corpus verdict, of
    SCREEN_GRAPHS graphs on the first k primes, each edge present with
    probability 1/4 (SplitMix64 draws in ascending pair order, as in
    fuzz): sparse enough that most have diameter above 3.  The corpus
    record of a graph has one degree per vertex and one per edge."""
    verts = first_primes(k)
    rng = SplitMix64(seed)
    digest = hashlib.sha256()
    reasons: Counter[str] = Counter()
    records = []
    for trial in range(SCREEN_GRAPHS):
        bits = 0
        for bit in range(k * (k - 1) // 2):
            if rng.next64() < 1 << 62:
                bits |= 1 << bit
        g = PrimeGraph(verts, bits)
        report = screen(g).to_json_dict()
        digest.update((json.dumps(report, sort_keys=True) + "\n").encode())
        reasons.update(report["reasons"])
        degrees = DegreeSet.of({1, *verts, *(p * q for p, q in g.edges())})
        records.append(GroupRecord(name=f"g{trial}", degrees=degrees, source="pin"))
    verdict = json.dumps(verify_corpus(records).to_json_dict(), sort_keys=True)
    return {
        "reports": digest.hexdigest(),
        "corpus": _sha(verdict.encode()),
        "reasons": dict(sorted(reasons.items())),
    }


FUZZ_PINS = {
    (7, 42): {
        "exit": 0,
        "stats": "a84c7efd652393d81c222bb076977305d1e8ca79033ce48cd000e4b992d8156c",
        "files": 400,
        "manifest": "403be95448d54b3c5951427326299b6963ae7fcd21022e4407fbf96dad2d8f89",
        "reasons": {"DIAM3_COMPLEMENT_NOT_BIPARTITE": 200, "DIAM3_LEMMA31_FAILS": 171, "DIAM3_NOT_DUKE": 200},
    },
    (10, 42): {
        "exit": 0,
        "stats": "2782f9551d7a3bddbc6db9cce1586776c2277cb9696e0cc3ac11386bd25e8824",
        "files": 470,
        "manifest": "2a0b8cc0b2aeb44072fb0febc6d75a4056ce009f5c7e0590d027c8972dea5995",
        "reasons": {"DIAM3_COMPLEMENT_NOT_BIPARTITE": 235, "DIAM3_LEMMA31_FAILS": 224, "DIAM3_NOT_DUKE": 235},
    },
    (7, 7): {
        "exit": 0,
        "stats": "bf99011c427bc634fdc10cb60a11842e30cf7fdec8d6f0afbe4f1075b88a1e44",
        "files": 380,
        "manifest": "1a015be2fe8c3f050d472a6574b68e75c4e78acb19fb66fc5eb4cbc2feae5db9",
        "reasons": {"DIAM3_COMPLEMENT_NOT_BIPARTITE": 190, "DIAM3_LEMMA31_FAILS": 175, "DIAM3_NOT_DUKE": 190},
    },
    (10, 7): {
        "exit": 0,
        "stats": "345078f91bd850a2e86852d394ba18b27c123808b833de0e99a8ec36d949ae5e",
        "files": 492,
        "manifest": "d46bfc282e329c4e4c2f412e5249116b0a6241af4d40fa721a31c649b5fd9176",
        "reasons": {"DIAM3_COMPLEMENT_NOT_BIPARTITE": 246, "DIAM3_LEMMA31_FAILS": 237, "DIAM3_NOT_DUKE": 246},
    },
}

SCREEN_PINS = {
    (10, 42): {
        "reports": "6b476538035161371c9b58b9b5a5eaff94185abccc10113ebc9da0d90715911e",
        "corpus": "f40c93dc0b1a53b2f9ef91607ad8ee397be8df715c11b27c537d1ee13784df87",
        "reasons": {"DIAM3_COMPLEMENT_NOT_BIPARTITE": 104, "DIAM3_LEMMA31_FAILS": 104, "DIAM3_NOT_DUKE": 104, "DIAMETER_EXCEEDS_3": 286},
    },
    (10, 7): {
        "reports": "fcb41f3f2163eb72d3095431d687f2f6d13384748fd4c52ec2092d27b1327c02",
        "corpus": "6eca43acf710058e693a6d30f2d06832efd60b75ccfe87b230146fdeec93c4df",
        "reasons": {"DIAM3_COMPLEMENT_NOT_BIPARTITE": 99, "DIAM3_LEMMA31_FAILS": 99, "DIAM3_NOT_DUKE": 99, "DIAMETER_EXCEEDS_3": 290},
    },
}


@pytest.mark.parametrize("k,seed", sorted(FUZZ_PINS))
def test_fuzz_output_is_pinned(tmp_path, k, seed):
    assert fuzz_digests(k, seed, tmp_path) == FUZZ_PINS[(k, seed)]


@pytest.mark.parametrize("k,seed", sorted(SCREEN_PINS))
def test_screen_certificates_are_pinned(k, seed):
    assert screen_digest(k, seed) == SCREEN_PINS[(k, seed)]


def test_pins_cover_every_distance_certificate():
    reasons = set()
    for pin in (*FUZZ_PINS.values(), *SCREEN_PINS.values()):
        reasons.update(pin["reasons"])
    assert {"DIAMETER_EXCEEDS_3", "DIAM3_NOT_DUKE", "DIAM3_LEMMA31_FAILS"} <= reasons
