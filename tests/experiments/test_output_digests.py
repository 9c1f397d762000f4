"""Every experiment's output, digested: ``rnb run <e> --format json --out``.

Each experiment runs through the CLI once, at ``--scale 0.02
--n-requests 300 --seed 7``, and every JSON file it writes is digested:
the first 32 hex digits of the sha256 of its canonical JSON (sorted
keys, compact separators).  The digests were generated from the code
before the change that added this test, so a change that claims the same
outputs is held to them file by file.  A change that claims an output
change updates the digests it moves, and says which and why.

Three outputs carry wall-clock timings: ``cover_overhead`` (solver
microseconds), ``fig13`` and ``fig14`` (live micro-benchmark rates, and a
cost model fitted to them).  Their timing fields are dropped before the
digest; every other field of theirs is held.

``fig08``, ``fig09`` and ``fig10`` are not run here: they take 18 of the
37 s that all experiments take at this size, and their request count
does not shorten them (the warm-up does not shrink with it).  Their
outputs are pinned as tokens at a smaller shape in
``test_experiments.py`` (``TestHitchhikingDeterminism``).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.experiments.registry import EXPERIMENTS

ARGS = ("--scale", "0.02", "--n-requests", "300", "--seed", "7")

TOKEN_PINNED = ("fig08", "fig09", "fig10")

# per output, the series (and top-level fields) that are timings or fitted
# to timings
TIMINGS = {
    "cover_overhead": {"greedy us", "first-fit us", "random us"},
    "fig13": {
        "measured items/s",
        "measured txns/s",
        "fitted model items/s",
        "notes",
        "meta",
    },
    "fig14": {"two clients items/s", "one client items/s"},
}

DIGESTS = {
    "ablations": {
        "ablation_hitchhiking": "7e48cd6c97644fe76685fce9d0b58555",
        "ablation_lru_policy": "7a409336146d44244f84e0271bc2b82c",
        "ablation_overbooking": "251620b3b0c3ba2329982f9712d4f098",
        "ablation_placement": "3fc467bd375409c41757b64bec8f3724",
        "ablation_single_item_rule": "a0f18b2ebd32a691cccfd1b485271f2f",
        "ablation_tie_break": "4399256dbf32ab2fde2e7157271b8a12",
    },
    "chaos": {
        "chaos_soak": "767e83165c98136d659add306c4e56bd",
    },
    "cover_quality": {
        "cover_overhead": "458a62e2b793190fd3c9ee8c7086f250",
        "cover_quality": "6b2316ffe3b7aa77974f6c90c1db0e64",
    },
    "fault_tolerance": {
        "fault_tolerance_retries": "90a0f5ad732c4594ec8d0dfa2f8f8c49",
        "fault_tolerance_tpr": "17c3ef91e13ec9b893ecad9a6460817d",
        "fault_tolerance_unavailable": "83d48a618cbf79139d85eb17f0c92f18",
    },
    "fig02": {
        "fig02": "391848c922cd6745bdfc8bc14d6b62c4",
    },
    "fig03": {
        "fig03": "44f213ed80eddc29957d14b3a8b46f90",
    },
    "fig04_05": {
        "fig04": "0ffe00a51ef8c0d30f171e85a65e52a6",
        "fig05": "5ea7ae06a378158655162411afb7a3f9",
    },
    "fig06": {
        "fig06": "2222efd80b04b49a8bc3a645822dff21",
    },
    "fig07": {
        "fig07": "fcf9f9418225b9eaf482e71595a49d8b",
    },
    "fig11": {
        "fig11_M100": "232dce93b23ec75c4fb66c6702aad3f5",
        "fig11_M20": "4e54d74f4f69e36b3e91db1ce1753252",
    },
    "fig12": {
        "fig12_M100_f50": "d21e4f25f3c3ddbfc52c1f175a3900bb",
        "fig12_M100_f90": "6a2a9af1877af2d5821ee0c20470fb99",
        "fig12_M100_f95": "d309f56252052d6a2aab31ca89308ed5",
        "fig12_M20_f50": "7fe26bffd57185fb0c4ded698b9e25c8",
        "fig12_M20_f90": "80e17ad923361a624e1876992f8310c2",
        "fig12_M20_f95": "8005c0bbef8ee497cb806757fb647075",
    },
    "fig13_14": {
        "fig13": "f208d10e4bca70a5581333e034faa768",
        "fig14": "48cf37e0d3c8372442a22b4b983f651d",
    },
    "growth": {
        "growth_churn": "66abbb8ac3e5ba22e0671cd41d568161",
        "growth_tpr": "cc1983bf4d8bc927148ef3c7c4cb242e",
    },
    "hotspot": {
        "hotspot_soak": "630dcf752a37e0cfc22d7cfc53579af2",
    },
    "latency": {
        "latency": "197e2ad212d1ef6f5613933aa7af65c3",
    },
    "limit_memory": {
        "limit_memory_tpr": "4fb92b7c4482803132e4ea2d689e6554",
        "limit_memory_ws": "870914164a27eb003ad2c300bf9633c0",
    },
    "load_soak": {
        "load_soak": "a955c76a5137ea9aa0914d33bfdeef35",
    },
    "partition_chaos": {
        "partition_chaos": "9cf49d4ccac39b2f993c164b264ac34f",
    },
    "queueing": {
        "queueing": "3c218bc583ee96f29311398269e11120",
    },
    "scalability": {
        "scalability": "fe81910a0fdb31c62bee64d066afa52e",
    },
    "sensitivity": {
        "sensitivity_affinity": "2300f4e88d8c8392da942138bb895f22",
    },
    "single_item": {
        "single_item": "740033c8d33326ac54ddcae0e7dc55fe",
    },
    "write_chaos": {
        "write_chaos": "ac39832a8dd6e591b75c43415da688c2",
    },
}


def digest(text: str) -> str:
    doc = json.loads(text)
    timed = TIMINGS.get(doc["name"], ())
    for field in timed:
        doc.pop(field, None)
        doc["series"].pop(field, None)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def run_digests(tmp_path, name: str) -> dict[str, str]:
    assert main(["run", name, *ARGS, "--format", "json", "--out", str(tmp_path)]) == 0
    return {path.stem: digest(path.read_text()) for path in sorted(tmp_path.glob("*.json"))}


def test_every_experiment_is_digested_or_token_pinned():
    assert set(DIGESTS) | set(TOKEN_PINNED) == set(EXPERIMENTS)
    assert not set(DIGESTS) & set(TOKEN_PINNED)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_digest(tmp_path, name):
    assert run_digests(tmp_path, name) == DIGESTS[name]
