"""Answers pin: ``localcausal benchmark`` output, minus its timings, for
every algorithm on alarm and insurance must match the committed golden
file byte for byte. A change that is meant to keep every answer (a
speed-up, a refactor) passes only if every blanket, arrow, score and
``ci_tests`` count is unchanged.

Regenerate the golden file, only when answers are meant to change, with
``PYTHONPATH=src python tests/test_answers_golden.py`` and say why in
``CHANGES.md``.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from localcausal.assets import asset_path
from localcausal.cli import ALGOS, main

GOLDEN = Path(__file__).resolve().parent / "golden_benchmark.json"
CASES = [(net, size, algo) for net, size in (("alarm", 2000), ("insurance", 500))
         for algo in ALGOS]


def untimed(value):
    if isinstance(value, dict):
        return {k: untimed(v) for k, v in value.items() if k != "time_ms"}
    if isinstance(value, list):
        return [untimed(v) for v in value]
    return value


def report(net: str, size: int, algo: str, out: Path) -> dict:
    assert main(["benchmark", str(asset_path(net)), "--sizes", str(size),
                 "--seed", "1", "--algo", algo, "--out", str(out)]) == 0
    return untimed(json.loads(out.read_text(encoding="utf-8")))


def test_golden_keys_are_the_cases():
    # an algorithm removed from ALGOS must take its entries along
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(f"{net}/{algo}" for net, _, algo in CASES)


@pytest.mark.parametrize("net, size, algo", CASES)
def test_benchmark_answers_match_golden(net, size, algo, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert report(net, size, algo, tmp_path / "out.json") == golden[f"{net}/{algo}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {f"{net}/{algo}": report(net, size, algo, Path(tmp) / "out.json")
                  for net, size, algo in CASES}
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
