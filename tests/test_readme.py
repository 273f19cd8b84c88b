"""The README's library sketch runs as written, and its CLI examples print pinned bytes."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from padic_lseries import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# SHA-256 of each example's stdout (Python 3.11.7, x86-64).  A change that
# moves one of these bytes is a stated correctness fix and updates its digest.
EXAMPLE_DIGESTS = {
    "gamma --p 3 --k 4 --chi 1 --s 0.5":
        "e73c0b538b42e9c5447ddfc7d3e7f0470f7826f930aa060b02b61fa7bc79a42e",
    "eigencheck --kind modular_a1 --p 2 --alpha 1 --max-ket 3":
        "9aaa1df20f31d3e8580dd5ac2542087b153e7355b7e097cb92166279ff8a31a1",
    "local-factor --kind dirichlet --p 3 --s 2 --character 4:1":
        "f9f750aeed338ae73f752bb91c9e97d45f55c5d6b1331ffd881fdf2391efa3d5",
    "lseries --kind zeta --s 2 --prime-bound 100000":
        "5991c0a61adeb5203e78d1773faf01d1fc2cc1cc70b56a144028a40d672e0989",
    "lseries --kind dirichlet --character 4:1 --s 1 --method series":
        "21096df785e487c68a583e0cca95c8ef37629eea79269b766e9f9cc2cacc0711",
    "tau --max 100":
        "6440030c9700818c41322fc544071afc253470e74e1d39b120e8298f3b9f0513",
    "hecke-trace --p 2 --s 8 --shift 1":
        "84dcbe5da39e8ea5b0cd0586d2e8a8fa00c45c8f233615bd8c05bd97126f783f",
    "selftest":
        "a87dd4a7c7e432b8e3be91a7b58c6261604374445aafff3d3c4e93937d11ba29",
}


def _readme_text() -> str:
    return README.read_text(encoding="utf-8")


def test_readme_library_sketch_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", _readme_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_every_readme_example_has_a_digest():
    examples = re.findall(r"^padic-lseries (.*)$", _readme_text(), re.M)
    assert examples == list(EXAMPLE_DIGESTS)


@pytest.mark.parametrize("example", list(EXAMPLE_DIGESTS))
def test_readme_example_prints_its_pinned_bytes(example, monkeypatch, capsys):
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    assert cli.run(example.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXAMPLE_DIGESTS[example]
