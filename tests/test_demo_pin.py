"""Demo output pinned from one commit to the next.

``demo_hashes.json`` holds the SHA-256 of every file that ``demo`` writes
for the four built-in cases, at default settings and at ``--alpha -0.5``,
each run with a relative ``--out`` (the case name) from an empty working
directory, so the provenance lines hold no absolute path.  A manifest key
is the case name followed by its extra arguments, if any.  A change that
alters demo output on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_demo_pin.py

and says in its description why the bytes changed.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from rfuncds import cli
from rfuncds.geometry import TESTCASE_NAMES

MANIFEST = Path(__file__).resolve().parent / "data" / "demo_hashes.json"
SETTINGS = ((), ("--alpha", "-0.5"))
CASES = [(name, extra) for extra in SETTINGS for name in TESTCASE_NAMES]


def manifest_key(name, extra):
    return " ".join((name, *extra))


def demo_hashes(name, extra, cwd):
    """Run ``demo name --out name [extra]`` in ``cwd``; SHA-256 of each file it wrote, by name."""
    old = os.getcwd()
    os.chdir(cwd)
    try:
        assert cli.main(["demo", name, "--out", name, *extra]) == 0
    finally:
        os.chdir(old)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((Path(cwd) / name).iterdir())}


@pytest.mark.parametrize("name, extra", CASES, ids=[manifest_key(*case) for case in CASES])
def test_demo_bytes_match_manifest(name, extra, tmp_path, capsys):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))[manifest_key(name, extra)]
    assert demo_hashes(name, extra, tmp_path) == want
    assert capsys.readouterr().out == f"wrote {name} demo to {name}\n"


if __name__ == "__main__":
    manifest = {}
    for name, extra in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            manifest[manifest_key(name, extra)] = demo_hashes(name, extra, tmp)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {MANIFEST}\n")
