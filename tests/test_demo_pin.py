"""Demo output pinned from one commit to the next.

``demo_hashes.json`` holds the SHA-256 of every file that ``demo`` writes
for the four built-in cases at default settings, each run with a relative
``--out`` (the case name) from an empty working directory, so the
provenance lines hold no absolute path.  A change that alters demo output
on purpose regenerates the manifest with

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


def demo_hashes(name, cwd):
    """Run ``demo name --out name`` in ``cwd``; SHA-256 of each file it wrote, by name."""
    old = os.getcwd()
    os.chdir(cwd)
    try:
        assert cli.main(["demo", name, "--out", name]) == 0
    finally:
        os.chdir(old)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((Path(cwd) / name).iterdir())}


@pytest.mark.parametrize("name", TESTCASE_NAMES)
def test_demo_bytes_match_manifest(name, tmp_path, capsys):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))[name]
    assert demo_hashes(name, tmp_path) == want
    assert capsys.readouterr().out == f"wrote {name} demo to {name}\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {name: demo_hashes(name, tmp) for name in TESTCASE_NAMES}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {MANIFEST}\n")
