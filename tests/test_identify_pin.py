"""Identify output pinned from one commit to the next.

``identify_hashes.json`` holds the SHA-256 of every file that ``identify``
writes for the kelvin preset at alpha 1, 0.5, 0 and -0.5 and for the SI
defaults.  Each run starts in an empty working directory holding a copy of
the preset and passes a relative ``--config`` and ``--out``, so the
provenance lines hold no absolute path.  A change that alters identify
output on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_identify_pin.py

and says in its description why the bytes changed.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from rfuncds import cli

MANIFEST = Path(__file__).resolve().parent / "data" / "identify_hashes.json"
PRESET = Path(__file__).resolve().parent.parent / "presets" / "kelvin-activation.cfg"

# run name -> identify arguments before --out
RUNS = {
    **{f"kelvin-alpha{alpha}": ["--config", PRESET.name, "--alpha", alpha]
       for alpha in ("1", "0.5", "0", "-0.5")},
    "si-defaults": [],
}


def identify_hashes(name, cwd):
    """Run ``identify <args> --out name`` in ``cwd``; SHA-256 of each file it wrote, by name."""
    shutil.copy(PRESET, Path(cwd) / PRESET.name)
    old = os.getcwd()
    os.chdir(cwd)
    try:
        assert cli.main(["identify", *RUNS[name], "--out", name]) == 0
    finally:
        os.chdir(old)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((Path(cwd) / name).iterdir())}


@pytest.mark.parametrize("name", RUNS)
def test_identify_bytes_match_manifest(name, tmp_path, capsys):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))[name]
    assert identify_hashes(name, tmp_path) == want
    assert capsys.readouterr().out.endswith(f"report: {name}/ds_report.json\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {name: identify_hashes(name, tmp) for name in RUNS}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {MANIFEST}\n")
