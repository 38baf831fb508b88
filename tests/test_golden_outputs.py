"""Shipped configs keep producing byte-identical output trees.

golden_outputs.json holds the sha256 of every output file of three shipped
configs. A change that deliberately alters the numbers or the file format
regenerates it and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from diracfluid.runner import run
from diracfluid.scenarios import load_scenario

REPO = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).with_name("golden_outputs.json")).read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_outputs_match_golden_hashes(tmp_path, name):
    run(load_scenario(REPO / "configs" / f"{name}.json"), tmp_path)
    run_dir = tmp_path / name
    hashes = {p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in run_dir.rglob("*") if p.is_file() and p.name != "manifest.json"}
    assert hashes == GOLDEN[name]
