"""The README's library-use block runs as written and matches the top-level API."""

import re
from pathlib import Path

import diracfluid

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()


def _library_block() -> str:
    section = README.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs_from_repo_root(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    exec(compile(_library_block(), "README.md", "exec"), {})
    max_sup, mask_line = capsys.readouterr().out.splitlines()
    assert 0.0 < float(max_sup) < 1e-2
    assert len(mask_line.split()) == 2


def test_top_level_api_is_the_documented_one():
    imported = re.search(r"from diracfluid import \((.*?)\)", _library_block(), re.S).group(1)
    documented = {name.strip() for name in imported.split(",")}
    extra = {"run", "run_checks", "CHECK_NAMES", "__version__", "ConfigError",
             "DiracFluidError", "GridError", "NumericalInstabilityError", "SnapshotIOError"}
    assert set(diracfluid.__all__) == documented | extra
    assert all(hasattr(diracfluid, name) for name in diracfluid.__all__)
