"""Shipped configs keep producing byte-identical output trees.

golden_outputs.json holds the sha256 of every output file of the four shipped
configs and of the three small multi-axis configs below, which pin the 2-D and
3-D gradient, fluid-map and identity paths the shipped 1-D configs never
reach, and the reduced route run on its own. A change that deliberately
alters the numbers or the file format regenerates it and says why:

    python tests/test_golden_outputs.py            # list the entries the code changes
    python tests/test_golden_outputs.py --write    # and rewrite golden_outputs.json
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # run as a script: use this checkout's package
    sys.path.insert(0, str(REPO / "src"))

from diracfluid.runner import run  # noqa: E402
from diracfluid.scenarios import load_scenario, scenario_from_dict  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

MULTI_AXIS_CONFIGS = {
    "golden_2d_both": {
        "name": "golden_2d_both",
        "grid": {"extents": [8.0, 8.0], "points": [16, 16]},
        "physics": {"eps_density_rel": 1e-3},
        "initial_data": {"recipe": "gaussian_packet", "k": [0.5, 0.25],
                         "width": [1.5, 2.0], "spin_angle": 0.35, "relative_phase": 0.2},
        "duration": 0.5,
        "pipeline": "both",
        "fluid_map": True,
        "diagnostics": ["equivalence", "conservation", "identities", "approximation_chain"],
    },
    "golden_3d_dirac": {
        "name": "golden_3d_dirac",
        "grid": {"extents": [8.0, 8.0, 8.0], "points": [8, 8, 8]},
        "physics": {"eps_beta_rel": 1e-5},
        "initial_data": {"recipe": "gaussian_packet", "k": [0.3, 0.0, 0.2],
                         "width": 2.0, "spin_angle": 0.6, "relative_phase": -0.4},
        "duration": 0.75,
        "pipeline": "dirac",
        "fluid_map": True,
        "diagnostics": ["conservation", "identities", "approximation_chain"],
        "alpha_branch": "plus",
        "derivative_order": 4,
    },
    "golden_2d_reduced": {
        "name": "golden_2d_reduced",
        "grid": {"extents": [8.0, 8.0], "points": [16, 16]},
        "initial_data": {"recipe": "gaussian_packet", "k": [-0.25, 0.5],
                         "width": 1.75, "spin_angle": 0.9, "relative_phase": 0.7},
        "duration": 0.75,
        "record_every": 2,
        "pipeline": "reduced",
        "fluid_map": True,
        "diagnostics": ["conservation", "identities", "approximation_chain"],
    },
}


def _output_hashes(run_dir: Path) -> dict:
    return {p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in run_dir.rglob("*") if p.is_file() and p.name != "manifest.json"}


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """The run directory of a shipped config, run once per module."""
    out = tmp_path_factory.mktemp("shipped")

    def run_dir(name):
        if not (out / name).is_dir():
            run(load_scenario(REPO / "configs" / f"{name}.json"), out)
        return out / name
    return run_dir


def test_every_shipped_config_is_pinned():
    shipped_names = {p.stem for p in (REPO / "configs").glob("*.json")}
    assert shipped_names == set(GOLDEN) - set(MULTI_AXIS_CONFIGS)


@pytest.mark.parametrize("name", sorted(set(GOLDEN) - set(MULTI_AXIS_CONFIGS)))
def test_shipped_config_outputs_match_golden_hashes(shipped, name):
    assert _output_hashes(shipped(name)) == GOLDEN[name]


def test_rest_config_fluid_map_is_exact(shipped):
    # psi2 stays 0 and d0 psi1 = -i mu psi1 from the equation of motion, so
    # v_C = (c, 0, 0, 0) and rho_0 = 2 rho_bar hold to rounding at every level
    chain = np.genfromtxt(shipped("rest") / "diagnostics" / "approximation_chain.csv",
                          delimiter=",", names=True)
    assert len(chain) == 19
    for column in ("median_speed_dev", "max_speed_dev", "median_density_dev",
                   "max_density_dev"):
        assert np.all(chain[column] <= 1e-15), column


@pytest.mark.parametrize("name", sorted(MULTI_AXIS_CONFIGS))
def test_multi_axis_outputs_match_golden_hashes(tmp_path, name):
    run(scenario_from_dict(MULTI_AXIS_CONFIGS[name]), tmp_path)
    assert _output_hashes(tmp_path / name) == GOLDEN[name]


def _fresh_hashes() -> dict:
    """The output hashes of every pinned config, from the current code."""
    fresh = {}
    with tempfile.TemporaryDirectory() as tmp:
        scenarios = [load_scenario(path) for path in sorted((REPO / "configs").glob("*.json"))]
        scenarios += [scenario_from_dict(config) for config in MULTI_AXIS_CONFIGS.values()]
        for scenario in scenarios:
            fresh[scenario.name] = _output_hashes(run(scenario, tmp).run_dir)
    return fresh


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Compare the pinned output hashes with "
                                     "the current code's, and print each entry that differs.")
    parser.add_argument("--write", action="store_true", help="rewrite golden_outputs.json")
    args = parser.parse_args(argv)
    fresh = _fresh_hashes()
    changed = [f"{name}/{path}" for name in sorted(set(fresh) | set(GOLDEN))
               for path in sorted(set(fresh.get(name, {})) | set(GOLDEN.get(name, {})))
               if fresh.get(name, {}).get(path) != GOLDEN.get(name, {}).get(path)]
    print("\n".join(changed) if changed else "no entry changed")
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
