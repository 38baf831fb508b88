"""Workload definitions: seeded input generation and output verification.

Each workload fixes its grid, pipeline and recording cadence; the seed only
picks initial-data parameters (spin angle, relative phase, packet centre or
direction), so the work done per sample does not depend on the seed.

The benchmark writes every input itself (config JSON and, for the custom
recipe, the CSV snapshots), so the program only ever sees generated inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Step counts are sized so one sample takes about a second or two on a
# 2-core x86 box, which gives each 20 s run enough samples for a steady median.
REST_STEPS = 1000
REST_DT = 5e-5
PACKET2D_STEPS = 20
FLUID3D_STEPS = 2

# Physics gates that any correct implementation passes.  They bound the
# run's own diagnostics, never today's exact numbers.
CHARGE_DRIFT_MAX = 1e-6          # the probability_current check's gate
REST_EQUIV_SUP_MAX = 1e-8        # both routes agree to round-off at rest
PACKET_EQUIV_SUP_MAX = 1e-2      # unit-peak packets: second-order gap, not O(1)
IDENTITY_SUP_MAX = 1e-8          # rows with no stencil in them hold to round-off
ALGEBRAIC_IDENTITIES = ("fisher_substitution", "clebsch_classical", "fluid_classical")
REST_CHAIN_DEV_MAX = 1e-3        # rest limit of the fluid map, up to the time stencil

CHECK_COUNT = 9

# RK4 loses charge at about (omega dt)^6 / 72 per step; a CFL factor of 1/8
# keeps the packets' drift two decades under CHARGE_DRIFT_MAX.
PACKET_CFL = 0.125


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "run" (load_scenario + runner.run) or "check" (run_checks)
    why: str
    steps: int = 0   # time steps per pipeline
    levels: int = 0  # recorded levels per pipeline
    pipelines: tuple = ()


WORKLOADS = {
    w.name: w for w in (
        Workload("rest-longrun", "run",
                 "1-D 8-point rest state, both pipelines, tiny dt: per-call "
                 "overhead in dynamics/reduction/lattice dominates, output is negligible",
                 steps=REST_STEPS, levels=21, pipelines=("dirac", "reduced")),
        Workload("packet-2d", "run",
                 "2-D 128^2 packet, both pipelines, 3 recorded levels: time goes to "
                 "numpy memory passes and CSV output, and sigma^2 is exercised",
                 steps=PACKET2D_STEPS, levels=3,
                 pipelines=("dirac", "reduced")),
        Workload("fluid-io-3d", "run",
                 "3-D 32^3 packet read from CSV via the custom recipe, every step "
                 "recorded with the fluid map: snapshot write/read, fluid CSV and hashing",
                 steps=FLUID3D_STEPS, levels=FLUID3D_STEPS + 1,
                 pipelines=("dirac",)),
        Workload("check-suite", "check",
                 "run_checks() over all nine checks: the user's verification command "
                 "and the only path through synthetic, clifford and checks"),
    )
}


def _spin_params(rng: np.random.Generator) -> tuple[float, float]:
    return float(rng.uniform(0.2, 1.2)), float(rng.uniform(0.0, 2.0 * math.pi))


def rest_longrun_config(rng: np.random.Generator) -> dict:
    chi, phase = _spin_params(rng)
    return {
        "name": "rest_longrun",
        "grid": {"extents": [2.0 * math.pi], "points": [8], "dt": REST_DT},
        "physics": {"hbar": 1.0, "m": 1.0, "c": 1.0},
        "initial_data": {"recipe": "rest_state", "amplitude": 1.0,
                         "spin_angle": chi, "relative_phase": phase},
        "duration": REST_STEPS * REST_DT,
        "record_every": REST_STEPS // 20,
        "pipeline": "both",
        "fluid_map": True,
        "diagnostics": ["equivalence", "conservation", "approximation_chain"],
    }


def packet_2d_config(rng: np.random.Generator) -> dict:
    chi, phase = _spin_params(rng)
    length = 40.0
    direction = rng.uniform(0.0, 2.0 * math.pi)
    center = [length / 2.0 + rng.uniform(-2.0, 2.0) for _ in range(2)]
    dt = PACKET_CFL * length / 128
    return {
        "name": "packet_2d",
        "grid": {"extents": [length, length], "points": [128, 128],
                 "cfl_factor": PACKET_CFL},
        "physics": {"hbar": 1.0, "m": 1.0, "c": 1.0},
        "initial_data": {"recipe": "gaussian_packet",
                         "k": [0.5 * math.cos(direction), 0.5 * math.sin(direction)],
                         "center": center, "width": 4.0,
                         "spin_angle": chi, "relative_phase": phase},
        "duration": PACKET2D_STEPS * dt,
        "record_every": PACKET2D_STEPS // 2,
        "pipeline": "both",
        "fluid_map": False,
        "diagnostics": ["equivalence", "conservation", "identities"],
    }


FLUID3D_LENGTH = 16.0
FLUID3D_POINTS = 32


def fluid_3d_config() -> dict:
    dt = PACKET_CFL * FLUID3D_LENGTH / FLUID3D_POINTS
    return {
        "name": "fluid_io_3d",
        "grid": {"extents": [FLUID3D_LENGTH] * 3, "points": [FLUID3D_POINTS] * 3,
                 "cfl_factor": PACKET_CFL},
        "physics": {"hbar": 1.0, "m": 1.0, "c": 1.0},
        "initial_data": {"recipe": "custom", "psi1_file": "psi1_init.csv",
                         "psi2_file": "psi2_init.csv"},
        "duration": FLUID3D_STEPS * dt,
        "record_every": 1,
        "pipeline": "dirac",
        "fluid_map": True,
        "diagnostics": ["conservation", "identities", "approximation_chain"],
    }


def fluid_3d_fields(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A 3-D Gaussian packet with the modewise positive-energy closure (hbar=m=c=1)."""
    chi, phase = _spin_params(rng)
    n, length = FLUID3D_POINTS, FLUID3D_LENGTH
    dx = length / n
    x = np.arange(n) * dx
    direction = rng.normal(size=3)
    k = 0.5 * direction / np.linalg.norm(direction)
    center = length / 2.0 + rng.uniform(-1.0, 1.0, size=3)
    width = 2.0
    xs = np.meshgrid(x, x, x, indexing="ij")
    envelope = np.exp(-sum((xs[a] - center[a]) ** 2 for a in range(3)) / (2.0 * width ** 2))
    carrier = envelope * np.exp(1j * sum(k[a] * xs[a] for a in range(3)))
    pair = np.array([math.cos(chi), complex(math.cos(phase), math.sin(phase)) * math.sin(chi)])
    psi1 = pair[:, None, None, None] * carrier[None]

    q = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    qx, qy, qz = np.meshgrid(q, q, q, indexing="ij")
    denom = np.sqrt(qx ** 2 + qy ** 2 + qz ** 2 + 1.0) + 1.0
    h1 = np.fft.fftn(psi1, axes=(1, 2, 3))
    # (sigma . q) applied to the two components
    h2 = np.stack([qz * h1[0] + (qx - 1j * qy) * h1[1],
                   (qx + 1j * qy) * h1[0] - qz * h1[1]]) / denom[None]
    psi2 = np.fft.ifftn(h2, axes=(1, 2, 3))
    return psi1, psi2


def write_complex_csv(path: Path, field: np.ndarray) -> None:
    """Write a (2, n, n, n) complex field in the snapshot CSV layout, 17 digits."""
    ncomp, shape = field.shape[0], field.shape[1:]
    idx = np.indices(shape).reshape(len(shape), -1)
    npts = idx.shape[1]
    flat = field.reshape(ncomp, npts)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("axis0,axis1,axis2,component,re,im\n")
        writer = csv.writer(fh, lineterminator="\n")
        for c in range(ncomp):
            writer.writerows(zip(idx[0], idx[1], idx[2], [c] * npts,
                                 ("%.17g" % v for v in flat[c].real),
                                 ("%.17g" % v for v in flat[c].imag)))


def generate_inputs(workload: Workload, seed: int, inputs_dir: Path) -> Path | None:
    """Write the workload's inputs under inputs_dir; return the config path."""
    if workload.kind == "check":
        return None
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if workload.name == "rest-longrun":
        config = rest_longrun_config(rng)
    elif workload.name == "packet-2d":
        config = packet_2d_config(rng)
    else:
        config = fluid_3d_config()
        psi1, psi2 = fluid_3d_fields(rng)
        write_complex_csv(inputs_dir / "psi1_init.csv", psi1)
        write_complex_csv(inputs_dir / "psi2_init.csv", psi2)
    path = inputs_dir / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Output verification


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _csv_columns(path: Path) -> dict:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def tree_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())


def verify_run(workload: Workload, config: dict, run_dir: Path) -> list[str]:
    """Return the reasons a run's output tree is wrong (empty when it is right)."""
    from diracfluid.lattice import make_grid, read_snapshot

    problems = []
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    manifest = json.loads(manifest_path.read_text())
    listed = manifest.get("outputs", {})
    on_disk = {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*") if p.is_file()}
    if on_disk != set(listed) | {"manifest.json"}:
        problems.append(f"tree holds {sorted(on_disk ^ (set(listed) | {'manifest.json'}))} "
                        "beyond or short of the manifest")
    for rel, digest in listed.items():
        if (run_dir / rel).is_file() and _sha256(run_dir / rel) != digest:
            problems.append(f"{rel}: sha256 differs from the manifest")

    if manifest.get("n_steps") != workload.steps:
        problems.append(f"n_steps {manifest.get('n_steps')} != {workload.steps}")
    every = config["record_every"]
    steps = [n * every for n in range(workload.levels)]
    expected = {f"snapshots/{name}_{s:06d}.csv" for s in steps for name in ("psi1", "psi2")}
    if config["fluid_map"]:
        expected |= {f"snapshots/fluid_{s:06d}.csv" for s in steps[1:-1]}
    expected |= {f"diagnostics/{d}.csv" for d in config["diagnostics"]}
    if set(listed) != expected:
        problems.append(f"outputs {sorted(set(listed) ^ expected)} differ from the config's")
        return problems

    grid_cfg = config["grid"]
    grid = make_grid(grid_cfg["extents"], grid_cfg["points"], dt=grid_cfg.get("dt"),
                     cfl_factor=grid_cfg.get("cfl_factor", 0.25))
    last = read_snapshot(run_dir / f"snapshots/psi1_{steps[-1]:06d}.csv", grid)
    if last.shape != (2,) + grid.shape or not np.all(np.isfinite(last)):
        problems.append("last psi1 snapshot is not a finite (2, *grid) field")

    diag = run_dir / "diagnostics"
    if "equivalence" in config["diagnostics"]:
        sup = _floats(_csv_columns(diag / "equivalence.csv")["sup_discrepancy"])
        limit = REST_EQUIV_SUP_MAX if workload.name == "rest-longrun" else PACKET_EQUIV_SUP_MAX
        if len(sup) != workload.levels or not np.all(np.isfinite(sup)) or sup.max() >= limit:
            problems.append(f"equivalence sup discrepancy {sup.max():.3g} not below {limit:g}")
    if "conservation" in config["diagnostics"]:
        drift = _floats(_csv_columns(diag / "conservation.csv")["charge_drift"])
        if len(drift) != workload.levels or not np.all(np.isfinite(drift)) \
                or drift.max() >= CHARGE_DRIFT_MAX:
            problems.append(f"charge drift {drift.max():.3g} not below {CHARGE_DRIFT_MAX:g}")
    if "identities" in config["diagnostics"]:
        cols = _csv_columns(diag / "identities.csv")
        sup = dict(zip(cols["identity_name"], _floats(cols["residual_sup"])))
        if len(sup) != 5 or not np.all(np.isfinite(list(sup.values()))):
            problems.append("identity rows missing or not finite")
        for name in ALGEBRAIC_IDENTITIES:
            if not sup.get(name, np.inf) < IDENTITY_SUP_MAX:
                problems.append(f"{name} residual sup {sup.get(name)} not below "
                                f"{IDENTITY_SUP_MAX:g}")
    if "approximation_chain" in config["diagnostics"]:
        cols = _csv_columns(diag / "approximation_chain.csv")
        if len(cols["x0"]) != workload.levels - 2:
            problems.append("approximation_chain rows != interior levels")
        elif workload.name == "rest-longrun":
            devs = np.concatenate([_floats(cols["max_speed_dev"]),
                                   _floats(cols["max_density_dev"])])
            if not np.all(np.isfinite(devs)) or devs.max() >= REST_CHAIN_DEV_MAX:
                problems.append("rest limit of the fluid map is not exact")
    return problems


def verify_checks(checks: list[dict]) -> tuple[list[str], list[str]]:
    """Return (wrong, over_gate): checks that FAIL, and checks over their time gate.

    The suite reports a check over its wall-clock gate as FAIL whatever it
    computed, so such a check fails the sample without marking the output wrong.
    """
    over = [c for c in checks if c["runtime_s"] > c["limit_s"]]
    wrong = [f"{c['name']}: FAIL {c['details']}" for c in checks
             if not c["passed"] and c not in over]
    if len(checks) != CHECK_COUNT:
        wrong.append(f"{len(checks)} checks ran, expected {CHECK_COUNT}")
    return wrong, [f"{c['name']}: FAIL on its gate, {c['runtime_s']:.4f}s > {c['limit_s']:g}s"
                   for c in over]
