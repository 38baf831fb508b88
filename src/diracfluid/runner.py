"""Run a scenario end to end and write the deterministic output tree.

    <outdir>/<name>/
        manifest.json                 config echo, scheme tags, sha256 of every other file
        snapshots/psi1_XXXXXX.csv     spinor fields at the recorded steps
        snapshots/psi2_XXXXXX.csv
        snapshots/fluid_XXXXXX.csv    fluid variables (interior levels only)
        diagnostics/equivalence.csv
        diagnostics/conservation.csv
        diagnostics/identities.csv
        diagnostics/approximation_chain.csv

The manifest carries no timestamps or machine identifiers and every float is
written at 17 significant digits, so re-running the same config produces
byte-identical files.  Every CSV is written by the one encoder,
`lattice.write_csv`, which streams rows in fixed-size blocks.

The tree is built in a hidden staging directory, `<outdir>/.<name>.*/`, the
manifest hashes every file written there, and the tree is renamed into place
over an earlier run tree (a directory holding `manifest.json`); anything else
at `<outdir>/<name>` raises `FileExistsError` before a step is taken.  The
staging directory is removed on success and on any error, an interrupt
included, so `<outdir>/<name>` always holds exactly one whole run.

`run` consumes the recorded levels in one loop, one level at a time: its
psi1 and psi2 snapshots, its `conservation_report` as a one-level
trajectory (the reports are joined into conservation.csv at the end, with
the bits of the whole trajectory's report), and on interior levels (only
the middle one when neither the fluid map nor the approximation chain is
asked for) one `FluidState`, with its fluid CSV, its chain row and, on the
middle level, the identity chain (`identity_rows_at`), which reads
everything, psi1, params, order and branch included, from that state.  Each
level's d0 is `dynamics.dirac_rhs` of its
(psi1, psi2), the rebuilt pair on the reduced route, so no output of a level
depends on `record_every`, except `equivalence.csv`'s `kg_residual`: its
d0^2 spans `record_every` steps.

Every level comes from a route's stream (`dynamics.direct_stream`,
`reduction.reduced_stream`), which hands it on as the steps make it, without
the step's stencil.  A single-route run feeds the loop from its stream: the
runner holds neither the initial state nor a consumed level, so a run's
peak memory does not grow with its level count.  A `both` run collects the
direct stream (`evolve`), folds the reduced one against it level by level
(`reduction.route_equivalence`), so it holds no reduced trajectory, and
feeds the loop from the direct one.  Each level's `FluidState` dies in
`_write_level`, and the identity rows take the stencil d_mu of the two
amplitude fields only, one at a time, and rotate those into the polar and
Fisher forms by the chain rule.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from collections import deque
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .dynamics import SpinorTrajectory, direct_stream, evolve, n_levels_for, n_steps_for
from .fluid import MASK_NAMES, FluidState, PointMask, fluid_state
from .lagrangian import (ConservationReport, conservation_report, identity_residual,
                         lagrangian_classical_clebsch, lagrangian_classical_fluid,
                         lagrangian_spinor_from_gradients, lagrangian_split, median,
                         quantum_polar_forms)
from .lattice import file_sha256, four_gradient, index_prefixes, write_csv, write_snapshot
from .reduction import EquivalenceReport, reduced_stream, route_equivalence
from .scenarios import Scenario, build_initial
from .version import __version__


@dataclass
class RunResult:
    run_dir: Path
    manifest: dict
    equivalence: EquivalenceReport | None = None


_FLUID_HEADER = "axis0,axis1,axis2,rho_bar,theta,alpha,vC0,vC1,vC2,vC3,rho_0,a_0,mask"
_FLUID_ROW = "%s" + "%.17g," * 9 + "%s\n"
_MASK_LABELS = np.array([MASK_NAMES[m] for m in PointMask], dtype="S")  # a quarter of "<U"
_IDENT_ROW = "%s,%s,%s,%.17g,%.17g,%.17g\n"


def _write_rows(path: Path, header: str, rows: np.ndarray) -> None:
    columns = np.atleast_2d(rows).T
    write_csv(path, header, [(",".join(["%.17g"] * len(columns)) + "\n", columns)])


def _fluid_csv(path: Path, fs: FluidState) -> None:
    numeric = [fs.rho_bar, fs.theta, fs.alpha, *fs.v_c, fs.rho_0, fs.a_0]
    columns = [index_prefixes(fs.grid.shape), *(v.reshape(-1) for v in numeric),
               _MASK_LABELS[fs.mask.reshape(-1)]]
    write_csv(path, _FLUID_HEADER, [(_FLUID_ROW, columns)])


def identity_rows_at(fs: FluidState):
    """Evaluate the Lagrangian identity chain on the level fs maps.

    fs's polar form (with its psi1), alpha flags, v_C.v_C and speed are reused,
    and its params, order and branch are those of the rows.  The two amplitude
    fields take d0 by the chain rule from the map's d0 psi1 and their spatial
    parts from the stencil, so the time parts of every row hold to rounding
    and the split row keeps the stencil's spatial error.  The polar and Fisher
    forms come from those two gradients by the chain rule
    (`lagrangian.quantum_polar_forms`), so their rows hold to rounding too.
    """
    tag = "x".join(str(p) for p in fs.grid.points)
    p, grid, params, branch = fs.polar, fs.grid, fs.params, fs.branch
    ok = fs.mask != int(PointMask.LOW_DENSITY)

    # d0|psi_s| = Re(psi_s* d0 psi_s)/|psi_s|, zero where the divisor is
    dR_up, dR_down = (four_gradient(r, np.real(np.conj(p.psi1[s]) * p.dpsi[0, s])
                                    / np.where(r > 0, r, 1.0), grid, fs.order)
                      for s, r in ((0, p.R_up), (1, p.R_down)))
    l_q, l_c = lagrangian_split(p.R_up, p.R_down, dR_up, dR_down,
                                p.d_nu_up, p.d_nu_down, params)
    l_polar, fisher = quantum_polar_forms(p.R, p.theta, dR_up, dR_down, params)
    del dR_up, dR_down  # overwritten by the former, read by nothing else
    rows = [identity_residual("split_identity", tag, "-",
                              lagrangian_spinor_from_gradients(p.psi1, p.dpsi, params),
                              l_q + l_c, ok, scale=np.maximum(np.abs(l_q), np.abs(l_c))),
            identity_residual("polar_quantum", tag, "-", l_q, l_polar, ok),
            identity_residual("fisher_substitution", tag, "-", l_polar, fisher, ok)]

    # the mask folds negative-discriminant points into COMPLEX_ALPHA, so the
    # roots' own flags decide; among these points COMPLEX_ALPHA means v_C.v_C < 0
    clebsch_ok = ok & ~fs.degenerate & ~fs.complex_disc
    timelike = fs.mask != int(PointMask.COMPLEX_ALPHA)
    l_clebsch = lagrangian_classical_clebsch(fs.rho_bar, fs.vv, params)
    rows.append(identity_residual("clebsch_classical", tag, branch, l_c, l_clebsch, clebsch_ok))
    l_fluid = lagrangian_classical_fluid(fs.rho_0, fs.speed, params)
    rows.append(identity_residual("fluid_classical", tag, branch, l_clebsch, l_fluid,
                                  clebsch_ok & timelike))
    return rows


def chain_row(fs: FluidState) -> np.ndarray:
    """Near-classical limit metrics over the usable (OK or fallback) points."""
    usable, params = fs.usable, fs.params
    speed_dev = np.abs(fs.speed / params.c - 1.0)
    dens_dev = np.abs(fs.rho_0 / np.where(usable, 2.0 * fs.rho_bar, 1.0) - 1.0)
    space_speed = np.sqrt(sum(fs.v_c[i] ** 2 for i in (1, 2, 3)))
    if np.any(usable):
        stats = [median(speed_dev[usable]), float(np.max(speed_dev[usable])),
                 median(dens_dev[usable]), float(np.max(dens_dev[usable])),
                 float(np.max(space_speed[usable])) / params.c]
    else:
        stats = [np.nan] * 5
    fracs = [fs.mask_fraction(PointMask.LOW_DENSITY),
             fs.mask_fraction(PointMask.DEGENERATE_BETA),
             fs.mask_fraction(PointMask.COMPLEX_ALPHA)]
    return np.array([fs.x0] + stats + fracs)


_CHAIN_HEADER = ("x0,median_speed_dev,max_speed_dev,median_density_dev,"
                 "max_density_dev,max_space_speed,frac_low_density,"
                 "frac_degenerate_beta,frac_complex_alpha")
_EQUIV_HEADER = "x0,sup_discrepancy,l2_discrepancy,kg_residual"
_CONSV_HEADER = "x0,divergence_l2,total_charge,charge_drift"
_IDENT_HEADER = "identity_name,grid_tag,branch,residual_l2,residual_sup,masked_fraction"


def run(scenario: Scenario, outdir) -> RunResult:
    """Execute the scenario and write all requested artifacts under outdir/name.

    The tree is staged beside outdir/name and replaces an earlier run tree whole, or not at all.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    run_dir = outdir / scenario.name
    if run_dir.exists() and not (run_dir / "manifest.json").is_file():
        raise FileExistsError(f"{run_dir} is not a run tree (no manifest.json); not replacing it")
    staging = Path(tempfile.mkdtemp(prefix=f".{scenario.name}.", dir=outdir))
    try:  # the tree is made inside the private staging directory, so it keeps the umask
        stage = staging / scenario.name
        manifest, equivalence = _write_tree(scenario, stage)
        if run_dir.exists():
            run_dir.rename(staging / "previous")
        stage.rename(run_dir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return RunResult(run_dir=run_dir, manifest=manifest, equivalence=equivalence)


def _levels(scenario: Scenario, run_dir: Path):
    """(x0, psi1, psi2) of every recorded level, and the route equivalence of a both run.

    One route streams its levels as its steps make them.  A both run folds the
    reduced stream against the collected direct one and keeps the direct one.
    """
    initial = build_initial(scenario)
    args = (scenario.duration, scenario.params, scenario.record_every,
            scenario.derivative_order)
    if scenario.pipeline == "dirac":
        return direct_stream(initial, *args), None
    if scenario.pipeline == "reduced":
        return reduced_stream(initial, *args), None
    direct, reduced = evolve(initial, *args), reduced_stream(initial, *args)
    del initial  # read by the two routes only
    equivalence = None
    if "equivalence" in scenario.diagnostics:
        equivalence = route_equivalence(direct, reduced)
        _write_rows(run_dir / "diagnostics/equivalence.csv", _EQUIV_HEADER, equivalence.rows())
    deque(reduced, maxlen=0)  # left unfolded (its (c*dt)^2 may underflow), it runs for its guards
    return zip(direct.x0.tolist(), direct.psi1, direct.psi2), equivalence


def _write_level(scenario: Scenario, run_dir: Path, n: int, x0: float, psi1, psi2,
                 identities: bool):
    """Write level n's fluid snapshot and identity rows; return its chain row if asked for."""
    fs = fluid_state(psi1, psi2, x0, scenario.grid, scenario.params,
                     order=scenario.derivative_order, branch=scenario.alpha_branch)
    if scenario.fluid_map:
        _fluid_csv(run_dir / f"snapshots/fluid_{n * scenario.record_every:06d}.csv", fs)
    if identities:
        columns = list(zip(*(astuple(r) for r in identity_rows_at(fs))))
        write_csv(run_dir / "diagnostics/identities.csv", _IDENT_HEADER, [(_IDENT_ROW, columns)])
    return chain_row(fs) if "approximation_chain" in scenario.diagnostics else None


def _write_tree(scenario: Scenario, run_dir: Path):
    """Evolve the scenario, write its tree into run_dir and return (manifest, equivalence)."""
    for sub in ("snapshots", "diagnostics"):
        (run_dir / sub).mkdir(parents=True)

    grid, order, params = scenario.grid, scenario.derivative_order, scenario.params
    n_steps = n_steps_for(scenario.duration, grid.dt, scenario.record_every)
    nt = n_levels_for(scenario.duration, grid.dt, scenario.record_every)
    want_chain = "approximation_chain" in scenario.diagnostics
    want_ids = "identities" in scenario.diagnostics
    want_consv = "conservation" in scenario.diagnostics
    interior = scenario.fluid_map or want_chain  # else only the middle level, for identities
    mid = nt // 2  # interior: validation asks for 3 levels when identities are wanted
    consv, chain_rows, n = [], [], 0
    levels, equivalence = _levels(scenario, run_dir)
    for x0, psi1, psi2 in levels:  # not enumerate: its reused tuple would hold the level
        step = n * scenario.record_every
        for name, field in (("psi1", psi1), ("psi2", psi2)):
            write_snapshot(run_dir / f"snapshots/{name}_{step:06d}.csv", field, grid)
        if want_consv:
            consv.append(conservation_report(SpinorTrajectory(
                np.array([x0]), psi1[None], psi2[None], grid, params, order)))
        if (interior and 0 < n < nt - 1) or (want_ids and n == mid):
            chain_rows.append(_write_level(scenario, run_dir, n, x0, psi1, psi2,
                                           want_ids and n == mid))
        n += 1
        del psi1, psi2  # before the next step

    if want_consv:
        _write_rows(run_dir / "diagnostics/conservation.csv", _CONSV_HEADER,
                    ConservationReport.join(consv).rows())
    if want_chain:
        _write_rows(run_dir / "diagnostics/approximation_chain.csv", _CHAIN_HEADER,
                    np.vstack(chain_rows))

    manifest = {
        "name": scenario.name,
        "package_version": __version__,
        "config": scenario.config_echo,
        "n_steps": n_steps,
        "duration_actual": n_steps * grid.dt,
        "scheme": {
            "dirac": f"rk4/central-{order}" if scenario.pipeline in ("dirac", "both") else None,
            "reduced": (f"three-level/central-{order}"
                        if scenario.pipeline in ("reduced", "both") else None),
        },
        "outputs": {path.relative_to(run_dir).as_posix(): file_sha256(path)
                    for path in sorted(run_dir.rglob("*")) if path.is_file()},
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest, equivalence
