"""Run a scenario end to end and write the deterministic output tree.

    <outdir>/<name>/
        manifest.json                 config echo, scheme tags, output hashes
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

The tree is built in a hidden staging directory, `<outdir>/.<name>.*/`, and
renamed into place over any earlier tree once its manifest is written.  The
staging directory is removed on success and on any error, an interrupt
included, so `<outdir>/<name>` always holds exactly one whole run.

`run` builds one `FluidState` per interior level (only the middle one when
neither the fluid map nor the approximation chain is asked for), and the
identity chain of the middle level, `identity_rows_at`, reads its amplitudes,
gradients and alpha roots from that state instead of rebuilding them.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import evolve, n_steps_for
from .fluid import MASK_NAMES, FluidState, PointMask, fluid_state
from .lagrangian import (conservation_report, fisher_terms, identity_residual,
                         lagrangian_classical_clebsch, lagrangian_classical_fluid,
                         lagrangian_quantum_polar, lagrangian_spinor_from_gradients,
                         lagrangian_split)
from .lattice import (file_sha256, four_gradient, index_prefixes, minkowski_square,
                      write_csv, write_snapshot)
from .reduction import EquivalenceReport, evolve_reduced, route_equivalence
from .scenarios import Scenario, build_initial
from .version import __version__


@dataclass
class RunResult:
    run_dir: Path
    manifest: dict
    equivalence: EquivalenceReport | None = None


_FLUID_HEADER = "axis0,axis1,axis2,rho_bar,theta,alpha,vC0,vC1,vC2,vC3,rho_0,a_0,mask"
_FLUID_ROW = "%s" + "%.17g," * 9 + "%s\n"
_MASK_LABELS = np.array([MASK_NAMES[m] for m in PointMask])


def _write_rows(path: Path, header: str, rows: np.ndarray) -> None:
    columns = np.atleast_2d(rows).T
    write_csv(path, header, [(",".join(["%.17g"] * len(columns)) + "\n", columns)])


def _fluid_csv(path: Path, fs: FluidState) -> None:
    numeric = [fs.rho_bar, fs.theta, fs.alpha, *fs.v_c, fs.rho_0, fs.a_0]
    columns = [index_prefixes(fs.grid.shape), *(v.reshape(-1) for v in numeric),
               _MASK_LABELS[fs.mask.reshape(-1)]]
    write_csv(path, _FLUID_HEADER, [(_FLUID_ROW, columns)])


def identity_rows_at(traj, level: int, fs: FluidState, params, order: int, branch: str):
    """Evaluate the Lagrangian identity chain at one interior recorded level.

    fs is that level's fluid map (same order and branch), whose amplitudes,
    gradients, alpha roots and v_C are reused; the amplitude gradients come
    from the same `four_gradient`, so each row reports pure algebraic
    consistency, not discretization error.
    """
    tag = "x".join(str(p) for p in traj.grid.points)
    amp, grads, roots = fs.amplitudes, fs.gradients, fs.roots
    ok = fs.mask != int(PointMask.LOW_DENSITY)

    l_spinor = lagrangian_spinor_from_gradients(traj.psi1[level], grads.dpsi, params)

    def _amp_fields(psi1):
        r_up, r_down = np.abs(psi1[0]), np.abs(psi1[1])
        return np.stack([r_up, r_down, np.sqrt(r_up ** 2 + r_down ** 2),
                         np.arctan2(r_down, r_up)])

    levels = [_amp_fields(traj.psi1[n]) for n in (level - 1, level, level + 1)]
    grad = four_gradient(*levels, traj.record_step, traj.grid, order)
    dR_up, dR_down, dR, dtheta = (grad[:, i] for i in range(4))
    l_q, l_c = lagrangian_split(amp.R_up, amp.R_down, dR_up, dR_down,
                                grads.d_nu_up, grads.d_nu_down, params)
    l_polar = lagrangian_quantum_polar(amp.R, amp.theta, dR, dtheta, params)
    fisher_amp, fisher_angle = fisher_terms(np.sqrt(2.0) * amp.R, amp.theta,
                                            np.sqrt(2.0) * dR, dtheta, params)

    # the mask folds negative-discriminant points into COMPLEX_ALPHA, so the
    # roots' own flags decide; among these points COMPLEX_ALPHA means v_C.v_C < 0
    clebsch_ok = ok & ~roots.degenerate & ~roots.complex_disc
    timelike = fs.mask != int(PointMask.COMPLEX_ALPHA)
    l_clebsch = lagrangian_classical_clebsch(amp.rho_bar, fs.v_c, params)
    l_fluid = lagrangian_classical_fluid(fs.rho_0, fs.v_c, params)

    return [
        identity_residual("split_identity", tag, "-", l_spinor, l_q + l_c, ok,
                          scale=np.maximum(np.abs(l_q), np.abs(l_c))),
        identity_residual("polar_quantum", tag, "-", l_q, l_polar, ok),
        identity_residual("fisher_substitution", tag, "-", l_polar,
                          fisher_amp + fisher_angle, ok),
        identity_residual("clebsch_classical", tag, branch, l_c, l_clebsch, clebsch_ok),
        identity_residual("fluid_classical", tag, branch, l_clebsch, l_fluid,
                          clebsch_ok & timelike),
    ]


def chain_row(fs: FluidState, params) -> np.ndarray:
    """Near-classical limit metrics over the usable (OK or fallback) points."""
    usable = fs.usable
    vv = minkowski_square(fs.v_c)
    speed = np.sqrt(np.where(vv >= 0, vv, 0.0))
    speed_dev = np.abs(speed / params.c - 1.0)
    dens_dev = np.abs(fs.rho_0 / np.where(usable, 2.0 * fs.rho_bar, 1.0) - 1.0)
    space_speed = np.sqrt(sum(fs.v_c[i] ** 2 for i in (1, 2, 3)))
    if np.any(usable):
        stats = [float(np.median(speed_dev[usable])), float(np.max(speed_dev[usable])),
                 float(np.median(dens_dev[usable])), float(np.max(dens_dev[usable])),
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

    The tree is staged beside outdir/name and replaces it whole, or not at all.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    run_dir = outdir / scenario.name
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


def _write_tree(scenario: Scenario, run_dir: Path):
    """Evolve the scenario, write its tree into run_dir and return (manifest, equivalence)."""
    for sub in ("snapshots", "diagnostics"):
        (run_dir / sub).mkdir(parents=True)

    grid = scenario.grid
    params = scenario.params
    order = scenario.derivative_order
    initial = build_initial(scenario)

    direct = None
    recon = None
    if scenario.pipeline in ("dirac", "both"):
        direct = evolve(initial, scenario.duration, params,
                        record_every=scenario.record_every, order=order)
    if scenario.pipeline in ("reduced", "both"):
        recon = evolve_reduced(initial, scenario.duration, params,
                               record_every=scenario.record_every, order=order)
    primary = direct if direct is not None else recon

    outputs = []

    nt = len(primary.x0)
    for n in range(nt):
        step = n * scenario.record_every
        for name, field in (("psi1", primary.psi1[n]), ("psi2", primary.psi2[n])):
            rel = f"snapshots/{name}_{step:06d}.csv"
            write_snapshot(run_dir / rel, field, grid)
            outputs.append(rel)

    chain_rows = []
    want_chain = "approximation_chain" in scenario.diagnostics
    want_ids = "identities" in scenario.diagnostics
    mid = max(1, min(nt // 2, nt - 2))
    if scenario.fluid_map or want_chain:
        levels = range(1, nt - 1)
    else:
        levels = [mid] if want_ids and nt >= 3 else []
    for n in levels:
        fs = fluid_state(primary.psi1[n - 1], primary.psi1[n], primary.psi1[n + 1],
                         primary.record_step, float(primary.x0[n]), grid, params,
                         order=order, branch=scenario.alpha_branch)
        if scenario.fluid_map:
            rel = f"snapshots/fluid_{n * scenario.record_every:06d}.csv"
            _fluid_csv(run_dir / rel, fs)
            outputs.append(rel)
        if want_chain:
            chain_rows.append(chain_row(fs, params))
        if want_ids and n == mid:
            rows = identity_rows_at(primary, mid, fs, params, order, scenario.alpha_branch)
            rel = "diagnostics/identities.csv"
            write_csv(run_dir / rel, _IDENT_HEADER, [("%s\n", ([r.row() for r in rows],))])
            outputs.append(rel)

    equivalence = None
    if "equivalence" in scenario.diagnostics and direct is not None and recon is not None:
        equivalence = route_equivalence(direct, recon, order)
        rel = "diagnostics/equivalence.csv"
        _write_rows(run_dir / rel, _EQUIV_HEADER, equivalence.rows())
        outputs.append(rel)

    if "conservation" in scenario.diagnostics:
        report = conservation_report(primary, order=order)
        rel = "diagnostics/conservation.csv"
        _write_rows(run_dir / rel, _CONSV_HEADER, report.rows())
        outputs.append(rel)

    if chain_rows:
        rel = "diagnostics/approximation_chain.csv"
        _write_rows(run_dir / rel, _CHAIN_HEADER, np.vstack(chain_rows))
        outputs.append(rel)

    n_steps = n_steps_for(scenario.duration, grid.dt, scenario.record_every)
    manifest = {
        "name": scenario.name,
        "package_version": __version__,
        "config": scenario.config_echo,
        "n_steps": n_steps,
        "duration_actual": n_steps * grid.dt,
        "scheme": {
            "dirac": f"rk4/central-{order}" if direct is not None else None,
            "reduced": f"three-level/central-{order}" if recon is not None else None,
        },
        "outputs": {rel: file_sha256(run_dir / rel) for rel in sorted(outputs)},
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest, equivalence
