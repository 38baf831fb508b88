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
`lattice.write_csv`, which streams rows in fixed-size blocks; the file format
is unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import evolve, n_steps_for
from .fluid import (MASK_NAMES, FluidState, PointMask, amplitudes,
                    clebsch_alpha, clebsch_velocity, fluid_state,
                    phase_gradients, rest_density)
from .lagrangian import (conservation_report, fisher_terms, four_gradient,
                         identity_residual, lagrangian_classical_clebsch,
                         lagrangian_classical_fluid, lagrangian_quantum_polar,
                         lagrangian_spinor, lagrangian_split)
from .lattice import (file_sha256, index_prefixes, minkowski_square, write_csv,
                      write_snapshot)
from .reduction import (EquivalenceReport, evolve_reduced, route_equivalence,
                        unhat_trajectory)
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


def _grid_tag(grid) -> str:
    return "x".join(str(p) for p in grid.points)


def identity_rows_at(traj, level: int, params, order: int, branch: str):
    """Evaluate the Lagrangian identity chain at one interior recorded level.

    Gradients come from the same stencils the fluid map uses, so each row
    reports pure algebraic consistency, not discretization error.
    """
    grid = traj.grid
    h = traj.record_step
    tag = _grid_tag(grid)
    prev, curr, nxt = traj.psi1[level - 1], traj.psi1[level], traj.psi1[level + 1]

    amp = amplitudes(curr, params)
    grads = phase_gradients(prev, curr, nxt, h, grid, params, order)
    low = amp.low_density | grads.low_density
    ok = ~low

    l_spinor = lagrangian_spinor(prev, curr, nxt, h, grid, params, order)

    def _amp_levels(which):
        return [np.abs(traj.psi1[n][which]) for n in (level - 1, level, level + 1)]

    r_up_levels = _amp_levels(0)
    r_down_levels = _amp_levels(1)
    dR_up = four_gradient(r_up_levels[0], r_up_levels[1], r_up_levels[2], h, grid, order)
    dR_down = four_gradient(r_down_levels[0], r_down_levels[1], r_down_levels[2], h, grid, order)
    l_q, l_c = lagrangian_split(amp.R_up, amp.R_down, dR_up, dR_down,
                                grads.d_nu_up, grads.d_nu_down, params)

    r_levels = [np.sqrt(a ** 2 + b ** 2) for a, b in zip(r_up_levels, r_down_levels)]
    theta_levels = [np.arctan2(b, a) for a, b in zip(r_up_levels, r_down_levels)]
    dR = four_gradient(r_levels[0], r_levels[1], r_levels[2], h, grid, order)
    dtheta = four_gradient(theta_levels[0], theta_levels[1], theta_levels[2], h, grid, order)
    l_polar = lagrangian_quantum_polar(amp.R, amp.theta, dR, dtheta, params)
    fisher_amp, fisher_angle = fisher_terms(np.sqrt(2.0) * amp.R, amp.theta,
                                            np.sqrt(2.0) * dR, dtheta, params)

    alpha = clebsch_alpha(grads.d_nu, grads.d_beta, amp.theta, params, branch)
    fallback = low | alpha.degenerate | alpha.complex_disc
    v_c = clebsch_velocity(alpha.alpha, grads.d_nu, grads.d_beta, fallback)
    rho_0, _, vv, negative = rest_density(amp.rho_bar, v_c, params)
    clebsch_ok = ok & ~alpha.degenerate & ~alpha.complex_disc
    l_clebsch = lagrangian_classical_clebsch(amp.rho_bar, v_c, params)
    l_fluid = lagrangian_classical_fluid(rho_0, v_c, params)

    return [
        identity_residual("split_identity", tag, "-", l_spinor, l_q + l_c, ok,
                          scale=np.maximum(np.abs(l_q), np.abs(l_c))),
        identity_residual("polar_quantum", tag, "-", l_q, l_polar, ok),
        identity_residual("fisher_substitution", tag, "-", l_polar,
                          fisher_amp + fisher_angle, ok),
        identity_residual("clebsch_classical", tag, branch, l_c, l_clebsch, clebsch_ok),
        identity_residual("fluid_classical", tag, branch, l_clebsch, l_fluid,
                          clebsch_ok & ~negative),
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
    """Execute the scenario and write all requested artifacts under outdir/name."""
    run_dir = Path(outdir) / scenario.name
    snap_dir = run_dir / "snapshots"
    diag_dir = run_dir / "diagnostics"
    snap_dir.mkdir(parents=True, exist_ok=True)
    diag_dir.mkdir(parents=True, exist_ok=True)

    grid = scenario.grid
    params = scenario.params
    order = scenario.derivative_order
    initial = build_initial(scenario)

    direct = None
    recon = None
    reduced = None
    if scenario.pipeline in ("dirac", "both"):
        direct = evolve(initial, scenario.duration, params,
                        record_every=scenario.record_every, order=order)
    if scenario.pipeline in ("reduced", "both"):
        reduced = evolve_reduced(initial, scenario.duration, params,
                                 record_every=scenario.record_every, order=order)
        recon = unhat_trajectory(reduced, order=order)
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
    if (scenario.fluid_map or want_chain) and nt >= 3:
        for n in range(1, nt - 1):
            fs = fluid_state(primary.psi1[n - 1], primary.psi1[n], primary.psi1[n + 1],
                             primary.record_step, float(primary.x0[n]), grid, params,
                             order=order, branch=scenario.alpha_branch)
            if scenario.fluid_map:
                rel = f"snapshots/fluid_{n * scenario.record_every:06d}.csv"
                _fluid_csv(run_dir / rel, fs)
                outputs.append(rel)
            if want_chain:
                chain_rows.append(chain_row(fs, params))

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

    if "identities" in scenario.diagnostics and nt >= 3:
        mid = max(1, min(nt // 2, nt - 2))
        rows = identity_rows_at(primary, mid, params, order, scenario.alpha_branch)
        rel = "diagnostics/identities.csv"
        write_csv(run_dir / rel, _IDENT_HEADER, [("%s\n", ([r.row() for r in rows],))])
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
            "reduced": f"three-level/central-{order}" if reduced is not None else None,
        },
        "outputs": {rel: file_sha256(run_dir / rel) for rel in sorted(outputs)},
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunResult(run_dir=run_dir, manifest=manifest, equivalence=equivalence)
