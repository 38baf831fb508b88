"""Built-in verification suite: nine desk-scale checks with pinned tolerances.

Each check is self-contained (builds its own scenario or synthetic fields),
returns a CheckResult, and is also asserted one-to-one by the test suite.
Tolerances live here, next to the computations they bound.  A check of what a
run reports calls that code: the approximation chain reads `runner.chain_row`
of `fluid_state`, d0 from `dirac_rhs` included, for the packet and the rest limit,
and the polar and Fisher forms come from the runner's `quantum_polar_forms`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .clifford import anticommutation_deviation
from .dynamics import DiracState, evolve
from .fluid import clebsch_alpha, clebsch_velocity, fluid_state, rest_density
from .lagrangian import (conservation_report, lagrangian_classical_clebsch,
                         lagrangian_classical_fluid, lagrangian_spinor_from_gradients,
                         lagrangian_split, probability_current, quantum_polar_forms,
                         relative_residual)
from .lattice import make_grid, minkowski_square
from .params import PhysParams
from .reduction import equivalence_report, evolve_reduced
from .runner import chain_row, identity_rows_at
from .scenarios import (build_initial, positive_energy_closure,
                        scenario_from_dict)
from .synthetic import (spinor_from_polar, spinor_gradient_from_polar,
                        synthetic_clebsch_inputs, synthetic_density_velocity,
                        synthetic_split_inputs)

_SEED = 20260825


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    runtime_s: float
    limit_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} [{self.runtime_s:.3f}s/{self.limit_s:g}s] {self.details}"


def check_gamma_algebra() -> tuple[bool, str]:
    """Anticommutators {gamma^mu, gamma^nu} = 2 eta^{mu nu} I, exactly."""
    dev = anticommutation_deviation()
    return dev == 0.0, f"max |{{g^mu,g^nu}} - 2 eta I| = {dev:g}"


def check_dispersion() -> tuple[bool, str]:
    """Reduced evolution of a k = 0.5 plane wave: frequency vs sqrt(k^2 + mu^2)."""
    k = 0.5
    length = 8.0 * np.pi  # two full periods of k = 0.5
    scenario = scenario_from_dict({
        "name": "check_dispersion",
        "grid": {"extents": [length], "points": [256], "cfl_factor": 0.25},
        "initial_data": {"recipe": "plane_wave", "k": [k]},
        "duration": 20.0,
        "pipeline": "reduced",
    })
    params = scenario.params
    # the mean phase step telescopes, so every 5th of the 815 steps is enough
    recon = evolve_reduced(build_initial(scenario), scenario.duration, params, record_every=5)
    # mode 2 of the upper spin at each level; only its phase steps are read, so no 1/N
    amps = np.fft.fft(recon.psi1[:, 0], axis=-1)[:, 2]
    h = float(recon.x0[1] - recon.x0[0])
    steps = np.angle(amps[1:] * np.conj(amps[:-1]))
    omega = -float(np.mean(steps)) / h
    target = np.sqrt(k * k + params.mass_wavenumber ** 2)
    rel = abs(omega - target) / target
    return rel < 5e-3, f"omega = {omega:.6f}, sqrt(k^2+mu^2) = {target:.6f}, rel err = {rel:.2e}"


def _packet_config(points: int, cfl_factor: float, duration: float, pipeline: str) -> dict:
    """The suite's 1-D Gaussian packet (k 0.5, width 2) on a box of width 20."""
    return {
        "name": f"check_packet_{points}",
        "grid": {"extents": [20.0], "points": [points], "cfl_factor": cfl_factor},
        "initial_data": {"recipe": "gaussian_packet", "k": [0.5], "width": 2.0,
                         "spin_angle": 0.35, "relative_phase": 0.2},
        "duration": duration,
        "pipeline": pipeline,
    }


def check_reduction_equivalence() -> tuple[bool, str]:
    """First-order vs reduced route: sup discrepancy small and O(2) convergent."""
    sups = {}
    for points, every in ((256, 8), (512, 16)):
        scenario = scenario_from_dict(_packet_config(points, 0.125, 2.0, "both"))
        report = equivalence_report(build_initial(scenario), scenario.duration,
                                    scenario.params, record_every=every)
        sups[points] = report.max_sup
    ratio = sups[256] / sups[512]
    ok = sups[256] < 1e-3 and ratio >= 3.5
    return ok, (f"sup discrepancy N=256: {sups[256]:.3e} (< 1e-3), "
                f"N=512: {sups[512]:.3e}, refinement ratio {ratio:.2f} (>= 3.5)")


def check_clebsch_identity() -> tuple[bool, str]:
    """Both alpha roots satisfy their quadratic and give the same v_C.v_C form."""
    grid = make_grid([2.0 * np.pi], [10000])
    params = PhysParams()
    rng = np.random.default_rng(_SEED)
    inp = synthetic_clebsch_inputs(grid, rng)
    s2 = np.sin(inp.theta) ** 2
    target_vv = ((1.0 - s2) * minkowski_square(inp.d_nu)
                 + s2 * minkowski_square(inp.d_nu + inp.d_beta))
    worst_quad = 0.0
    worst_vv = 0.0
    fractions = []
    for branch in ("plus", "minus"):
        res = clebsch_alpha(inp.d_nu, inp.d_beta, inp.theta, params, branch)
        ok = ~(res.degenerate | res.complex_disc)
        a = res.alpha
        t1, t2, t3 = res.d * a * a, 2.0 * res.b * a, -s2 * res.e
        quad = np.abs(t1 + t2 + t3)
        scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), np.maximum(np.abs(t3), 1e-300))
        worst_quad = max(worst_quad, float(np.max((quad / scale)[ok])))
        vv = minkowski_square(clebsch_velocity(a, inp.d_nu, inp.d_beta, ~ok))
        worst_vv = max(worst_vv, float(np.max(relative_residual(vv, target_vv)[ok])))
        fractions.append((branch, float(np.mean(res.degenerate)),
                          float(np.mean(res.complex_disc))))
    ok_all = worst_quad < 1e-10 and worst_vv < 1e-10
    frac_txt = "; ".join(f"{b}: degenerate {fd:.1e}, complex {fc:.1e}"
                         for b, fd, fc in fractions)
    return ok_all, (f"quadratic residual sup {worst_quad:.2e}, "
                    f"v.v identity sup {worst_vv:.2e} (< 1e-10); masked: {frac_txt}")


def _smooth_periodic_state(points: int):
    """Smooth periodic two-spinor data (no envelope truncation anywhere)."""
    length = 20.0
    grid = make_grid([length], [points], cfl_factor=0.25)
    params = PhysParams()
    x = grid.axis_coordinates(0)
    g = np.exp(np.cos(2.0 * np.pi * x / length - 0.4)) \
        * np.exp(1j * (2.0 * np.pi * 2.0 / length) * x)
    pair = np.array([np.cos(0.35), np.exp(0.2j) * np.sin(0.35)])
    psi1 = pair[:, np.newaxis] * g[np.newaxis]
    psi2 = positive_energy_closure(psi1, grid, params)
    return DiracState(psi1=psi1, psi2=psi2, x0=0.0, grid=grid), grid, params


def check_lagrangian_split_polar() -> tuple[bool, str]:
    """Split and polar identities: analytic gradients exact, stencils O(dx^2)."""
    grid = make_grid([2.0 * np.pi], [4096])
    params = PhysParams()
    rng = np.random.default_rng(_SEED + 1)
    si = synthetic_split_inputs(grid, rng, params)

    psi1 = spinor_from_polar(si.R_up, si.R_down, si.nu_up, si.nu_down, params)
    dpsi = np.stack([
        spinor_gradient_from_polar(si.R_up, si.nu_up, si.dR_up, si.d_nu_up, params),
        spinor_gradient_from_polar(si.R_down, si.nu_down, si.dR_down, si.d_nu_down, params),
    ], axis=1)
    l_spinor = lagrangian_spinor_from_gradients(psi1, dpsi, params)
    l_q, l_c = lagrangian_split(si.R_up, si.R_down, si.dR_up, si.dR_down,
                                si.d_nu_up, si.d_nu_down, params)
    split_sup = float(np.max(relative_residual(l_spinor, l_q + l_c)))

    R = np.sqrt(si.R_up ** 2 + si.R_down ** 2)
    theta = np.arctan2(si.R_down, si.R_up)
    l_polar, fisher = quantum_polar_forms(R, theta, si.dR_up.copy(), si.dR_down.copy(), params)
    polar_sup = float(np.max(relative_residual(l_q, l_polar)))
    fisher_sup = float(np.max(relative_residual(l_polar, fisher)))

    # convergence needs smooth periodic data: a truncated Gaussian's wrap
    # seam is a kink whose stencil error never shrinks
    residuals = []
    for points in (64, 128, 256):
        state, grid_n, params_n = _smooth_periodic_state(points)
        fs = fluid_state(state.psi1, state.psi2, 0.0, grid_n, params_n)
        rows = identity_rows_at(fs)
        residuals.append(next(r.residual_l2 for r in rows if r.name == "split_identity"))
    slopes = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    ok = (split_sup < 1e-10 and polar_sup < 1e-10 and fisher_sup < 1e-12
          and all(1.5 <= s <= 2.6 for s in slopes))
    return ok, (f"analytic: split {split_sup:.2e}, polar {polar_sup:.2e} (< 1e-10), "
                f"fisher {fisher_sup:.2e} (< 1e-12); stencil slopes "
                + ", ".join(f"{s:.2f}" for s in slopes) + " (in [1.5, 2.6])")


def check_fluid_form_equality() -> tuple[bool, str]:
    """rho_bar(v.v - c^2) = c rho_0 (sqrt(v.v) - c) with rho_0 from the map."""
    grid = make_grid([2.0 * np.pi], [4096])
    params = PhysParams()
    rng = np.random.default_rng(_SEED + 2)
    rho_bar, v_upper = synthetic_density_velocity(grid, rng, params)
    rho_0, _, vv, speed = rest_density(rho_bar, v_upper, params)
    a = lagrangian_classical_clebsch(rho_bar, vv, params)
    b = lagrangian_classical_fluid(rho_0, speed, params)
    sup = float(np.max(relative_residual(a, b)))
    ok = sup < 1e-12 and not np.any(vv < 0)
    return ok, f"relative residual sup {sup:.2e} (< 1e-12)"


def check_probability_current() -> tuple[bool, str]:
    """J^0 >= R^2 exactly, and total-charge drift < 1e-6 over 10^3 steps."""
    # 1000 steps of dt = 0.25 * 20 / 256
    scenario = scenario_from_dict(_packet_config(256, 0.25, 19.53125, "dirac"))
    traj = evolve(build_initial(scenario), scenario.duration, scenario.params,
                  record_every=100)
    lower_bound_ok = True
    for n in range(len(traj.x0)):
        j = probability_current(traj.psi1[n], traj.psi2[n])
        r2 = np.abs(traj.psi1[n][0]) ** 2 + np.abs(traj.psi1[n][1]) ** 2
        lower_bound_ok &= bool(np.all(j[0] >= r2))
    report = conservation_report(traj)
    ok = lower_bound_ok and report.max_drift < 1e-6
    return ok, (f"J0 >= R^2 everywhere: {lower_bound_ok}; "
                f"charge drift {report.max_drift:.2e} over {1000} steps (< 1e-6)")


def _slow_packet_state():
    """Slow Gaussian packet with a gently varying relative spin phase.

    A constant spin mixture keeps beta exactly uniform, so every point lands
    in the degenerate-beta fallback; the sin modulation populates the OK set.
    The box is large enough that the periodic seam of the envelope sits below
    the low-density mask floor (exp(-(L/2)^2/sigma^2) < 1e-12).
    """
    # sigma sets the quantum-potential scale ~ (x-c)^2/(2 sigma^4 mu^2); the
    # median OK point sits near |x-c| = L/4 = 2.8 sigma, so sigma = 25 keeps
    # the median deviation a few 1e-3
    length, sigma, k, chi = 280.0, 25.0, 0.04, 0.6
    grid = make_grid([length], [256], cfl_factor=0.0625)
    params = PhysParams()
    x = grid.axis_coordinates(0)
    envelope = np.exp(-((x - length / 2.0) ** 2) / (2.0 * sigma ** 2))
    carrier = envelope * np.exp(1j * k * x)
    varphi = 0.4 + 0.1 * np.sin(2.0 * np.pi * x / length)
    psi1 = np.stack([np.cos(chi) * carrier,
                     np.sin(chi) * np.exp(1j * varphi) * carrier])
    psi2 = positive_energy_closure(psi1, grid, params)
    return DiracState(psi1=psi1, psi2=psi2, x0=0.0, grid=grid), grid, params


def check_approximation_chain() -> tuple[bool, str]:
    """Slow packet: near-classical medians; rest limit: exact to round-off; both via chain_row."""
    state, grid, params = _slow_packet_state()
    row = chain_row(fluid_state(state.psi1, state.psi2, 0.0, grid, params))
    med_speed, med_dens, max_space = row[1], row[3], row[5]

    # a uniform spinor with psi2 = 0 is at rest: dirac_rhs gives d0 nu = -c
    psi1 = 1.3 * np.array([[np.cos(0.3)], [np.exp(0.7j) * np.sin(0.3)]]).repeat(8, axis=1)
    rests = [chain_row(fluid_state(psi1, np.zeros_like(psi1), 0.0, make_grid([1.0], [8]), p))
             for p in (PhysParams(c=1.0), PhysParams(c=2.5))]
    # worst max speed and density deviation; a NaN (no usable point) fails the gate
    rest_worst = float(np.max([r[[2, 4]] for r in rests]))

    ok = (max_space <= 0.1 and med_speed <= 1e-2 and med_dens <= 1e-2
          and rest_worst <= 1e-12)
    return ok, (f"max |v_vec|/c = {max_space:.3f} (<= 0.1), medians: "
                f"|sqrt(v.v)/c-1| = {med_speed:.2e}, |rho0/2rho_bar-1| = {med_dens:.2e} "
                f"(<= 1e-2); rest-limit worst dev {rest_worst:.2e} (<= 1e-12)")


def check_hbar_scaling() -> tuple[bool, str]:
    """L_q(s hbar; fixed R, nu) = s^2 L_q(hbar) to 1e-12 for s in {0.1, 2, 10}."""
    grid = make_grid([2.0 * np.pi], [2048])
    params = PhysParams()
    rng = np.random.default_rng(_SEED + 3)
    si = synthetic_split_inputs(grid, rng, params)
    base_q, _ = lagrangian_split(si.R_up, si.R_down, si.dR_up, si.dR_down,
                                 si.d_nu_up, si.d_nu_down, params)
    worst = 0.0
    for s in (0.1, 2.0, 10.0):
        scaled = PhysParams(hbar=s * params.hbar, m=params.m, c=params.c)
        q_s, _ = lagrangian_split(si.R_up, si.R_down, si.dR_up, si.dR_down,
                                  si.d_nu_up, si.d_nu_down, scaled)
        worst = max(worst, float(np.max(relative_residual(q_s, s * s * base_q))))
    return worst <= 1e-12, f"worst relative deviation {worst:.2e} (<= 1e-12)"


_CHECKS = {  # name -> (check, wall-clock limit in seconds)
    "gamma_algebra": (check_gamma_algebra, 0.001),
    "dispersion": (check_dispersion, 10.0),
    "reduction_equivalence": (check_reduction_equivalence, 60.0),
    "clebsch_identity": (check_clebsch_identity, 5.0),
    "lagrangian_split_polar": (check_lagrangian_split_polar, 5.0),
    "fluid_form_equality": (check_fluid_form_equality, 1.0),
    "probability_current": (check_probability_current, 60.0),
    "approximation_chain": (check_approximation_chain, 60.0),
    "hbar_scaling": (check_hbar_scaling, 1.0),
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str) -> CheckResult:
    if name not in _CHECKS:
        raise KeyError(f"unknown check {name!r}; choose from {', '.join(CHECK_NAMES)}")
    fn, limit = _CHECKS[name]
    if name == "gamma_algebra":
        fn()  # warm the numpy kernels so the timing is the math alone
    start = time.perf_counter()
    passed, details = fn()
    elapsed = time.perf_counter() - start
    if elapsed > limit:
        passed = False
        details += f"; runtime {elapsed:.3f}s exceeded {limit:g}s"
    return CheckResult(name, passed, details, elapsed, limit)


def run_checks(names=None) -> list[CheckResult]:
    return [run_check(n) for n in (names or CHECK_NAMES)]
