"""Evaporation ramp schedules, trap-parameter timelines, time-of-flight signatures.

The power ramp is a pure exponential between its endpoints.  The modulation
amplitude follows an exponential toward its target with a linear tail over
the last 5% of the segment so the endpoint is reached exactly.  Atom-number
and temperature dynamics during the ramp are not simulated; the timeline
carries trap parameters only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN, PhysicalConstants
from .errors import DomainError
from .optics import InputBeam, OpticalLayout, crossing_from_offsets
from .painting import line_paint
from .potential import ModulationWaveform, time_averaged_potential
from .trapchar import ThermoMetrics, characterize

TAIL_FRACTION = 0.05
# relative tolerance of the Castin-Dum scaling-equation integration
CASTIN_DUM_RTOL = 1e-8


@dataclass(frozen=True)
class RampSchedule:
    """Power and amplitude ramps from t = 0, a hold, then the reopen step on both dimensions.

    Powers are in W, amplitudes in m and times in s.  The power falls
    exponentially from ``power_start`` to ``power_end`` over
    ``power_duration``.  The horizontal amplitude follows an exponential with
    time constant ``amplitude_tau`` toward ``amplitude_end``, with a linear
    tail over the last TAIL_FRACTION of ``amplitude_duration`` that reaches
    it exactly.  Each ramp holds its endpoint once it ends.
    """

    power_start: float
    power_end: float
    power_duration: float
    amplitude_start: float
    amplitude_end: float
    amplitude_duration: float
    amplitude_tau: float
    hold: float
    reopen_amplitude: float
    reopen_power: float
    reopen_duration: float

    def __post_init__(self) -> None:
        if self.power_start <= 0 or self.power_end <= 0 or self.power_duration <= 0:
            raise DomainError("powers and durations must be positive")
        if self.power_end >= self.power_start:
            raise DomainError("exponential power segment must decrease (P1 < P0)")
        if not self.power_tau > 0:  # duration / ln(P0/P1) underflowed
            raise DomainError("power ramp time constant is 0 at float precision")
        if self.amplitude_duration <= 0:
            raise DomainError("segment duration must be positive")
        if self.amplitude_start < 0 or self.amplitude_end < 0:
            raise DomainError("amplitudes must be >= 0")
        if not math.isfinite(self.total_duration):
            raise DomainError("the total schedule duration overflows the float range")

    @classmethod
    def from_config(cls, evap: dict) -> RampSchedule:
        """The schedule of an ``evap`` config section."""
        return cls(
            evap["power_start_w"],
            evap["power_end_w"],
            evap["power_duration_s"],
            evap["amplitude_start_um"] * 1e-6,
            evap["amplitude_end_um"] * 1e-6,
            evap["amplitude_duration_s"],
            evap["amplitude_tau_s"],
            evap["hold_s"],
            evap["reopen_amplitude_um"] * 1e-6,
            evap["reopen_power_w"],
            evap["reopen_duration_s"],
        )

    @property
    def power_tau(self) -> float:
        return self.power_duration / math.log(self.power_start / self.power_end)

    @property
    def ramp_duration(self) -> float:
        return max(self.power_duration, self.amplitude_duration)

    @property
    def total_duration(self) -> float:
        return self.ramp_duration + self.hold + self.reopen_duration

    def at(self, t: float) -> tuple[float, float, float]:
        """(power, horizontal amplitude, vertical amplitude) at time t."""
        if t > self.ramp_duration + self.hold:
            return self.reopen_power, self.reopen_amplitude, self.reopen_amplitude
        t = max(t, 0.0)
        power = self.power_start * math.exp(-t / self.power_tau) if t <= self.power_duration else self.power_end
        return power, self._amplitude(t), 0.0

    def _amplitude(self, t: float) -> float:
        if t > self.amplitude_duration:
            return self.amplitude_end
        if self.amplitude_start == self.amplitude_end:
            return self.amplitude_start
        t_tail = (1 - TAIL_FRACTION) * self.amplitude_duration
        gap = self.amplitude_start - self.amplitude_end
        if t <= t_tail:
            return self.amplitude_end + gap * math.exp(-t / self.amplitude_tau)
        a_tail = self.amplitude_end + gap * math.exp(-t_tail / self.amplitude_tau)
        frac = (t - t_tail) / (self.amplitude_duration - t_tail)
        return a_tail + (self.amplitude_end - a_tail) * frac

    def drive(self, n_samples: int) -> dict:
        """The drive's columns at ``n_samples`` times evenly spaced over the schedule, both ends included.

        Each exponential is libm's scalar ``math.exp``, whose results do not
        depend on the CPU that numpy would pick an exp kernel for.
        """
        times = np.linspace(0.0, self.total_duration, n_samples).tolist()
        drive = np.array([self.at(t) for t in times]) * (1.0, 1e6, 1e6)
        return {"t_s": times, **dict(zip(("power_w", "amplitude_h_um", "amplitude_v_um"), drive.T))}


def timeline(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    schedule: RampSchedule,
    n_samples: int,
) -> dict:
    """Columns of the schedule, then of the trap (``TrapReport.columns``), one entry per sampled time.

    Each painted trap is the time average of its line paint at the phase
    count ``time_averaged_potential`` derives from it.  Samples with the
    same power and amplitudes (a hold, a settled ramp) are characterized once.
    """
    drive = schedule.drive(n_samples)
    keys = [schedule.at(t) for t in drive["t_s"]]  # (power, amp_h, amp_v)
    traps = {key: _painted_trap(constants, layout, inputs, *key) for key in dict.fromkeys(keys)}
    return {**drive, **{name: [traps[key][name] for key in keys] for name in traps[keys[0]]}}


def _painted_trap(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    power: float,
    amp_h: float,
    amp_v: float,
) -> dict:
    """Entry 0 of each trap column of the line-painted trap at one power and amplitude pair."""
    inputs_t = tuple(
        InputBeam(power=power, wavelength=b.wavelength, collimated_radius=b.collimated_radius)
        for b in inputs
    )
    wf = line_paint(layout, amp_h, amp_v) if (amp_h or amp_v) else ModulationWaveform.constant()
    pot = time_averaged_potential(constants, layout, inputs_t, wf)
    report = characterize(pot, np.zeros(3))
    if report.valid[0] and report.depth_escape[0] == 0 and (amp_h or amp_v):
        # the centre of a wide paint is a ridge the scan falls off at once:
        # its wells lie toward the sweep ends, so seed at the sweep start
        report = characterize(pot, crossing_from_offsets(layout, -amp_h, -amp_h, -amp_v))
    return {name: column[0].item() for name, column in report.columns().items()}


def evaporation_efficiency(initial: ThermoMetrics, final: ThermoMetrics) -> dict:
    """gamma = -ln(psd_f/psd_i) / ln(N_f/N_i), with the convention disclosed.

    Endpoint metrics enter exactly as provided (no intermediate-trajectory
    weighting); the reported value therefore corresponds to the naive
    endpoint convention.
    """
    if final.atom_number == initial.atom_number:
        raise DomainError("evaporation efficiency undefined for equal atom numbers")
    gamma = -math.log(final.psd / initial.psd) / math.log(
        final.atom_number / initial.atom_number
    )
    return {
        "gamma": gamma,
        "convention": "naive-endpoint",
        "psd_initial": initial.psd,
        "psd_final": final.psd,
        "n_initial": initial.atom_number,
        "n_final": final.atom_number,
    }


def castin_dum_lambdas(omegas, times) -> np.ndarray:
    """Thomas-Fermi scaling factors lambda_i(t) for free expansion.

    Integrates lambda_i'' = omega_i^2 / (lambda_i * lambda_1 lambda_2 lambda_3)
    from lambda(0) = 1, lambda'(0) = 0.
    """
    from scipy.integrate import solve_ivp

    omegas = np.asarray(omegas, dtype=float)
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise DomainError("expansion times must be >= 0")

    def rhs(t, y):
        lam = y[:3]
        with np.errstate(over="ignore"):  # a product past the float range: the acceleration is 0 at float precision
            return np.concatenate([y[3:], omegas**2 / (lam * (lam[0] * lam[1] * lam[2]))])

    t_max = float(times.max()) if times.size else 0.0
    if t_max == 0.0:
        return np.ones((times.size, 3))
    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
        t_eval=times,
        rtol=CASTIN_DUM_RTOL,
        atol=1e-12,
        method="RK45",
    )
    if not sol.success:
        raise DomainError(f"scaling-equation integration failed: {sol.message}")
    return sol.y[:3].T


def expand(frequencies_hz, tf_radii, temperature: float, times, constants: PhysicalConstants) -> dict:
    """The ``expansion.csv`` columns of a release at ``times`` (s) from a trap of ``frequencies_hz``.

    TF radii (``tf_radii`` in m at release) follow the scaling solution.  A
    thermal cloud at ``temperature`` (K) starts at the in-trap rms radii
    sigma_i(0) = v/omega_i, v = sqrt(kB T/m), and widens as
    sigma_i(t) = hypot(sigma_i(0), v t), which stays finite wherever the
    width itself is.  Before integrating, a release whose omega_i^2 or
    sigma_i(0) overflows is refused, and so is one whose widths in um could
    pass the float range by the last time: every scaling factor obeys
    lambda_i(t) <= 1 + sqrt(2) omega_i t, since the sum of
    lambda_i'^2 / (2 omega_i^2) is 1 - 1 / (lambda_1 lambda_2 lambda_3).
    """
    if any(f <= 0 for f in frequencies_hz):
        raise DomainError("release frequencies must be positive")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    omegas = 2 * math.pi * np.asarray(frequencies_hz, dtype=float)
    v = np.sqrt(BOLTZMANN * temperature / constants.atom_mass)
    t_max = float(times.max()) if times.size else 0.0
    with np.errstate(over="ignore"):  # refused below
        sigma0 = v / omegas
        squares = omegas**2
        tf_bound = np.asarray(tf_radii) * (1 + math.sqrt(2) * omegas * t_max)
        widest_um = 1e6 * np.append(tf_bound, np.hypot(sigma0, v * t_max))
    if not np.isfinite([*squares, *sigma0]).all():
        raise DomainError("tof.frequencies_hz: omega^2 or the in-trap thermal width v/omega overflows the float range")
    if not np.isfinite(widest_um).all():
        raise DomainError(f"tof.times_ms: the cloud may outgrow the float range by {t_max * 1e3:g} ms")
    tf = np.asarray(tf_radii) * castin_dum_lambdas(omegas, times)
    thermal = np.hypot(sigma0, v * times[:, None])
    with np.errstate(invalid="ignore"):  # no thermal cloud at T = 0: a nan aspect (0/0)
        thermal_aspect = thermal[:, 2] / thermal[:, 1]
    return {
        "t_ms": times * 1e3,
        **dict(zip(("tf_rx_um", "tf_ry_um", "tf_rz_um"), (tf * 1e6).T)),
        **dict(zip(("thermal_sx_um", "thermal_sy_um", "thermal_sz_um"), (thermal * 1e6).T)),
        "tf_aspect_zy": tf[:, 2] / tf[:, 1],
        "thermal_aspect_zy": thermal_aspect,
    }


# --- bimodal time-of-flight profile fitting -------------------------------


def bimodal_profile(x, a_th, sigma, a_tf, radius, center, offset):
    """1D column profile: Gaussian plus doubly-integrated Thomas-Fermi parabola."""
    xr = x - center
    tf = np.clip(1.0 - (xr / radius) ** 2, 0.0, None) ** 2
    return a_th * np.exp(-(xr**2) / (2 * sigma**2)) + a_tf * tf + offset


def fit_bimodal(positions, counts, sigma=None) -> dict:
    """The ``tof_fit.json`` fields of a least-squares bimodal fit of a 1D atom-count profile.

    ``sigma`` gives per-sample uncertainties; Poisson uncertainties
    sqrt(max(counts, 1)) are used when omitted.  A pure-thermal sub-fit is
    reported for model comparison.
    """
    from scipy.optimize import least_squares

    x = np.asarray(positions, dtype=float)
    y = np.asarray(counts, dtype=float)
    if x.size < 20:
        raise DomainError("bimodal fit needs at least 20 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("positions and counts must be finite")
    if np.any(y < 0):
        raise DomainError("atom counts must be non-negative")
    if np.ptp(y) <= 0:
        raise DomainError("degenerate (constant) profile; cannot fit")
    w = np.sqrt(np.maximum(y, 1.0)) if sigma is None else np.asarray(sigma, dtype=float)
    if not np.isfinite(w).all() or np.any(w <= 0):
        raise DomainError("supplied uncertainties must be positive and finite")

    offset0 = float(np.percentile(y, 5))
    amp0 = float(y.max() - offset0)
    yc = np.clip(y - offset0, 0.0, None)
    with np.errstate(invalid="ignore"):  # no count above the 5th percentile: a 0/0 start
        x0 = float(np.sum(x * yc) / np.sum(yc))
        sigma0 = float(np.sqrt(np.sum(yc * (x - x0) ** 2) / np.sum(yc)))
    if not sigma0 > 0:  # nan included
        raise DomainError("degenerate profile width")
    span = float(x.max() - x.min())

    def residuals(p):
        return (bimodal_profile(x, *p) - y) / w

    p0 = [0.5 * amp0, sigma0, 0.5 * amp0, 0.8 * sigma0, x0, offset0]
    lower = [0.0, 1e-3 * sigma0, 0.0, 1e-3 * sigma0, x.min(), -np.inf]
    upper = [np.inf, 5 * span, np.inf, 5 * span, x.max(), np.inf]
    res = least_squares(residuals, p0, bounds=(lower, upper))
    if not res.success:
        raise DomainError(f"bimodal fit failed: {res.message}")
    a_th, sig, a_tf, radius, center, offset = res.x
    dof = max(x.size - 6, 1)
    chi2 = float(np.sum(res.fun**2)) / dof

    def residuals_th(p):
        return (bimodal_profile(x, p[0], p[1], 0.0, 1.0, p[2], p[3]) - y) / w

    res_th = least_squares(
        residuals_th,
        [amp0, sigma0, x0, offset0],
        bounds=([0.0, 1e-3 * sigma0, x.min(), -np.inf], [np.inf, 5 * span, x.max(), np.inf]),
    )
    chi2_th = float(np.sum(res_th.fun**2)) / max(x.size - 4, 1)

    integral_th = a_th * sig * math.sqrt(2 * math.pi)
    integral_tf = a_tf * radius * 16.0 / 15.0
    total = integral_th + integral_tf
    return {
        "thermal_amplitude": float(a_th),
        "thermal_sigma_um": float(sig) * 1e6,
        "tf_amplitude": float(a_tf),
        "tf_radius_um": float(radius) * 1e6,
        "center_um": float(center) * 1e6,
        "offset": float(offset),
        "chi2_red": chi2,
        "thermal_fraction": float(integral_th / total) if total > 0 else 1.0,
        "thermal_only": {
            "amplitude": float(res_th.x[0]),
            "sigma_um": float(res_th.x[1]) * 1e6,
            "center_um": float(res_th.x[2]) * 1e6,
            "offset": float(res_th.x[3]),
            "chi2_red": chi2_th,
        },
    }
