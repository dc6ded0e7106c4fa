"""Evaporation ramp schedules, trap-parameter timelines, time-of-flight signatures.

The power ramp is a pure exponential between its endpoints.  The modulation
amplitude follows an exponential toward its target with a linear tail over
the last 5% of the segment so the endpoint is reached exactly.  Atom-number
and temperature dynamics during the ramp are not simulated; the timeline
carries trap parameters only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError
from .optics import InputBeam, OpticalLayout
from .painting import line_paint
from .potential import ModulationWaveform, time_averaged_potential
from .trapchar import ThermoMetrics, characterize

TAIL_FRACTION = 0.05
FLOOR_RATIO = 0.02


@dataclass(frozen=True)
class PowerSegment:
    """Exponential power decrease P0 -> P1 over ``duration`` seconds."""

    p_start: float
    p_end: float
    duration: float

    def __post_init__(self) -> None:
        if self.p_start <= 0 or self.p_end <= 0 or self.duration <= 0:
            raise DomainError("powers and durations must be positive")
        if self.p_end >= self.p_start:
            raise DomainError("exponential power segment must decrease (P1 < P0)")
        if not self.tau > 0:  # duration / ln(P0/P1) underflowed
            raise DomainError("power ramp time constant is 0 at float precision")

    @property
    def tau(self) -> float:
        return self.duration / math.log(self.p_start / self.p_end)

    def value(self, t: float) -> float:
        t = min(max(t, 0.0), self.duration)
        return self.p_start * math.exp(-t / self.tau)


@dataclass(frozen=True)
class AmplitudeSegment:
    """Exponential-with-floor amplitude ramp reaching ``a_end`` exactly.

    ``tau`` defaults so the exponential reaches FLOOR_RATIO of the gap at the
    start of the linear tail.
    """

    a_start: float
    a_end: float
    duration: float
    tau: float | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise DomainError("segment duration must be positive")
        if self.a_start < 0 or self.a_end < 0:
            raise DomainError("amplitudes must be >= 0")

    def _tau(self) -> float:
        if self.tau is not None:
            return self.tau
        return (1 - TAIL_FRACTION) * self.duration / math.log(1.0 / FLOOR_RATIO)

    def value(self, t: float) -> float:
        t = min(max(t, 0.0), self.duration)
        if self.a_start == self.a_end:
            return self.a_start
        t_tail = (1 - TAIL_FRACTION) * self.duration
        gap = self.a_start - self.a_end
        if t <= t_tail:
            return self.a_end + gap * math.exp(-t / self._tau())
        a_tail = self.a_end + gap * math.exp(-t_tail / self._tau())
        frac = (t - t_tail) / (self.duration - t_tail)
        return a_tail + (self.a_end - a_tail) * frac


@dataclass(frozen=True)
class RampSchedule:
    """Power and amplitude ramps, a hold, then the reopen step on both dimensions."""

    power: PowerSegment
    amplitude: AmplitudeSegment
    hold: float
    reopen_amplitude: float
    reopen_power: float
    reopen_duration: float

    @property
    def ramp_duration(self) -> float:
        return max(self.power.duration, self.amplitude.duration)

    @property
    def total_duration(self) -> float:
        return self.ramp_duration + self.hold + self.reopen_duration

    def power_at(self, t: float) -> float:
        if t > self.ramp_duration + self.hold:
            return self.reopen_power
        return self.power.value(t) if t <= self.power.duration else self.power.p_end

    def amplitude_at(self, t: float) -> tuple[float, float]:
        """(horizontal, vertical) painting amplitude at time t."""
        if t > self.ramp_duration + self.hold:
            return self.reopen_amplitude, self.reopen_amplitude
        a = self.amplitude.value(t) if t <= self.amplitude.duration else self.amplitude.a_end
        return a, 0.0


def build_schedule(
    p_start: float = 10.0,
    p_end: float = 0.04,
    power_duration: float = 1.0,
    a_start: float = 230e-6,
    a_end: float = 0.0,
    amplitude_duration: float = 1.0,
    amplitude_tau: float = 0.2,
    hold: float = 0.3,
    reopen_amplitude: float = 70e-6,
    reopen_power: float = 5.0,
    reopen_duration: float = 0.2,
) -> RampSchedule:
    """Evaporation schedule: exponential power ramp, amplitude ramp, reopen step.

    Defaults model the demonstrated sequence: per-beam power 10 W -> 40 mW in
    1 s; painting amplitude ramped from 230 um toward zero with a 200 ms time
    constant; after a hold, the modulation reopens in two dimensions with an
    intensity step that raises the depth while lowering the frequencies.
    """
    return RampSchedule(
        power=PowerSegment(p_start, p_end, power_duration),
        amplitude=AmplitudeSegment(a_start, a_end, amplitude_duration, amplitude_tau),
        hold=hold,
        reopen_amplitude=reopen_amplitude,
        reopen_power=reopen_power,
        reopen_duration=reopen_duration,
    )


def timeline(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    schedule: RampSchedule,
    n_samples: int = 25,
) -> list[dict]:
    """Trap depth and frequencies along the schedule (one row per sampled time).

    Each painted trap is the time average of its line paint at the paint's
    own knots.  Samples with the same power and amplitudes (a hold, a
    settled ramp) are characterized once.
    """
    rows = []
    traps: dict[tuple[float, float, float], dict] = {}
    times = np.linspace(0.0, schedule.total_duration, n_samples)
    for t in times:
        power = schedule.power_at(float(t))
        amp_h, amp_v = schedule.amplitude_at(float(t))
        key = (power, amp_h, amp_v)
        if key not in traps:
            traps[key] = _painted_trap(constants, layout, inputs, power, amp_h, amp_v)
        rows.append(
            {
                "t_s": float(t),
                "power_w": power,
                "amplitude_h_um": amp_h * 1e6,
                "amplitude_v_um": amp_v * 1e6,
                **traps[key],
            }
        )
    return rows


def _painted_trap(
    constants: PhysicalConstants,
    layout: OpticalLayout,
    inputs: tuple[InputBeam, InputBeam],
    power: float,
    amp_h: float,
    amp_v: float,
) -> dict:
    """Timeline columns of the line-painted trap at one power and amplitude pair."""
    inputs_t = tuple(
        InputBeam(power=power, wavelength=b.wavelength, collimated_radius=b.collimated_radius)
        for b in inputs
    )
    wf = line_paint(layout, amp_h, amp_v) if (amp_h or amp_v) else ModulationWaveform.constant()
    # one phase per knot: the records are the knots themselves, mirror knots merged
    pot = time_averaged_potential(constants, layout, inputs_t, wf, n_phases=wf.times.size)
    report = characterize(pot, np.zeros(3))
    return {
        "valid": int(report.valid),
        "depth_uK": report.depth_uk(),
        "f1_hz": report.frequencies[0],
        "f2_hz": report.frequencies[1],
        "f3_hz": report.frequencies[2],
        "mean_frequency_hz": report.mean_frequency,
    }


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


@dataclass(frozen=True)
class ExpansionState:
    """Condensate/thermal state at trap release."""

    frequencies_hz: tuple[float, float, float]
    tf_radii: tuple[float, float, float]  # m
    temperature: float  # K
    thermal_sigma0: tuple[float, float, float]  # m

    def __post_init__(self) -> None:
        if any(f <= 0 for f in self.frequencies_hz):
            raise DomainError("release frequencies must be positive")


def castin_dum_lambdas(omegas, times, rtol: float = 1e-8) -> np.ndarray:
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
        prod = lam[0] * lam[1] * lam[2]
        return np.concatenate([y[3:], omegas**2 / (lam * prod)])

    t_max = float(times.max()) if times.size else 0.0
    if t_max == 0.0:
        return np.ones((times.size, 3))
    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
        t_eval=times,
        rtol=rtol,
        atol=1e-12,
        method="RK45",
    )
    if not sol.success:
        raise DomainError(f"scaling-equation integration failed: {sol.message}")
    return sol.y[:3].T


def expand(
    release: ExpansionState,
    times,
    constants: PhysicalConstants,
) -> dict:
    """Thomas-Fermi and thermal radii during free expansion.

    TF radii follow the scaling solution; thermal widths follow
    sigma_i(t) = sqrt(sigma_i(0)^2 + (kB T/m) t^2).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    omegas = 2 * math.pi * np.asarray(release.frequencies_hz)
    lambdas = castin_dum_lambdas(omegas, times)
    tf = np.asarray(release.tf_radii) * lambdas
    vt2 = constants.boltzmann * release.temperature / constants.atom_mass
    sigma0 = np.asarray(release.thermal_sigma0)
    thermal = np.sqrt(sigma0**2 + vt2 * times[:, None] ** 2)
    return {
        "times_s": times,
        "lambdas": lambdas,
        "tf_radii_m": tf,
        "thermal_sigma_m": thermal,
        "tf_aspect_zy": tf[:, 2] / tf[:, 1],
        "thermal_aspect_zy": thermal[:, 2] / thermal[:, 1],
    }


def thermal_sigma0(frequencies_hz, temperature: float, constants: PhysicalConstants):
    """In-trap rms radii of a thermal cloud: sigma_i = sqrt(kB T/m)/omega_i."""
    omegas = 2 * math.pi * np.asarray(frequencies_hz, dtype=float)
    return np.sqrt(constants.boltzmann * temperature / constants.atom_mass) / omegas


# --- bimodal time-of-flight profile fitting -------------------------------


@dataclass
class BimodalFit:
    thermal_amplitude: float
    thermal_sigma: float
    tf_amplitude: float
    tf_radius: float
    center: float
    offset: float
    chi2_red: float
    thermal_fraction: float
    thermal_only: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "thermal_amplitude": self.thermal_amplitude,
            "thermal_sigma_um": self.thermal_sigma * 1e6,
            "tf_amplitude": self.tf_amplitude,
            "tf_radius_um": self.tf_radius * 1e6,
            "center_um": self.center * 1e6,
            "offset": self.offset,
            "chi2_red": self.chi2_red,
            "thermal_fraction": self.thermal_fraction,
            "thermal_only": self.thermal_only,
        }


def bimodal_profile(x, a_th, sigma, a_tf, radius, center, offset):
    """1D column profile: Gaussian plus doubly-integrated Thomas-Fermi parabola."""
    xr = x - center
    tf = np.clip(1.0 - (xr / radius) ** 2, 0.0, None) ** 2
    return a_th * np.exp(-(xr**2) / (2 * sigma**2)) + a_tf * tf + offset


def fit_bimodal(positions, counts, sigma=None) -> BimodalFit:
    """Least-squares bimodal fit of a 1D atom-count profile.

    ``sigma`` gives per-sample uncertainties; Poisson uncertainties
    sqrt(max(counts, 1)) are used when omitted.  A pure-thermal sub-fit is
    reported for model comparison.
    """
    from scipy.optimize import least_squares

    x = np.asarray(positions, dtype=float)
    y = np.asarray(counts, dtype=float)
    if x.size < 20:
        raise DomainError("bimodal fit needs at least 20 samples")
    if np.any(y < 0):
        raise DomainError("atom counts must be non-negative")
    if np.ptp(y) <= 0:
        raise DomainError("degenerate (constant) profile; cannot fit")
    w = np.sqrt(np.maximum(y, 1.0)) if sigma is None else np.asarray(sigma, dtype=float)
    if np.any(w <= 0):
        raise DomainError("supplied uncertainties must be positive")

    offset0 = float(np.percentile(y, 5))
    amp0 = float(y.max() - offset0)
    yc = np.clip(y - offset0, 0.0, None)
    x0 = float(np.sum(x * yc) / np.sum(yc))
    sigma0 = float(np.sqrt(np.sum(yc * (x - x0) ** 2) / np.sum(yc)))
    if sigma0 <= 0:
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
    return BimodalFit(
        thermal_amplitude=float(a_th),
        thermal_sigma=float(sig),
        tf_amplitude=float(a_tf),
        tf_radius=float(radius),
        center=float(center),
        offset=float(offset),
        chi2_red=chi2,
        thermal_fraction=float(integral_th / total) if total > 0 else 1.0,
        thermal_only={
            "amplitude": float(res_th.x[0]),
            "sigma_um": float(res_th.x[1]) * 1e6,
            "center_um": float(res_th.x[2]) * 1e6,
            "offset": float(res_th.x[3]),
            "chi2_red": chi2_th,
        },
    )
