"""System parameters and configuration parsing.

Frequencies are stored in Hz (E/h convention).  The superconducting gap is
entered in microelectronvolt, temperatures in kelvin, the tunneling
resistance in ohm; everything else frequency-valued is plain Hz.  JSON
configs may give any frequency-valued field with a ``_ghz`` suffix instead.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .constants import R_K_OHM, kelvin_to_hz, uev_to_hz
from .errors import ConfigError

# Frequency-valued fields that accept a "<name>_ghz" spelling in configs.
_GHZ_FIELDS = (
    "chi",
    "beta",
    "delta_kpo",
    "omega_c",
    "e_island",
    "bias_v",
    "kappa",
    "gamma_p",
    "match_tol",
)

# The smallest quad_rel_tol.  The tunneling function's interpolation nodes
# are integrated at 1/100 of it, and below this floor their errors reach
# the tail test's threshold, or the quadrature's roundoff: at temp_n > 0
# 1e-12 already fails at 10 mK; at temp_n = 0, where each node is its own
# quadrature and its error is its own, 6e-12 fails at 0 / 0 K and 1e-11
# at 10 mK / 0 K.
QUAD_REL_TOL_FLOOR = 2e-11


@dataclass(frozen=True)
class SystemParams:
    """Immutable bundle of physical and numerical parameters."""

    chi: float = 10e6            # Kerr nonlinearity, Hz
    beta: float = 20e6           # two-photon pump amplitude, Hz
    delta_kpo: float = 0.0       # oscillator detuning from half the pump, Hz
    omega_c: float = 7e9         # dressed oscillator frequency, Hz
    gap_delta: float = 200.0     # superconducting gap, ueV
    gamma_dynes: float = 1e-4    # subgap smearing of the lead DOS
    rho_c: float = 5e-5          # junction-oscillator coupling strength
    r_tunnel: float = 50e3       # tunneling resistance per junction, ohm
    e_island: float = 2e9        # island charging energy e^2/2C as Hz
    temp_n: float = 0.1          # normal-island electron temperature, K
    temp_s: float = 0.1          # superconducting-lead temperature, K
    kappa: float = 1.6e3         # intrinsic single-photon loss rate / 2pi, Hz
    gamma_p: float = 0.8e3       # intrinsic pure dephasing rate / 2pi, Hz
    bias_v: float = 45e9         # junction bias eV/h per junction, Hz
    n_fock: int = 60             # Fock-space truncation
    n_keep: int = 12             # retained eigenstates
    dm_max: int = 4              # photon-sideband cutoff |dm|
    q_max: int = 7               # island charge cutoff |q|
    match_tol: float = 1e6       # degeneracy / matching tolerance, Hz
    quad_rel_tol: float = 1e-10  # relative tolerance of energy integrals

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            _require(math.isfinite(getattr(self, f.name)),
                     f"{f.name} must be finite")
        _require(self.chi > 0, "chi must be positive")
        _require(self.beta >= 0, "beta must be non-negative")
        _require(self.omega_c > 0, "omega_c must be positive")
        _require(self.gap_delta > 0, "gap_delta must be positive")
        _require(0 < self.gamma_dynes, "gamma_dynes must be positive")
        _require(self.rho_c >= 0, "rho_c must be non-negative")
        _require(self.r_tunnel > 0, "r_tunnel must be positive")
        _require(self.e_island >= 0, "e_island must be non-negative")
        _require(self.temp_n >= 0, "temp_n must be non-negative")
        _require(self.temp_s >= 0, "temp_s must be non-negative")
        _require(self.kappa >= 0, "kappa must be non-negative")
        _require(self.gamma_p >= 0, "gamma_p must be non-negative")
        _require(self.bias_v >= 0, "bias_v must be non-negative")
        _require(self.n_fock >= 8, "n_fock must be at least 8")
        _require(2 <= self.n_keep <= self.n_fock // 2,
                 "n_keep must lie in [2, n_fock/2]")
        _require(1 <= self.dm_max < self.n_fock,
                 "dm_max must lie in [1, n_fock)")
        _require(self.q_max >= 1, "q_max must be at least 1")
        _require(self.match_tol > 0, "match_tol must be positive")
        _require(QUAD_REL_TOL_FLOOR <= self.quad_rel_tol < 1e-2,
                 f"quad_rel_tol must lie in [{QUAD_REL_TOL_FLOOR:g}, 1e-2)")
        _require(self.omega_rf > 0, "omega_c - delta_kpo must be positive")

    # -- derived quantities -------------------------------------------------

    @property
    def alpha(self) -> float:
        """Cat amplitude sqrt(2 beta / chi)."""
        return math.sqrt(2.0 * self.beta / self.chi)

    @property
    def gap_hz(self) -> float:
        """Superconducting gap as a frequency, Hz."""
        return uev_to_hz(self.gap_delta)

    @property
    def omega_rf(self) -> float:
        """Rotating-frame reference frequency (half the pump), Hz."""
        return self.omega_c - self.delta_kpo

    @property
    def t_n_hz(self) -> float:
        """Island thermal frequency k_B T_N / h, Hz."""
        return kelvin_to_hz(self.temp_n)

    @property
    def t_s_hz(self) -> float:
        """Lead thermal frequency k_B T_S / h, Hz."""
        return kelvin_to_hz(self.temp_s)

    @property
    def r_ratio(self) -> float:
        """Resistance quantum over tunneling resistance, R_K / R_T."""
        return R_K_OHM / self.r_tunnel

    # -- construction helpers ----------------------------------------------

    def replace(self, **changes: Any) -> "SystemParams":
        return dataclasses.replace(self, **changes)

    def with_alpha(self, alpha: float) -> "SystemParams":
        """Same parameters with the pump set so that the cat amplitude is alpha."""
        _require(alpha > 0, "alpha must be positive")
        return self.replace(beta=0.5 * self.chi * alpha * alpha)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SystemParams":
        field_names = {f.name for f in dataclasses.fields(cls)}
        int_fields = {"n_fock", "n_keep", "dm_max", "q_max"}
        kwargs: dict[str, Any] = {}
        for key, value in data.items():
            name, scale = key, 1.0
            if key.endswith("_ghz") and key[:-4] in _GHZ_FIELDS:
                name, scale = key[:-4], 1e9
            if name not in field_names:
                raise ConfigError(f"unknown parameter key: {key!r}")
            if name in kwargs:
                raise ConfigError(f"parameter {name!r} given twice")
            number = config_number(value, f"parameter {key!r}",
                                   integer=name in int_fields)
            kwargs[name] = number if name in int_fields else number * scale
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def echo_items(self) -> list[tuple[str, Any]]:
        """(name, value) pairs in a fixed order, for output headers."""
        return [(f.name, getattr(self, f.name))
                for f in dataclasses.fields(self)]


def config_number(value: Any, what: str, integer: bool = False) -> float | int:
    """A JSON number as a finite float, or as an int when `integer`.

    Raises ConfigError naming `what` for non-numbers, NaN, +-inf, integers
    beyond float range and non-integral values of integer keys.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number")
    if integer:
        if number != int(number):
            raise ConfigError(f"{what} must be an integer")
        return int(value)
    return number


def config_fields(raw: dict, str_keys: tuple, int_keys: tuple,
                  float_keys: tuple, where: str) -> dict:
    """Config section `raw` with its keys checked and its numbers cleaned.

    String keys must hold strings; the others go through config_number,
    as integers for `int_keys`.  Raises ConfigError naming `where` for an
    unknown key or a value of the wrong type.
    """
    unknown = set(raw) - set(str_keys) - set(int_keys) - set(float_keys)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    clean: dict = {}
    for key, value in raw.items():
        if key in str_keys:
            if not isinstance(value, str):
                raise ConfigError(f"{where} key {key!r} must be a string")
            clean[key] = value
        else:
            clean[key] = config_number(value, f"{where} key {key!r}",
                                       integer=key in int_keys)
    return clean


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def load_config(path: str | Path) -> dict[str, Any]:
    """Read a JSON config file, rejecting anything but a flat JSON object."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")
    return data
