"""Preset catalog of analytically tractable decoherence models.

Basis conventions, fixed so matrix entries are reproducible across runs:

* Qubit basis order is (|e>, |g>) = (index 0, index 1), so the decay
  operator sigma_minus = |g><e| is the sub-diagonal matrix [[0, 0], [1, 0]].
* d-level ladders keep that ordering: index k carries d - 1 - k quanta, the
  ground level is the last basis vector, and the lowering operator is
  sub-diagonal with entries sqrt(n) for each source level with n quanta.
* Rates enter through the channel operators as sqrt(gamma), so gamma
  multiplies the dissipator linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .dynamics import LindbladModel, _frozen_copy
from .errors import BadParamsError, UnknownModelError

# Largest Hilbert-space dimension accepted from a preset or a run config. The
# steady-state generator is d^2 x d^2: at d = 64, 4096 x 4096 complex (268 MB).
MAX_DIM = 64

PAULI_X = _frozen_copy([[0, 1], [1, 0]])
PAULI_Y = _frozen_copy([[0, -1j], [1j, 0]])
PAULI_Z = _frozen_copy([[1, 0], [0, -1]])
SIGMA_MINUS = _frozen_copy([[0, 0], [1, 0]])  # |g><e| in (e, g) order


def lowering_operator(d: int) -> np.ndarray:
    """d-level lowering operator in the most-excited-first basis order."""
    if d < 2:
        raise BadParamsError("lowering operator needs d >= 2")
    a = np.zeros((d, d), dtype=np.complex128)
    for k in range(d - 1):
        quanta = d - 1 - k  # source level (column k) carries this many quanta
        a[k + 1, k] = math.sqrt(quanta)
    return a


@dataclass(frozen=True)
class ModelSpec:
    """Catalog entry: a named builder with defaulted parameters."""

    name: str
    defaults: dict[str, float]
    summary: str
    facts: str
    builder: Callable[..., LindbladModel]


def _build_dephasing(gamma: float) -> LindbladModel:
    return LindbladModel(
        np.zeros((2, 2)), (math.sqrt(gamma) * PAULI_Z,), label="dephasing"
    )


def _build_amplitude_damping(gamma: float) -> LindbladModel:
    return LindbladModel(
        np.zeros((2, 2)), (math.sqrt(gamma) * SIGMA_MINUS,), label="amplitude_damping"
    )


def _build_depolarizing(gamma: float) -> LindbladModel:
    root = math.sqrt(gamma)
    return LindbladModel(
        np.zeros((2, 2)),
        (root * PAULI_X, root * PAULI_Y, root * PAULI_Z),
        label="depolarizing",
    )


def _build_driven_qubit(omega: float, gamma: float) -> LindbladModel:
    return LindbladModel(
        omega * PAULI_X, (math.sqrt(gamma) * SIGMA_MINUS,), label="driven_qubit"
    )


def _build_truncated_oscillator(d: float, omega: float, gamma: float) -> LindbladModel:
    dim = int(d)
    a = lowering_operator(dim)
    hamiltonian = omega * (a.conj().T @ a)
    return LindbladModel(hamiltonian, (math.sqrt(gamma) * a,), label="truncated_oscillator")


_PRESETS: tuple[ModelSpec, ...] = (
    ModelSpec(
        name="dephasing",
        defaults={"gamma": 1.0},
        summary="pure dephasing: H = 0, L = sqrt(gamma) sigma_z",
        facts="coherences decay as exp(-2 gamma t); every diagonal state is "
        "stationary, so there is no unique steady state",
        builder=_build_dephasing,
    ),
    ModelSpec(
        name="amplitude_damping",
        defaults={"gamma": 1.0},
        summary="spontaneous decay: H = 0, L = sqrt(gamma) sigma_minus",
        facts="excited population decays as exp(-gamma t); unique steady state "
        "|g><g| with zero entropy and zero long-time floor",
        builder=_build_amplitude_damping,
    ),
    ModelSpec(
        name="depolarizing",
        defaults={"gamma": 1.0},
        summary="three channels sqrt(gamma) sigma_{x,y,z} (multi-channel preset)",
        facts="unique steady state I/2 with entropy ln 2; long-time floor 1/4",
        builder=_build_depolarizing,
    ),
    ModelSpec(
        name="driven_qubit",
        defaults={"omega": 1.0, "gamma": 1.0},
        summary="coherent drive against decay: H = omega sigma_x, L = sqrt(gamma) sigma_minus",
        facts="unique full-rank steady state balancing drive and decay",
        builder=_build_driven_qubit,
    ),
    ModelSpec(
        name="truncated_oscillator",
        defaults={"d": 4, "omega": 1.0, "gamma": 1.0},
        summary="d-level ladder: H = omega a^dag a, L = sqrt(gamma) a",
        facts="relaxes to the ground level; exercises dimensions above 2",
        builder=_build_truncated_oscillator,
    ),
)

_BY_NAME = {spec.name: spec for spec in _PRESETS}


def list_models() -> tuple[ModelSpec, ...]:
    """Catalog entries in stable order."""
    return _PRESETS


def get_model(name: str, params: Mapping[str, float] | None = None) -> LindbladModel:
    """Build a preset, overriding defaulted parameters.

    Raises UnknownModelError for names outside the catalog and BadParamsError
    for unknown parameter keys, non-positive rates, or dimensions outside
    [2, MAX_DIM]; the dimension is checked before anything is allocated.
    """
    spec = _BY_NAME.get(name)
    if spec is None:
        known = ", ".join(s.name for s in _PRESETS)
        raise UnknownModelError(f"unknown preset '{name}' (known: {known})")
    merged = dict(spec.defaults)
    for key, value in (params or {}).items():
        if key not in merged:
            raise BadParamsError(f"unknown parameter '{key}' for preset '{name}'")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and math.isfinite(value)):
            raise BadParamsError(f"parameter '{key}' must be a finite number")
        merged[key] = value
    if "gamma" in merged and merged["gamma"] <= 0:
        raise BadParamsError("rate gamma must be positive")
    if "d" in merged:
        if float(merged["d"]) != int(merged["d"]) or not 2 <= int(merged["d"]) <= MAX_DIM:
            raise BadParamsError(f"dimension d must be an integer in [2, {MAX_DIM}]")
        merged["d"] = int(merged["d"])
    return spec.builder(**merged)


def named_state(name: str, dim: int) -> np.ndarray:
    """Initial states addressable by name in run configurations.

    ``maximally_mixed`` is I/d, ``ground`` the last basis level, ``plus`` the
    uniform-superposition pure state (the sigma_x +1 eigenstate for d = 2).
    """
    if name == "maximally_mixed":
        return np.identity(dim, dtype=np.complex128) / dim
    if name == "ground":
        rho = np.zeros((dim, dim), dtype=np.complex128)
        rho[dim - 1, dim - 1] = 1.0
        return rho
    if name == "plus":
        ket = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
        return np.outer(ket, ket.conj())
    raise BadParamsError(f"unknown named state '{name}'")
