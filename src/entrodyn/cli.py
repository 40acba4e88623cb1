"""Command-line front end.

Subcommands (all read a JSON config via --config and write to --out, which
defaults to stdout):

* ``simulate``  integrate a trajectory and emit a per-time CSV of entropy,
  exact rate, rate lower bound and thresholds,
* ``steady``    extract the steady state and emit a JSON report with the
  long-time entropy floor,
* ``bounds``    evaluate the bound report at one explicit state (JSON),
* ``audit``     sweep seeded random (Hermitian L, random density) pairs
  through the two inequality audits and emit a CSV of findings,
* ``models``    list the preset catalog (``--json`` for machine-readable).

Exit codes: 0 success (audit violations are findings, not failures);
2 config/parse error: non-finite numbers (``NaN``, ``Infinity``, overflowing
literals), a Hamiltonian or channel with a non-finite Frobenius norm, a model
scale |H|_F^2 + sum_j |L_j|_F^2 above ``dynamics.MAX_SCALE`` or a ``steady``
generator whose largest entry is below 1/``MAX_SCALE``, a dimension above
``MAX_DIM``, integrator keys other than the fields of ``IntegratorConfig`` or
values of the wrong type, a non-bool ``require_variance_threshold``, an
initial state outside its density gate (in ``simulate``, the integrator's),
an output path that cannot be opened; 3 positivity lost during
integration; 4 numerical failure (a state that diverges between records, a
``numpy.linalg.LinAlgError``); 5 degenerate steady-state manifold; 6 nothing
to bound (no usable channel in ``bounds`` or ``steady``, or a variance
threshold demanded for non-Hermitian channels).

Config conventions: complex scalars are two-element arrays [re, im] (bare
reals are also accepted on input); matrices are row-major nested arrays.
Floats in CSV output carry 17 significant digits in scientific notation; a
saturated exact rate is serialized as the literal token ``inf`` and absent
thresholds as empty fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import fields
from typing import Any, TextIO

import numpy as np

from .dynamics import IntegratorConfig, LindbladModel, liouvillian_rhs, propagate
from .entropy_bounds import (
    bound_reports,
    gated_spectra,
    log_inequality_checks,
    maximally_mixed_bound,
    stack_size,
    steady_state_bound,
    trace_square_audits,
    von_neumann_entropy,
)
from .errors import (
    BadDimensionError,
    BadParamsError,
    ConfigError,
    DegenerateSteadyStateError,
    DimMismatchError,
    EntrodynError,
    NoChannelsError,
    NotDensityError,
    NotHermitianError,
    PositivityLostError,
    UnknownModelError,
    ZeroChannelError,
)
from .models import MAX_DIM, PAULI_Z, get_model, list_models, named_state
from .operators import (
    density_spectra,
    ginibre_matrices,
    gram_state,
    hermitian_part,
    maximally_mixed,
)
from .steady_state import steady_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_POSITIVITY = 3
EXIT_NUMERICS = 4
EXIT_DEGENERATE = 5
EXIT_NOTHING_TO_BOUND = 6

# First matching row wins, so subclasses precede the EntrodynError catch-all.
_EXIT_CODES = (
    ((ConfigError, BadParamsError, UnknownModelError, BadDimensionError), EXIT_CONFIG),
    (PositivityLostError, EXIT_POSITIVITY),
    (DegenerateSteadyStateError, EXIT_DEGENERATE),
    ((NoChannelsError, ZeroChannelError), EXIT_NOTHING_TO_BOUND),
    ((EntrodynError, np.linalg.LinAlgError), EXIT_NUMERICS),
)

SIMULATE_HEADER = (
    "t,S,rate_exact,rate_lower_bound,threshold_general,threshold_variance,"
    "monotone_guaranteed,trace_error,min_eig"
)
AUDIT_HEADER = "case_id,trace_sq_lhs,trace_sq_rhs,trace_sq_holds,logineq_min_eig"


def _fmt(x: float | None) -> str:
    """17 significant digits, scientific notation; ``inf``, ``-inf``, ``nan`` bare; None empty."""
    return "" if x is None else format(x, ".16e")


def _json_float(x: float) -> Any:
    """JSON-safe float: infinities become string tokens."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _matrix_json(a) -> list[list[list[float]]]:
    arr = np.asarray(a, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def _write_json(out: TextIO, payload) -> None:
    json.dump(payload, out, indent=2)
    out.write("\n")


def _parse_entry(value) -> complex:
    if isinstance(value, bool):
        raise ConfigError("matrix entries must be numbers or [re, im] pairs")
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"matrix entries must be numbers or [re, im] pairs, got {value!r}")


def _parse_matrix(obj, dim: int | None = None, what: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ConfigError(f"{what} must be a row-major nested array")
    rows = len(obj)
    if any(len(r) != rows for r in obj):
        raise ConfigError(f"{what} must be square, got ragged/non-square rows")
    if dim is not None and rows != dim:
        raise ConfigError(f"{what} has dimension {rows}, expected {dim}")
    out = np.empty((rows, rows), dtype=np.complex128)
    for i, row in enumerate(obj):
        for j, value in enumerate(row):
            out[i, j] = _parse_entry(value)
    return out


def _is_int_in(value, low: int, high: float) -> bool:
    """True for a JSON integer (not a bool) in [low, high]."""
    return isinstance(value, int) and not isinstance(value, bool) and low <= value <= high


def _model_from_config(config: dict) -> LindbladModel:
    spec = config.get("model")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'model' object")
    has_preset = "name" in spec
    has_inline = any(k in spec for k in ("dim", "hamiltonian", "channels"))
    if has_preset and has_inline:
        raise ConfigError("model must be either a preset reference or inline, not both")
    if has_preset:
        if not isinstance(spec["name"], str):
            raise ConfigError("model.name must be a string")
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("model.params must be an object")
        return get_model(spec["name"], params)
    if not has_inline:
        raise ConfigError("model needs either 'name' (preset) or 'dim' (inline)")
    dim = spec.get("dim")
    if not _is_int_in(dim, 1, MAX_DIM):
        raise ConfigError(f"inline model needs an integer 'dim' in [1, {MAX_DIM}]")
    if "hamiltonian" in spec:
        hamiltonian = _parse_matrix(spec["hamiltonian"], dim, "hamiltonian")
    else:
        hamiltonian = np.zeros((dim, dim), dtype=np.complex128)
    raw_channels = spec.get("channels", [])
    if not isinstance(raw_channels, list):
        raise ConfigError("model.channels must be an array of matrices")
    channels = tuple(
        _parse_matrix(c, dim, f"channels[{i}]") for i, c in enumerate(raw_channels)
    )
    label = spec.get("label", "inline")
    try:
        return LindbladModel(hamiltonian, channels, label=str(label))
    except (NotHermitianError, DimMismatchError) as exc:
        raise ConfigError(f"inline model invalid: {exc}") from exc


def _state_from_config(config: dict, dim: int) -> np.ndarray:
    """The initial state, parsed only: each command gates it once."""
    spec = config.get("initial_state")
    if spec is None:
        raise ConfigError("config needs 'initial_state' (named state or matrix)")
    if isinstance(spec, str):
        return named_state(spec, dim)
    return _parse_matrix(spec, dim, "initial_state")


def _integrator_from_config(config: dict) -> IntegratorConfig:
    raw = config.get("integrator", {})
    if not isinstance(raw, dict):
        raise ConfigError("'integrator' must be an object")
    unknown = set(raw) - {f.name for f in fields(IntegratorConfig)}
    if unknown:
        raise ConfigError(f"unknown integrator keys: {sorted(unknown)}")
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"integrator.{key} must be a number, got {json.dumps(value)}")
    return IntegratorConfig(**{"dt": 1e-3, "t_max": 1.0, **raw})


def run_simulate(config: dict, out: TextIO) -> None:
    model = _model_from_config(config)
    rho0 = _state_from_config(config, model.dim)
    cfg = _integrator_from_config(config)
    try:
        traj = propagate(model, rho0, cfg)
    except NotDensityError as exc:
        raise ConfigError(f"initial_state fails the integrator's input gate: {exc}") from exc
    lines = [SIMULATE_HEADER]
    for t, rep, trace_error, min_eig in zip(traj.times, traj.reports, traj.trace_errors,
                                            traj.min_eigs):
        numbers = (t, rep.entropy, rep.rate_exact, rep.rate_lower_bound, rep.threshold_general,
                   rep.threshold_variance)
        flag = str(rep.monotone_guaranteed).lower()
        lines.append(",".join([*map(_fmt, numbers), flag, _fmt(trace_error), _fmt(min_eig)]))
    out.write("\n".join(lines) + "\n")


def run_steady(config: dict, out: TextIO) -> None:
    model = _model_from_config(config)
    tol = config.get("tol", 1e-10)
    if not isinstance(tol, (int, float)) or not 0 < tol < 1:
        raise ConfigError("'tol' must be a number in (0, 1)")
    try:
        rho_inf = steady_state(model, float(tol))
    except DegenerateSteadyStateError as exc:
        _write_json(
            out,
            {
                "error": "degenerate_steady_state",
                "null_dimension": exc.null_dimension,
                "label": model.label,
            },
        )
        raise
    residual = float(np.linalg.norm(liouvillian_rhs(model, rho_inf)))
    bound = steady_state_bound(model, rho_inf)
    report = {
        "label": model.label,
        "dim": model.dim,
        "steady_state": _matrix_json(rho_inf),
        "entropy": von_neumann_entropy(rho_inf),
        "generator_residual": residual,
        "channel_gains": list(bound.channel_gains),
        "total_channel_weight": bound.total_channel_weight,
        "entropy_floor": bound.entropy_floor,
        "entropy_floor_raw": bound.entropy_floor_raw,
    }
    _write_json(out, report)


def run_bounds(config: dict, out: TextIO) -> None:
    model = _model_from_config(config)
    if model.dim < 2:
        raise ConfigError("bound evaluation needs dimension >= 2")
    demand = config.get("require_variance_threshold", False)
    if not isinstance(demand, bool):
        raise ConfigError(f"require_variance_threshold must be a bool, got {json.dumps(demand)}")
    states = _state_from_config(config, model.dim)[None]
    try:
        spectra = density_spectra(states, hermiticity_tol=1e-8, trace_tol=1e-6,
                                  positivity_tol=1e-8)
    except NotDensityError as exc:
        raise ConfigError(f"initial_state is not a density matrix: {exc}") from exc
    if not np.any(model.channel_norms_sq > 0.0):
        raise ZeroChannelError("nothing to bound; model has no non-zero channel")
    if demand and not model.channels_hermitian:
        raise NoChannelsError("variance threshold requires every channel to be Hermitian")
    rep = bound_reports(model, [0.0], spectra)[0]
    payload = {
        "label": model.label,
        "dim": model.dim,
        "entropy": rep.entropy,
        "rate_exact": _json_float(rep.rate_exact),
        "rate_lower_bound": rep.rate_lower_bound,
        "threshold_general": rep.threshold_general,
        "threshold_variance": rep.threshold_variance,
        "monotone_guaranteed": rep.monotone_guaranteed,
        "log_floor_hit": rep.log_floor_hit,
        "max_entropy": math.log(model.dim),
        "maximally_mixed_floor": maximally_mixed_bound(model.dim),
    }
    _write_json(out, payload)


def run_audit(config: dict, out: TextIO) -> None:
    d = config.get("d")
    count = config.get("count")
    seed = config.get("seed", 0)
    if not _is_int_in(d, 2, MAX_DIM):
        raise ConfigError(f"'d' must be an integer in [2, {MAX_DIM}]")
    if not _is_int_in(count, 1, math.inf):
        raise ConfigError("'count' must be an integer >= 1")
    if not _is_int_in(seed, 0, math.inf):
        raise ConfigError("'seed' must be an integer >= 0")
    out.write(AUDIT_HEADER + "\n")  # rows follow stack by stack, so memory stays flat
    trace_sq_violations = 0
    log_violations = 0
    size = stack_size(d)
    for start in range(0, count, size):
        cases = range(start, min(start + size, count))
        # case i draws its channel from seed + 2i and its state from seed + 2i + 1
        drawn = ginibre_matrices(d, range(seed + 2 * cases.start, seed + 2 * cases.stop))
        channels, states = hermitian_part(drawn[0::2]), gram_state(drawn[1::2])
        del drawn  # held through the audits, it would add a stack to the peak memory
        ids = [f"case{i}" for i in cases]
        if d == 2 and start == 0:
            # Canned sign-indefinite case: the z Pauli matrix against I/2.
            ids[0], channels[0], states[0] = "canned", PAULI_Z, maximally_mixed(2)
        spectra = gated_spectra(states)
        lhs, rhs, holds = trace_square_audits(channels, spectra)
        gaps = log_inequality_checks(spectra)
        trace_sq_violations += int(np.count_nonzero(~holds))
        log_violations += int(np.count_nonzero(gaps < -1e-10))
        for c, a, b, h, g in zip(ids, lhs.tolist(), rhs.tolist(), holds.tolist(), gaps.tolist()):
            out.write(f"{c},{a:.16e},{b:.16e},{str(h).lower()},{g:.16e}\n")
    out.write(
        f"# summary: rows={count} trace_sq_violations={trace_sq_violations} "
        f"log_ineq_violations={log_violations}\n"
    )


def run_models(out: TextIO, as_json: bool) -> None:
    specs = list_models()
    if as_json:
        payload = [
            {
                "name": s.name,
                "defaults": s.defaults,
                "summary": s.summary,
                "facts": s.facts,
                "channels": len(get_model(s.name).channels),
            }
            for s in specs
        ]
        _write_json(out, payload)
    else:
        for s in specs:
            defaults = ", ".join(f"{k}={v:g}" for k, v in s.defaults.items())
            out.write(f"{s.name} ({defaults})\n    {s.summary}\n    {s.facts}\n")


def _reject_constant(name: str):
    raise ConfigError(f"config holds the non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} overflows to {value}")
    return value


def _finite_int(text: str) -> int:
    try:
        value = int(text)
        float(value)
    except (OverflowError, ValueError):
        raise ConfigError(
            f"config integer with {len(text.lstrip('-'))} digits overflows a float"
        ) from None
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(
                fh,
                parse_constant=_reject_constant,
                parse_float=_finite_float,
                parse_int=_finite_int,
            )
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _open_out(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot open output: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrodyn",
        description="Entropy dynamics, bounds, and steady-state floors for "
        "Markovian open quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "integrate a trajectory and write the per-time bound CSV"),
        ("steady", "extract the steady state and write the entropy-floor report"),
        ("bounds", "evaluate the bound report at one explicit state"),
        ("audit", "sweep random instances through the inequality audits"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
    p_models = sub.add_parser("models", help="list the preset catalog")
    p_models.add_argument("--json", action="store_true", help="machine-readable output")
    p_models.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    runners = {"simulate": run_simulate, "steady": run_steady, "bounds": run_bounds,
               "audit": run_audit, "models": lambda _, out: run_models(out, args.json)}
    try:
        config = None if args.command == "models" else _load_config(args.config)
        with _open_out(args.out) as out:
            runners[args.command](config, out)
    except (EntrodynError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
