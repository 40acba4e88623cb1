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
literals), a Hamiltonian or channel with a non-finite Frobenius norm, a
dimension above ``MAX_DIM``, integrator keys other than the fields of
``IntegratorConfig`` or values of the wrong type, an initial state outside
the integrator's input gate, an output path that cannot be opened; 3
positivity lost during integration; 4 numerical failure (a state that
diverges between records, a ``numpy.linalg.LinAlgError``); 5 degenerate
steady-state manifold; 6 nothing to bound (no usable channel, or a variance
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
    bound_report,
    log_inequality_check,
    maximally_mixed_bound,
    steady_state_bound,
    trace_square_audit,
    von_neumann_entropy,
)
from .errors import (
    BadDimensionError,
    BadParamsError,
    ConfigError,
    DegenerateSteadyStateError,
    DimMismatchError,
    EntrodynError,
    NotDensityError,
    NotHermitianError,
    PositivityLostError,
    UnknownModelError,
)
from .models import MAX_DIM, PAULI_Z, get_model, list_models, named_state
from .operators import (
    assert_density,
    ginibre_state,
    gue_hermitian,
    hermitian_eig,
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
    # Raised outside run_steady's structured handling.
    (DegenerateSteadyStateError, EXIT_DEGENERATE),
    ((EntrodynError, np.linalg.LinAlgError), EXIT_NUMERICS),
)

SIMULATE_HEADER = (
    "t,S,rate_exact,rate_lower_bound,threshold_general,threshold_variance,"
    "monotone_guaranteed,trace_error,min_eig"
)
AUDIT_HEADER = "case_id,trace_sq_lhs,trace_sq_rhs,trace_sq_holds,logineq_min_eig"


def _fmt(x: float) -> str:
    """17 significant digits, scientific notation; infinities as bare tokens."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return format(float(x), ".16e")


def _fmt_opt(x: float | None) -> str:
    return "" if x is None else _fmt(x)


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _json_float(x: float) -> Any:
    """JSON-safe float: infinities become string tokens."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _matrix_json(a) -> list[list[list[float]]]:
    arr = np.asarray(a, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


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


def _state_from_config(config: dict, model: LindbladModel) -> np.ndarray:
    spec = config.get("initial_state")
    if spec is None:
        raise ConfigError("config needs 'initial_state' (named state or matrix)")
    if isinstance(spec, str):
        try:
            rho = named_state(spec, model.dim)
        except BadParamsError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        rho = _parse_matrix(spec, model.dim, "initial_state")
    try:
        assert_density(rho, hermiticity_tol=1e-8, positivity_tol=1e-8, trace_tol=1e-6)
    except NotDensityError as exc:
        raise ConfigError(f"initial_state is not a density matrix: {exc}") from exc
    return rho


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


def run_simulate(config: dict, out: TextIO) -> int:
    model = _model_from_config(config)
    rho0 = _state_from_config(config, model)
    cfg = _integrator_from_config(config)
    try:
        traj = propagate(model, rho0, cfg)
    except NotDensityError as exc:
        raise ConfigError(f"initial_state fails the integrator's input gate: {exc}") from exc
    lines = [SIMULATE_HEADER]
    for i, rep in enumerate(traj.reports):
        lines.append(
            ",".join(
                (
                    _fmt(traj.times[i]),
                    _fmt(rep.entropy),
                    _fmt(rep.rate_exact),
                    _fmt(rep.rate_lower_bound),
                    _fmt_opt(rep.threshold_general),
                    _fmt_opt(rep.threshold_variance),
                    _fmt_bool(rep.monotone_guaranteed),
                    _fmt(traj.trace_errors[i]),
                    _fmt(traj.min_eigs[i]),
                )
            )
        )
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def run_steady(config: dict, out: TextIO) -> int:
    model = _model_from_config(config)
    tol = config.get("tol", 1e-10)
    if not isinstance(tol, (int, float)) or not 0 < tol < 1:
        raise ConfigError("'tol' must be a number in (0, 1)")
    try:
        rho_inf = steady_state(model, float(tol))
    except DegenerateSteadyStateError as exc:
        json.dump(
            {
                "error": "degenerate_steady_state",
                "null_dimension": exc.null_dimension,
                "label": model.label,
            },
            out,
            indent=2,
        )
        out.write("\n")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
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
    json.dump(report, out, indent=2)
    out.write("\n")
    return EXIT_OK


def run_bounds(config: dict, out: TextIO) -> int:
    model = _model_from_config(config)
    if model.dim < 2:
        raise ConfigError("bound evaluation needs dimension >= 2")
    rho = _state_from_config(config, model)
    if not np.any(model.channel_norms_sq > 0.0):
        print("error: nothing to bound; model has no non-zero channel", file=sys.stderr)
        return EXIT_NOTHING_TO_BOUND
    if config.get("require_variance_threshold") and not model.channels_hermitian:
        print(
            "error: variance threshold requires every channel to be Hermitian",
            file=sys.stderr,
        )
        return EXIT_NOTHING_TO_BOUND
    rep = bound_report(model, rho)
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
    json.dump(payload, out, indent=2)
    out.write("\n")
    return EXIT_OK


def run_audit(config: dict, out: TextIO) -> int:
    d = config.get("d")
    count = config.get("count")
    seed = config.get("seed", 0)
    if not _is_int_in(d, 2, MAX_DIM):
        raise ConfigError(f"'d' must be an integer in [2, {MAX_DIM}]")
    if not _is_int_in(count, 1, math.inf):
        raise ConfigError("'count' must be an integer >= 1")
    if not _is_int_in(seed, 0, math.inf):
        raise ConfigError("'seed' must be an integer >= 0")
    lines = [AUDIT_HEADER]
    trace_sq_violations = 0
    log_violations = 0
    for i in range(count):
        if d == 2 and i == 0:
            # Canned sign-indefinite case: the z Pauli matrix against I/2.
            case_id = "canned"
            channel = np.asarray(PAULI_Z)
            rho = maximally_mixed(2)
        else:
            case_id = f"case{i}"
            channel = gue_hermitian(d, seed + 2 * i)
            rho = ginibre_state(d, seed + 2 * i + 1)
        spectrum = hermitian_eig(rho)
        audit = trace_square_audit(channel, rho, spectrum=spectrum)
        log_min = log_inequality_check(rho, spectrum=spectrum)
        if not audit.holds:
            trace_sq_violations += 1
        if log_min < -1e-10:
            log_violations += 1
        lines.append(
            ",".join(
                (
                    case_id,
                    _fmt(audit.lhs),
                    _fmt(audit.rhs),
                    _fmt_bool(audit.holds),
                    _fmt(log_min),
                )
            )
        )
    lines.append(
        f"# summary: rows={count} trace_sq_violations={trace_sq_violations} "
        f"log_ineq_violations={log_violations}"
    )
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def run_models(out: TextIO, as_json: bool) -> int:
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
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        for s in specs:
            defaults = ", ".join(f"{k}={v:g}" for k, v in s.defaults.items())
            out.write(f"{s.name} ({defaults})\n    {s.summary}\n    {s.facts}\n")
    return EXIT_OK


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


def _resolve_out(arg_out: str | None, config: dict | None):
    path = arg_out
    if path is None and config is not None:
        outputs = config.get("outputs")
        if isinstance(outputs, dict):
            path = outputs.get("path")
    if path is None:
        return nullcontext(sys.stdout)
    if not isinstance(path, str):
        raise ConfigError("outputs.path must be a string")
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
    try:
        if args.command == "models":
            with _resolve_out(args.out, None) as out:
                return run_models(out, args.json)
        config = _load_config(args.config)
        with _resolve_out(args.out, config) as out:
            if args.command == "simulate":
                return run_simulate(config, out)
            if args.command == "steady":
                return run_steady(config, out)
            if args.command == "bounds":
                return run_bounds(config, out)
            return run_audit(config, out)
    except (EntrodynError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
