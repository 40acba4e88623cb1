"""Independent numpy reference for the CLI outputs, and the checks against it.

The reference does not import ``entrodyn``. It rebuilds the presets and the
random ensembles from the conventions the README documents and recomputes
every numeric output field:

* trajectories advance by the classical RK4 polynomial
  ``P = sum_{k<=4} (dt L)^k / k!`` of the column-stacked Liouvillian L, the
  same scheme the CLI integrates, so a correct faster propagator meets the
  tolerances below;
* steady states come from an LU solve with the trace row substituted, not
  from the CLI's SVD;
* audit cases are redrawn from ``numpy.random.default_rng(seed)``.

Analytic anchors are checked on top: the depolarizing floor 1/4 and steady
entropy ln 2, the amplitude-damping floor 0, ``dephasing`` exiting 5 with
null dimension 2, trace conservation along trajectories, and exact audit
violation counts. Outputs need not be byte-identical to any earlier run.
"""

from __future__ import annotations

import json
import math

import numpy as np

SIMULATE_HEADER = (
    "t,S,rate_exact,rate_lower_bound,threshold_general,threshold_variance,"
    "monotone_guaranteed,trace_error,min_eig"
)
AUDIT_HEADER = "case_id,trace_sq_lhs,trace_sq_rhs,trace_sq_holds,logineq_min_eig"

EIG_FLOOR = 1e-14  # eigenvalues at or below are zero under the log
LEAK_TOL = 1e-10  # channel weight on the null space that saturates the rate
HERMITIAN_RTOL = 1e-8
AUDIT_SLACK = 1e-10
LOG_VIOLATION = -1e-10

# (atol, rtol) per compared field: |got - want| <= atol + rtol * |want|.
TOLERANCES = {
    "t": (1e-12, 1e-12),
    "S": (1e-9, 0.0),
    "rate_exact": (1e-8, 1e-7),
    "rate_lower_bound": (1e-9, 1e-9),
    "threshold_general": (1e-9, 1e-9),
    "threshold_variance": (1e-9, 1e-9),
    "min_eig": (1e-9, 0.0),
    "steady_state": (1e-9, 0.0),
    "entropy": (1e-9, 0.0),
    "channel_gains": (1e-9, 1e-9),
    "total_channel_weight": (0.0, 1e-12),
    "entropy_floor": (1e-9, 1e-9),
    "entropy_floor_raw": (1e-9, 1e-9),
    "trace_sq_lhs": (1e-12, 1e-9),
    "trace_sq_rhs": (1e-12, 1e-9),
    "logineq_min_eig": (1e-9, 0.0),
}
TRACE_ERROR_MAX = 1e-9  # trace is conserved; the CLI gates drift at this level
RESIDUAL_MAX = 1e-8  # |L vec(rho_inf)| of a reported steady state

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e| in (e, g) order


def lowering(d: int) -> np.ndarray:
    """Ladder lowering operator; basis index k carries d - 1 - k quanta."""
    a = np.zeros((d, d), dtype=complex)
    for k in range(d - 1):
        a[k + 1, k] = math.sqrt(d - 1 - k)
    return a


def preset(name: str, params: dict) -> tuple[np.ndarray, list[np.ndarray]]:
    """Hamiltonian and channels of a catalog preset."""
    root = math.sqrt(params.get("gamma", 1.0))
    zero = np.zeros((2, 2), dtype=complex)
    if name == "dephasing":
        return zero, [root * PAULI_Z]
    if name == "amplitude_damping":
        return zero, [root * SIGMA_MINUS]
    if name == "depolarizing":
        return zero, [root * PAULI_X, root * PAULI_Y, root * PAULI_Z]
    if name == "driven_qubit":
        return params.get("omega", 1.0) * PAULI_X, [root * SIGMA_MINUS]
    if name == "truncated_oscillator":
        a = lowering(int(params["d"]))
        return params.get("omega", 1.0) * (a.conj().T @ a), [root * a]
    raise ValueError(f"no reference for preset {name!r}")


def vec(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape((d, d), order="F")


def superoperator(h: np.ndarray, channels: list[np.ndarray]) -> np.ndarray:
    """Column-stacked Liouvillian: vec(A X B) = kron(B.T, A) vec(X)."""
    eye = np.identity(h.shape[0], dtype=complex)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in channels:
        sq = c.conj().T @ c
        gen += np.kron(c.conj(), c) - 0.5 * np.kron(eye, sq) - 0.5 * np.kron(sq.T, eye)
    return gen


def _is_hermitian(a: np.ndarray) -> bool:
    scale = max(1.0, float(np.linalg.norm(a)))
    return float(np.linalg.norm(a - a.conj().T)) <= HERMITIAN_RTOL * scale


def _entropy(lam: np.ndarray) -> float:
    support = lam[lam > EIG_FLOOR]
    return max(0.0, float(-(support * np.log(support)).sum()))


def _gain(c: np.ndarray, rho: np.ndarray) -> float:
    """tr(L^dag L rho) - tr(L rho L^dag rho)."""
    c_dag = c.conj().T
    return float(np.trace(c_dag @ c @ rho).real - np.trace(c @ rho @ c_dag @ rho).real)


def state_report(h, channels, rho: np.ndarray) -> dict:
    """Entropy, exact rate, rate bound and thresholds at one state."""
    rho = 0.5 * (rho + rho.conj().T)
    lam, basis = np.linalg.eigh(rho)
    entropy = _entropy(lam)
    weight = sum(float(np.sum(np.abs(c) ** 2)) for c in channels)
    gains = [_gain(c, rho) for c in channels]
    log_lam = np.log(np.maximum(lam, EIG_FLOOR))
    null = lam <= EIG_FLOOR
    rate = 0.0
    for c in channels:
        w = np.abs(basis.conj().T @ c @ basis) ** 2  # w[a, b] = |<u_a|L|u_b>|^2
        if null.any() and float(np.sum(w[null] * np.maximum(lam, 0.0))) > LEAK_TOL:
            rate = math.inf
            break
        rate += float(np.sum(w * lam[None, :] * (log_lam[None, :] - log_lam[:, None])))
    threshold = sum(gains) / weight if channels and weight > 0 else None
    threshold_var = None
    if threshold is not None and all(_is_hermitian(c) for c in channels):
        variances = [
            np.trace(c @ c @ rho).real - np.trace(c @ rho).real ** 2 for c in channels
        ]
        threshold_var = float(sum(variances)) / weight
    return {
        "S": entropy,
        "rate_exact": rate if channels else 0.0,
        "rate_lower_bound": -weight * entropy + sum(gains) if channels else 0.0,
        "threshold_general": threshold,
        "threshold_variance": threshold_var,
        "min_eig": float(lam[0]),
        "gains": gains,
        "weight": weight,
    }


def reference_trajectory(config: dict) -> list[dict]:
    """Expected CSV rows of ``simulate``: records every stride and at the end."""
    h, channels = preset(config["model"]["name"], config["model"]["params"])
    d = h.shape[0]
    rho0 = np.array([[complex(*z) for z in row] for row in config["initial_state"]])
    integ = config["integrator"]
    dt, stride = integ["dt"], integ["record_stride"]
    n_steps = max(1, round(integ["t_max"] / dt))
    a = dt * superoperator(h, channels)
    eye = np.identity(d * d, dtype=complex)
    step = eye + a @ (eye + (a / 2) @ (eye + (a / 3) @ (eye + a / 4)))
    v = vec(rho0)
    powers: dict[int, np.ndarray] = {}
    rows, k = [], 0
    while True:
        rows.append(dict(state_report(h, channels, unvec(v, d)), t=k * dt))
        if k == n_steps:
            return rows
        jump = min(stride - k % stride, n_steps - k)
        if jump not in powers:
            powers[jump] = np.linalg.matrix_power(step, jump)
        v = powers[jump] @ v
        k += jump


def reference_steady(config: dict) -> dict:
    """Expected ``steady`` report; the trace row replaces the first generator row."""
    spec = config["model"]
    h, channels = preset(spec["name"], spec["params"])
    d = h.shape[0]
    if spec["name"] == "dephasing":
        return {"label": "dephasing", "null_dimension": 2}
    gen = superoperator(h, channels)
    gen[0, :] = vec(np.identity(d, dtype=complex))
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    rho = unvec(np.linalg.solve(gen, rhs), d)
    rho = 0.5 * (rho + rho.conj().T)
    rep = state_report(h, channels, rho)
    raw = sum(rep["gains"]) / rep["weight"]
    ref = {
        "label": spec["name"],
        "dim": d,
        "steady_state": rho,
        "entropy": rep["S"],
        "channel_gains": rep["gains"],
        "total_channel_weight": rep["weight"],
        "entropy_floor": max(0.0, raw),
        "entropy_floor_raw": raw,
    }
    if spec["name"] == "depolarizing":
        ref["anchors"] = {"entropy_floor": 0.25, "entropy": math.log(2)}
    if spec["name"] == "amplitude_damping":
        ref["anchors"] = {"entropy_floor": 0.0, "entropy": 0.0}
    return ref


def _ginibre(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def reference_audit(config: dict) -> dict:
    """Expected ``audit`` rows and violation counts."""
    d, count, seed = config["d"], config["count"], config["seed"]
    rows = []
    for i in range(count):
        if d == 2 and i == 0:
            case_id, op, rho = "canned", PAULI_Z, np.identity(2, dtype=complex) / 2
        else:
            case_id = f"case{i}"
            g = _ginibre(d, seed + 2 * i)
            op = 0.5 * (g + g.conj().T)
            g = _ginibre(d, seed + 2 * i + 1)
            rho = g @ g.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            rho = rho / np.trace(rho).real
        lam, basis = np.linalg.eigh(rho)
        sqrt_rho = (basis * np.sqrt(np.clip(lam, 0.0, None))) @ basis.conj().T
        sandwich = sqrt_rho @ op @ sqrt_rho
        lhs = float(np.trace(sandwich @ sandwich).real)
        rhs = float(np.trace(op @ rho).real) ** 2
        log_min = float(np.min(-np.log(np.maximum(lam, EIG_FLOOR)) - 1.0 + lam))
        rows.append(
            {
                "case_id": case_id,
                "trace_sq_lhs": lhs,
                "trace_sq_rhs": rhs,
                "trace_sq_holds": lhs <= rhs + AUDIT_SLACK,
                "logineq_min_eig": log_min,
            }
        )
    return {
        "rows": rows,
        "trace_sq_violations": sum(not r["trace_sq_holds"] for r in rows),
        "log_ineq_violations": sum(r["logineq_min_eig"] < LOG_VIOLATION for r in rows),
    }


def reference(command: str, config: dict):
    """The expected output of one invocation."""
    if command == "simulate":
        return reference_trajectory(config)
    if command == "steady":
        return reference_steady(config)
    return reference_audit(config)


class Mismatch(Exception):
    """An output field is outside its tolerance, or the output is malformed."""


def _close(field: str, got, want, where: str, worst: dict) -> None:
    if want is None or got is None:
        if (want is None) != (got is None):
            raise Mismatch(f"{where}: {field} is {got!r}, expected {want!r}")
        return
    atol, rtol = TOLERANCES[field]
    got_arr = np.asarray(got, dtype=complex)
    want_arr = np.asarray(want, dtype=complex)
    if got_arr.shape != want_arr.shape:
        raise Mismatch(f"{where}: {field} has shape {got_arr.shape}, expected {want_arr.shape}")
    infinite = ~np.isfinite(want_arr)
    if np.any(infinite):
        if not np.array_equal(got_arr[infinite], want_arr[infinite]):
            raise Mismatch(f"{where}: {field} is {got!r}, expected {want!r}")
        got_arr, want_arr = got_arr[~infinite], want_arr[~infinite]
    err = np.abs(got_arr - want_arr)
    if err.size and not np.all(err <= atol + rtol * np.abs(want_arr)):
        raise Mismatch(f"{where}: {field} is {got!r}, expected {want!r} (atol {atol}, rtol {rtol})")
    if err.size:
        worst[field] = max(worst.get(field, 0.0), float(err.max()))


def _float(token: str):
    return None if token == "" else float(token)


def _bool(token: str) -> bool:
    if token not in ("true", "false"):
        raise Mismatch(f"not a boolean token: {token!r}")
    return token == "true"


def _check_simulate(ref: list[dict], text: str, worst: dict) -> None:
    lines = text.splitlines()
    if not lines or lines[0] != SIMULATE_HEADER:
        raise Mismatch("simulate header differs from the documented one")
    if len(lines) - 1 != len(ref):
        raise Mismatch(f"simulate wrote {len(lines) - 1} records, expected {len(ref)}")
    for i, (line, want) in enumerate(zip(lines[1:], ref)):
        fields = line.split(",")
        if len(fields) != 9:
            raise Mismatch(f"record {i}: {len(fields)} fields")
        values = dict(zip(SIMULATE_HEADER.split(","), fields))
        where = f"record {i}"
        for field in ("t", "S", "rate_exact", "rate_lower_bound", "threshold_general",
                      "threshold_variance", "min_eig"):
            _close(field, _float(values[field]), want[field], where, worst)
        trace_error = float(values["trace_error"])
        if not 0.0 <= trace_error <= TRACE_ERROR_MAX:
            raise Mismatch(f"{where}: trace_error {trace_error} breaks trace conservation")
        threshold = want["threshold_general"]
        monotone = _bool(values["monotone_guaranteed"])
        if threshold is None:
            if monotone:
                raise Mismatch(f"{where}: monotone_guaranteed without a threshold")
        elif abs(want["S"] - threshold) > TOLERANCES["S"][0] and monotone != (
            want["S"] <= threshold
        ):
            raise Mismatch(f"{where}: monotone_guaranteed is {monotone}")


def _check_steady(ref: dict, text: str, worst: dict) -> None:
    report = json.loads(text)
    if "null_dimension" in ref:
        if report.get("error") != "degenerate_steady_state":
            raise Mismatch(f"{ref['label']}: expected a degenerate-state report")
        if report.get("null_dimension") != ref["null_dimension"]:
            raise Mismatch(f"null_dimension {report.get('null_dimension')}, expected 2")
        return
    for key in ("label", "dim"):
        if report.get(key) != ref[key]:
            raise Mismatch(f"{key} is {report.get(key)!r}, expected {ref[key]!r}")
    state = np.array([[complex(*z) for z in row] for row in report["steady_state"]])
    where = ref["label"]
    _close("steady_state", state, ref["steady_state"], where, worst)
    for field in ("entropy", "channel_gains", "total_channel_weight", "entropy_floor",
                  "entropy_floor_raw"):
        _close(field, report[field], ref[field], where, worst)
    for field, value in ref.get("anchors", {}).items():
        _close(field, report[field], value, f"{where} anchor", worst)
    if not 0.0 <= report["generator_residual"] <= RESIDUAL_MAX:
        raise Mismatch(f"{where}: generator_residual {report['generator_residual']}")


def _check_audit(ref: dict, text: str, worst: dict) -> None:
    lines = text.splitlines()
    rows = ref["rows"]
    if not lines or lines[0] != AUDIT_HEADER:
        raise Mismatch("audit header differs from the documented one")
    if len(lines) != len(rows) + 2:
        raise Mismatch(f"audit wrote {len(lines)} lines, expected {len(rows) + 2}")
    for line, want in zip(lines[1:-1], rows):
        case_id, lhs, rhs, holds, log_min = line.split(",")
        if case_id != want["case_id"]:
            raise Mismatch(f"case id {case_id}, expected {want['case_id']}")
        _close("trace_sq_lhs", float(lhs), want["trace_sq_lhs"], case_id, worst)
        _close("trace_sq_rhs", float(rhs), want["trace_sq_rhs"], case_id, worst)
        _close("logineq_min_eig", float(log_min), want["logineq_min_eig"], case_id, worst)
        if _bool(holds) != want["trace_sq_holds"]:
            raise Mismatch(f"{case_id}: trace_sq_holds is {holds}")
    summary = (
        f"# summary: rows={len(rows)} trace_sq_violations={ref['trace_sq_violations']} "
        f"log_ineq_violations={ref['log_ineq_violations']}"
    )
    if lines[-1] != summary:
        raise Mismatch(f"summary {lines[-1]!r}, expected {summary!r}")


def check(command: str, expect_rc: int, ref, rc, text: str, worst: dict) -> str | None:
    """None when the exit code and output match the reference, else the first problem.

    ``worst`` collects the largest absolute deviation seen per field.
    """
    try:
        if rc != expect_rc:
            raise Mismatch(f"exit code {rc}, expected {expect_rc}")
        if command == "steady":
            _check_steady(ref, text, worst)
        elif command == "simulate":
            _check_simulate(ref, text, worst)
        else:
            _check_audit(ref, text, worst)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
    return None
