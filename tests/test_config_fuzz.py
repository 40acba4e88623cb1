"""Config fuzzing of the exit-code contract.

Every config gives exit 0, 2, 3, 4, 5 or 6. Each example starts from a valid
``simulate``, ``steady``, ``bounds`` or ``audit`` config and replaces up to
three of its values (a number, a matrix, a row, a whole section) with values
from a fixed pool of awkward JSON values. ``main`` runs in-process, so an
exception that escapes it (what a console run shows as a traceback and exit
1) fails the test directly; stderr is checked for a traceback as well.

Every example stays small: at most ``MAX_STEPS`` integrator steps, at most
``MAX_COUNT`` audit cases, and dimensions far below the cap except values
that the cap must reject.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from entrodyn.cli import main
from entrodyn.models import MAX_DIM

CONTRACT_EXIT_CODES = {0, 2, 3, 4, 5, 6}
MAX_STEPS = 1000
MAX_COUNT = 3

AWKWARD = (
    -1,
    -0.5,
    0,
    True,
    False,
    "x",
    None,
    10**20,
    MAX_DIM + 1,
    [],
    [[1, 2], [3]],
    [[[[0, 1]]]],
    [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
    {"a": 1},
)

QUBIT_MATRICES = (
    [[1, 0], [0, -1]],
    [[0, 1], [1, 0]],
    [[0, 0], [1, 0]],
    [[0.5, 0], [0, 0.5]],
    [[0, [0, -1]], [[0, 1], 0]],
)
PRESETS = (
    "dephasing",
    "amplitude_damping",
    "depolarizing",
    "driven_qubit",
    "truncated_oscillator",
)

models = st.one_of(
    st.fixed_dictionaries(
        {"name": st.sampled_from(PRESETS)},
        optional={
            "params": st.fixed_dictionaries(
                {},
                optional={
                    "gamma": st.sampled_from([0.5, 2.0, 50.0, 1e6]),
                    "omega": st.sampled_from([0.0, 1.0, 3.0]),
                    "d": st.sampled_from([2, 3, 4]),
                },
            )
        },
    ),
    st.fixed_dictionaries(
        {"dim": st.just(2)},
        optional={
            "hamiltonian": st.sampled_from(QUBIT_MATRICES),
            "channels": st.lists(st.sampled_from(QUBIT_MATRICES), max_size=2),
        },
    ),
)
states = st.one_of(
    st.sampled_from(["plus", "ground", "maximally_mixed"]),
    st.sampled_from([[[1, 0], [0, 0]], [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0], [0, 0.5]]]),
)
integrators = st.fixed_dictionaries(
    {},
    optional={
        "dt": st.sampled_from([1e-3, 0.01, 0.1, 1.5]),
        "t_max": st.sampled_from([0.05, 0.5, 3.0]),
        "record_stride": st.sampled_from([1, 7, 100]),
    },
)
valid_configs = st.one_of(
    st.tuples(
        st.just("simulate"),
        st.fixed_dictionaries(
            {"model": models, "initial_state": states}, optional={"integrator": integrators}
        ),
    ),
    st.tuples(
        st.just("steady"),
        st.fixed_dictionaries({"model": models}, optional={"tol": st.sampled_from([1e-10, 1e-6])}),
    ),
    st.tuples(
        st.just("bounds"),
        st.fixed_dictionaries(
            {"model": models, "initial_state": states},
            optional={"require_variance_threshold": st.booleans()},
        ),
    ),
    st.tuples(
        st.just("audit"),
        st.fixed_dictionaries(
            {"d": st.sampled_from([2, 3, 8]), "count": st.sampled_from([1, MAX_COUNT])},
            optional={"seed": st.sampled_from([0, 7])},
        ),
    ),
)


def slots(node, path=()):
    """Paths to every value inside ``node``: object members and array items."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from slots(child, path + (key,))


def replace_at(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@st.composite
def configs(draw):
    command, config = draw(valid_configs)
    # Sampled values are shared between examples, so edit copies only.
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(slots(config))))
        replace_at(config, path, copy.deepcopy(draw(st.sampled_from(AWKWARD))))
    return command, config


def work_is_bounded(config):
    """At most MAX_STEPS integrator steps and MAX_COUNT audit cases, or a rejected config."""
    count = config.get("count", 1)
    if isinstance(count, int) and count > MAX_COUNT:
        return False
    raw = config.get("integrator", {})
    if not isinstance(raw, dict):
        return True
    dt, t_max = raw.get("dt", 1e-3), raw.get("t_max", 1.0)
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (dt, t_max))
    return not numbers or dt <= 0 or t_max / dt <= MAX_STEPS


@given(case=configs())
@settings(
    max_examples=200,
    deadline=5000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_config_exits_within_contract(case):
    command, config = case
    assume(work_is_bounded(config))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", os.path.join(tmp, "out")])
    assert code in CONTRACT_EXIT_CODES
    assert "Traceback" not in err.getvalue()
