"""Entropy dynamics, bounds, and steady-state floors for Markovian open quantum systems."""

from . import errors
from .dynamics import (IntegratorConfig, LindbladModel, TrajectoryRecord, convergence_order_check,
                       final_state, liouvillian_rhs, propagate)
from .entropy_bounds import (EIG_FLOOR, BoundReport, SteadyStateBound, TraceSquareAudit,
                             bound_report, log_inequality_check, maximally_mixed_bound,
                             steady_state_bound, trace_square_audit, von_neumann_entropy)
from .models import ModelSpec, get_model, list_models, named_state
from .operators import (adjoint, frobenius_norm_sq, ginibre_matrix, ginibre_state, gue_hermitian,
                        maximally_mixed)
from .steady_state import long_time_entropy, steady_state

__version__ = "0.1.0"
