"""Relaxation of collective spins and oscillators in a broadband squeezed bath.

Core pieces: Dicke-space spin algebra, closed-form moment dynamics with
angle-dependent decay rates, an exact Lindblad master-equation oracle, a
small deterministic ODE engine, and CLI tooling that emits figure datasets
and verification reports.
"""

__version__ = "0.1.0"

from .spin_algebra import (BlochAngles, CollectiveOps, DickeSpace, QuantumState,
                           build_collective_ops, expectation, hpa_residual,
                           product_expectation, spin_coherent_state,
                           sym_covariance, third_moment)
from .moments import (OscillatorMoments, RateDecomposition, SpinMoments,
                      SqueezingParams, collective_cov_rhs, collective_mean_rhs,
                      decay_rates, gardiner_rhs, input_field_variances,
                      minimal_m, oscillator_cov_rhs, oscillator_mean_rhs,
                      oscillator_rate_decomposition, rate_decomposition,
                      spin_moments_from_state)
from .ode import IntegrationError, propagate
from .lindblad import (CutoffError, DegenerateSteadyStateError, Liouvillian,
                       Trajectory, annihilation_operator, evolve,
                       oscillator_liouvillian, oscillator_oracle,
                       spin_liouvillian, steady_state)
from .figures import (FigureDataset, fig3a_vector_field, fig3b_ellipses,
                      fig4a_rates, fig4b_variance_derivatives)
from .verification import verify
