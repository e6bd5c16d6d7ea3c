"""Uncertainty quantification for elliptic diffusion problems on randomly
deformed discs with rough random coefficients.

The package combines the domain mapping treatment of the random domain
with a first order perturbation treatment of the non-smooth random part
of the diffusion coefficient, and provides direct Monte Carlo sampling to
validate the quadratic accuracy of the perturbation estimator.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateDeformation, DomainUQError,
                     EigFailed, MeshMismatch, NonFiniteValue,
                     NonPositiveCoefficient, NonPositiveData, NotPSD,
                     OutOfHoldAll, SolverDiverged, WorkerDied)
from .mesh import Mesh, build_disc_mesh, displace, refine
from .fem import assemble_mass, h1_norm, l2_norm, solve_dirichlet, w11_norm
from .lowrank import KLBasis, LowRankFactor, pivoted_cholesky, reduced_eigs
from .fields import (HoldAllGrid, Sample, ScalarFieldKL, VectorFieldKL,
                     build_coefficient_kl, build_vector_field_kl, draw_sample,
                     eval_displacement, g_hat, rng_stream, sample_uniform)
from .perturb import DeformedProblem, SampleSolve, solve_block, solve_sample
from .uq import (QuadratureRule, Statistics, mc_estimate, quadrature_estimate,
                 slope_fit, smolyak_rule)
from .config import ExperimentConfig, load_config, parse_config
