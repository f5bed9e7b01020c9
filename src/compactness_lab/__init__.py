"""compactness-lab: desk-scale compactness diagnostics for degenerate parabolic
equations and moving-domain divergence-free calculus.

The package is organized by mechanism:

- `grid`: Cartesian grids, scalar/MAC fields, discrete calculus, H^{-m} norms
- `mollify`: bump mollifiers, shifts, the product commutator
- `truncate`: nonlinearities with finite critical sets and the C^1 truncation
- `parabolic`: step-in-time series of scalar or face fields, the semi-implicit
  degenerate-parabolic scheme and its monitor
- `productlimit`: the four-line product-limit pipeline and Orlicz machinery
- `movedom`: diffeomorphism families, epsilon-interiors, uniform constants
- `divfree`: normal traces, Neumann-harmonic projection, the dual seminorm
  and the trace surrogate (both from `dual_norm_check`)
- `probe`: the compactness proofs executed as diagnostics
- `cli`: the `compactness-lab` experiment runner
"""

__version__ = "0.1.0"

from .grid import (Grid, RasterDomain, ScalarField, StaggeredVectorField,  # noqa: F401
                   dirichlet_factor, divergence, gradient, h_minus_m_norm,
                   inner, lp_norm, staggered_inner, staggered_l2)
from .mollify import (commutator, convolve_space, convolve_staggered,  # noqa: F401
                      make_mollifier, separable_commutator_l1, shift_space)
from .movedom import (DiffeoFamily, NonCylindricalDomain, bilipschitz,  # noqa: F401
                      eps_exterior, eps_interior, framing_check,
                      jacobian_bounds, make_domain, make_family, peel_measure,
                      poincare_constant, transported_poincare)
from .parabolic import (SchemeRun, StepTimeSeries, barenblatt_profile,  # noqa: F401
                        energy_report, hypothesis_monitor, run_scheme,
                        time_derivative_tv)
from .productlimit import (exp_orlicz_pair, luxemburg_gauge,  # noqa: F401
                           orlicz_holder_check, product_pipeline)
from .divfree import (dual_norm_check, neumann_factor, neumann_harmonic,  # noqa: F401
                      normal_trace, per_slice_project, project_divfree0)
from .probe import kruzhkov_probe, ns_probe, time_shift_safety  # noqa: F401
from .truncate import build_beta, chain_gradient_check, nonlinearity_preset  # noqa: F401
