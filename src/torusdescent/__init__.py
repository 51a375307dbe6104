"""S-integral points on conic bundles over the affine line.

The pipeline verifies the hypotheses of the descent theorem for surfaces
a*p_A(t)x^2 + b*p_B(t)y^2 = 1 over rings of S-integers, computes the
Condition (D) groups, vertical Brauer invariants and Selmer groups exactly,
runs the place-enlargement descent loop with bounded searches standing in
for Schinzel's Hypothesis and Chebotarev, and certifies integral points on
fibers.
"""

from .arith import (  # noqa: F401
    Place,
    REAL,
    hilbert_symbol,
    is_local_square,
    valuation,
)
from .conditiond import GElement, check_condition_d  # noqa: F401
from .descent import Certificate, DescentBounds, descend  # noqa: F401
from .points import local_solubility, solve_global, verify_integral_point  # noqa: F401
from .selmer import selmer_groups, torus_data  # noqa: F401
from .surface import (  # noqa: F401
    PartialAdelicPoint,
    SurfaceSpec,
    compute_s_bad,
    fiber,
    load_spec,
    make_spec,
    parse_spec_text,
    validate_spec,
)

__version__ = "0.1.0"
