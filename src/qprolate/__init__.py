"""q-Fourier analysis on the geometric lattice {q^n}: Hahn-Exton q-Bessel
transforms, q-prolate spheroidal wave functions, and the q-sampling
theorem for extrapolating q-bandlimited functions from their lattice
values.
"""

from .qcalc import (
    DEFAULT_WINDOW,
    LatticeFunction,
    LatticeWindow,
    QParams,
    TailWarning,
    WindowTooSmall,
    inner_product,
    jackson_integral_0a,
    jackson_integral_0inf,
    lattice_weights,
    norm_lqpv,
    qpochhammer,
)
from .qbessel import (
    jv_array,
    jv_at_exponent,
    jv_bound,
    product_integral_direct,
)
from .qfourier import TransformPlan, convolve, fqv_transform, make_plan, translate
from .pswf import (
    Bandlimit,
    FewerPairsWarning,
    PswfBasis,
    SolverNoConvergence,
    ZeroFunction,
    build_operator_matrix,
    compute_basis,
    concentration_index,
    eigen_report_csv,
    eigen_report_json,
    eval_pswf_at,
    pswf_on_window,
)
from .sampling import (
    DEFAULT_GRID,
    convergence_study,
    kernel,
    project,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "Bandlimit",
    "DEFAULT_GRID",
    "DEFAULT_WINDOW",
    "FewerPairsWarning",
    "LatticeFunction",
    "LatticeWindow",
    "PswfBasis",
    "QParams",
    "SolverNoConvergence",
    "TailWarning",
    "TransformPlan",
    "WindowTooSmall",
    "ZeroFunction",
    "build_operator_matrix",
    "compute_basis",
    "concentration_index",
    "convergence_study",
    "convolve",
    "eigen_report_csv",
    "eigen_report_json",
    "eval_pswf_at",
    "fqv_transform",
    "inner_product",
    "jackson_integral_0a",
    "jackson_integral_0inf",
    "jv_array",
    "jv_at_exponent",
    "jv_bound",
    "kernel",
    "lattice_weights",
    "make_plan",
    "norm_lqpv",
    "product_integral_direct",
    "project",
    "pswf_on_window",
    "qpochhammer",
    "reconstruct",
    "translate",
]
