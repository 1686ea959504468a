"""Filter-based regularization of ill-posed problems with learned
null-space and continued-SVD extensions, validated on a Kaiser-Bessel
discretization of the sparse-angle Radon transform."""

from .analysis import (
    BoundTerms,
    CurveReport,
    RateReport,
    SourceCondition,
    distance_function,
    error_bound_terms,
    evaluate_testset,
    param_choice,
    rate_experiment,
)
from .filters import (
    FilterRegularizer,
    LandweberFilter,
    RegularizingFilter,
    TikhonovFilter,
    TruncatedSvdFilter,
    make_filter,
    qualification_sup,
    verify_filter_axioms,
)
from .linop import SvdOperator, svd_decompose
from .network import (
    NetworkArch,
    NetworkParams,
    TrainState,
    grad_backprop,
    init_network,
    lipschitz_upper_bound,
    sgd_momentum_step,
    train,
)
from .radon import (
    Phantom,
    RadonGeometry,
    add_noise,
    add_noise_exact,
    assemble_matrix,
    gen_phantom,
    kb_line_integral,
    kb_value,
)
from .regnet import (
    CLASSICAL,
    CONTINUED,
    NULLSPACE,
    ReconstructionMethod,
    RegNetFamily,
    a3_residual,
    continued_svd_residual,
    nullspace_residual,
)

__version__ = "0.1.0"
