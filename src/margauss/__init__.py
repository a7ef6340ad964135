"""Gaussian approximation of k-dimensional marginals of symmetric convex bodies.

Library surface: deterministic streams (core), projection frames (frames),
body samplers and exact identities (bodies), exchangeable pairs and bound
formulas (stein), 1-D smoothing machinery (gauss), empirical distance
estimators (metrics), and the experiment harness (harness).
"""

from .bodies import (
    BodySpec,
    SampleBatch,
    SimplexGeometry,
    isotropy_report,
    klartag_variance_check,
    parse_body_kind,
    regular_simplex,
    sample_body,
    simplex_moment_check,
    third_abs_moment_check,
)
from .core import ConstantsConfig, RandomStream, resolve_seed, substream
from .frames import (
    Frame,
    FrameFunctionals,
    build_frame,
    coordinate_frame,
    frame_functionals,
    haar_frame,
    project,
    sylvester_hadamard,
    walsh_frame,
)
from .gauss import (
    Density1D,
    convolve_l1,
    gaussian_density,
    gaussian_tv_exact,
    laplace_density,
    ledoux_check,
    uniform_density,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    emit_csv,
    fit_decay,
    read_result_csv,
    run_experiment,
)
from .metrics import DistanceEstimate, ks_1d, tv_hist_1d, w1_1d, w1_matching, w1_sliced
from .stein import (
    BoundReport,
    PairSpec,
    PairStatistics,
    conditional_checks,
    corollary_bounds,
    estimate_pair_terms,
    reflect_pair,
    theorem_bounds,
    transpose_pair,
)

__version__ = "0.1.0"
