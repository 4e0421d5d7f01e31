"""thorin: Laguerre-basis expansions of multivariate gamma-convolution
densities, with estimation from samples or formal densities,
well-behavedness diagnostics and goodness-of-fit validation."""

__version__ = "0.1.0"

from .numkit import (
    PrecisionContext,
    COEFF_DEFAULT,
    iterate_box,
    binom_prod,
)
from .laguerre import (
    CoeffTensor,
    phi,
    empirical_coeffs,
    coeffs_from_moments,
    density_grid,
    l2_norm_sq,
)
from .ggc import (
    GgcModel,
    ShiftedTensors,
    ModelCoeffs,
    cgf,
    simplex_scales,
    shifted_cumulants,
    cumulants_to_moments,
    model_coeffs,
    batch_coeffs,
    float_coeffs,
    gd1_coeffs,
    gd1_invert,
    sample,
    moschopoulos_density,
    marginal,
    linear_combination,
    concatenate,
)
from .wellbehaved import (
    WbReport,
    DependenceReport,
    mobius_h,
    disc_image,
    is_eps_wb,
    best_eps,
    classify_dependence,
    decay_check,
)
from .estimator import (
    FitConfig,
    FitReport,
    QuadratureError,
    default_box,
    loss_Lm,
    fit_empirical,
    project_density,
    theoretical_coeffs,
    theoretical_moments,
)
from .validate import (
    KsResult,
    ks_exact,
    qq_points,
    resampled_pvalues,
    bench_sampler,
    bench_cdf,
    bench_quantile,
    bench_pdf,
    bench_density_mp,
    bench_params,
    curious_cgf,
    curious_cgf_discrete,
)

__all__ = [name for name in dir() if not name.startswith("_")]
