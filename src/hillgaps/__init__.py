"""Band edges and spectral gap asymptotics of Hill operators on the circle."""

from .errors import (
    BracketError,
    HillgapsError,
    InputError,
    IntegrationError,
    InterlacingError,
    NumericalError,
)
from .gaps import (
    GapReport,
    MembershipReport,
    SlopeFit,
    SummabilityReport,
    TailTable,
    decay_slope,
    default_fit_start,
    residuals,
    rho,
    rho_routes_allowance,
    rho_via_convolution,
    verify_marchenko_ostrovskii,
    verify_membership_consistency,
    weighted_tail_report,
)
from .potential import (
    Potential,
    from_fourier,
    hormander_norm,
    lame,
    load_potential,
    mathieu,
    potential_from_dict,
    potential_to_dict,
    power_decay,
    random_hs,
    two_harmonic,
)
from .sequence_spaces import (
    ConvLemmaReport,
    OrClassReport,
    SandwichReport,
    TwoSidedSeq,
    Weight,
    check_or_class,
    check_sandwich,
    conv_lemma_report,
    convolution_ratio,
    convolve,
    example_2_4_weight,
    log_power_weight,
    make_weight,
    power_weight,
    table_weight,
    weighted_norm,
)
from .spectrum import (
    BandEdges,
    CrossValidation,
    DiscriminantConfig,
    GalerkinConfig,
    band_edges_discriminant,
    band_edges_galerkin,
    cross_validate,
    discriminant,
    galerkin_matrix,
)

__version__ = "0.1.0"
