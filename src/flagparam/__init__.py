"""Ball-chart parametrization of Grassmannians, canonical coset decomposition
of U(n), and parameters for density matrices with degenerate spectra."""

from .errors import (
    FlagparamError,
    GapAmbiguityError,
    NoChartError,
    NotPSDError,
    OutOfChartError,
    PrincipalRangeWarning,
    SingularInputError,
    ValidationError,
)
from .linalg import (
    EPS_HERMITIAN,
    EPS_UNITARY,
    PSD_TOL,
    RANK_TOL,
    expm_reference,
    haar_unitary,
    hermitian_sqrt,
    lower_triangularize,
    polar_unitary,
)
from .charts import (
    affine_to_ball,
    ball_to_affine,
    ball_unitary,
    chart_coordinates,
    chart_permutations,
    chart_point,
    frame_of_projector,
    frame_of_unitary,
    global_section,
    identity_chart,
    local_section,
    permutation_unitary,
    projector_of_frame,
    projector_of_unitary,
    select_chart,
)
from .coset import (
    BlockDiagonalUnitary,
    FlagCoordinates,
    JarlskogLevel,
    ball_to_jarlskog,
    coordinates_distance,
    decompose_unitary,
    flag_section,
    jarlskog_to_ball,
    jarlskog_unitary,
    reconstruct_unitary,
    section_from_projective_factors,
    validate_profile,
)
from .lie import (
    ball_to_generator,
    exp_generator,
    generator_matrix,
    generator_to_ball,
    sqrt_complement,
)
from .density import (
    GAP_TOL,
    DensityParameters,
    Spectrum,
    deparametrize,
    parameter_count,
    parametrize,
    require_density,
)

__version__ = "0.1.0"
