"""spdcpol: polarization-entangled pair generation in a dispersive waveguide.

End-to-end pipeline: joint spectral amplitude of a type-II pair source,
walk-off compensation and the post-selected two-qubit state, analyzer
fringes and CHSH evaluation, and gated-detector coincidence statistics
with accidental subtraction.
"""

from .counting import (
    DetectorModel,
    accidental_rate,
    chsh_from_counts,
    efficiency_budget,
    mean_counts,
    poisson_counts,
)
from .errors import ConfigurationError, DegenerateDataError
from .polarimetry import (
    canonical_settings,
    chsh_arm_angles,
    chsh_estimate,
    chsh_table,
    coincidence_probs,
    fit_fringe,
)
from .spectral import (
    JointSpectralAmplitude,
    SpectralFilter,
    SpectralGrid,
    WaveguideDispersion,
    build_jsa,
    default_grid,
    filter_amplitude,
    phase_mismatch,
)
from .state import (
    TwoQubitState,
    concurrence,
    optimal_delay,
    overlap_scan,
    post_selected_state,
    visibility_state,
)

__version__ = "0.1.0"
