"""Schmidt-mode analysis of discretized two-variable probability amplitudes.

The package decomposes amplitudes psi(p, q) sampled on uniform grids into
paired orthonormal modes with weights lambda_k (via SVD), and derives the
entanglement measures K and S.  Built-in models: an entangled atom-photon
emission amplitude in coordinate and momentum representations, and a
collinear type-II down-conversion biphoton amplitude with its polarization
coherence parameter F.
"""

from .atom_photon import (
    AtomPhotonParams,
    ValidityReport,
    asymptotics,
    coord_amplitude,
    coord_grid,
    coord_matrix,
    coord_spectrum,
    eta_opt,
    full_dynamics,
    laguerre_mode,
    momentum_amplitude,
    momentum_grid,
    momentum_matrix,
    validity_check,
    xi0_estimate,
    zero_order_dynamics,
)
from .errors import ConvergenceError, MatrixParseError
from .polarization import (
    CoherenceReport,
    PolarizationDensityMatrix,
    coherence,
    coherence_report,
    density_matrix_checks,
    mixture_decomposition,
    polarization_density_matrix,
)
from .schmidt import (
    DecompositionOptions,
    SchmidtResult,
    entanglement_entropy,
    mode_overlap,
    reconstruct,
    schmidt_decompose,
    schmidt_number,
    truncate_rank,
)
from .spdc import (
    SpdcParams,
    biphoton_amplitude,
    phase_matching,
    pump_envelope,
    spdc_grid,
    spdc_matrix,
    spdc_params,
)
from .tensor_core import (
    AmplitudeMatrix,
    Grid,
    make_grid,
    normalize,
    sample_amplitude,
)

__version__ = "0.1.0"
