"""Design and analysis toolkit for interfacing pulsed heralded
single-photon SPDC sources with broadband quantum memories.

The package splits into a numerical stack (``signal_model``,
``joint_amplitude``, ``schmidt``, ``memory_interface``) and a
measurement-reduction stack (``counting``), tied together by the
``biphoton`` command-line interface.
"""

from .counting import (
    BandwidthFit,
    CountRecord,
    LinearFit,
    Measurement,
    OpticalPath,
    SweepPoint,
    fit_hsp_bandwidth,
    heralded_g2,
    heralding_efficiency,
    linear_rate_fit,
    mode_match_ratio,
    read_counts_csv,
    read_sweep_csv,
    subtract_accidentals,
)
from .errors import (
    BiphotonError,
    CoverageWarning,
    DecompositionError,
    DegenerateModeWarning,
    FitConvergenceError,
    GridMismatchError,
    ParameterError,
)
from .joint_amplitude import (
    JointAmplitude,
    MarginalSpectrum,
    assemble_gated_jta,
    marginal_signal_spectrum,
    quadrature_marginal_fwhm,
    to_frequency_domain,
)
from .memory_interface import (
    DesignPoint,
    DesignReport,
    EfficiencyMap,
    evaluate_design,
    read_in_efficiency,
    sweep_design_space,
)
from .schmidt import (
    SchmidtResult,
    fundamental_kernel,
    schmidt_decompose,
)
from .signal_model import (
    GaussianFilterSpec,
    PulseTrainSpec,
    TimeGateSpec,
    TimeGrid,
    filter_fwhm_from_gamma,
    gamma_from_filter_fwhm,
    sample_gate,
    sigma_p_from_pump_fwhm,
)

__version__ = "0.1.0"
