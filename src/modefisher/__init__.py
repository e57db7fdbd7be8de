"""Two-mode bosonic metrology toolbox.

Simulates interferometric phase estimation with probes prepared by
nonlinear dynamics (Jaynes-Cummings emitters or a Kerr medium) on two
truncated oscillator modes, computes quantum and classical Fisher
information for photon-counting and homodyne readout, and optimizes
layered programmable circuits for both preparation and measurement.
"""

from .hilbert import (
    CompositeState,
    CutoffError,
    LayoutError,
    SubsystemLayout,
    coherent_state,
    coherent_truncation_tail,
    inner_product,
    jc_layout,
    kerr_layout,
    product_state,
    reduce_to_mode,
)
from .dynamics import (
    LocalGate,
    apply,
    coherent_input_state,
    detune_gate,
    evolve_continuous,
    jc_gate,
    kerr_gate,
    tunnel_gate,
)
from .encoding import (
    DEFAULT_PHI,
    PhaseFamily,
    beam_splitter_gate,
    encoded_family,
    phase_diff_gate,
)
from .metrology import (
    FisherBounds,
    FisherResult,
    GridError,
    MeasurementModel,
    bounds,
    cfi,
    counting_probabilities,
    homodyne_probabilities,
    qfi_fidelity,
    qfi_variance_oracle,
)
from .circuits import (
    AnsatzParams,
    interaction_budget,
    prepare_probe,
    run_circuit,
)
from .optimize import (
    OptRecord,
    OptimizerConfig,
    optimize_measurement,
    optimize_preparation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
