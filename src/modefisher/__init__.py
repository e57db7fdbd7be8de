"""Two-mode bosonic metrology toolbox.

Simulates interferometric phase estimation with probes prepared by
nonlinear dynamics (Jaynes-Cummings emitters or a Kerr medium) on two
truncated oscillator modes, computes quantum and classical Fisher
information for photon-counting and homodyne readout, and optimizes
layered programmable circuits for both preparation and measurement.
Import what you use from its module, e.g. ``modefisher.metrology``.
"""

__version__ = "0.1.0"
