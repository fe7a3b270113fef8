"""Reed-Muller partially symmetric polar codes.

Construction of decreasing monomial codes, their affine automorphism
groups, successive-cancellation and automorphism-ensemble decoding, and
Monte Carlo frame-error-rate simulation.
"""

from .monomials import min_distance, minimal_generators, symmetry, upward_closure
from .codes import (
    CodeSpec,
    ReliabilityOrder,
    beta_expansion_reliability,
    min_weight_count,
)
from .autgroup import (
    AffineMap,
    BlockStructure,
    Permutation,
    absorption_structure_empirical,
    blta_size,
    compute_blta_structure,
    equivalent_class_count,
    is_code_automorphism,
    permutation_from_affine,
    sample_blta,
    sample_distinct_class_automorphisms,
)
from .scdec import ae_sc_decode_frames, encode_batch, polar_transform, sc_decode_frames
from .channel import FerPoint, SimConfig, noisy_frames, run_fer, tub_ml_bound

__version__ = "0.1.0"
