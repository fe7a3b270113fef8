"""The public surface: every module's star import resolves, and the package's
top-level names are exactly the ones listed here, so that adding or
removing one is a deliberate edit of this list."""

import pkgutil
import types

import pytest

import rmpsc

TOP_LEVEL = {
    "AffineMap",
    "BlockStructure",
    "CodeSpec",
    "FerPoint",
    "Permutation",
    "ReliabilityOrder",
    "SimConfig",
    "absorption_structure_empirical",
    "ae_sc_decode_frames",
    "beta_expansion_reliability",
    "blta_size",
    "compute_blta_structure",
    "encode_batch",
    "equivalent_class_count",
    "extend_code",
    "is_code_automorphism",
    "load_reliability",
    "min_distance",
    "min_weight_count",
    "minimal_generators",
    "noisy_frames",
    "permutation_from_affine",
    "polar_transform",
    "rm_polar_construct",
    "run_fer",
    "sample_blta",
    "sample_distinct_class_automorphisms",
    "sc_decode_frames",
    "symmetry",
    "tub_ml_bound",
    "upward_closure",
}

MODULES = sorted(m.name for m in pkgutil.iter_modules(rmpsc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from rmpsc.{name} import *", {})


def test_top_level_names_pinned():
    names = {
        k
        for k, v in vars(rmpsc).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert names == TOP_LEVEL
