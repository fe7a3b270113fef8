"""The public surface: every module's star import resolves, the package's
top-level names are exactly the ones listed here, so that adding or
removing one is a deliberate edit of this list, and no module or test file
imports a name it does not use."""

import ast
import pkgutil
import types
from pathlib import Path

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
    "is_code_automorphism",
    "min_distance",
    "min_weight_count",
    "minimal_generators",
    "noisy_frames",
    "permutation_from_affine",
    "polar_transform",
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


# imported names that no module of the package reads: the benchmark under
# perfbench/ looks them up on these modules by name (ROADMAP item 1 moves them)
PERFBENCH_ONLY = {
    ("autgroup", "encode_batch"),
    ("cli", "PROBE_TRIALS"),
    ("cli", "PROBE_SNR_DB"),
}


def unused_imports(source: str) -> set[str]:
    """Names a module binds by import and neither reads nor lists in
    ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return imported - read - exported


# every source file but __init__.py, which imports only to re-export (the
# names TOP_LEVEL pins), and every test file
SOURCES = sorted(p for p in Path(rmpsc.__file__).parent.glob("*.py") if p.stem != "__init__")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize(
    "path", SOURCES + TESTS, ids=lambda p: p.name if p in SOURCES else f"tests/{p.name}"
)
def test_no_unused_imports(path):
    allowed = {attr for module, attr in PERFBENCH_ONLY if module == path.stem}
    assert unused_imports(path.read_text(encoding="utf-8")) == allowed


def test_unused_import_is_found():
    source = "import numpy as np\nfrom . import _gf2, codes\n__all__ = ['codes']\n"
    assert unused_imports(source) == {"np", "_gf2"}
    assert unused_imports(source + "np.zeros(1)\n_gf2.pack_row\n") == set()
