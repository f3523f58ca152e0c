"""Higher-arity metrics on simplicial chains.

Construction, verification, and embedding of k-point metrics: weak/strong
checks through minimum bounding chains, coboundary metrics with flat-norm
style embeddings, random projections, apex extensions, simplex-volume
metrics, and hypertree instances.

Importing the package loads nothing else (PEP 562): each public name, and
each submodule, is imported on its first use, so `python -m kmetrics`
reaches the command line before numpy loads.
"""

import importlib

# home module -> the public names it defines; each name is listed once
_EXPORTS = {
    "apex": ("apex_extend", "apex_extend_chain_matrix"),
    "coboundary": (
        "ChainMatrix", "NormSpec", "NotStrongError", "embed_l2_to_lp",
        "eval_coboundary_metric", "frechet_column", "frechet_embed", "jl_target_dim",
        "l2_to_lp_dim", "max_distortion", "random_project",
    ),
    "fileio": (
        "InputError", "read_any", "read_chain", "read_chain_matrix", "read_cloud",
        "read_complex", "read_kmetric", "write_chain", "write_chain_matrix", "write_cloud",
        "write_complex", "write_kmetric",
    ),
    "hypertree": (
        "HypertreeReport", "NotHypertreeError", "WeightedComplex", "cycle_space_dim",
        "hypertree_to_l1", "is_hypertree", "mbc_metric", "random_2hypertree",
        "random_spanning_tree",
    ),
    "lp": ("LPError", "LPSolution", "StandardFormLP", "solve"),
    "metric": (
        "KMetric", "StrongWitness", "UnfillableBoundaryError", "VerificationReport",
        "check_strong", "check_weak", "min_bounding_chain",
    ),
    "simplicial": (
        "Chain", "LinearChainOperator", "apply_operator", "boundary_operator",
        "chain_from_dict", "coboundary_operator", "enumerate_simplices", "indicator_chain",
        "orientation_sign", "simplex_index", "zero_chain",
    ),
    "volume": ("PointCloud", "volume_metric", "volume_to_coboundary"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "corpus", "jsonblocks"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
