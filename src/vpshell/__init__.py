"""Vector partition posets: construction, EL-labeling, shelling, sphere counts.

The central object is the poset of partitions of {1..n} carrying s extra
labelings, ordered by simultaneous refinement.  This package builds the
poset, labels its cover relations, verifies that the labeling orders every
interval the way a lexicographic shelling requires, and counts the spheres
in the resulting wedge by five independent methods that must agree.

The package namespace holds what the paper's claims and the CLI's exit
codes need; every other name is imported from the module that defines it.
"""
from .complexes import order_complex, verify_shelling
from .errors import OracleMismatch, ResourceLimit, VpshellError
from .labeling import (SABOTAGES, chain_label, lex_shelling_order,
                       sabotaged_label_map, sabotaged_shelling_order,
                       verify_el, verify_label_structure)
from .spherecount import (count_by_recursion, count_total, decompose_chain,
                          decreasing_chains, nonambiguous_tree_count,
                          recompose, sphere_count_certificate)
from .vecpart import (bottom_element, canonicalize, top_element,
                      vector_partition_poset)

__version__ = "0.1.0"

__all__ = [
    # the poset and its elements
    "vector_partition_poset", "canonicalize", "bottom_element", "top_element",
    # claim 1: an EL-labeling, so a lexicographic shelling
    "verify_el", "verify_label_structure", "chain_label", "order_complex",
    "lex_shelling_order", "verify_shelling",
    "SABOTAGES", "sabotaged_label_map", "sabotaged_shelling_order",
    # claims 2 and 3: the sphere count, its recursion and the tree numbers
    "sphere_count_certificate", "decreasing_chains", "count_total",
    "count_by_recursion", "nonambiguous_tree_count", "decompose_chain",
    "recompose",
    # the errors whose exit codes the CLI documents
    "VpshellError", "ResourceLimit", "OracleMismatch",
]
