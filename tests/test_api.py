"""The package's public names."""
import importlib
import inspect
import pkgutil
from types import ModuleType

import vpshell
from vpshell import complexes, labeling, poset, spherecount, vecpart

DELETED = ["parse_element", "element_to_json", "element_from_json",
           "word_to_atom", "poset_from_json", "MalformedDocument",
           "top_label_index_counts", "is_increasing", "reduced_betti_numbers",
           "NotComparable", "simplicial_complex", "maximal_chains",
           # one error class per exit code; the message names the check
           "BottomHasNoAtom", "CycleDetected", "DimensionMismatch",
           "DuplicateElement", "EqualWords", "IncompatibleData",
           "InvalidIndex", "InvalidPartition", "MalformedWord",
           "MissingLabels", "NotACover", "NotBounded", "NotDecreasing",
           "NotGraded", "NotSaturated", "SizeMismatch", "UnknownElement"]

# what the paper's claims and the CLI's exit codes use
PUBLIC = sorted([
    "vector_partition_poset", "canonicalize", "bottom_element", "top_element",
    "verify_el", "verify_label_structure", "chain_label", "order_complex",
    "lex_shelling_order", "verify_shelling", "SABOTAGES",
    "sabotaged_label_map", "sabotaged_shelling_order",
    "sphere_count_certificate", "decreasing_chains", "count_total",
    "count_by_recursion", "nonambiguous_tree_count", "decompose_chain",
    "recompose", "VpshellError", "ResourceLimit", "OracleMismatch"])

# name -> the module that defines it, for every name the package
# namespace once bound and binds no longer
MODULE_ONLY = {
    "ShellingReport": "complexes", "SimplicialComplex": "complexes",
    "betti": "complexes",
    "ELReport": "labeling", "cover_label": "labeling",
    "is_weakly_decreasing": "labeling",
    "Poset": "poset", "mobius": "poset", "poset_to_dot": "poset",
    "poset_to_json": "poset",
    "Decomposition": "spherecount",
    **dict.fromkeys([
        "VectorPartition", "atom_lex_rank", "atom_word", "check_atom_word",
        "element_count", "enumerate_elements", "first_word_difference",
        "format_element", "is_cover", "is_leq", "maximal_chain_count",
        "merge_blocks", "perm_lex_rank", "set_partitions"], "vecpart"),
}


def test_the_namespace_is_the_public_api():
    assert sorted(vpshell.__all__) == PUBLIC
    assert [name for name, value in vars(vpshell).items()
            if not name.startswith("_") and name not in PUBLIC
            and not isinstance(value, ModuleType)] == []


def test_names_left_out_of_the_namespace_stay_in_their_modules():
    assert len(MODULE_ONLY) == 25 and not set(MODULE_ONLY) & set(PUBLIC)
    for name, module in MODULE_ONLY.items():
        home = importlib.import_module(f"vpshell.{module}")
        assert getattr(home, name).__module__ == home.__name__, name
        assert not hasattr(vpshell, name), name


def test_the_errors_are_one_class_per_exit_code():
    from vpshell import errors
    assert sorted(name for name, value in vars(errors).items()
                  if isinstance(value, type)) == [
        "OracleMismatch", "ResourceLimit", "VpshellError"]
    assert errors.VpshellError.__bases__ == (Exception,)
    assert errors.ResourceLimit.__bases__ == (errors.VpshellError,)
    assert errors.OracleMismatch.__bases__ == (errors.VpshellError,)


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from vpshell import *", namespace)
    for name in vpshell.__all__:
        assert name in namespace and getattr(vpshell, name) is namespace[name]
    assert len(set(vpshell.__all__)) == len(vpshell.__all__)


def test_deleted_names_are_gone():
    # from the package and from every module, where a name could come
    # back; vpshell.__main__, which binds sys and main, runs the CLI
    # when imported
    modules = [importlib.import_module(f"vpshell.{info.name}")
               for info in pkgutil.iter_modules(vpshell.__path__)
               if info.name != "__main__"]
    for module in (vpshell, *modules):
        for name in DELETED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(poset.Poset, "interval")
    assert not hasattr(poset.Poset, "covers")
    assert not hasattr(complexes.SimplicialComplex, "faces")
    assert not hasattr(vecpart.VectorPartition, "sort_key")
    assert not hasattr(vecpart.VectorPartition, "rank")


def test_betti_takes_the_complex_alone():
    assert list(inspect.signature(complexes.betti).parameters) == ["c"]


def test_the_structure_audit_takes_the_poset_alone():
    assert list(inspect.signature(
        vpshell.verify_label_structure).parameters) == ["p"]


def test_construction_takes_no_budget():
    # vecpart.check_budgets is the one budget check, run before any build
    for build in (vecpart.enumerate_elements, vecpart.vector_partition_poset):
        assert list(inspect.signature(build).parameters) == ["n", "s"]
    for module in (vecpart, spherecount):
        for name in ("check_element_budget", "check_chain_budget"):
            assert not hasattr(module, name)


def test_the_certificate_takes_no_budget():
    # the count command checks its budgets, as build and verify-el do
    assert list(inspect.signature(spherecount.sphere_count_certificate)
                .parameters) == ["n", "s", "methods"]


def test_shelling_orders_take_the_complex():
    # the caller builds the order complex once and passes it on
    assert list(inspect.signature(labeling.lex_shelling_order)
                .parameters) == ["p", "c"]
    assert list(inspect.signature(labeling.sabotaged_shelling_order)
                .parameters) == ["p", "c", "name"]


def test_labels_reach_the_checks_and_writers_only_on_the_poset():
    # Poset.up_labels is the one label table, checked when a Poset is made
    assert list(inspect.signature(labeling.verify_el).parameters) == ["p"]
    for write in (poset.poset_to_json, poset.poset_to_dot):
        assert list(inspect.signature(write).parameters) == ["p", "texts"]


def test_labeling_binds_no_private_name_of_the_poset_module():
    private = [value for name, value in vars(poset).items()
               if name.startswith("_") and not name.startswith("__")]
    assert [name for name, value in vars(labeling).items()
            if any(value is obj for obj in private)] == []


def test_labeling_binds_no_name_of_the_complexes_module():
    defined = [value for value in vars(complexes).values()
               if getattr(value, "__module__", None) == complexes.__name__]
    assert [name for name, value in vars(labeling).items()
            if value is complexes or any(value is d for d in defined)] == []


def test_cli_binds_no_private_name_of_the_poset_module():
    # the CLI streams the public writers, under any name it binds them to
    import vpshell.cli
    private = [value for name, value in vars(poset).items()
               if name.startswith("_") and not name.startswith("__")]
    assert [name for name, value in vars(vpshell.cli).items()
            if any(value is obj for obj in private)] == []
