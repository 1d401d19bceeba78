"""The package's public names."""
import inspect

import vpshell

DELETED = ["parse_element", "element_to_json", "element_from_json",
           "word_to_atom", "poset_from_json", "MalformedDocument",
           "top_label_index_counts", "is_increasing", "reduced_betti_numbers",
           "NotComparable", "simplicial_complex", "maximal_chains"]


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from vpshell import *", namespace)
    for name in vpshell.__all__:
        assert name in namespace and getattr(vpshell, name) is namespace[name]
    assert len(set(vpshell.__all__)) == len(vpshell.__all__)


def test_deleted_names_are_gone():
    for name in DELETED:
        assert not hasattr(vpshell, name)
    assert not hasattr(vpshell.Poset, "interval")
    assert not hasattr(vpshell.Poset, "covers")
    assert not hasattr(vpshell.SimplicialComplex, "faces")
    assert not hasattr(vpshell.VectorPartition, "sort_key")
    assert not hasattr(vpshell.VectorPartition, "rank")


def test_betti_takes_the_complex_alone():
    assert list(inspect.signature(vpshell.betti).parameters) == ["c"]


def test_cli_binds_no_private_name_of_the_poset_module():
    # the CLI streams the public writers, under any name it binds them to
    import vpshell.cli
    import vpshell.poset
    private = [value for name, value in vars(vpshell.poset).items()
               if name.startswith("_") and not name.startswith("__")]
    assert [name for name, value in vars(vpshell.cli).items()
            if any(value is obj for obj in private)] == []
