"""The package's public names."""
import vpshell

DELETED = ["parse_element", "element_to_json", "element_from_json",
           "word_to_atom", "poset_from_json", "MalformedDocument",
           "top_label_index_counts", "is_increasing", "reduced_betti_numbers"]


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
