import importlib
import pkgutil

import treedegree


def test_exports_are_the_union_of_the_library_modules():
    # Every public submodule except the command line re-exports its __all__.
    library = [
        importlib.import_module(f"treedegree.{info.name}")
        for info in pkgutil.iter_modules(treedegree.__path__)
        if not info.name.startswith("_") and info.name != "cli"
    ]
    assert {module.__name__ for module in library} >= {
        "treedegree.compositions",
        "treedegree.plane_trees",
        "treedegree.kary_trees",
    }
    union = [name for module in library for name in module.__all__]
    assert len(union) == len(set(union))
    assert set(treedegree.__all__) == set(union)
    assert len(treedegree.__all__) == len(union)
    for module in library:
        for name in module.__all__:
            assert getattr(treedegree, name) is getattr(module, name)
