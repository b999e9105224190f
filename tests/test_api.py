"""The package's public surface: each module's __all__ names real objects,
and the package exports exactly the library modules' names."""

import importlib
import pkgutil

import zetaline

# the modules whose __all__ the package re-exports
LIBRARY = ("errors", "complex_core", "quadrature", "contour",
           "functional_equation", "mellin", "oracle")


def test_all_lists_match_exports():
    union = set()
    for info in pkgutil.iter_modules(zetaline.__path__):
        if info.name == "__main__":
            continue  # runs the command line on import
        mod = importlib.import_module(f"zetaline.{info.name}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"zetaline.{info.name}.{name}"
        if info.name in LIBRARY:
            union |= set(mod.__all__)
    assert len(zetaline.__all__) == len(set(zetaline.__all__))
    assert set(zetaline.__all__) == union | {"__version__"}
    for name in zetaline.__all__:
        assert hasattr(zetaline, name), name
