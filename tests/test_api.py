"""The package's public surface: each module's __all__ names real objects,
the package exports exactly the library modules' names, and the README's
quick start runs."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import zetaline

ROOT = Path(__file__).resolve().parent.parent

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


def test_readme_quick_start_runs():
    """The README's python block runs as written against src/."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
