"""Guards on the package surface: no environment reads or thread pools,
only bounded memos, and an ``__all__`` that resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import zetaflow

MODULES = [
    importlib.import_module(f"zetaflow.{info.name}")
    for info in pkgutil.iter_modules(zetaflow.__path__)
]


def _imported_and_read(path: Path) -> tuple[set[str], set[str]]:
    """Modules a source file imports, and the os attributes it reads."""
    imported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            read.add(node.attr)
    return imported, read


def test_no_environment_reads_or_thread_pools():
    sources = sorted(Path(zetaflow.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        imported, read = _imported_and_read(path)
        assert not {"os.environ", "os.getenv"} & imported, path.name
        assert not {"environ", "getenv"} & read, path.name
        assert not any(
            name.split(".")[0] == "threading" or name.startswith("concurrent")
            for name in imported
        ), path.name


def test_module_memos_are_bounded_lru_caches():
    assert len(MODULES) > 10
    memos = 0
    for mod in MODULES:
        for name, value in vars(mod).items():
            if hasattr(value, "cache_parameters"):
                memos += 1
                maxsize = value.cache_parameters()["maxsize"]
                assert maxsize is not None, f"{mod.__name__}.{name} is unbounded"
            assert not (name.endswith("_cache") and isinstance(value, dict)), (
                f"{mod.__name__}.{name} is a hand-rolled cache"
            )
    assert memos > 0


def test_public_names_resolve():
    for name in zetaflow.__all__:
        assert hasattr(zetaflow, name), name
