"""Guards on the package surface: no environment reads or thread pools,
only bounded memos, no unused imports, no unread definition or member, and
an ``__all__`` that resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

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


def test_only_the_command_line_imports_gc():
    # freezing the heap is for a process about to exit, which only a
    # command-line run of cli.main knows it is
    importers = {
        path.name for path in Path(zetaflow.__file__).parent.glob("*.py")
        if any(name.split(".")[0] == "gc" for name in _imported_and_read(path)[0])
    }
    assert importers == {"cli.py"}


def test_module_memos_are_bounded_lru_caches():
    assert len(MODULES) > 10
    memos = set()
    for mod in MODULES:
        for name, value in vars(mod).items():
            if hasattr(value, "cache_parameters"):
                memos.add(f"{mod.__name__}.{name}")
                maxsize = value.cache_parameters()["maxsize"]
                assert maxsize is not None, f"{mod.__name__}.{name} is unbounded"
            assert not (name.endswith("_cache") and isinstance(value, dict)), (
                f"{mod.__name__}.{name} is a hand-rolled cache"
            )
    # the package's one memo; adding another edits this set
    assert memos == {"zetaflow.chars._character_table"}


def test_public_names_resolve():
    for name in zetaflow.__all__:
        assert hasattr(zetaflow, name), name


def test_each_public_name_is_its_home_modules_object():
    # the package imports each name lazily from the module its map names
    assert sorted(zetaflow._HOME) == sorted(zetaflow.__all__)
    assert len(zetaflow._HOME) == sum(map(len, zetaflow._EXPORTS.values()))
    for module, names in zetaflow._EXPORTS.items():
        home = importlib.import_module(f"zetaflow.{module}")
        for name in names:
            assert getattr(zetaflow, name) is getattr(home, name), name
    assert set(zetaflow.__all__) <= set(dir(zetaflow))
    star: dict[str, object] = {}
    exec("from zetaflow import *", star)
    assert set(zetaflow.__all__) <= set(star)


def test_an_unknown_name_is_not_importable():
    with pytest.raises(AttributeError, match="no_such_name"):
        zetaflow.no_such_name
    with pytest.raises(ImportError):
        exec("from zetaflow import no_such_name", {})


def _unused_imports(path: Path) -> set[str]:
    """Names a source file imports and never reads; a name listed in a
    literal ``__all__`` counts as read (a computed one lists no import)."""
    tree = ast.parse(path.read_text())
    imported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_no_unused_imports():
    sources = sorted(Path(zetaflow.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        assert not _unused_imports(path), (path.name, _unused_imports(path))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)

# the PEP 562 module hooks, which the interpreter calls on the package
_PACKAGE_HOOKS = {"__getattr__", "__dir__"}


def _unreferenced_definitions(sources: list[Path], public: set[str]) -> set[str]:
    """Module-level functions and classes of the sources that are neither in
    ``public`` nor read by name (a Name or an attribute) anywhere in them
    outside their own body. The package hooks count as read in
    ``__init__.py`` only."""
    defined: set[str] = set()
    referenced: set[str] = set()

    def visit(node: ast.AST, owner: str | None) -> None:
        name = getattr(node, "id", None) or getattr(node, "attr", None)  # Name, Attribute
        if name and name != owner:
            referenced.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sources:
        for node in ast.parse(path.read_text()).body:
            owner = node.name if isinstance(node, _DEFS) else None
            if owner and not (path.name == "__init__.py" and owner in _PACKAGE_HOOKS):
                defined.add(owner)
            visit(node, owner)
    return defined - public - referenced


def test_every_definition_is_public_or_used():
    sources = sorted(Path(zetaflow.__file__).parent.glob("*.py"))
    assert sources
    assert not _unreferenced_definitions(sources, set(zetaflow.__all__))


def test_only_the_package_hooks_of_init_count_as_used(tmp_path):
    hooks = "def __getattr__(name):\n    pass\n\n\ndef __dir__():\n    pass\n"
    (tmp_path / "__init__.py").write_text(hooks + "\n\ndef _unused():\n    pass\n")
    (tmp_path / "mod.py").write_text(hooks + "\n\nclass Unused:\n    pass\n")
    sources = sorted(tmp_path.glob("*.py"))
    assert _unreferenced_definitions(sources, set()) == {
        "_unused", "Unused", "__getattr__", "__dir__"
    }


# argparse calls the parser's error hook
_CALLED_BY_LIBRARIES = {"_Parser.error"}


def _unread_members(sources: list[Path], exempt: set[str]) -> set[str]:
    """Methods and properties of the sources' classes, as ``Class.name``,
    that no attribute read (``x.name``) anywhere in the sources reaches from
    outside the member's own body. Dunders, which the interpreter calls, and
    the names in ``exempt`` count as read."""
    members: set[tuple[str, str]] = set()
    read: set[str] = set()

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.Attribute) and node.attr != owner:
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and isinstance(child, _FUNCTIONS):
                members.add((node.name, child.name))
                visit(child, child.name)
            else:
                visit(child, owner)

    for path in sources:
        visit(ast.parse(path.read_text()), None)
    return {
        f"{cls}.{name}" for cls, name in members
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    } - exempt


def test_every_method_and_property_is_read():
    sources = sorted(Path(zetaflow.__file__).parent.glob("*.py"))
    assert sources
    assert not _unread_members(sources, _CALLED_BY_LIBRARIES)


def test_a_member_read_only_inside_its_own_body_counts_as_unread(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def used(self):\n        return self.also()\n\n"
        "    def also(self):\n        return 1\n\n"
        "    @property\n    def unread(self):\n        return 2\n\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1)\n\n"
        "    def hook(self):\n        pass\n\n\n"
        "A().used()\n"
    )
    sources = [tmp_path / "mod.py"]
    assert _unread_members(sources, set()) == {"A.unread", "A.recursive", "A.hook"}
    assert _unread_members(sources, {"A.hook"}) == {"A.unread", "A.recursive"}


def _base_class_raises(path: Path) -> list[int]:
    """Lines of a source file that raise the base ``ZetaflowError`` itself."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "ZetaflowError"
    )


def test_no_raise_of_the_base_error_class():
    # the command line maps only ValidationError and DomainError to exit 1 and 2
    sources = sorted(Path(zetaflow.__file__).parent.glob("*.py"))
    assert sources
    raises = {path.name: _base_class_raises(path) for path in sources}
    assert not {name: lines for name, lines in raises.items() if lines}
