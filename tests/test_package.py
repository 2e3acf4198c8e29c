"""The package namespace, its annotations, what importing the CLI loads, and the README session."""

import doctest
import inspect
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import npolylog
from npolylog import cli, freealg, magnus, polylog, ratpoly, words

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(npolylog.__file__).resolve().parents[1]

# Standard-library modules that importing the CLI must not load: each
# costs milliseconds of start-up for every command call.
UNLOADED = ["dataclasses", "inspect", "typing", "importlib.resources"]


def test_every_module_export_is_the_same_object_on_the_package():
    for module in (words, freealg, ratpoly, magnus, polylog):
        for name in module.__all__:
            assert getattr(npolylog, name) is getattr(module, name), (module.__name__, name)


def test_package_all_lists_each_name_once_and_ends_with_the_version():
    assert len(npolylog.__all__) == len(set(npolylog.__all__))
    assert npolylog.__all__[-1] == "__version__"
    assert all(hasattr(npolylog, name) for name in npolylog.__all__)


@pytest.mark.parametrize("module", [words, freealg, ratpoly, magnus, polylog], ids=lambda m: m.__name__)
def test_readme_api_table_names_every_public_name(module):
    # The module's row of the library table says why each of its public names stays.
    rows = [line for line in README.read_text(encoding="utf-8").splitlines() if line.startswith(f"| `{module.__name__}` |")]
    assert len(rows) == 1
    assert [name for name in module.__all__ if f"`{name}`" not in rows[0]] == []


def test_readme_names_no_removed_api():
    text = README.read_text(encoding="utf-8")
    assert [name for name in ("kernel_elements", "magnus_to_word", "lie_bracket", "poly_y_to_x", "_TEXTS", "`_check`", "_Packed") if name in text] == []


def test_readme_quick_session_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_cli_import_loads_none_of_the_slow_modules():
    child = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import npolylog.cli\n"
        "npolylog.cli.build_parser()\n"
        "code = npolylog.cli.main(['verify', '--bundled'])\n"
        "loaded = [m for m in sys.argv[2:] if m in sys.modules]\n"
        "print(loaded, code, file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", child, str(SRC), *UNLOADED], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # verify --bundled reads the package data by its path beside cli.py,
    # so reading it loads none of the slow modules either.
    assert done.stderr == "[] 0\n"
    assert done.stdout.endswith(" ok, 0 failed\n")


def _annotated(module):
    """Every function, method and property defined in module."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__qualname__, obj
        elif inspect.isclass(obj):
            for name, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if isinstance(member, property):
                    yield f"{obj.__qualname__}.{name}", member.fget
                elif inspect.isfunction(member):
                    yield member.__qualname__, member


@pytest.mark.parametrize("module", [words, freealg, ratpoly, magnus, polylog, cli], ids=lambda m: m.__name__)
def test_every_annotation_resolves(module):
    # Annotations are strings until evaluated, so a name missing from
    # the module's imports shows up only here.
    failed = []
    count = 0
    for name, fn in _annotated(module):
        count += 1
        try:
            typing.get_type_hints(fn)
        except Exception as exc:
            failed.append(f"{name}: {exc!r}")
    assert count >= 5
    assert failed == []
