"""The package namespace and the README session that imports from it."""

import doctest
from pathlib import Path

import npolylog
from npolylog import freealg, magnus, polylog, ratpoly, words

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_module_export_is_the_same_object_on_the_package():
    for module in (words, freealg, ratpoly, magnus, polylog):
        for name in module.__all__:
            assert getattr(npolylog, name) is getattr(module, name), (module.__name__, name)


def test_package_all_lists_each_name_once_and_ends_with_the_version():
    assert len(npolylog.__all__) == len(set(npolylog.__all__))
    assert npolylog.__all__[-1] == "__version__"
    assert all(hasattr(npolylog, name) for name in npolylog.__all__)


def test_readme_quick_session_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
