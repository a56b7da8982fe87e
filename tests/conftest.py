"""What every test module shares: the switch that runs the package as on a
machine without a C compiler, the environment of a fresh interpreter, and
the report header that names the compiler the native paths would use."""

import contextlib
import os

import pytest

import fireball
from fireball import cli, invariants, native
from fireball.integrate import _loop_kernel


def pytest_report_header(config):
    cc = native._compiler()
    return (f"fireball native paths: cc at {cc}" if cc else
            "fireball native paths: no C compiler (cc) on PATH, so Python and numpy serve")


def fresh_env(**env):
    """``env`` and what a fresh interpreter needs to import the package under
    test, wherever pytest found it: this process's PATH and native kernels'
    cache, so that a run without a compiler builds nothing here either, and
    no bytecode written beside the package's source."""
    return {**env, "PYTHONPATH": os.path.dirname(os.path.dirname(fireball.__file__)),
            "PYTHONDONTWRITEBYTECODE": "1",
            **{k: os.environ[k] for k in ("PATH", "HOME", "XDG_CACHE_HOME") if k in os.environ}}


def clear_choosers():
    """Forget which path serves each of the package's three C objects: the
    step loop's kernels, the invariant report and the CSV row writer."""
    _loop_kernel.cache_clear()
    invariants._native_report.cache_clear()
    cli._csv_writer.cache_clear()


@contextlib.contextmanager
def _served_from(cache, compiler):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(cache))
        if not compiler:
            patch.setattr(native, "_compiler", lambda: None)
        clear_choosers()
        try:
            yield cache / "fireball"
        finally:
            clear_choosers()


@pytest.fixture(scope="session")
def no_cc(tmp_path_factory):
    """``with no_cc() as cache:`` runs the package inside as on a machine
    without a C compiler: the cache is an empty directory, ``cc`` is hidden
    from fireball.native, and every chooser is cleared on entry and on exit,
    so that none stays cached on its fallback.  ``cache`` is where a build
    would have gone."""
    cache = tmp_path_factory.mktemp("no-cc")
    return lambda: _served_from(cache, compiler=False)


@pytest.fixture
def fresh_cache(tmp_path):
    """An empty cache, with the compiler, and no C object chosen yet; every
    chooser is cleared again after the test.  Yields the cache directory."""
    with _served_from(tmp_path, compiler=True) as cache:
        yield cache
