import importlib.util
import shutil
import sys
import sysconfig
from pathlib import Path

import pytest

SPEEDUPS_SOURCE = Path(__file__).resolve().parents[1] / "src" / "plactic" / "_kernels" / "_speedups.c"


@pytest.fixture(scope="session")
def speedups(tmp_path_factory):
    """The C kernel module, compiled from source with -Wall -Werror into a
    temporary directory and loaded by path, so nothing is built into the
    source tree and the rest of the suite keeps its own backend.  Skips
    only when no C compiler is found."""
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) to build the C kernel")
    out = tmp_path_factory.mktemp("speedups")
    ext = Extension("plactic._kernels._speedups", [str(SPEEDUPS_SOURCE)], extra_compile_args=["-Wall", "-Werror"])
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(ext.name, cmd.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def reload_kernels(speedups, monkeypatch):
    """reload(pure_env): plactic._kernels reloaded with the built C module
    importable and PLACTIC_PURE set to ``pure_env`` (unset for None); the
    previous backend is restored afterwards."""
    from plactic import _kernels

    monkeypatch.setitem(sys.modules, "plactic._kernels._speedups", speedups)
    monkeypatch.setattr(_kernels, "_speedups", speedups, raising=False)

    def reload(pure_env):
        if pure_env is None:
            monkeypatch.delenv("PLACTIC_PURE", raising=False)
        else:
            monkeypatch.setenv("PLACTIC_PURE", pure_env)
        return importlib.reload(_kernels)

    try:
        yield reload
    finally:
        monkeypatch.undo()
        importlib.reload(_kernels)


@pytest.fixture
def pure_kernels(monkeypatch):
    """plactic._kernels with the pure backend behind its entry points, with
    no C build."""
    from plactic import _kernels
    from plactic._kernels import _pure

    monkeypatch.setattr(_kernels, "_impl", _pure)
    return _kernels


@pytest.fixture
def compiled_kernels(reload_kernels):
    """plactic._kernels reloaded with the built C module as its backend."""
    return reload_kernels(None)
