"""The package has no top-level surface: callers import the submodules."""

import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qkdstation

SRC = Path(qkdstation.__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(qkdstation.__path__))


def run_fresh(code, cwd):
    """Run ``code`` in a new interpreter with only src/ on the path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )


def test_package_binds_only_dunders(tmp_path):
    code = "import qkdstation; print([n for n in vars(qkdstation) if n[:2] != '__'])"
    done = run_fresh(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_submodule_attribute_is_the_module():
    import qkdstation.sift

    assert isinstance(qkdstation.sift, types.ModuleType)
    assert qkdstation.sift is sys.modules["qkdstation.sift"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module, tmp_path):
    done = run_fresh(f"import qkdstation.{module}", tmp_path)
    assert done.returncode == 0, done.stderr
