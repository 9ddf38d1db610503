"""The package binds its public names on first use, importing only the modules they need.

Each check runs in a fresh interpreter, since this process has imported every module.
"""

import os
import subprocess
import sys

import qgas

LOADED = "sorted(m for m in sys.modules if m.startswith('qgas.'))"


def _fresh(probe: str) -> str:
    """What ``probe`` prints, run in a new interpreter that imports this qgas."""
    src = os.path.dirname(os.path.dirname(qgas.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    return done.stdout.strip()


def test_import_loads_no_submodule():
    assert _fresh(f"import sys, qgas; print({LOADED})") == "[]"


def test_a_name_loads_its_module_and_the_modules_before_it_only():
    probe = (
        f"import sys, qgas; qgas.bose_g32; print({LOADED}); "
        "print(set(qgas.polylog.__all__) <= set(vars(qgas)))"
    )
    assert _fresh(probe).splitlines() == ["['qgas.errors', 'qgas.polylog']", "True"]


def test_unknown_name_raises_the_standard_attribute_error():
    probe = "import qgas\ntry:\n    qgas.nope\nexcept AttributeError as exc:\n    print(exc)"
    assert _fresh(probe) == "module 'qgas' has no attribute 'nope'"


def test_dunder_name_imports_nothing():
    assert _fresh(f"import sys, qgas; print(hasattr(qgas, '__wrapped__'), {LOADED})") == "False []"


def test_dir_lists_every_exported_name():
    assert _fresh("import qgas; print(set(qgas.__all__) - set(dir(qgas)))") == "set()"
