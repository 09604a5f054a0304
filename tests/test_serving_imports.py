"""Serving processes import only the online stack.

Every pool worker is a spawned interpreter that imports
``repro.serve.pool`` afresh, so a library imported at module level by
anything on that path is paid once per worker plus once in the server.
Log generation (``scipy.stats``) and UPM hyperparameter fitting
(``scipy.optimize``) are offline-only; serving and streaming never call
them.
"""

import os
import subprocess
import sys

import pytest

import repro

OFFLINE_ONLY = ("scipy.stats", "scipy.optimize")


@pytest.mark.parametrize(
    "module", ["repro.serve.pool", "repro.serve.frontend", "repro.stream"]
)
def test_serving_module_loads_no_offline_library(module):
    code = (
        f"import sys, {module}\n"
        f"print(sorted(m for m in {OFFLINE_ONLY!r} if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    assert result.stdout.strip() == "[]"
