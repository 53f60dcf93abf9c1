"""The benchmark's self-test runs against the library as it stands.

The benchmark tracer wraps the public functions of each layer by name and
reads the joint as a dict, so a rename or a changed return type breaks the
benchmark; this test makes that a test failure too.

The wrapping replaces module attributes while the benchmark runs. A library
function stored in a table at import time keeps its unwrapped original, so
its calls slip past the tracer, and a read of ``fn.__name__`` sees the
wrapper's name, ``timed``, in place of the function's. Look library
functions up by their module name at call time instead.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
