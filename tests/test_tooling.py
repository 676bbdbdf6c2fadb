import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_tracer_finds_every_wrapped_name():
    # perfbench/tracing.py replaces fintop names with traced wrappers; a name
    # deleted from the library would break `perfbench/run.py --trace 1`
    code = ("import fintop.linalg as L, tracing\n"
            "tracing.install(tracing.Tracer())\n"
            "assert hasattr(L.rank_q, '__wrapped__')\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code],
                          cwd=os.path.join(ROOT, "perfbench"), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
