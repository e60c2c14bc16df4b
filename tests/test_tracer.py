"""The benchmark's tracer still finds every callable it patches.

``perfbench/spans.py`` wraps named functions and methods of the package
(``Graph.forward``, ``Model.predict_feeds``, ``compounds.ecfp`` and more)
for the length of a traced block. A renamed or deleted target makes entering
the block raise. The probe runs in a subprocess, so that a patch installed
before such a failure cannot leak into this test process.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = textwrap.dedent("""
    import sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    from dtanet import compounds, engine, model
    from spans import Tracer

    def targets():
        return (vars(engine.Graph)["forward"],
                vars(model.Model)["predict_feeds"], compounds.ecfp)

    before = targets()
    with Tracer().active("probe"):
        inside = targets()
    assert all(a is not b for a, b in zip(before, inside)), "not patched"
    assert targets() == before, "not restored"
""")


def test_tracer_patches_every_target_and_restores_it():
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
