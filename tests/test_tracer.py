"""The benchmark's tracer still finds every callable it patches, and its
hooks can still read what they count.

``perfbench/spans.py`` wraps named functions and methods of the package
(``Graph.forward``, ``Model.predict_feeds``, ``compounds.ecfp`` and more)
for the length of a traced block. A renamed or deleted target makes entering
the block raise. Its hooks read the engine's state around the calls: the
share of zero rows of the first-layer weight's gradient before each
``Adam.step`` (through the gradient's ``any``) and the bytes of the array
gradients after each ``Graph.backward``. The probes run in a subprocess, so
that a patch installed before such a failure cannot leak into this test
process.
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


FIT_PROBE = textwrap.dedent("""
    import sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import numpy as np
    from dtanet import training
    from dtanet.model import FeatureStore, ModelConfig
    from dtanet.synthetic import memory_dataset
    from spans import Tracer

    store = FeatureStore(
        memory_dataset(n_compounds=8, n_proteins=4, n_pairs=20, seed=1),
        ModelConfig(variant="padme-ecfp", hidden_layers=(8,),
                    dropout_rates=(0.0,), fp_bits=512, seed=1))
    tracer = Tracer()
    with tracer.active("probe"):
        training.train(store.build_model(), store, np.arange(16),
                       np.arange(16, 20),
                       training.TrainConfig(batch_size=8, max_epochs=1,
                                            patience=1, seed=1))
    for key in ("zero_row_share", "grad_mb"):
        assert len(tracer.values[key]) == 2, (key, tracer.values[key])
    share = tracer.values["zero_row_share"]
    assert all(0.0 <= value < 1.0 for value in share), share
    assert all(value > 0.0 for value in tracer.values["grad_mb"])
""")


def test_tracer_hooks_read_a_two_step_fit():
    done = subprocess.run(
        [sys.executable, "-c", FIT_PROBE, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
