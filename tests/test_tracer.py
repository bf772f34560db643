"""The benchmark tracer's contract with the package it traces.

perfbench/layers.py wraps qchar functions by name; a deleted or renamed
target breaks `perfbench/run.py --trace 1`, so this loads the tracer as the
benchmark does and runs one verify of each kind under it.
"""

import importlib.util
from pathlib import Path

import qchar.affine
import qchar.cli
import qchar.identities
import qchar.qseries

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_builds_and_uninstalls(capsys):
    layers = load_layers()
    originals = {
        (module, attr): getattr(module, attr)
        for module, attr, _, _ in layers._TARGETS
    }
    originals[qchar.qseries, "_compare_builders"] = qchar.qseries._compare_builders
    originals[qchar.affine, "_compare_builders"] = qchar.affine._compare_builders
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert qchar.affine.verify_proposition is not originals[
            qchar.affine, "verify_proposition"
        ]
        spec = qchar.identities.classical_identity("euler")
        assert qchar.identities.verify_identity(spec, 20).match
        assert qchar.affine.verify_proposition((1, 3), 3, 10).match
        # a family verify must still reach the wrapped lattice_sum_series,
        # or the families workload's per-dimension rows read 0
        argv = ["verify", "class1", "--m", "2", "--order", "20", "--json"]
        assert qchar.cli.main(argv) == 0
        assert '"match": true' in capsys.readouterr().out
        metrics = layers.layer_metrics(tracer)
        assert metrics["qseries.driver.builds_per_verify"] == (2.0, "builds/verify")
        assert metrics["lattice_sum_series.dim7.points"][0] > 0
        # the proposition's sides expand through the same lattice_sum_series:
        # (1, 3)'s character numerator is the only dimension-3 sum run here
        assert metrics["lattice_sum_series.dim3.points"][0] > 0
    finally:
        tracer.uninstall()
        for (module, attr), value in originals.items():
            assert getattr(module, attr) is value, attr


def test_all_ones_verify_builds_twice_and_walks_once():
    # a (1^n) verify reads its character window off its one trace walk:
    # still two builds through _compare_builders, and one lattice span, so the
    # sweep's traced counters repeat from pass to pass
    layers = load_layers()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert qchar.affine.verify_proposition((1, 1, 1, 1, 1), 2, 30).match
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count(layers.BUILD_SPAN) == 2
    assert names.count("quadform.lattice_sum_series") == 1
    metrics = layers.layer_metrics(tracer)
    assert metrics["qseries.driver.builds_per_verify"] == (2.0, "builds/verify")
    assert metrics["lattice_sum_series.dim4.points"][0] > 0
