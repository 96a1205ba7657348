"""The benchmark's layer tracer, perfbench/tracer.py, against this package.

The tracer reads names from the package: the traced layers, the
normalize and sort_key caches, the parse-tree classes and
Metric.__init__.  A change that deletes one of them breaks every traced
benchmark run, so one short traced run of each kind of work is part of
the package's tests.  The tracer is imported from the checkout as it is.
"""

import importlib.util
import io
import os

from ndga import cli, forms

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_every_layer_metric(data_path):
    tracer = load_tracer()
    layers = tracer.Tracer()
    layers.install()
    try:
        conn = forms.load_connection(data_path("rotation.conn"))
        assert forms.brute_force_flatness_order(conn) == 4
        for argv in (["riemann", data_path("sphere_torus.metric")],
                     ["knflat", "expand", "--N", "3", "--K", "2"]):
            assert cli.main(argv, out=io.StringIO()) == 0
        values = layers.metrics(1.0)
    finally:
        layers.uninstall()
    assert set(values) == {name for name, _, _ in tracer.LAYER_METRICS}
    for layer in ("forms.wedge", "riemann.riemann_components", "knflat.successors"):
        assert values[f"{layer}.calls"] > 0
    assert values["forms.nabla_apply.out_nodes"] > 0
