import importlib
import importlib.util
import os

import logforge


def test_every_exported_name_imports():
    namespace = {}
    exec("from logforge import *", namespace)
    assert logforge.__all__ and set(logforge.__all__) <= set(namespace)


def test_benchmark_traced_attributes_exist():
    # the benchmark times each layer by rebinding these attributes; one that
    # is gone would read 0 there instead of failing
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for owner, attr, _ in tracer.SPANS:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls, None)
        if getattr(obj, attr, None) is None:
            missing.append(f"{owner}.{attr}")
    assert tracer.SPANS and not missing
