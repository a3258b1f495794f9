import ast
import dataclasses
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


BENCH_MODULES = {"dataset", "fixtures", "logio", "oracle", "simulate"}


def test_benchmark_named_attributes_exist():
    # the benchmark calls these by module attribute; one that is gone would
    # fail only when the benchmark runs
    root = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    named = set()
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "logforge"
                   for alias in node.names if alias.name in BENCH_MODULES}
        named |= {(node.value.id, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules}
    missing = sorted(f"{module}.{attr}" for module, attr in named
                     if not hasattr(importlib.import_module(f"logforge.{module}"), attr))
    assert named and not missing
    # used on instances: a trace's labeled records, and `dataclasses.replace`
    # on an alignment's moves
    from logforge import oracle, simulate
    assert callable(getattr(simulate.GroundTruthTrace, "labeled_records", None))
    assert dataclasses.is_dataclass(oracle.Move)
