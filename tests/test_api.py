import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys

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


MODULES = {name[:-3] for name in os.listdir(os.path.dirname(logforge.__file__))
           if name.endswith(".py") and name != "__init__.py"}


def missing_named_attributes(directory: str) -> tuple[set, list]:
    """The (module, name) pairs of `logforge` that the Python files in
    `directory` name, by module attribute (`from logforge import logio`, then
    `logio.read_trace`) or by import (`from logforge.oracle import Move`),
    and those of them that are gone."""
    root = os.path.join(os.path.dirname(__file__), os.pardir, directory)
    named = set()
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        modules = {alias.asname or alias.name for node in imports if node.module == "logforge"
                   for alias in node.names if alias.name in MODULES}
        named |= {(node.value.id, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules}
        named |= {(node.module.partition(".")[2], alias.name) for node in imports
                  if node.module and node.module.startswith("logforge.")
                  for alias in node.names}
    missing = sorted(f"{module}.{attr}" for module, attr in named
                     if not hasattr(importlib.import_module(f"logforge.{module}"), attr))
    return named, missing


def test_benchmark_named_attributes_exist():
    # the benchmark calls these by module attribute; one that is gone would
    # fail only when the benchmark runs
    named, missing = missing_named_attributes("perfbench")
    assert named and not missing
    # used on instances: a trace's labeled records, and `dataclasses.replace`
    # on an alignment's moves
    from logforge import oracle, simulate
    assert callable(getattr(simulate.GroundTruthTrace, "labeled_records", None))
    assert dataclasses.is_dataclass(oracle.Move)


def test_script_named_attributes_exist():
    # a script that names a gone attribute would fail only when it runs
    named, missing = missing_named_attributes("scripts")
    assert ("dataset", "generate") in named and ("fixtures", "fixture") in named
    assert not missing


# modules that only a run or a worker pool needs, and numpy, which nothing
# needs; importing any of them costs every command its start-up time
HEAVY = ("numpy", "logforge.pcg64", "multiprocessing", "concurrent.futures.process")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
# a meta path finder that refuses numpy and its submodules, as if it were not installed
NO_NUMPY = """
import sys
class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, NoNumpy())
"""


def loaded_after(script: str) -> list[list[str]]:
    """The HEAVY modules loaded at each `report()` of `script`, run in a fresh
    interpreter that imports logforge from this checkout's source."""
    prelude = ("import json, sys\n"
               f"def report(): print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", prelude + script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_importing_the_package_loads_no_numpy_and_no_pool():
    assert loaded_after(
        "import logforge, logforge.cli, logforge.oracle, logforge.logio\n"
        "import logforge.dataset, logforge.fixtures\n"
        "report()\n"
        "from logforge import fixtures, simulate\n"
        "net, grid = fixtures.fixture('package_delivery')\n"
        "simulate.run(net, grid.sim_configs[0])\n"
        "report()\n") == [[], ["logforge.pcg64"]]


def test_a_pooled_dataset_needs_no_numpy(tmp_path):
    # `--jobs 2` with numpy refused in the main process and, by fork, in its
    # workers: every cell's bytes are the golden ones
    from test_golden import FILES, GOLDEN, sha256_of
    out = tmp_path / "ds"
    assert loaded_after(
        NO_NUMPY
        + "from logforge.cli import main\n"
        f"assert main(['fixture', '--name', 'package_delivery',\n"
        f"             '--out', {str(tmp_path)!r}]) == 0\n"
        f"assert main(['dataset', '--model', {str(tmp_path / 'm0.json')!r},\n"
        f"             '--grid', {str(tmp_path / 'grid.json')!r}, '--out', {str(out)!r},\n"
        "             '--jobs', '2']) == 0\n"
        "report()\n") == [["multiprocessing", "concurrent.futures.process"]]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    got = {entry["cell_id"]: tuple(sha256_of(os.path.join(out, entry["paths"][k])) for k in FILES)
           for entry in manifest["cells"]}
    assert got == GOLDEN["package_delivery"]
