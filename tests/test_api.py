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


def field_stores(source: str, classes: tuple) -> list[int]:
    """The lines of `source` that store or delete an attribute named after a
    field of `classes`, directly or through `setattr`, `delattr`,
    `object.__setattr__` or `object.__delattr__` with a literal name.  Stores
    on `self` count only inside a class named after one of `classes`."""
    names = {f.name for cls in classes for f in dataclasses.fields(cls)}
    owners = {cls.__name__ for cls in classes}
    tree = ast.parse(source)
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name in owners for node in ast.walk(cls)}

    def changes(node, target, name) -> bool:
        on_self = isinstance(target, ast.Name) and target.id == "self"
        return name in names and (not on_self or id(node) in inside)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            found = changes(node, node.value, node.attr)
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            found = (callee in ("setattr", "delattr", "__setattr__", "__delattr__")
                     and isinstance(node.args[1], ast.Constant)
                     and changes(node, node.args[0], node.args[1].value))
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return lines


def test_no_code_changes_a_record_event_or_move():
    # Records, events and moves are not frozen, so nothing else keeps them
    # unchanged once built.  They must stay so: `write_alignment` files a move
    # by its identity, and a trace's records, a log's events and an
    # alignment's moves are read back once and never changed.
    from logforge.logio import ObservedEvent
    from logforge.oracle import Move
    from logforge.simulate import FiringRecord
    classes = (FiringRecord, ObservedEvent, Move)
    assert field_stores("record.time = 0.0\nm.kind += 's'\n"
                        "setattr(e, 'objects', ())\nobject.__setattr__(m, 'cause', None)\n"
                        "self.time = 0.0\n", classes) == [1, 2, 3, 4]
    assert field_stores("class Move:\n    def f(self):\n        self.kind = 'log'\n"
                        "class Binding:\n    def g(self):\n"
                        "        object.__setattr__(self, 'values', ())\n", classes) == [3]
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    found, scanned = [], 0
    for directory in (os.path.join("src", "logforge"), "scripts", "perfbench"):
        for name in sorted(os.listdir(os.path.join(root, directory))):
            if name.endswith(".py"):
                with open(os.path.join(root, directory, name), encoding="utf-8") as fh:
                    found += [f"{directory}/{name}:{line}"
                              for line in field_stores(fh.read(), classes)]
                scanned += 1
    assert scanned >= 20 and not found


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
