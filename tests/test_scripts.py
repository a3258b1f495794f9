"""Each script under scripts/ runs to the end on a small input."""
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("args,first,rest,count", [
    (["build_datasets.py", "--only", "package_delivery", "--out", "ds"],
     r"package_delivery: 12/12 cells in \d+\.\ds -> ds/package_delivery", None, 0),
    (["score_alignments.py", "--out", "ds"],
     r"cell +patterns +echo +log-only", r"b\d+-r\d+-c0 +\S+ +[01]\.\d{4} +[01]\.\d{4}", 12),
    (["frequency_sweep.py", "--contracts", "20", "--eps", "0.05"],
     r"eps=0\.050  target=0\.0476", r"  e_\w+ +n= *\d+ measured=\d\.\d{4} diff=[+-]\d\.\d{4}", 9),
], ids=["build_datasets", "score_alignments", "frequency_sweep"])
def test_a_script_runs_to_the_end(tmp_path, args, first, rest, count):
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
                           if p)
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", args[0]), *args[1:]],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    head, *lines = done.stdout.splitlines()
    assert re.fullmatch(first, head), head
    assert len(lines) == count and all(re.fullmatch(rest, line) for line in lines), lines
