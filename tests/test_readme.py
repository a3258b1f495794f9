import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    # each block may use what an earlier one defined, as a reader runs them
    blocks = re.findall(r"^```python\n(.*?)^```", open(README).read(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
    assert namespace["state"].done is not None
