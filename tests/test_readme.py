"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_block_runs(capsys):
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    energy, avg_db = capsys.readouterr().out.split()
    assert float(energy) == namespace["af"].eval_objective(namespace["code"],
                                                           namespace["region"])
    assert float(avg_db) < 0.0
    assert namespace["grid"].magnitude.shape == (61, 31)
