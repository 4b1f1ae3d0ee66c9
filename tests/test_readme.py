"""The README's examples run as written."""

import json
import re
from pathlib import Path

from afshape.cli import parse_config
from afshape.solver import SolverConfig

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
    assert namespace["grid"].magnitude.shape == (31, 31)


def test_readme_json_config_reads_the_same_through_both_paths(tmp_path):
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    path = tmp_path / "run.json"
    path.write_text(block)
    config = SolverConfig.from_json_dict(json.loads(block))
    assert config == parse_config(["--config", str(path)], env={})[0]
    assert config.region.dopplers == (-15, -14, -13, 11, 12, 13, 14)
