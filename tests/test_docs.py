"""The README against the code: the scenario table, the log.csv block
list and the config key table must name exactly what the code has, so
that an added study, column or key cannot leave the docs stale, and
every function or constant it cites must exist, so that a refactor
cannot leave it naming a deleted one."""

import re
from pathlib import Path

from hexsim import (cli, control, dynamics, experiments, filters, geometry,
                    vehicle)

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_scenario_table_lists_every_study():
    listed = re.search(r"^\| id +\| study \|\n\|[-|]+\|\n((?:\|.*\n)+)",
                       README, re.MULTILINE)
    assert listed, "README has no scenario table"
    ids = re.findall(r"^\| (\w+) +\|", listed.group(1), re.MULTILINE)
    assert ids == list(experiments.STUDIES)


def test_readme_lists_the_log_blocks_in_order():
    listed = re.search(r"Its column blocks, in order, are (.*?):\n",
                       README, re.DOTALL)
    assert listed, "README has no log.csv block list"
    blocks = re.findall(r"`(\w+)`", listed.group(1))
    assert blocks == [name for name, _ in experiments.LOG_LAYOUT]


def test_readme_key_table_names_every_config_key():
    # a row's first cell is "`[section] key`", possibly followed by more
    # "`key`"s of the same section
    documented = set()
    for cell in re.findall(r"^\| (`\[.*?) \|", README, re.MULTILINE):
        section, first = re.match(r"`\[(\w+)\] (\w+)`", cell).groups()
        documented.update((section, key)
                          for key in [first, *re.findall(r", `(\w+)`", cell)])
    assert documented == {(section, key)
                          for section, keys in cli._SECTIONS.items()
                          for key in keys}


def test_readme_cites_only_names_the_package_has():
    # a backticked `module.name`, or `module.Class.attribute`, up to its
    # first other character (an argument list, say)
    modules = {module.__name__.rpartition(".")[2]: module for module in (
        cli, control, dynamics, experiments, filters, geometry, vehicle)}
    cited = set(re.findall(
        rf"`({'|'.join(modules)})\.(\w+(?:\.\w+)*)", README))
    assert cited, "README cites no package names"

    def resolves(module, path):
        obj = modules[module]
        for name in path.split("."):
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True

    assert sorted(f"{module}.{path}" for module, path in cited
                  if not resolves(module, path)) == []


def test_readme_cites_only_functions_truth_c_defines():
    # "`_truth.c`'s `name`" and "`name` [and `name`] of
    # `[src/hexsim/]_truth.c`", across a line break too, where a `name`
    # may carry its arguments; a C function's name starts the line of
    # its definition
    source = (Path(dynamics.__file__).parent / "_truth.c").read_text()
    name = r"`(\w+)(?:\([^`]*\))?`"
    cited = set(re.findall(rf"`_truth\.c`'s {name}", README))
    for pair in re.findall(rf"{name}(?:\s+and\s+{name})?\s+of\s+"
                           r"`(?:src/hexsim/)?_truth\.c`", README):
        cited.update(filter(None, pair))
    assert {"row_errors", "stream", "ticks", "write_csv", "step"} <= cited
    assert sorted(cite for cite in cited if not re.search(
        rf"^{cite}\(", source, re.MULTILINE)) == []
