"""The README against the code: the log.csv block list and the config
key table must name exactly what the code has, so that an added column
or key cannot leave the docs stale."""

import re
from pathlib import Path

from hexsim import cli, experiments

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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
