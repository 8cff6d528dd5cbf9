"""The README's library examples run as written, and its format blocks are the code's."""

import json
import re
from pathlib import Path

from mara_sim.harness import CSV_HEADER, reference_config
from mara_sim.scenario import config_from_mapping

README = Path(__file__).resolve().parents[1] / "README.md"


def section(name):
    """The text under the README's `## name` header, up to the next one."""
    return README.read_text(encoding="utf-8").split(f"\n## {name}\n", 1)[1].split("\n## ", 1)[0]


def fenced(text, lang=""):
    """The bodies of the ```lang fenced blocks in text, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.S | re.M)


def test_library_use_blocks_run_in_one_namespace(capsys):
    blocks = fenced(section("Library use"), "python")
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # One call solves MARA's whole warm-start chain into the caller's dict.
    assert sorted(namespace["warm"]) == ["ERA", "SMA", "TFA"]
    assert namespace["result"].state.scheme == "MARA"
    assert namespace["se"] > 0
    assert capsys.readouterr().out


def test_output_formats_header_is_the_csv_header():
    assert fenced(section("Output formats"))[0] == CSV_HEADER + "\n"


def test_configuration_file_example_is_the_reference_config():
    raw = json.loads(fenced(section("Configuration file"), "json")[0])
    assert config_from_mapping(raw) == reference_config()
