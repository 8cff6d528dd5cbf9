"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_blocks_run_in_one_namespace(capsys):
    # The ```python blocks of the `## Library use` section, in order.
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    blocks = re.findall(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0], re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # One call solves MARA's whole warm-start chain into the caller's dict.
    assert sorted(namespace["warm"]) == ["ERA", "SMA", "TFA"]
    assert namespace["result"].state.scheme == "MARA"
    assert namespace["se"] > 0
    assert capsys.readouterr().out
