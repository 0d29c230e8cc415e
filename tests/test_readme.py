"""The README's library sketch and report list match the package as it stands."""

import json
import re
from pathlib import Path

from impedmodal.cli_reporting import EXIT_OK, main

REPO = Path(__file__).resolve().parents[1]


def _sketch() -> str:
    """The ``python`` block under the README's "## Library sketch" heading."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match, "no python block under ## Library sketch"
    return match.group(1)


def test_library_sketch_runs(monkeypatch, capsys):
    """Exec'd from the repo root (it opens networks/three_bus.json), the
    sketch runs to its end and prints one line per mode and two more."""
    monkeypatch.chdir(REPO)
    namespace: dict = {}
    exec(compile(_sketch(), "README.md:Library sketch", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(namespace["records"]) + 2


def test_listed_mode_files_match_a_run(tmp_path):
    """The mode tables listed under "`analyze` writes" are those a run of
    three_bus writes, in its order."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n`analyze` writes:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^- `(mode_\w+\.csv)`", section, re.M)
    assert main(["analyze", str(REPO / "networks" / "three_bus.json"), "--no-validate",
                 "--out", str(tmp_path)]) == EXIT_OK
    files = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))["files"]
    assert listed == [name for name in files if name.startswith("mode_")]
