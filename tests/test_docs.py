"""The README's figures about the source tree match the tree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_line_count():
    # the count ROADMAP tracks next to the bench numbers
    stated = re.search(r"`src/darboux3` holds ([\d,]+) lines", (ROOT / "README.md").read_text())
    assert stated, "README names no line count of src/darboux3"
    files = sorted((ROOT / "src" / "darboux3").glob("*.py"))
    lines = sum(len(path.read_text().splitlines()) for path in files)
    assert int(stated[1].replace(",", "")) == lines
