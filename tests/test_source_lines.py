"""Source layout: no line of the package is longer than 100 characters."""

from pathlib import Path

import minsurf

MAX_LINE = 100


def test_no_source_line_over_limit():
    root = Path(minsurf.__file__).parent
    long = [f"{path.relative_to(root)}:{n}: {len(line)}"
            for path in sorted(root.rglob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []
