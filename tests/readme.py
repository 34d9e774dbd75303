"""The README's contract blocks, for the tests that check them against the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str) -> str:
    """The first fenced block or table under the README heading ``heading``.

    A fenced block is returned without its fences, a table as its lines.
    """
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^#+ {re.escape(heading)}\n(.*?)(?=^#+ |\Z)", text, re.S | re.M)
    assert match, f"README lost its {heading!r} section"
    block = re.search(r"^```[a-z]*\n(.*?)^```|((?:^\|[^\n]*\n)+)", match.group(1), re.S | re.M)
    assert block, f"README's {heading!r} section lost its block"
    return block.group(1) if block.group(1) is not None else block.group(2)


def table_rows(table: str) -> list[list[str]]:
    """The body rows of a markdown table, each a list of its stripped cells."""
    lines = table.strip().split("\n")[2:]  # past the header and its rule
    return [[cell.strip() for cell in line.strip().strip("|").split("|")] for line in lines]
