"""The README's claims table and its example report agree with the verifier."""

import io
import re
from contextlib import redirect_stdout

import util
from hqmmsym.cli import CHECKS, main

HEADING = "## What `verify` checks"


def _claims() -> list[tuple[str, str]]:
    """Each (claim, Rows cell) of the README's claims table."""
    text = util.README.read_text()
    section = text[text.index(HEADING) + len(HEADING) :]
    section = section[: section.index("\n## ")]
    header, _, *body = [line for line in section.splitlines() if line.startswith("|")]
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in [header, *body]]
    assert cells[0][:2] == ["Paper claim", "Rows"]
    return [(claim, rows) for claim, rows, *_ in cells[1:]]


def test_the_claims_table_names_every_verify_row_and_no_other():
    named = [name for _, rows in _claims() for name in re.findall(r"`([^`]+)`", rows)]
    assert sorted(set(CHECKS) - set(named)) == []
    assert sorted(set(named) - set(CHECKS)) == []
    # a claim that no row backs says so, as the AKLT claim does
    assert [claim for claim, rows in _claims() if "`" not in rows and rows != "not checked"] == []
    assert [rows for claim, rows in _claims() if "AKLT" in claim] == ["not checked"]


def test_the_example_report_is_what_verify_prints():
    [block] = util.readme_blocks("text")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "--variant", "paper-literal", "--format", "text"])
    assert (code, out.getvalue()) == (1, block)
