"""The command-line bytes of the call set (``callset.py``) against
``golden/cli_digests.txt``: here one block in ten of each kind, its first
included, and in ``check_interpreters.py`` every block on several
interpreters.  When output changes on purpose, the failure prints the
blocks' new lines to paste into the golden file."""

import pytest

import callset
from er2rds.cli import main


@pytest.fixture(scope="module")
def call_set(tmp_path_factory):
    work = tmp_path_factory.mktemp("callset")
    return work, callset.write_inputs(work)


def test_the_golden_file_has_one_line_per_block(call_set):
    labels = [line.rsplit(" sha256 ", 1)[0] for line in callset.golden_lines()]
    assert labels == [label for label, _ in call_set[1]]


def test_one_block_in_ten_of_each_kind_gives_its_golden_digest(call_set, monkeypatch):
    work, blocks = call_set
    monkeypatch.setenv("COLUMNS", callset.COLUMNS)
    monkeypatch.chdir(work)
    golden = set(callset.golden_lines())
    differing = [line for line in (callset.digest_line(main, label, calls)
                                   for label, calls in blocks
                                   if int(label.split()[1].partition("-")[0]) % 1000 == 0)
                 if line not in golden]
    if differing:
        pytest.fail("blocks whose output changed, with their new lines:\n"
                    + "\n".join(differing), pytrace=False)
