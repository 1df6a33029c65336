"""The mutant table (``tests/mutants.py``) follows the code: each row's old
text occurs exactly once in its file, which the script needs to apply the
row. No row is run here."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once_in_its_file(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
