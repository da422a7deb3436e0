"""The mutant register stays applicable: python tests/mutants.py runs it."""

import re

from mutants import EQUIVALENT, MUTANTS, ROOT


def test_each_mutant_applies_to_exactly_one_place():
    ids = [row[0] for row in MUTANTS + EQUIVALENT]
    assert len(set(ids)) == len(ids)
    for mid, path, old, new, killers in MUTANTS:
        assert old != new, mid
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, mid
        assert killers, mid
        for node in killers:
            file, name = node.split("::")
            assert re.search(rf"^def {name}\(", (ROOT / file).read_text(encoding="utf-8"), re.M), node


def test_each_equivalent_mutant_applies_to_exactly_one_place():
    for mid, path, old, new, reason in EQUIVALENT:
        assert old != new and reason, mid
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, mid
