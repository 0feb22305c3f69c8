"""The --compare gate of tests/acceptance_values.py on saved listings,
without rerunning the experiments."""

import pytest

from acceptance_values import matching, moved, read_listing


def test_acceptance_values_compare():
    before = read_listing(["A1-x 0.0\n", "A9-mult 2\n", "\n", "A11-y 375.0\n"])
    assert before == [("A1-x", 0.0), ("A9-mult", 2.0), ("A11-y", 375.0)]
    assert moved(before, before) == []
    # within 1e-11 * max(1, |before|): absolute near zero, relative above
    assert moved(before, [("A1-x", 9e-12), ("A9-mult", 2.0),
                          ("A11-y", 375.0 * (1 + 9e-12))]) == []
    assert moved(before, [("A1-x", 2e-11), ("A9-mult", 2.0),
                          ("A11-y", 375.0 * (1 + 2e-11))]) == [
        "A1-x 0.0 2e-11", f"A11-y 375.0 {375.0 * (1 + 2e-11)!r}"]
    assert moved([("A-nan", float("nan"))], [("A-nan", float("nan"))]) == []
    with pytest.raises(ValueError, match="criteria differ"):
        moved(before, before[:2])


def test_acceptance_values_only_matches_saved_lines():
    # --only compares a partial rerun against the lines of a full listing
    # that name its criteria, in their saved order
    before = read_listing(["A8-r 1.0\n", "A9[alpha=1]-t 2.0\n",
                           "A9[alpha=1]-m 2\n", "A10-p 3.0\n"])
    after = [("A9[alpha=1]-t", 2.0), ("A9[alpha=1]-m", 2.0)]
    assert matching(before, after) == after
    assert moved(matching(before, after), after) == []
    # a criterion the listing lacks makes the criteria differ
    with pytest.raises(ValueError, match="criteria differ"):
        moved(matching(before, after + [("A9-new", 0.0)]),
              after + [("A9-new", 0.0)])
