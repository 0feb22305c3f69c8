"""Print every acceptance measured value, one ``criterion repr(measured)`` per line.

Runs each entry of ``experiments.EXPERIMENTS`` at ``ExperimentConfig()``,
the configuration the acceptance suite pins, in the table's order.  The
full ``repr`` shows every bit of each value, so two checkouts (absolute
paths ``PARENT`` and ``CHANGE``) give bit-identical acceptance values when

    diff <(cd $PARENT && python3 tests/acceptance_values.py) \\
         <(cd $CHANGE && python3 tests/acceptance_values.py)

prints nothing.  It takes about as long as the acceptance suite.

With ``--compare FILE`` it reads a saved listing instead, reruns, and
prints ``criterion before after`` for each value that moved by more than
``1e-11 * max(1, |before|)``.  It exits 1 when a value moved or when the
criteria differ from the saved ones, and 0 otherwise.
"""

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from oseen2d import experiments as ex  # noqa: E402

REL_TOL = 1e-11


def values():
    """(criterion, measured) per acceptance record, in the table's order."""
    cfg = ex.ExperimentConfig()
    for runner, _ in ex.EXPERIMENTS.values():
        records, _ = runner(cfg)
        for record in records:
            yield record.criterion, record.measured


def read_listing(lines):
    """[(criterion, value)] from ``criterion repr`` lines."""
    pairs = []
    for line in lines:
        if line.strip():
            criterion, value = line.split()
            pairs.append((criterion, float(value)))
    return pairs


def moved(before, after):
    """The ``criterion before after`` lines of the values that moved by
    more than REL_TOL * max(1, |before|); raises ValueError when the two
    listings do not name the same criteria in the same order."""
    if [c for c, _ in before] != [c for c, _ in after]:
        raise ValueError("the criteria differ from the saved listing")
    lines = []
    for (criterion, b), (_, a) in zip(before, after):
        same = (a == b or (math.isnan(a) and math.isnan(b))
                or abs(a - b) <= REL_TOL * max(1.0, abs(b)))
        if not same:
            lines.append(f"{criterion} {b!r} {a!r}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="a saved listing to compare the rerun against")
    args = parser.parse_args()
    if args.compare is None:
        for criterion, measured in values():
            print(criterion, repr(measured), flush=True)
        return 0
    with open(args.compare) as fh:
        before = read_listing(fh)
    after = [(criterion, float(measured)) for criterion, measured in values()]
    try:
        lines = moved(before, after)
    except ValueError as exc:
        print(exc)
        return 1
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
