"""Print every acceptance measured value, one ``criterion repr(measured)`` per line.

Runs each entry of ``experiments.EXPERIMENTS`` at ``ExperimentConfig()``,
the configuration the acceptance suite pins, in the table's order.  The
full ``repr`` shows every bit of each value, so two checkouts (absolute
paths ``PARENT`` and ``CHANGE``) give bit-identical acceptance values when

    diff <(cd $PARENT && python3 tests/acceptance_values.py) \\
         <(cd $CHANGE && python3 tests/acceptance_values.py)

prints nothing.  It takes about as long as the acceptance suite.
``tests/acceptance_baseline.txt`` is this listing, committed; the
acceptance tests compare their values against it as ``--compare`` does.

With ``--compare FILE`` it reads a saved listing instead, reruns, and
prints ``criterion before after`` for each value that moved by more than
``1e-11 * max(1, |before|)``.  It exits 1 when a value moved or when the
criteria differ from the saved ones, and 0 otherwise.

``--only NAME[,NAME]`` runs just the named experiments (keys of
``experiments.EXPERIMENTS``, such as ``spectrum``).  With ``--compare``
their values are checked against the matching lines of a full saved
listing, so A9 is re-checked in seconds:

    python3 tests/acceptance_values.py --only spectrum --compare FILE
"""

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from oseen2d import experiments as ex  # noqa: E402

REL_TOL = 1e-11


def values(names=None):
    """(criterion, measured) per acceptance record, in the table's order;
    only the experiments in ``names`` unless it is None."""
    cfg = ex.ExperimentConfig()
    for name, (runner, _) in ex.EXPERIMENTS.items():
        if names is not None and name not in names:
            continue
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


def matching(before, after):
    """The lines of the saved listing ``before`` whose criteria ``after``
    names, in their saved order."""
    names = {criterion for criterion, _ in after}
    return [(c, v) for c, v in before if c in names]


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
    parser.add_argument("--only", metavar="NAME[,NAME]",
                        help="run only these experiments (keys of "
                             "experiments.EXPERIMENTS)")
    args = parser.parse_args()
    names = None
    if args.only is not None:
        names = args.only.split(",")
        unknown = [name for name in names if name not in ex.EXPERIMENTS]
        if unknown:
            parser.error(f"unknown experiment(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(ex.EXPERIMENTS)}")
    if args.compare is None:
        for criterion, measured in values(names):
            print(criterion, repr(measured), flush=True)
        return 0
    with open(args.compare) as fh:
        before = read_listing(fh)
    after = [(criterion, float(measured)) for criterion, measured in values(names)]
    if names is not None:
        before = matching(before, after)
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
