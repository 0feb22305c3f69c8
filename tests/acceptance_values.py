"""Print every acceptance measured value, one ``criterion repr(measured)`` per line.

Runs each entry of ``experiments.EXPERIMENTS`` at ``ExperimentConfig()``,
the configuration the acceptance suite pins, in the table's order.  The
full ``repr`` shows every bit of each value, so two checkouts (absolute
paths ``PARENT`` and ``CHANGE``) give bit-identical acceptance values when

    diff <(cd $PARENT && python3 tests/acceptance_values.py) \\
         <(cd $CHANGE && python3 tests/acceptance_values.py)

prints nothing.  It takes about as long as the acceptance suite.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from oseen2d import experiments as ex  # noqa: E402


def main() -> None:
    cfg = ex.ExperimentConfig()
    for runner, _ in ex.EXPERIMENTS.values():
        for record in runner(cfg):
            print(record.criterion, repr(record.measured), flush=True)


if __name__ == "__main__":
    main()
