"""Acceptance suite: every criterion at its pinned tolerance.

Each test runs the same experiment code the CLI exposes, prints one
``PASS|FAIL <criterion> <measured> <threshold>`` line per assertion, and
fails if any assertion fails, or if a measured value moved from its line
in ``acceptance_baseline.txt`` by more than 1e-11 * max(1, |baseline|)
(``acceptance_values.moved``).  Reference resolution is n = 256, L = 40
unless an experiment pins its own (stated in the experiment docstring).
The last tests check the shape of every experiment's artifacts and that a
moved value fails.
"""

import functools
import re
import sys
from pathlib import Path, PurePosixPath

import pytest

from acceptance_values import matching, moved, read_listing
from oseen2d import experiments as ex

CFG = ex.ExperimentConfig()
# the listing of tests/acceptance_values.py at the commit that last moved a
# value on purpose (OPENBLAS_NUM_THREADS=1)
with open(Path(__file__).with_name("acceptance_baseline.txt")) as _fh:
    BASELINE = read_listing(_fh)


@functools.lru_cache(maxsize=None)
def run(name):
    """(records, artifacts) of one experiment at the pinned config."""
    runner, _ = ex.EXPERIMENTS[name]
    return runner(CFG)


def check(name, prefix):
    records, _ = run(name)
    selected = [r for r in records if r.criterion.startswith(prefix)]
    assert selected, f"no assertions matched prefix {prefix}"
    for record in selected:
        print(record.line())
    bad = [r for r in selected if not r.passed]
    assert not bad, "failed: " + "; ".join(r.line() for r in bad)
    values = [(r.criterion, float(r.measured)) for r in selected]
    drift = moved(matching(BASELINE, values), values)
    assert not drift, "moved from acceptance_baseline.txt: " + "; ".join(drift)


def test_A1_oseen_background_exactness():
    check("oseen-exact", "A1")


def test_A2_direct_solver_oseen():
    check("oseen-exact", "A2")


def test_A3_long_time_asymptotics():
    check("asym-decay", "A3")


def test_A4_semigroup_kernel():
    check("semigroup-kernel", "A4")


def test_A5_commutation_identity():
    check("commutation", "A5")


def test_A6_weighted_mean_zero_decay():
    check("semigroup-kernel", "A6")


def test_A7_linearized_semigroup_decay():
    check("t-alpha-decay", "A7")


def test_A8_one_vortex_selfsim_decay():
    check("s1-decay", "A8")


def test_A9_linearization_spectrum():
    check("spectrum", "A9")


def test_A10_fundamental_solution_bounds():
    check("sn-gaussian-bound", "A10")


def test_A11_two_vortex_contraction():
    check("two-vortex", "A11")


def test_A12_diffuse_localized_decay():
    check("diffuse-localized", "A12")


def test_A13_continuity_in_data():
    check("continuity", "A13")


def test_A14_uniqueness_shadow():
    check("uniqueness-shadow", "A14")


def test_A15_biot_savart_oracle():
    check("biot-savart-oracle", "A15")


def test_a_moved_value_fails(monkeypatch):
    # one A15 record moved by 1e-9 * max(1, |value|), still far inside its
    # PASS threshold, and 100 times the tolerance of acceptance_values.moved
    records, artifacts = run("biot-savart-oracle")
    record = records[0]
    shifted = record.measured + 1e-9 * max(1.0, abs(record.measured))
    perturbed = ex.Assertion(record.criterion, True, shifted, record.threshold)
    monkeypatch.setattr(sys.modules[__name__], "run",
                        lambda name: ([perturbed], artifacts))
    before = dict(BASELINE)[record.criterion]
    with pytest.raises(AssertionError, match=re.escape(
            f"{record.criterion} {before!r} {perturbed.measured!r}")):
        check("biot-savart-oracle", record.criterion)


def test_artifact_shapes():
    # after the tests above, so every run comes from the cache
    for name in ex.EXPERIMENTS:
        _, artifacts = run(name)
        for path, content in artifacts.items():
            rel = PurePosixPath(path)
            assert not rel.is_absolute() and ".." not in rel.parts, (name, path)
            if path.endswith(".gp"):
                plotted = re.search(r"^plot '([^']+)'", content, re.M).group(1)
                assert str(rel.with_name(plotted)) in artifacts, (name, path)
            if path.endswith(".csv"):
                header, *rows = content.splitlines()
                width = len(header.split(","))
                assert all(header.split(",")), (name, path)
                assert all(len(row.split(",")) == width for row in rows), (name, path)
