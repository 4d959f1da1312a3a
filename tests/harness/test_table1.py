"""Table I regeneration: the qualitative pattern must match the paper."""

import pytest

from repro.chaos.algos import TABLE1
from repro.harness.table1 import format_table1, run_table1


@pytest.fixture(scope="module")
def rows():
    # small parameters keep this under a minute; the benchmark suite runs
    # the full-size version
    return {
        r.algorithm: r for r in run_table1(k=6, amortized_ops=8, interference_n=7)
    }


def test_all_rows_present(rows):
    assert list(rows) == [p.label for p in TABLE1]


def test_sso_scan_is_free(rows):
    sso = rows["SSO-Fast-Scan [this paper]"]
    assert sso.scan_worst == 0.0 and sso.scan_amortized == 0.0


def test_sso_update_matches_eq_aso(rows):
    assert rows["SSO-Fast-Scan [this paper]"].update_worst == pytest.approx(
        rows["EQ-ASO [this paper]"].update_worst
    )


def test_delporte_update_cheap_scan_expensive(rows):
    d = rows["Delporte et al. [19]"]
    assert d.update_worst < d.scan_worst


def test_eq_aso_scan_beats_delporte_scan(rows):
    """The headline comparison: under the worst-case adversaries the
    EQ-ASO scan is cheaper than the pull-based double-collect scan."""
    assert (
        rows["EQ-ASO [this paper]"].scan_worst
        < rows["Delporte et al. [19]"].scan_worst
    )


def test_la_based_pays_log_rounds(rows):
    la = rows["LA-based [41,42]+[11]"]
    assert la.update_worst > rows["EQ-ASO [this paper]"].update_worst


def test_amortized_below_worst(rows):
    for row in rows.values():
        assert row.update_amortized <= row.update_worst + 1e-9
        assert row.scan_amortized <= row.scan_worst + 1e-9


def test_format_table(rows):
    text = format_table1(list(rows.values()))
    assert "EQ-ASO [this paper]" in text
    assert text.count("\n") >= 7
