"""Acceptance suite: one test per criterion, each printing its PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines, or ``hpbundles verify`` for the same checks from the CLI.
"""

import pytest

from hpbundles import acceptance


def _run(name, func):
    ok, detail = func()
    print("%s %s (%s)" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, detail


def test_criterion_1_stable_rank2_closed_form():
    _run("stable-rank2-closed-form", acceptance.criterion_stable_rank2_closed_form)


def test_criterion_2_compact_support_dual():
    _run("compact-support-dual", acceptance.criterion_compact_support_dual)


def test_criterion_3_recursion_vs_closed_form():
    _run("recursion-vs-closed-form", acceptance.criterion_recursion_vs_closed_form)


def test_criterion_4_degree_shift_invariance():
    _run("degree-shift-invariance", acceptance.criterion_degree_shift)


def test_criterion_5_codimension_double_entry():
    _run("codimension-double-entry", acceptance.criterion_codim_double_entry)


def test_criterion_6_index_set_counts():
    _run("index-set-counts", acceptance.criterion_index_set_counts)


def test_criterion_7_min_norm_oracle():
    _run("min-norm-oracle", acceptance.criterion_min_norm_oracle)


def test_criterion_8_invariant_suite():
    _run("invariant-suite", acceptance.criterion_invariant_suite)


def test_criterion_9_coprime_sanity():
    _run("coprime-sanity", acceptance.criterion_coprime_sanity)


def test_criterion_10_ss_closed_form():
    _run("ss-closed-form", acceptance.criterion_ss_closed_form)


def test_run_all_reports_every_criterion():
    lines = []
    ok = acceptance.run_all(report=lines.append)
    assert ok
    assert len(lines) == len(acceptance.CRITERIA)
    assert all(line.startswith("PASS") for line in lines)
