"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  All comparisons are exact; the wall-clock limits stated with a
criterion are asserted too.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines, or
``sl2bar verify --max-level 5`` for the CLI rendering of the same checks.
"""

import time

import pytest

from sl2bar import verify


def _run(criterion: str, label: str, budget_s: float | None = None) -> None:
    t0 = time.perf_counter()
    report = verify.run_suite(max_level=5, name_filter=criterion)
    elapsed = time.perf_counter() - t0
    assert report.checks, f"no checks matched {criterion}"
    skipped = [c for c in report.checks if c.status == "skipped"]
    assert not skipped, f"gated checks remained skipped at max level: {[c.name for c in skipped]}"
    failures = [c for c in report.checks if c.status == "fail"]
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {label} ({len(report.checks)} checks, {elapsed:.2f}s)")
    assert not failures, [(c.name, c.witness) for c in failures]
    if budget_s is not None:
        assert elapsed < budget_s, f"{criterion} took {elapsed:.1f}s, budget {budget_s}s"


def test_criterion_01_group_orders():
    _run("c01-orders", "1: group orders 6, 60, 504, 4080, 32736", budget_s=30)


def test_criterion_02_ct_suite():
    _run("c02-ct", "2: commutation-transitivity three-route agreement", budget_s=60)


def test_criterion_03_diagonal_centralizers():
    _run("c03-prop3", "3: diagonal centralizers are the cyclic diagonal subgroup")


def test_criterion_04_diagonal_normalizer():
    _run("c04-prop4", "4: diagonal normalizer structure and index 2")


def test_criterion_05_triangular_structure():
    _run("c05-prop5-6", "5: unitriangular centralizers, normalizers, semidirect products")


def test_criterion_06_ut_lt_disjoint():
    _run("c06-prop7", "6: unitriangular sides disjoint and noncommuting")


def test_criterion_07_order_dichotomy():
    _run("c07-dichotomy", "7: order dichotomy and the trace criterion")


def test_criterion_08_conjugation_identities():
    _run("c08-eq1-eq2", "8: closed-form conjugation identities on 10000 tuples", budget_s=1)


def test_criterion_09_generation_chain():
    _run("c09-generation", "9: generation by involutions, swap with lower, normalizer with lower")


def test_criterion_10_a5_and_simplicity():
    _run("c10-a5-simple", "10: projective action, alternating image, simplicity")


def test_criterion_11_field_cohopf_shadow():
    _run("c11-field-cohopf", "11: field endomorphisms bijective and permutation facts", budget_s=60)


def test_criterion_12_replay():
    _run("c12-replay", "12: eight-step replay over the endomorphism family", budget_s=120)


def test_criterion_13_conway_table():
    _run("c13-conway", "13: modulus table validity and embedding homomorphisms")


def test_criterion_14_artin_schreier():
    _run("c14-artin-schreier", "14: quadratic-substitute solver correctness")


def test_suite_has_no_unknown_checks():
    # every registered check belongs to exactly one criterion prefix
    prefixes = [f"c{k:02d}-" for k in range(1, 15)]
    for check in verify.build_checks():
        assert sum(check.name.startswith(p) for p in prefixes) == 1, check.name


@pytest.mark.parametrize("max_level", [2, 3])
def test_low_levels_all_pass_quickly(max_level):
    t0 = time.perf_counter()
    report = verify.run_suite(max_level=max_level)
    elapsed = time.perf_counter() - t0
    assert report.ok
    if max_level == 2:
        assert elapsed < 10, f"default-scale suite took {elapsed:.1f}s"
