"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance): all arithmetic is over Fraction and
every assertion is equality or an exact verdict.  Time budgets generous to
the implementation are asserted where the criterion states one.  Each test
prints one PASS line on success (visible with pytest -s or in the verify
CLI, which runs the same suites).
"""

import time

from simhom import catalog
from simhom.verify import (
    COINCIDENCE_PAIRS,
    run_suites,
    suite_axioms,
    suite_coincidence,
    suite_duality,
    suite_euler,
    suite_kunneth,
    suite_products,
    suite_subdivision,
    suite_witness,
)


def _run(suite_fn, label, budget=None, seed=2026):
    start = time.monotonic()
    results = suite_fn(seed=seed)
    elapsed = time.monotonic() - start
    failures = [r for r in results if not r.passed]
    assert not failures, f"{label}: {[(r.name, r.detail) for r in failures]}"
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeds {budget}s budget"
    print(f"ACCEPTANCE {label}: PASS ({len(results)} checks, {elapsed:.2f}s)")


def test_acceptance_axiom_suite():
    # boundary/coboundary squared zero, pair exactness, simplicial excision,
    # dimension axiom; exact, under 1 s on the catalog
    _run(suite_axioms, "axiom-suite", budget=1.0)


def test_acceptance_subdivision_invariance():
    # Betti numbers and the induced Sd iso before/after subdivision for
    # every catalog complex, genus-2 included; exact, under 10 s
    _run(suite_subdivision, "subdivision-invariance", budget=10.0)


def test_acceptance_product_laws():
    # cup unit/associativity at chain level, cohomology skew-commutativity
    # via coboundary membership, cap duality exact at chain level, Kunneth
    # counts against the triangulated torus, cross naturality and swap signs
    _run(suite_products, "product-laws", seed=2026)
    _run(suite_kunneth, "kunneth-dimension-tables")


def test_acceptance_duality_suite():
    # invertible duality and Betti symmetry on every orientable catalog
    # manifold, NonOrientable rejection for rp2, transfer identities,
    # transfer composition law
    _run(suite_duality, "duality-suite")


def test_acceptance_euler_consistency():
    # (chi_X, zeta_X) equals the combinatorial characteristic:
    # octahedron 2, icosahedron 2, torus 0, hexagon 0, genus2 -2
    _run(suite_euler, "euler-consistency")


def test_acceptance_coincidence_consistency():
    # four trace formulas + pairing + intersection agree exactly on the
    # catalog pair table (>= 10 pairs), symmetry, composition scaling,
    # lambda(1,1) = chi; under 30 s
    assert len(COINCIDENCE_PAIRS) >= 10
    _run(suite_coincidence, "coincidence-consistency", budget=30.0)


def test_acceptance_main_theorem_soundness():
    # nonzero lambda forces a witness the finder locates and verifies in
    # exact rational arithmetic; lambda = 0 pairs yield no false claim;
    # subdivision budget 3
    _run(suite_witness, "main-theorem-soundness")


def test_acceptance_coefficient_extraction_regression():
    # coefficient extraction <b_i x b^_j, Lambda_X> matches the diagonal
    # formula on octahedron and torus
    from simhom.duality import duality_operator
    from simhom.homology import Space
    from simhom.lefschetz import coefficient_extraction_table, lefschetz_class

    for name in ["octahedron", "torus"]:
        d = duality_operator(Space(catalog.get_complex(name)))
        lef = lefschetz_class(d)
        rows = coefficient_extraction_table(lef, d)
        bad = [(q, i, j) for (q, i, j, v, e) in rows if v != e]
        assert not bad, (name, bad)
    print("ACCEPTANCE coefficient-extraction-regression: PASS")


def test_acceptance_full_verify_report_deterministic():
    # the aggregated report is reproducible for a pinned seed
    import json

    r1 = json.dumps(run_suites(["euler", "kunneth"], seed=11))
    r2 = json.dumps(run_suites(["euler", "kunneth"], seed=11))
    assert r1 == r2
    print("ACCEPTANCE deterministic-reports: PASS")


def test_acceptance_verify_check_counts_match_benchmark_table():
    # the benchmark's oracle refuses a verify run with other check counts
    import json
    import os

    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "perfbench", "data", "expected.json"
    )
    with open(path) as fh:
        table = json.load(fh)["verify_suites"]
    report = run_suites()
    assert [[name, len(checks)] for name, checks in report["suites"].items()] == table
    print("ACCEPTANCE verify-check-counts: PASS")
