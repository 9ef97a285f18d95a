"""Acceptance suite: twelve exact criteria, one test (and one printed
pass/fail line) per criterion.  Arithmetic is exact, tolerance is zero."""

import time

from simsun import bijections, cli, triangles, verify


def _report(criterion: str, ok: bool) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def _run(identity: str, bound: int) -> bool:
    report = verify.run(identity, bound)
    if not report.ok:
        print(f"  {identity} failed: {report.detail}")
    return report.ok


def test_criterion_01_published_rows():
    start = time.monotonic()
    rows = {
        ("S", 1): [1], ("S", 2): [1, 1], ("S", 3): [1, 4],
        ("S", 4): [1, 11, 4], ("S", 5): [1, 26, 34],
        ("P", 1): [1], ("P", 2): [2], ("P", 3): [3, 2],
        ("P", 4): [4, 12], ("P", 5): [5, 44, 12],
        ("P+", 1): [1], ("P+", 2): [1], ("P+", 3): [2],
        ("P+", 4): [3, 4], ("P+", 5): [4, 22],
        ("P-", 1): [1], ("P-", 2): [1], ("P-", 3): [1, 2],
        ("P-", 4): [1, 8], ("P-", 5): [1, 22, 12],
        ("T", 1): [0, 1], ("T", 2): [0, 1, 1],
        ("T", 3): [0, 1, 2, 2], ("T", 4): [0, 1, 3, 8, 4],
        ("W", 3): [4, 2],
        ("What", 0): [1], ("What", 1): [1],
    }
    ok = all(
        triangles.family_polys(family, n)[n].x_coeffs() == coeffs
        for (family, n), coeffs in rows.items()
    )
    elapsed = time.monotonic() - start
    _report("1 published rows", ok and elapsed < 1.0)


def test_criterion_02_enumeration_matches_recurrences():
    ok = (
        _run("enum-descents", 12)
        and _run("enum-upruns", 12)
        and _run("enum-peaks", 12)
        and _run("enum-exc-cyc", 11)
        and _run("enum-interior-peaks", 10)
        and _run("enum-left-peaks", 10)
        and _run("enum-runs", 10)
    )
    _report("2 enumeration vs recurrence", ok)


def test_criterion_03_filters_match_generators():
    _report("3 filter vs generator", _run("filter-matches-generator", 9))


def test_criterion_04_cardinalities():
    _report("4 cardinalities", _run("cardinalities", 10))


def test_criterion_05_block_correspondence():
    _report("5 block correspondence", _run("phi-partition", 8))


def test_criterion_06_descent_excedance_bijection():
    example = bijections.psi_forward((3, 4, 1, 2)) == ((1, 4, 3), (2,))
    _report("6 descent-excedance bijection", example and _run("psi-transport", 9))


def test_criterion_07_polynomial_identities():
    ok = (
        _run("s-what-convolution", 12)
        and _run("run-mobius", 12)
        and _run("w-doubling", 12)
        and _run("p-split-from-s", 12)
        and _run("closed-forms", 12)
        and _run("p-recurrence-cleared", 12)
        and _run("p-low-coeffs", 12)
        and _run("t-split", 12)
        and _run("t-even-odd", 12)
        and _run("corner-alternating", 12)
        and _run("orbit-descents", 12)
        and _run("euler-convolution", 10)
    )
    _report("7 polynomial identities", ok)


def test_criterion_08_stirling_reconstruction():
    _report("8 stirling reconstruction", _run("stirling-reconstruction", 15))


def test_criterion_09_series():
    ok = (
        _run("series-descent-egf", 12)
        and _run("series-left-peak-egf", 12)
        and _run("series-square", 12)
        and _run("series-pde", 10)
        and _run("series-exc-cyc-egf", 10)
        and _run("series-cycle-count-egf", 9)
        and _run("series-springer", 8)
        and _run("series-trivariate", 9)
    )
    _report("9 series", ok)


def test_criterion_10_equidistributions():
    ok = _run("cud-cycles", 9) and _run("sxq-at-minus1", 20)
    _report("10 equidistributions", ok)


def test_criterion_11_roots():
    ok = (
        _run("roots-nonpositive", 25)
        and _run("roots-successive", 20)
        and _run("roots-interlacing", 20)
        and _run("roots-positive-q", 15)
    )
    _report("11 roots", ok)


def test_criterion_12_verify_all_and_mutation(monkeypatch, capsys):
    clean = cli.main(["verify", "all"])

    original = triangles.family_polys

    def broken(family, n_max):
        rows = original(family, n_max)
        if family == "S" and n_max >= 4:
            rows = rows[:4] + [r + 1 for r in rows[4:]]  # off-by-one injection
        return rows

    monkeypatch.setattr(triangles, "family_polys", broken)
    mutated = cli.main(["verify", "all", "--n-max", "6"])
    monkeypatch.undo()
    capsys.readouterr()
    _report("12 verify-all gate", clean == 0 and mutated == 1)
