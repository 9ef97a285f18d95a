"""Workloads of the verdict benchmark: four check groups in two workloads.

Each group is a list of ``(identity, bound)`` checks issued through the
public CLI, plus the outputs whose digests the correctness gate compares.
Each group loads one set of layers; together the groups partition the 42
identities of ``simsun.verify``.

On a 2-CPU x86_64 host shared with other tenants, speed drifts by 10-15 %
over tens of seconds and minutes.  There, four workloads of one cold pass
of about 25 s each spread by 9-24 % across ten seeds.  So the workloads
pair the groups: ``numeric`` holds the numpy sweeps and the sparse
polynomial algebra, ``exact`` the per-object Python work and the Fraction
root certificates.  A run then times one pass of about 37 s or 55 s, a
measurement needs half as many runs, and ten seeds spread by 8-15 % on the
same host.  An optimisation of a layer moves the workload that holds its
group and, predicted, leaves the other one flat; every pass prints the
seconds spent in each group.

A digest target names one public call whose canonicalised result is hashed
after the timed pass:

- ``bulk.<function>:<n_max>``                sorted (key, count) pairs of every level
- ``triangles.family_polys:<family>:<n_max>`` every row, as x-coefficients or text
- ``bijections.<verify_fn>:<n>``             the per-k ``counts`` of the φ/ψ report
"""

from __future__ import annotations


def rows(n_max: int, *families: str) -> list[str]:
    """Digest targets for the rows of several families at one bound."""
    return [f"triangles.family_polys:{f}:{n_max}" for f in families]


TRIANGLE_IDS = (
    "s-what-convolution", "w-doubling", "run-mobius", "p-split-from-s",
    "p-recurrence-cleared", "p-low-coeffs", "t-split", "t-even-odd",
    "closed-forms", "orbit-descents", "stirling-reconstruction",
)

GROUPS: dict[str, dict] = {
    "sweep": {
        "why": "numpy brute-force sweeps in bulk do almost all the work, at mixed bounds 11 and 10",
        "checks": [(i, 11) for i in ("enum-descents", "enum-upruns", "enum-peaks", "corner-alternating")]
        + [(i, 10) for i in (
            "enum-exc-cyc", "trivariate-binomial", "cardinalities", "descent-excedance",
            "series-cycle-count-egf", "enum-interior-peaks", "enum-left-peaks", "enum-runs",
        )],
        "digests": [
            "bulk.simsun_word_distributions:11", "bulk.simsun_word_distributions:10",
            "bulk.simsun_cycle_distributions:10", "bulk.all_perm_word_distributions:10",
        ]
        + rows(11, "S", "T", "P", "P+", "P-")
        + rows(10, "Sxq", "Sxyq", "W", "What", "R"),
    },
    "objects": {
        "why": "per-object pure-Python work in bijections, classes and perms; no numpy sweep of size and no roots",
        "checks": [
            ("phi-partition", 7), ("psi-transport", 8), ("filter-matches-generator", 9),
            ("descent-left-peak", 10), ("cud-cycles", 9), ("euler-convolution", 10),
            ("series-springer", 8),
        ],
        "digests": [
            "bijections.verify_phi:7", "bijections.verify_psi:8",
            "bulk.simsun_cycle_distributions:9",
        ]
        + rows(8, "S")
        + rows(10, "What"),
    },
    "roots": {
        "why": "exact Fraction Sturm certification, with bounds above the registry defaults so the high-degree tail dominates",
        "checks": [
            ("roots-nonpositive", 30), ("roots-successive", 26),
            ("roots-interlacing", 24), ("roots-positive-q", 20),
        ],
        "digests": rows(30, "S", "P", "P+", "P-") + rows(20, "Sxq"),
    },
    "algebra": {
        "why": "sparse Poly arithmetic in triangles and series at high row counts and orders",
        "checks": [(i, 80) for i in TRIANGLE_IDS]
        + [("sxq-at-q1", 60), ("sxq-at-minus1", 60)]
        + [(i, 30) for i in ("series-descent-egf", "series-left-peak-egf", "series-square")]
        + [(i, 24) for i in ("series-pde", "series-exc-cyc-egf", "series-trivariate")],
        "digests": rows(80, "S", "What", "R")
        + rows(81, "W", "P", "P+", "P-", "T")
        + rows(82, "A")
        + rows(60, "Sxq")
        + rows(24, "Sxyq"),
    },
}


def combine(why: str, *groups: str) -> dict:
    """A workload made of whole groups, in the given order."""
    return {
        "why": why,
        "groups": groups,
        "checks": [c for g in groups for c in GROUPS[g]["checks"]],
        "digests": [t for g in groups for t in GROUPS[g]["digests"]],
    }


WORKLOADS: dict[str, dict] = {
    "numeric": combine(
        "numpy brute-force sweeps (bulk) plus sparse Poly recurrences and series; no roots, no bijections",
        "sweep", "algebra",
    ),
    "exact": combine(
        "per-object Python in bijections, classes and perms plus Fraction Sturm root certificates; no big sweep",
        "objects", "roots",
    ),
}

GROUP_OF = {identity: g for g, spec in GROUPS.items() for identity, _ in spec["checks"]}

# Which end-to-end metric each per-layer metric should move, and where.
# A layer is predicted to stay flat on the workload that does not name it.
LAYER_MOVES: dict[str, str] = {
    "bulk": "wall_s and peak_rss_mb on numeric (sweep group); flat on exact",
    "triangles": "wall_s on numeric (algebra group), a small share of exact",
    "series": "wall_s on numeric (algebra group)",
    "poly": "wall_s on numeric (algebra group)",
    "bijections": "wall_s on exact (objects group)",
    "classes": "wall_s on exact (objects group)",
    "perms": "wall_s on exact (objects group), a small share of numeric",
    "roots": "wall_s on exact (roots group); flat on numeric",
    "verify": "wall_s on both workloads (small)",
    "cli": "wall_s on both workloads (small)",
}
