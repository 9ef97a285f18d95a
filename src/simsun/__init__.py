"""Exact enumeration and verification toolkit for simsun permutations.

Submodules:

- ``perms``       permutations, cycle forms, signed windows, statistics
- ``classes``     recognizers, labelled insertion trees, labelings, distributions
- ``poly``        sparse exact polynomials in x, q, y
- ``triangles``   recurrence engines for every polynomial family
- ``series``      truncated EGFs with polynomial coefficients
- ``bijections``  the block correspondence and the descent-to-excedance map
- ``roots``       sign-alternation root certificates and interlacing
- ``bulk``        vectorized brute-force oracles for large sweeps
- ``verify``      registry of machine-checkable identities
- ``cli``         command-line front end
"""

__version__ = "0.1.0"


class TooLarge(Exception):
    """A bound the machine cannot afford, refused before any work is done:
    a sweep level, an alternating-permutation or snake array, or a stream of
    all n! permutations over ``perms.ROW_BUDGET`` rows; a φ block over
    ``bijections.PHI_BLOCK_LIMIT`` images; or a ψ input over
    ``bijections.PSI_LENGTH_LIMIT`` letters."""


__all__ = [
    "TooLarge",
    "bijections",
    "bulk",
    "classes",
    "perms",
    "poly",
    "roots",
    "series",
    "triangles",
    "verify",
]
