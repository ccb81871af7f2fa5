"""Factor matrices for the tests' matrix-level routes."""

from mm3sym.poly import Polynomial


def matrix(rows):
    """3x3 factor matrix from a nested sequence of Polynomial-likes."""
    return tuple(tuple(Polynomial.coerce(x) for x in row) for row in rows)
