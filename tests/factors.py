"""Factor matrices and the group action on factor triples, for the
tests' matrix-level routes."""

from mm3sym.poly import Polynomial


def matrix(rows):
    """3x3 factor matrix from a nested sequence of Polynomial-likes."""
    return tuple(tuple(Polynomial.coerce(x) for x in row) for row in rows)


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def transpose(a):
    return [list(row) for row in zip(*a)]


def act_on_factors(g, x, y, z):
    """g (x (x) y (x) z) as a factor triple: the B word rightmost letter
    first, rho: x,y,z -> y^T,x^T,z^T and sigma: x,y,z -> z,x,y; then each
    factor conjugated by M = D P with P e_j = e_p(j), D = diag(signs)."""
    for letter in reversed(g.bword):
        if letter == "r":
            x, y, z = transpose(y), transpose(x), transpose(z)
        else:
            x, y, z = z, x, y
    m = [[g.signs[i] if g.perm[j] == i + 1 else 0 for j in range(3)]
         for i in range(3)]
    m_inv = transpose(m)  # M is orthogonal
    return [mat_mul(mat_mul(m, f), m_inv) for f in (x, y, z)]
