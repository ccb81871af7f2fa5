"""Computations the benchmark checks mm3sym's outputs against.

Nothing here imports mm3sym.  Every value is derived from the shipped
family data (src/mm3sym/data/catalog.json) and from the definitions in
the paper, by code written apart from the program:

- exact arithmetic in Q(zeta_12) on coefficient 4-tuples over the power
  basis 1, w, w^2, w^3, reduced by the cyclotomic polynomial
  w^4 - w^2 + 1;
- a small expression evaluator for the catalog's factor entries and the
  Macaulay2 export;
- the group action built from matrices: conjugation by the 24 signed
  permutation matrices of determinant 1, and the factor maps
  rho(x, y, z) = (y^T, x^T, z^T) and sigma(x, y, z) = (z, x, y);
- multiset counts by a knapsack recurrence, and Brent residuals and a
  dense exact decomposition in Gaussian-integer arithmetic.
"""

import itertools
import json
import re
from fractions import Fraction
from functools import lru_cache

ZERO = (0, 0, 0, 0)
ONE = (1, 0, 0, 0)
W = (0, 1, 0, 0)


def q(n):
    """A rational number as a field element."""
    return (n, 0, 0, 0)


def q_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def q_neg(a):
    return (-a[0], -a[1], -a[2], -a[3])


def q_mul(a, b):
    c = [0] * 7
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] += x * y
    for k in (6, 5, 4):          # w^k = w^(k-2) - w^(k-4)
        c[k - 2] += c[k]
        c[k - 4] -= c[k]
    return tuple(c[:4])


def q_pow(a, n):
    out = ONE
    for _ in range(n):
        out = q_mul(out, a)
    return out


I = q_pow(W, 3)       # w^3 = i
Z = q_pow(W, 4)       # primitive cube root of unity
ZB = q_pow(W, 8)      # its conjugate

# -- expressions -----------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*^()]))")


def evaluate(text, env):
    """Value of an expression in numbers, names bound in env, + - * ^
    and parentheses."""
    tokens = []
    pos, text = 0, text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad token in {text!r} at {pos}")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    at = [0]

    def peek():
        return tokens[at[0]] if at[0] < len(tokens) else (None, None)

    def take():
        tok = peek()
        at[0] += 1
        return tok

    def expr():
        negate = peek() == ("op", "-")
        if peek() in (("op", "-"), ("op", "+")):
            take()
        out = term()
        if negate:
            out = q_neg(out)
        while peek() in (("op", "-"), ("op", "+")):
            _, op = take()
            t = term()
            out = q_add(out, q_neg(t) if op == "-" else t)
        return out

    def term():
        out = factor()
        while peek() == ("op", "*"):
            take()
            out = q_mul(out, factor())
        return out

    def factor():
        base = atom()
        if peek() == ("op", "^"):
            take()
            kind, val = take()
            if kind != "num" or "/" in val:
                raise ValueError(f"bad exponent in {text!r}")
            return q_pow(base, int(val))
        return base

    def atom():
        kind, val = take()
        if kind == "num":
            return q(Fraction(val) if "/" in val else int(val))
        if kind == "name":
            return env[val]
        if (kind, val) == ("op", "("):
            out = expr()
            if take() != ("op", ")"):
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return out
        if (kind, val) == ("op", "-"):
            return q_neg(atom())
        raise ValueError(f"unexpected {val!r} in {text!r}")

    out = expr()
    if at[0] != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


# -- the catalog -----------------------------------------------------

def load_catalog(path):
    """Family records by id, as shipped."""
    with open(path) as fh:
        return {rec["id"]: rec for rec in json.load(fh)["families"]}


def family_tensor(rec, values):
    """Entries {index: value} of a family at numeric parameters, where
    values maps each parameter letter to a field element."""
    env = dict(values, z=Z, zb=ZB, i=I)
    mats = [[[evaluate(s, env) for s in row] for row in m]
            for m in rec["factors"]]
    x, y, z = {"cube": (0, 0, 0), "square": (0, 0, 1),
               "triple": (0, 1, 2)}[rec["power"]]
    scale = evaluate(rec["scale"], env) if "scale" in rec else ONE
    out = {}
    for (i1, j1), (i2, j2), (i3, j3) in itertools.product(
            itertools.product(range(3), repeat=2), repeat=3):
        v = q_mul(q_mul(mats[x][i1][j1], mats[y][i2][j2]),
                  q_mul(mats[z][i3][j3], scale))
        if v != ZERO:
            out[((i1 + 1, j1 + 1), (i2 + 1, j2 + 1), (i3 + 1, j3 + 1))] = v
    return out


# -- the group, acting through matrices ------------------------------

def _matmul(a, b):
    return [[sum(a[r][k] * b[k][c] for k in range(3)) for c in range(3)]
            for r in range(3)]


def _det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _signed_permutation_matrices():
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = [[0] * 3 for _ in range(3)]
            for r in range(3):
                m[r][perm[r]] = signs[r]
            if _det(m) == 1:
                yield m


def _conjugation(p):
    """{(i, j): (sign, (k, l))} with p e_ij p^T = sign e_kl."""
    pt = [list(col) for col in zip(*p)]
    out = {}
    for i, j in itertools.product((1, 2, 3), repeat=2):
        e = [[int((r, c) == (i - 1, j - 1)) for c in range(3)] for r in range(3)]
        m = _matmul(_matmul(p, e), pt)
        (k, l), = [(r, c) for r in range(3) for c in range(3) if m[r][c]]
        out[(i, j)] = (m[k][l], (k + 1, l + 1))
    return out


def _rho(alpha):
    (i1, j1), (i2, j2), (i3, j3) = alpha
    return ((j2, i2), (j1, i1), (j3, i3))


def _sigma(alpha):
    return (alpha[2], alpha[0], alpha[1])


@lru_cache(maxsize=None)
def group_index_maps():
    """The 144 elements of G as maps {index: (sign, image index)}."""
    indices = list(itertools.product(
        itertools.product((1, 2, 3), repeat=2), repeat=3))
    words = ((), (_sigma,), (_sigma, _sigma), (_rho,), (_rho, _sigma),
             (_rho, _sigma, _sigma))
    maps = []
    for p in _signed_permutation_matrices():
        conj = _conjugation(p)
        for word in words:
            table = {}
            for alpha in indices:
                beta = alpha
                for f in word:
                    beta = f(beta)
                sign = 1
                image = []
                for pair in beta:
                    s, kl = conj[pair]
                    sign *= s
                    image.append(kl)
                table[alpha] = (sign, tuple(image))
            maps.append(table)
    return tuple(maps)


def orbit(t):
    """Distinct images {g t : g in G} of a tensor {index: value}."""
    seen = {}
    for table in group_index_maps():
        image = {}
        for alpha, v in t.items():
            sign, beta = table[alpha]
            image[beta] = v if sign > 0 else q_neg(v)
        seen.setdefault(frozenset(image.items()), image)
    return list(seen.values())


# representatives of the classes Q1..Q12 of even indices, in table order
CLASS_REPRESENTATIVES = (
    ((1, 1), (1, 1), (1, 1)), ((1, 1), (1, 1), (2, 2)),
    ((1, 1), (1, 2), (2, 1)), ((1, 1), (1, 2), (1, 2)),
    ((1, 1), (2, 1), (1, 2)), ((1, 1), (2, 2), (3, 3)),
    ((1, 1), (2, 3), (2, 3)), ((1, 1), (2, 3), (3, 2)),
    ((1, 2), (2, 3), (3, 1)), ((1, 2), (2, 3), (1, 3)),
    ((1, 2), (3, 2), (1, 3)), ((1, 2), (3, 1), (2, 3)),
)


def gamma_by_orbit_summation(images):
    """gamma_1..gamma_12 of the sum of the given orbit: the orbit sum is
    invariant, so its gamma_m coordinate is its entry at Q_m's
    representative."""
    out = []
    for rep in CLASS_REPRESENTATIVES:
        total = ZERO
        for image in images:
            total = q_add(total, image.get(rep, ZERO))
        out.append(total)
    return out


# -- multisets -------------------------------------------------------

def count_multisets(lengths, max_length):
    """Nonempty multisets of families with total length <= max_length,
    counted by the knapsack recurrence over exact totals."""
    ways = [1] + [0] * max_length
    for length in lengths.values():
        for total in range(length, max_length + 1):
            ways[total] += ways[total - length]
    return sum(ways[1:])


def enumerate_multisets(lengths, max_length):
    """The same multisets as sorted id tuples, in lexicographic order."""
    ids = sorted(lengths)
    out = []

    def extend(prefix, start, budget):
        for k in range(start, len(ids)):
            if lengths[ids[k]] <= budget:
                chosen = prefix + (ids[k],)
                out.append(chosen)
                extend(chosen, k, budget - lengths[ids[k]])

    extend((), 0, max_length)
    return out


# -- Brent systems ---------------------------------------------------

def generic_labels():
    """The 729 basis indices in equation order."""
    return list(itertools.product(itertools.product((1, 2, 3), repeat=2),
                                  repeat=3))


def matmul_support():
    return {((i, j), (j, k), (k, i))
            for i, j, k in itertools.product((1, 2, 3), repeat=3)}


def brent_variables(rank):
    return [f"{f}{t}_{r}{c}" for t in range(1, rank + 1) for f in "xyz"
            for r in (1, 2, 3) for c in (1, 2, 3)]


def generic_terms(label, rank):
    """The monomials x_t y_t z_t of the generic equation at an index."""
    (i1, j1), (i2, j2), (i3, j3) = label
    return [f"x{t}_{i1}{j1}*y{t}_{i2}{j2}*z{t}_{i3}{j3}"
            for t in range(1, rank + 1)]


def generic_system_json(rank):
    """The generic Brent system of a rank, in the system JSON schema."""
    target = matmul_support()
    equations = [{"label": [list(p) for p in label],
                  "lhs": " + ".join(generic_terms(label, rank)),
                  "rhs": "1" if label in target else "0"}
                 for label in generic_labels()]
    return json.dumps({"mode": "generic", "rank": rank,
                       "variables": brent_variables(rank),
                       "equations": equations}, indent=1) + "\n"


def trivial_assignment():
    """The rank-27 solution read off the definition of matrix
    multiplication: term (i, j, k) is e_ij (x) e_jk (x) e_ki."""
    out = {}
    for t, (i, j, k) in enumerate(itertools.product((1, 2, 3), repeat=3), 1):
        for f, pair in zip("xyz", ((i, j), (j, k), (k, i))):
            for r, c in itertools.product((1, 2, 3), repeat=2):
                out[f"{f}{t}_{r}{c}"] = int((r, c) == pair)
    return out


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a, b):
    """Product of Gaussian integers given as (re, im)."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gmat_mul(a, b):
    out = [[(0, 0)] * 3 for _ in range(3)]
    for r, c, k in itertools.product(range(3), repeat=3):
        out[r][c] = g_add(out[r][c], g_mul(a[r][k], b[k][c]))
    return out


def _unimodular_pair(rng):
    """A random Gaussian-integer matrix L U of determinant 1, for unit
    triangular L and U, and its inverse U^-1 L^-1, both without zero
    entries.  A unit triangular T = 1 + N has N^3 = 0, so
    T^-1 = 1 - N + N^2."""
    units = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)]

    def unit_triangular(lower):
        n = [[rng.choice(units) if (r > c if lower else r < c) else (0, 0)
              for c in range(3)] for r in range(3)]
        n2 = _gmat_mul(n, n)
        t = [[g_add(n[r][c], (int(r == c), 0)) for c in range(3)]
             for r in range(3)]
        t_inv = [[(int(r == c) - n[r][c][0] + n2[r][c][0],
                   -n[r][c][1] + n2[r][c][1]) for c in range(3)]
                 for r in range(3)]
        return t, t_inv
    while True:
        (l, l_inv), (u, u_inv) = unit_triangular(True), unit_triangular(False)
        m, m_inv = _gmat_mul(l, u), _gmat_mul(u_inv, l_inv)
        if all(v != (0, 0) for row in m + m_inv for v in row):
            return m, m_inv


def dense_solution(rng):
    """A dense rank-27 solution in Gaussian integers: the trivial one
    moved by the symmetry (x, y, z) -> (A x B^-1, B y C^-1, C z A^-1)
    of the matrix multiplication tensor, for random A, B, C of
    determinant 1.  No value is 0.  Maps each variable name to
    (re, im)."""
    (a, a_inv), (b, b_inv), (c, c_inv) = (_unimodular_pair(rng)
                                          for _ in range(3))
    out = {}
    for t, (i, j, k) in enumerate(itertools.product((0, 1, 2), repeat=3), 1):
        for f, left, (u, v), right in (("x", a, (i, j), b_inv),
                                       ("y", b, (j, k), c_inv),
                                       ("z", c, (k, i), a_inv)):
            # left e_uv right is the outer product of column u of left
            # and row v of right
            for r, col in itertools.product(range(3), repeat=2):
                out[f"{f}{t}_{r + 1}{col + 1}"] = g_mul(left[r][u],
                                                       right[v][col])
    return out


def brent_residual_labels(values, rank):
    """Labels, in equation order, where sum_t X_t (x) Y_t (x) Z_t differs
    from the matrix multiplication tensor.  values maps each variable
    name to a Gaussian integer (re, im)."""
    target = matmul_support()
    out = []
    for label in generic_labels():
        (i1, j1), (i2, j2), (i3, j3) = label
        total = (0, 0)
        for t in range(1, rank + 1):
            total = g_add(total, g_mul(g_mul(
                values[f"x{t}_{i1}{j1}"], values[f"y{t}_{i2}{j2}"]),
                values[f"z{t}_{i3}{j3}"]))
        if total != (int(label in target), 0):
            out.append(label)
    return out


def parse_m2(text):
    """(ring variables, [(lhs, rhs)]) of an exported Macaulay2 script."""
    variables, equations = None, []
    for line in text.splitlines():
        if line.startswith("R = K[") and line.endswith("];"):
            variables = [v.strip() for v in line[6:-2].split(",")]
            continue
        m = re.fullmatch(r"\s+\((.*)\) - \((.*)\),?", line)
        if m:
            equations.append((m.group(1), m.group(2)))
    return variables, equations
