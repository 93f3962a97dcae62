"""Independent oracles shared by the test modules.

Everything here is computed from first principles, separately from the
library code paths it checks: a literal 5x5 matrix model for brackets, the
closed-form coefficient tables of the orthonormal frame, the
closed-form Ricci entries, the reduced Ledger equations written out, the
Ricci eigenvalues of the root-space frame, the singular values of U's rows,
max|L| in closed form, the adapted tables as a generic change of basis,
the Ledger determinants with their partials and backward error, the
Cholesky reading of a Gram matrix, the relative
spread of the x_k and the unit-scale x_k, and the graded Lie algebra
checks and serialization written densely, entry by entry.  The closed
forms take any numbers with the arithmetic of floats: evaluated at
:func:`exact_point` they are exact to 50 digits.
"""

import itertools
import math
import types

import mpmath
import numpy as np

from zksym import MetricParams

# (row, col) of the +1 coefficient of each basis element, read off the
# displayed parametrization of so(5)
SO5_LAYOUT = {
    "X1": (0, 1),
    "X2": (2, 3),
    "A1": (0, 2),
    "A2": (0, 3),
    "A3": (1, 2),
    "A4": (1, 3),
    "B1": (0, 4),
    "B2": (1, 4),
    "C1": (2, 4),
    "C2": (3, 4),
}
SO5_ORDER = ("X1", "X2", "A1", "A2", "A3", "A4", "B1", "B2", "C1", "C2")


def skew_unit(name: str) -> np.ndarray:
    row, col = SO5_LAYOUT[name]
    m = np.zeros((5, 5))
    m[row, col] = 1.0
    m[col, row] = -1.0
    return m


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def coords_from_matrix(m: np.ndarray) -> np.ndarray:
    """Coordinates of a skew 5x5 matrix in basis order, read entry by entry."""
    return np.array([m[SO5_LAYOUT[name]] for name in SO5_ORDER])


def structure_constants() -> np.ndarray:
    """c[i, j, k]: coordinate k of [e_i, e_j], from the matrix commutators, in basis order."""
    mats = [skew_unit(name) for name in SO5_ORDER]
    c = np.array([[coords_from_matrix(commutator(a, b)) for b in mats] for a in mats])
    return c.astype(int)


def exact_point(p: MetricParams) -> types.SimpleNamespace:
    """The binary values of p's parameters, with K^2 and K, at 50 digits: an argument for the closed forms below."""
    with mpmath.workdps(50):
        t, u, v, w = (mpmath.mpf(x) for x in (p.t, p.u, p.v, p.w))
        k2 = t * t - u * u / (4 * t * t)
        return types.SimpleNamespace(t=t, u=u, v=v, w=w, k_squared=k2, K=mpmath.sqrt(k2))


def k_squared(p) -> float:
    """K^2 = x1 x2 / t^2 without any guard: for a MetricParams formed at the unit scale from its ``unit_scalars``,
    as the guard of ``MetricParams.K`` quotes it; for anything else, such as :func:`exact_point`, its k_squared."""
    if not isinstance(p, MetricParams):
        return p.k_squared
    e, (y1, y2, _, _) = p.unit_scalars
    scale = math.ldexp(1.0, e)
    tau = p.t / scale
    return y1 * y2 / (tau * tau) * scale * scale


def sample_params(rng: np.random.Generator, k_min: float = 0.1) -> MetricParams:
    """Random admissible parameters with t, v, w in [0.5, 2] and K >= k_min."""
    while True:
        t, v, w = rng.uniform(0.5, 2.0, 3)
        u = rng.uniform(-2.0 * t * t, 2.0 * t * t)
        p = MetricParams(t, u, v, w)
        if k_squared(p) >= k_min * k_min:
            return p


# ----------------------------------------------------------------------
# closed-form tables in the orthonormal frame, order (A~1..A~4, B~1, B~2, C~1, C~2)
# ----------------------------------------------------------------------

def expected_bracket_table(p: MetricParams) -> np.ndarray:
    t, u, v, w = p.t, p.u, p.v, p.w
    K = p.K
    tab = np.zeros((8, 8, 8))

    def put(i, j, k, c):
        tab[i, j, k] = c
        tab[j, i, k] = -c

    a1, a2, a3, a4, b1, b2, c1, c2 = range(8)
    put(a1, b1, c1, -w / (t * v))
    put(a1, c1, b1, v / (t * w))
    put(a2, b1, c2, -w / (t * v))
    put(a2, c2, b1, v / (t * w))
    put(a3, b1, c2, -u * w / (2 * t * t * v * K))
    put(a3, b2, c1, -w / (K * v))
    put(a3, c1, b2, v / (K * w))
    put(a3, c2, b1, u * v / (2 * t * t * w * K))
    put(a4, b1, c1, u * w / (2 * t * t * v * K))
    put(a4, b2, c2, -w / (K * v))
    put(a4, c1, b1, -u * v / (2 * t * t * w * K))
    put(a4, c2, b2, v / (K * w))
    put(b1, c1, a1, -t / (v * w))
    put(b1, c2, a2, -t / (v * w))
    put(b2, c1, a2, u / (2 * v * w * t))
    put(b2, c1, a3, -K / (v * w))
    put(b2, c2, a1, -u / (2 * v * w * t))
    put(b2, c2, a4, -K / (v * w))
    return tab


def expected_u_table(p: MetricParams) -> np.ndarray:
    """Coefficient table of U on frame pairs.

    The two mixed coefficients of the (B~1, C~i) entries carry the signs
    forced by the defining equation 2B(U(X,Y),Z) = B(X,[Z,Y]_m) + B([Z,X]_m,Y)
    applied to the bracket table: -u(v^2-w^2)/(4t^2vwK) on A~4 and
    +u(v^2-w^2)/(4t^2vwK) on A~3.
    """
    t, u, v, w = p.t, p.u, p.v, p.w
    K = p.K
    K2 = K * K
    t2, v2, w2 = t * t, v * v, w * w
    tab = np.zeros((8, 8, 8))

    def put(i, j, k, c):
        tab[i, j, k] = c
        tab[j, i, k] = c

    a1, a2, a3, a4, b1, b2, c1, c2 = range(8)
    put(a1, b1, c1, (t2 - v2) / (2 * t * v * w))
    put(a1, b2, c2, u / (4 * v * w * t))
    put(a1, c1, b1, (-t2 + w2) / (2 * t * v * w))
    put(a1, c2, b2, -u / (4 * v * w * t))
    put(a2, b1, c2, (t2 - v2) / (2 * t * v * w))
    put(a2, b2, c1, -u / (4 * v * w * t))
    put(a2, c1, b2, u / (4 * v * w * t))
    put(a2, c2, b1, (-t2 + w2) / (2 * t * v * w))
    put(a3, b1, c2, -u * v / (4 * t2 * w * K))
    put(a3, b2, c1, (K2 - v2) / (2 * K * v * w))
    put(a3, c1, b2, (-K2 + w2) / (2 * K * v * w))
    put(a3, c2, b1, u * w / (4 * t2 * v * K))
    put(a4, b1, c1, u * v / (4 * t2 * w * K))
    put(a4, b2, c2, (K2 - v2) / (2 * K * v * w))
    put(a4, c1, b1, -u * w / (4 * t2 * v * K))
    put(a4, c2, b2, (-K2 + w2) / (2 * K * v * w))
    put(b1, c1, a1, (v2 - w2) / (2 * v * w * t))
    put(b1, c1, a4, -u * (v2 - w2) / (4 * t2 * v * w * K))
    put(b1, c2, a2, (v2 - w2) / (2 * v * w * t))
    put(b1, c2, a3, u * (v2 - w2) / (4 * t2 * v * w * K))
    put(b2, c1, a3, (v2 - w2) / (2 * v * w * K))
    put(b2, c2, a4, (v2 - w2) / (2 * v * w * K))
    return tab


# ----------------------------------------------------------------------
# closed-form Ricci entries
# ----------------------------------------------------------------------

def expected_ricci_entries(p, sqrt=math.sqrt) -> dict:
    """The five entry families (r11=r22, r14=-r23, r33=r44, r55=r66, r77=r88).

    ``p`` is a MetricParams or anything with its attributes t, u, v, w and
    k_squared, such as sympy expressions; ``sqrt`` takes K from k_squared
    and must suit those values.
    """
    t, u, v, w = p.t, p.u, p.v, p.w
    k2 = k_squared(p)
    k = sqrt(k2)
    t2, v2, w2 = t * t, v * v, w * w
    t4, u2 = t2 * t2, u * u
    q = v2 * v2 - 6 * v2 * w2 + w2 * w2
    return {
        "r11": (4 * t4 + u2 - 4 * q) / (8 * t2 * v2 * w2),
        "r14": u * (k2 * t2 + q) / (4 * k * t * t2 * v2 * w2),
        "r33": ((4 * t4 - u2) ** 2 - 4 * q * (u2 + 4 * t4)) / (8 * t2 * (4 * t4 - u2) * v2 * w2),
        "r55": (-4 * t4 * t2 + 12 * t4 * w2 + t2 * (u2 + 4 * v2 * v2 - 4 * w2 * w2) - 3 * u2 * w2)
        / ((4 * t4 - u2) * v2 * w2),
        "r77": (-4 * t4 * t2 + 12 * t4 * v2 + t2 * (u2 - 4 * v2 * v2 + 4 * w2 * w2) - 3 * u2 * v2)
        / ((4 * t4 - u2) * v2 * w2),
    }


def expected_ricci_matrix(p, sqrt=math.sqrt) -> np.ndarray:
    e = expected_ricci_entries(p, sqrt)
    rho = np.zeros((8, 8))
    rho[0, 0] = rho[1, 1] = e["r11"]
    rho[2, 2] = rho[3, 3] = e["r33"]
    rho[4, 4] = rho[5, 5] = e["r55"]
    rho[6, 6] = rho[7, 7] = e["r77"]
    rho[0, 3] = rho[3, 0] = e["r14"]
    rho[1, 2] = rho[2, 1] = -e["r14"]
    return rho


def expected_reduced_terms(p, sqrt=math.sqrt) -> list[list[tuple]]:
    """The four reduced Ledger equations written out term by term.

    Each term is a (coefficient, closed-form Ricci entry) pair; an equation's
    value is the sum of its products.  ``p`` and ``sqrt`` are as for
    :func:`expected_ricci_entries`.
    """
    e = expected_ricci_entries(p, sqrt)
    t2, v2, w2, k2 = p.t * p.t, p.v * p.v, p.w * p.w, k_squared(p)
    k, vw, h = sqrt(k2), p.v * p.w, p.u / (2 * p.t)
    return [
        [(v2 - w2, e["r11"]), (w2 - t2, e["r55"]), (t2 - v2, e["r77"]), (h * (w2 - v2) / k, e["r14"])],
        [(-h, e["r55"]), (h, e["r77"]), ((v2 - w2) / k, e["r14"])],
        [(h * (v2 - w2) / (vw * k), e["r33"]), (h * p.w / (p.v * k), e["r55"]),
         (-(v2 - w2) / vw, e["r14"]), (-h * p.v / (p.w * k), e["r77"])],
        [(v2 - w2, e["r33"]), (w2 - k2, e["r55"]), (k2 - v2, e["r77"])],
    ]


def ledger_rows(t, v, w, k) -> dict:
    """The frame triples i <= j <= m where L can be nonzero: the reduced equation each carries, and its factor.

    ``tests/test_symbolic.py`` proves that L is zero off them and factor
    times the equation on them.
    """
    return {
        (0, 4, 6): (0, -1 / (t * v * w)),
        (1, 4, 7): (0, -1 / (t * v * w)),
        (0, 5, 7): (1, -1 / (v * w)),
        (1, 5, 6): (1, 1 / (v * w)),
        (2, 4, 7): (2, -1 / t),
        (3, 4, 6): (2, 1 / t),
        (2, 5, 6): (3, -1 / (k * v * w)),
        (3, 5, 7): (3, -1 / (k * v * w)),
    }


def expected_ledger_table(p, sqrt=math.sqrt) -> np.ndarray:
    """The first Ledger form on all frame triples, from the reduced equations; ``p`` and ``sqrt`` as above."""
    equations = [sum(c * r for c, r in terms) for terms in expected_reduced_terms(p, sqrt)]
    tab = np.zeros((8, 8, 8))
    for triple, (row, factor) in ledger_rows(p.t, p.v, p.w, sqrt(k_squared(p))).items():
        for i, j, m in itertools.permutations(triple):
            tab[i, j, m] = factor * equations[row]
    return tab


def expected_root_ricci(x1, x2, x3, x4) -> tuple:
    """The Ricci eigenvalues r1..r4 on the four root spaces, for x = (t^2 + u/2, t^2 - u/2, v^2, w^2)."""
    return (
        (x1 * x1 - x3 * x3 + 6 * x3 * x4 - x4 * x4) / (2 * x1 * x3 * x4),
        (x2 * x2 - x3 * x3 + 6 * x3 * x4 - x4 * x4) / (2 * x2 * x3 * x4),
        -(x1 * x1 * x2 + x1 * x2 * x2 - 6 * x1 * x2 * x4 - (x1 + x2) * (x3 * x3 - x4 * x4)) / (2 * x1 * x2 * x3 * x4),
        -(x1 * x1 * x2 + x1 * x2 * x2 - 6 * x1 * x2 * x3 + (x1 + x2) * (x3 * x3 - x4 * x4)) / (2 * x1 * x2 * x3 * x4),
    )


def ledger_determinants(x1, x2, x3, x4) -> list[tuple]:
    """Per alpha = 1, 2: D_alpha = (x4 - x3) Q_alpha / (2 x1 x2 x3 x4) and its terms x_k dD_alpha/dx_k for k = alpha,
    beta, 3, 4, from the partials of the polynomial Q_alpha written out (``tests/test_symbolic.py`` checks them)."""
    out = []
    for a, b in ((x1, x2), (x2, x1)):
        g, den = x3 + x4, 2 * x1 * x2 * x3 * x4
        q = a * (g - a) ** 2 + 8 * b * (a - x3) * (a - x4) - a * (a * a - b * b)
        dq = ((g - a) ** 2 - 2 * a * (g - a) + 8 * b * (2 * a - g) - 3 * a * a + b * b,
              8 * (a - x3) * (a - x4) + 2 * a * b, 2 * a * (g - a) - 8 * b * (a - x4),
              2 * a * (g - a) - 8 * b * (a - x3))
        d = (x4 - x3) * q / den  # x_k d(1/den)/dx_k = -1/den, and d(x4 - x3)/dx_k = 0, 0, -1, 1
        terms = [x * ((x4 - x3) * dk + sign * q) / den - d for x, dk, sign in zip((a, b, x3, x4), dq, (0, 0, -1, 1))]
        out.append((d, terms))
    return out


def backward_error(x1, x2, x3, x4, dps: int = 60) -> list:
    """eta_alpha = |D_alpha| / sum_k |x_k dD_alpha/dx_k| per alpha at ``dps`` digits, 0 where D_alpha = 0: the least
    relative move of x that reaches D_alpha = 0, to first order."""
    with mpmath.workdps(dps):
        terms = ledger_determinants(*map(mpmath.mpf, (x1, x2, x3, x4)))
        return [abs(d) / sum(map(abs, ts)) if d else mpmath.mpf(0) for d, ts in terms]


def module_singular_values(ratios) -> list[float]:
    """The singular values of U's rows U[i, j, :] (i <= j), one per module A1, A2, B, C, each twice, from the
    ratios a1, a2, b1, b2, c1, c2 of the root frame, sqrt(x_a / (x3 x4)), sqrt(x3 / (x_a x4)), sqrt(x4 / (x_a x3))
    for a = 1, 2: the Gram matrix of the rows is sigma_k^2 I_2 on module k, 1/4 the sum of U[i, j, k']^2 over i, j
    and the k' of the module (``tests/test_symbolic.py``)."""
    a1, a2, b1, b2, c1, c2 = ratios
    return [0.5 * abs(b1 - c1), 0.5 * abs(b2 - c2), 0.5 * math.hypot(c1 - a1, c2 - a2),
            0.5 * math.hypot(b1 - a1, b2 - a2)]


def ledger_max(c: float, s: float, lam1: float, lam2: float) -> float:
    """max |L| over the adapted frame triples without the table, from c, s = sqrt(x1, x2 / 2t^2) and the root frame
    lam_alpha: up to sign the entries are c l1 +- s l2 and s l1 +- c l2, l_alpha = |lam_alpha| / sqrt 2 = |L| on the
    root triples of alpha, products then a sum as the table forms them."""
    l1, l2 = math.sqrt(0.5) * abs(lam1), math.sqrt(0.5) * abs(lam2)
    return max(abs(c * l1 - s * l2), abs(c * l1 + s * l2), abs(s * l1 + c * l2), abs(s * l1 - c * l2))


def adapted_table(geo, name: str, index) -> dict[int, float]:
    """The root frame support values ``name`` of a geometry, on the slots ``index``, in the adapted frame as a generic
    change of basis: row a of Q is root frame vector a in the adapted frame, and each value times Q's rows at its
    three indices is summed over ``itertools.product`` from 0.0, each product rounded once.  {slot: value} in C order."""
    (c, s), p = geo._cos_sin, geo.params
    ct, st, sv, sw = math.copysign(c, p.t), math.copysign(s, p.t), math.copysign(1.0, p.v), math.copysign(1.0, p.w)
    q = [[(0, ct), (3, s)], [(1, ct), (2, -s)], [(0, st), (3, -c)], [(1, st), (2, c)],
         [(4, sv)], [(5, sv)], [(6, sw)], [(7, sw)]]
    table = {}
    for slot, x in zip(index, getattr(geo, name)):
        for (i, qi), (j, qj), (k, qk) in itertools.product(q[slot // 64], q[slot // 8 % 8], q[slot % 8]):
            table[64 * i + 8 * j + k] = table.get(64 * i + 8 * j + k, 0.0) + x * qi * qj * qk
    return dict(sorted(table.items()))


def cholesky_params(gram: np.ndarray) -> MetricParams:
    """A Gram matrix read as its parameters through its Cholesky factor g = L L^T: (L00, 2 g30, L44, L66)."""
    low = np.linalg.cholesky(gram)
    return MetricParams(low[0, 0], 2.0 * float(gram[3, 0]), low[4, 4], low[6, 6])


def spread(p: MetricParams, modules: str):
    """eps_J = (max - min) / (max + min) of the x_k, k in ``modules`` (digits of 1234: A1, A2, B, C), at 50 digits
    from the binary parameters: the least relative move of each x_k that makes them equal."""
    e = exact_point(p)
    with mpmath.workdps(50):
        x = (e.t * e.t + e.u / 2, e.t * e.t - e.u / 2, e.v * e.v, e.w * e.w)
        xs = [x[int(k) - 1] for k in modules]
        return (max(xs) - min(xs)) / (max(xs) + min(xs))


def unit_scalars(t: float, u: float, v: float, w: float) -> tuple[int, tuple[float, float, float, float]]:
    """(e, y) of ``MetricParams.unit_scalars`` by the formula the library used when it was a cached property:
    2^e <= |t| < 2^(e+1) and y = x / 4^e, from the exact square of tau = t / 2^e by Dekker's split."""
    e = math.frexp(t)[1] - 1
    p = math.ldexp(1.0, e)
    tau, half_u, v, w = t / p, u / p / (2.0 * p), v / p, w / p
    hi = tau * 134217729.0
    hi -= hi - tau
    lo, tt = tau - hi, tau * tau
    error = ((hi * hi - tt) + 2.0 * hi * lo) + lo * lo
    return e, ((tt + half_u) + error, (tt - half_u) + error, v * v, w * w)


def unonzero_closed_form_v2(s: float) -> float:
    """Closed form for v^2/t^2 on the u-nonzero solution branch."""
    return (-16 * s + 6 * s * s - math.sqrt(2 * s * (32 + 12 * s - 33 * s * s + 9 * s ** 3))) / (
        -32 + 12 * s
    )


# ----------------------------------------------------------------------
# graded Lie algebras: the dense checks and the entry-by-entry serialization
# ----------------------------------------------------------------------

def dense_validate(structure, grading, tol: float) -> tuple:
    """Antisymmetry, Jacobi and closure triples, then the max antisymmetry and Jacobi residuals.

    Every residual is formed and every triple scanned: the three Jacobi terms
    are transposes of one contraction, summed through strided views.
    """
    c = np.asarray(structure, dtype=float)
    idx = np.arange(c.shape[0])
    anti = c + c.transpose(1, 0, 2)
    upper = (idx[:, None] <= idx[None, :])[:, :, None]
    c2 = np.tensordot(c, c, (2, 0))  # c2[i, j, l, k] = sum_m c[i, j, m] c[m, l, k]
    jac = c2 + c2.transpose(1, 2, 0, 3) + c2.transpose(2, 0, 1, 3)
    increasing = (idx[:, None, None] < idx[None, :, None]) & (idx[None, :, None] < idx[None, None, :])
    code = np.array([sum(int(b) << pos for pos, b in enumerate(lab.bits)) for lab in grading])
    off_target = (code[:, None] ^ code[None, :])[:, :, None] != code[None, None, :]

    def triples(mask):
        return tuple(tuple(r) for r in np.argwhere(mask).tolist())

    return (
        triples((np.abs(anti) > tol) & upper),
        triples(~(np.max(np.abs(jac), axis=3) <= tol) & increasing),  # an inf or NaN residual is a violation
        triples((np.abs(c) > tol) & off_target),
        float(np.max(np.abs(anti))),
        float(np.max(np.abs(jac))),
    )


def structure_from_rows(n: int, rows) -> np.ndarray:
    """The (n, n, n) tensor of (i, j, k, value) rows written one at a time, so a repeated index keeps its last value."""
    c = np.zeros((n, n, n))
    for i, j, k, value in rows:
        c[i, j, k] = float(value)
    return c


def rows_from_structure(c: np.ndarray) -> list:
    """The nonzero constants as [i, j, k, value] rows of Python numbers, read entry by entry in index order."""
    return [[int(i), int(j), int(k), float(c[i, j, k])] for i, j, k in np.argwhere(c != 0.0)]
