"""Independent oracles shared by the test modules.

Everything here is computed from first principles, separately from the
library code paths it checks: a literal 5x5 matrix model for brackets, the
closed-form coefficient tables of the orthonormal frame, the
closed-form Ricci entries, and the reduced Ledger equations written out.
"""

import math

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


def sample_params(rng: np.random.Generator, k_min: float = 0.1) -> MetricParams:
    """Random admissible parameters with t, v, w in [0.5, 2] and K >= k_min."""
    while True:
        t, v, w = rng.uniform(0.5, 2.0, 3)
        u = rng.uniform(-2.0 * t * t, 2.0 * t * t)
        p = MetricParams(t, u, v, w)
        if p.k_squared >= k_min * k_min:
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
    k2 = p.k_squared
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


def expected_ricci_matrix(p: MetricParams) -> np.ndarray:
    e = expected_ricci_entries(p)
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
    t2, v2, w2, k2 = p.t * p.t, p.v * p.v, p.w * p.w, p.k_squared
    k, vw, h = sqrt(k2), p.v * p.w, p.u / (2 * p.t)
    return [
        [(v2 - w2, e["r11"]), (w2 - t2, e["r55"]), (t2 - v2, e["r77"]), (h * (w2 - v2) / k, e["r14"])],
        [(-h, e["r55"]), (h, e["r77"]), ((v2 - w2) / k, e["r14"])],
        [(h * (v2 - w2) / (vw * k), e["r33"]), (h * p.w / (p.v * k), e["r55"]),
         (-(v2 - w2) / vw, e["r14"]), (-h * p.v / (p.w * k), e["r77"])],
        [(v2 - w2, e["r33"]), (w2 - k2, e["r55"]), (k2 - v2, e["r77"])],
    ]


def unonzero_closed_form_v2(s: float) -> float:
    """Closed form for v^2/t^2 on the u-nonzero solution branch."""
    return (-16 * s + 6 * s * s - math.sqrt(2 * s * (32 + 12 * s - 33 * s * s + 9 * s ** 3))) / (
        -32 + 12 * s
    )
