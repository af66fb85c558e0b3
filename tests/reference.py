"""The twisted action straight from its definition, one element and one
monomial at a time: the reference that the tests of the slice-action kernel
and of the twist identity compare operators with."""

from math import lcm

from mystica.cyclo import Cyclotomic
from mystica.qpoly import phi_eval, slice_monomials


def reference_cocycle(c, w, k, N):
    """(w(k), phi_w^(c)(k)) straight from the definition: phi_eval over the
    inversions of w, written in Q(zeta_L), L = lcm(N, ord c), the field of
    the operator entries."""
    n = len(w)
    scalar = Cyclotomic.one(lcm(N, c.order if isinstance(c, Cyclotomic) else 1))
    for i in range(n):
        for j in range(i + 1, n):
            if w[i] > w[j]:
                scalar = scalar * phi_eval(c, i, j, k)
    image = [0] * n
    for j in range(n):
        image[w[j]] = k[j]
    return tuple(image), scalar


def reference_torus(g, k):
    """prod_j t_(w(j))^(k_j) of g = t*w as powers of Cyclotomic.root."""
    scalar = Cyclotomic.one()
    for j in range(g.n):
        scalar = scalar * Cyclotomic.root(g.N, g.exps[g.perm[j]]) ** k[j]
    return scalar


def reference_action(c, g, k):
    """(w(k), scalar) of x^k under t*w straight from the definition."""
    image, scalar = reference_cocycle(c, g.perm, k, g.N)
    return image, scalar * reference_torus(g, k)


def reference_operator(terms, c, degree: int) -> dict:
    """(row, col) -> nonzero entry of sum coeff * rho_c(g) over the
    (element, coefficient) terms on the degree slice, each coefficient any
    field element, each action from reference_action."""
    want = {}
    for g, coeff in terms:
        basis = slice_monomials(g.n, degree)
        for col, k in enumerate(basis):
            image, scalar = reference_action(c, g, k)
            key = (basis.index(image), col)
            want[key] = want[key] + coeff * scalar if key in want else coeff * scalar
    return {key: v for key, v in want.items() if not v.is_zero()}
