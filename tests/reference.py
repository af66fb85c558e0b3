"""Slow references that the tests compare the fast code with.  The twisted
action straight from its definition, one element and one monomial at a time,
for the slice-action kernel and the twist identity; psi_k term by term, for
groupalg.psi_eval, and J_c multiplicativity from three j_c calls, for the
twist-map suite's table of basis images; the q-element identities and the
odd-level non-closure with every constant built per case, for the tables of
those two suites; and the thick subgroups found on the whole normal-subgroup
lattice of G(m,1,n), for groups.enumerate_thick, which searches only the
lattice of its quotient by the det-one torus."""

from math import factorial, lcm

from mystica.cyclo import Cyclotomic
from mystica.groupalg import GroupAlgebraElement, j_c, perm_act, q_w_element
from mystica.groups import CapExceededError, GroupTag, group_size_cap, make_gmpn, thick_family
from mystica.monomial import adjacent_swap, torus_gen
from mystica.qpoly import QMatrix, act_c, fundamental_invariants, phi_eval, qmul, slice_monomials


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


def reference_psi(a, k):
    """psi_k(a) term by term: one field product and one field sum per term,
    sum of coeff * zeta_N^(<e, k> mod N)."""
    if not a.is_torus_supported():
        raise ValueError("psi is defined on torus-supported elements only")
    out = Cyclotomic.zero(a.N)
    for g, v in a.terms.items():
        e = sum(ej * kj for ej, kj in zip(g.exps, k)) % a.N
        out = out + v * Cyclotomic.root(a.N, e)
    return out


def reference_j_c_multiplicative(c, a, b):
    """J_c(ab) = J_c(a) J_c(b), each side from its own j_c calls."""
    return j_c(c, a * b) == j_c(c, a) * j_c(c, b)


def reference_q_element_identities_hold(c, w, wp) -> bool:
    """Q_w^(c) Q_w^(1/c) = 1 and Q_(w'w)^(c) = w^-1(Q_w'^(c)) Q_w^(c), at N =
    12, every Q element and the inverse-law product built for this case."""
    n, N = len(w), 12
    qw = q_w_element(c, w, n, N)
    if qw * q_w_element(c.inverse(), w, n, N) != GroupAlgebraElement.one(n, N):
        return False
    winv = tuple(sorted(range(n), key=w.__getitem__))
    ww = tuple(wp[i] for i in w)
    return q_w_element(c, ww, n, N) == perm_act(winv, q_w_element(c, wp, n, N)) * qw


def reference_odd_level_nonclosed(m: int, p: int, n: int) -> bool:
    """At odd level m the generators of G(m,p,n) fix the first and the last
    fundamental invariant f, g, but not their q = -1 product; the invariants
    and the generators built for this case."""
    N, step = 4 * m, 4  # zeta_N^step = zeta_m
    polys = fundamental_invariants(m, p, n)
    f, g = polys[0], polys[-1]
    gens = [adjacent_swap(n, N, i) for i in range(1, n)]
    gens.append(torus_gen(n, N, 1, step) * torus_gen(n, N, 2, -step))
    gens.append(torus_gen(n, N, 1, p * step))
    if any(act_c(0, gen, f) != f or act_c(0, gen, g) != g for gen in gens):
        return False
    h = qmul(QMatrix.minus_one(n), f, g)
    return not all(act_c(0, gen, h) == h for gen in gens)


def reference_thick(m, n):
    """All thick subgroups of G(m,1,n), found by searching the ambient's
    lattice of normal subgroups as joins of conjugacy-class closures, each
    named by the member of thick_family with its element indices."""
    cap = group_size_cap()
    if m**n * factorial(n) > cap:
        raise CapExceededError(f"ambient order {m ** n * factorial(n)} exceeds cap {cap}")
    ig = make_gmpn(m, 1, n).indexed()
    # each member's ambient index set: block start plus row
    where = ig._where
    tags = {
        frozenset(where[perm][0] + where[perm][2][exps] for perm, rows in T.blocks() for exps in rows): T.tag
        for T in thick_family(m, n)
    }
    out = []
    for indices in ig.normal_subgroups():
        if len({ig.elems[i].perm for i in indices}) == factorial(n):
            out.append(ig.subgroup_from_indices(indices, tags.get(indices, GroupTag("generated"))))
    return sorted(out, key=lambda G: (G.order, [a.sort_key() for a in G.elements]))
