"""Desk-scale verification grids.

Each check function walks one family of parameter cells and returns one
result per cell, so reports stay machine-readable at full granularity.  The
command line's verify-all subcommand and the acceptance test suite both run
through these functions; grids default to the largest desk-scale bounds and
can be narrowed through the config.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import NamedTuple

from .cyclo import Cyclotomic, cyc_make
from .groupalg import GroupAlgebraElement, j_c, perm_act, psi_eval, q_w_element
from .groups import FiniteMonomialGroup, GroupTag, enumerate_thick, group_size_cap, make_gmpn, make_w, mu_group, thick_family
from .monomial import MonomialElement, adjacent_swap, central_scalar, perm_apply, perm_sign, torus_gen
from .mystic import (
    faithfulness_saturation_degree,
    group_ring_iso_check,
    mystic_equiv_check,
    unique_equivalent_thick,
)
from .classify import ISO_CAP, certified_isomorphic, isomorphic, regular_singular
from .qpoly import (
    QMatrix,
    act_c,
    commute_check,
    default_truncation_degree,
    fundamental_invariants,
    hilbert_free,
    invariant_degrees,
    invariant_dimension,
    phi_w_eval,
    qform_bracket,
    qmul,
    slice_monomials,
)


class CheckResult(NamedTuple):
    check: str
    params: dict
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        out = {"check": self.check, "params": self.params, "pass": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


# check name -> (largest m, largest n, extra G(m,p,n) cells) of its grid
GRIDS = {
    "orders-grid": (6, 4, ()),
    "counterpart-grid": (6, 3, ()),
    "invariant-dimensions": (6, 3, ()),
    "group-ring-change-of-basis": (6, 3, ()),
    "isomorphism-parity": (4, 4, ()),
    "thick-enumeration": (4, 3, ()),
    "classification-grid": (4, 4, ()),
    "singular-list": (4, 4, ()),
    "operator-independence": (4, 3, ((1, 1, 4),)),
}

# criterion 7 pairs a thick subgroup with those of higher rank up to this level
CROSS_RANK_MAX_M = 2

class VerifyConfig(NamedTuple):
    """Bounds for the verification run: max_m and max_n narrow every
    check's grid in GRIDS."""

    max_m: int = 6
    max_n: int = 4
    degree: int | None = None  # overrides the per-cell truncation degree

    def bounds(self, check: str) -> tuple[int, int]:
        """(max_m, max_n) of the check's grid, narrowed by the config."""
        max_m, max_n, _ = GRIDS[check]
        return min(self.max_m, max_m), min(self.max_n, max_n)


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


# -- 1: orders ----------------------------------------------------------


def check_orders(cfg: VerifyConfig) -> list[CheckResult]:
    out = []
    max_m, max_n = cfg.bounds("orders-grid")
    for m in range(1, max_m + 1):
        for n in range(2, max_n + 1):
            for p in _divisors(m):
                got = make_gmpn(m, p, n).order
                want = m**n * factorial(n) // p
                out.append(
                    CheckResult(
                        "orders-grid",
                        {"m": m, "p": p, "n": n},
                        got == want,
                        f"order {got}, formula {want}",
                    )
                )
    return out


# -- 2: the counterpart construction and operator equivalence -----------


def _even_m_cells(cfg: VerifyConfig, check: str):
    max_m, max_n = cfg.bounds(check)
    for m in range(2, max_m + 1, 2):
        for n in range(2, max_n + 1):
            for p in _divisors(m):
                yield m, p, n


def _counterpart_by_products(G: FiniteMonomialGroup) -> FiniteMonomialGroup:
    """The paper's counterpart {w t_1^(det w) t : w in S_n, t in T} of a
    torus-filtered group, built from MonomialElement products."""
    n, N = G.n, G.N
    torus = G.torus_elements()
    elems = []
    for w in sorted({g.perm for g in G.elements}):
        w_elem = MonomialElement(n, N, w, (0,) * n)
        twist = MonomialElement(n, N, tuple(range(n)), (N // 2 if perm_sign(w) == -1 else 0,) + (0,) * (n - 1))
        elems.extend(w_elem * twist * t for t in torus)
    return FiniteMonomialGroup(n, N, elems)


def check_counterpart_equivalence(cfg: VerifyConfig) -> list[CheckResult]:
    out = []
    thick: dict = {}  # (m, n) -> thick_family(m, n), shared by the cells of every p
    for m, p, n in _even_m_cells(cfg, "counterpart-grid"):
        G = make_gmpn(m, p, n)
        mu = mu_group(G)
        out.append(
            CheckResult(
                "counterpart-set",
                {"m": m, "p": p, "n": n},
                _counterpart_by_products(G) == mu,
                f"|mu|={mu.order}",
            )
        )
        D = default_truncation_degree(m, p, n) if cfg.degree is None else cfg.degree
        report = mystic_equiv_check(G, 0, mu, 1, D)
        out.append(
            CheckResult(
                "operator-equivalence",
                {"m": m, "p": p, "n": n, "D": D},
                report.verdict,
                "per-degree " + "".join("1" if f else "0" for f in report.per_degree),
            )
        )
        if (m, n) not in thick:
            thick[m, n] = thick_family(m, n)
        matches = unique_equivalent_thick(G, D, thick[m, n])
        unique = len(matches) == 1 and matches[0] == mu
        out.append(
            CheckResult(
                "uniqueness-scan",
                {"m": m, "p": p, "n": n, "D": D},
                unique,
                f"matches: {[T.tag.label for T in matches]}",
            )
        )
    return out


# -- 3: invariants ---------------------------------------------------------


def check_invariant_dimensions(cfg: VerifyConfig) -> list[CheckResult]:
    out = []
    for m, p, n in _even_m_cells(cfg, "invariant-dimensions"):
        G = make_gmpn(m, p, n)
        mu = mu_group(G)
        D = default_truncation_degree(m, p, n) if cfg.degree is None else cfg.degree
        polys = fundamental_invariants(m, p, n)
        out.append(
            CheckResult(
                "generators-commute",
                {"m": m, "p": p, "n": n},
                commute_check(QMatrix.minus_one(n), polys),
            )
        )
        series = hilbert_free(invariant_degrees(m, p, n), D)
        plus_ok = all(invariant_dimension(G, 0, d) == series[d] for d in range(D + 1))
        minus_ok = all(invariant_dimension(mu, 1, d) == series[d] for d in range(D + 1))
        out.append(
            CheckResult(
                "dimension-series",
                {"m": m, "p": p, "n": n, "D": D},
                plus_ok and minus_ok,
                f"untwisted {plus_ok}, twisted {minus_ok}",
            )
        )
    return out


# -- 4: the group ring change of basis -----------------------------------


def check_group_ring(cfg: VerifyConfig) -> list[CheckResult]:
    out = []
    for m, p, n in _even_m_cells(cfg, "group-ring-change-of-basis"):
        report = group_ring_iso_check(make_gmpn(m, p, n))
        out.append(
            CheckResult(
                "group-ring-change-of-basis",
                {"m": m, "p": p, "n": n},
                report.passed,
                f"|G|={report.order}",
            )
        )
    return out


# -- 5: abstract isomorphism parity --------------------------------------


def _prediction(check: str, params: dict, predicted: bool, computed: bool) -> CheckResult:
    return CheckResult(check, params, predicted == computed, f"predicted {predicted}, computed {computed}")


def check_isomorphism_parity(cfg: VerifyConfig) -> list[CheckResult]:
    """Each group against its counterpart: not isomorphic exactly when n is
    even and m/p is odd.  Each cell is decided by certified_isomorphic: the
    sign twist or the order histogram, read off the blocks, and the search
    only where neither decides."""
    out = []
    for m, p, n in _even_m_cells(cfg, "isomorphism-parity"):
        G = make_gmpn(m, p, n)
        if G.order > ISO_CAP:
            continue
        predicted = not (n % 2 == 0 and (m // p) % 2 == 1)
        computed = certified_isomorphic(G, mu_group(G)).isomorphic
        out.append(_prediction("isomorphism-parity", {"m": m, "p": p, "n": n}, predicted, computed))
    return out


# -- 6: thick enumeration -------------------------------------------------


def predicted_thick_family(m: int, n: int) -> set[FiniteMonomialGroup]:
    family = {make_gmpn(m, p, n) for p in _divisors(m)}
    if m % 2 == 0:
        family |= {make_w(m, d, n) for d in _divisors(m)}
    return family


def check_thick_enumeration(cfg: VerifyConfig) -> list[CheckResult]:
    out = []
    max_m, max_n = cfg.bounds("thick-enumeration")
    for m in range(1, max_m + 1):
        for n in range(2, max_n + 1):
            found = set(enumerate_thick(m, n))
            predicted = predicted_thick_family(m, n)
            extra = sorted(g.tag.label for g in found - predicted)
            missing = sorted(g.tag.label for g in predicted - found)
            out.append(
                CheckResult(
                    "thick-enumeration",
                    {"m": m, "n": n},
                    found == predicted,
                    f"found {len(found)}, predicted {len(predicted)}"
                    + (f", extra {extra}" if extra else "")
                    + (f", missing {missing}" if missing else ""),
                )
            )
    return out


# -- 7: classification grid -------------------------------------------------


def _pair_predicted_isomorphic(G: FiniteMonomialGroup, H: FiniteMonomialGroup) -> bool:
    """The classification's prediction for a pair of distinct thick subgroups."""
    tg, th = G.tag, H.tag
    if G.n == H.n:
        n = G.n
        if n % 2 == 0:
            return False
        pair = {tg.kind: tg.params, th.kind: th.params}
        if set(pair) != {"G", "W"}:
            return False
        m, p, _ = pair["G"]
        mw, d, _ = pair["W"]
        return m == mw and m % 2 == 0 and d == m // p and (m // p) % 2 == 1
    low, high = (G, H) if G.n < H.n else (H, G)
    if high.tag != GroupTag("G", (1, 1, 4)):
        return False
    return low.tag in (GroupTag("G", (2, 2, 3)), GroupTag("W", (2, 1, 3)))


def thick_atlas(max_m: int, max_n: int) -> list[tuple[int, FiniteMonomialGroup]]:
    """(m, T) for every thick subgroup T of G(m,1,n), m <= max_m and
    2 <= n <= max_n, sorted by (n, order, label).  Levels and ranks whose
    ambient G(m,1,n) exceeds group_size_cap() are left out.  No group occurs
    at two levels: the entries of a thick subgroup of G(m,1,n) generate
    exactly mu_m."""
    cap = group_size_cap()
    atlas = [
        (m, T)
        for m in range(1, max_m + 1)
        for n in range(2, max_n + 1)
        if m**n * factorial(n) <= cap
        for T in thick_family(m, n)
    ]
    return sorted(atlas, key=lambda entry: (entry[1].n, entry[1].order, entry[1].tag.label))


def check_classification(cfg: VerifyConfig) -> list[CheckResult]:
    """Pairwise isomorphism of the thick subgroups of order up to ISO_CAP
    against the classification: every same-rank pair of equal order, then
    every pair with a higher-rank partner of level up to CROSS_RANK_MAX_M."""
    atlas = [(m, T) for m, T in thick_atlas(*cfg.bounds("classification-grid")) if T.order <= ISO_CAP]
    out = []
    for i, (_, G) in enumerate(atlas):
        for _, H in atlas[i + 1 :]:
            if G.n == H.n and G.order == H.order:
                params = {"left": G.tag.label, "right": H.tag.label, "n": G.n}
                out.append(_prediction("classification-grid", params, _pair_predicted_isomorphic(G, H), isomorphic(G, H)))
    partners = [H for m, H in atlas if m <= CROSS_RANK_MAX_M]
    for _, G in atlas:
        for H in partners:
            if G.n < H.n and G.order == H.order:
                params = {"left": G.tag.label, "right": H.tag.label, "n": G.n, "n2": H.n}
                out.append(_prediction("classification-grid", params, _pair_predicted_isomorphic(G, H), isomorphic(G, H)))
    return out


# -- 8: the singular list ----------------------------------------------------


EXPECTED_SINGULAR = (
    GroupTag("G", (1, 1, 2)),
    GroupTag("G", (1, 1, 3)),
    GroupTag("G", (1, 1, 4)),
    GroupTag("G", (2, 1, 2)),
    GroupTag("G", (2, 2, 2)),
    GroupTag("W", (2, 1, 2)),
)


def check_singular_list(cfg: VerifyConfig) -> list[CheckResult]:
    max_m, max_n = cfg.bounds("singular-list")
    reports = [(T.tag, regular_singular(T)) for _, T in thick_atlas(max_m, max_n)]
    singular = [(tag, r) for tag, r in reports if r.status == "singular"]
    found = {tag for tag, _ in singular}
    out = []
    for tag in EXPECTED_SINGULAR:
        m, _, n = tag.params
        if m <= max_m and n <= max_n:
            out.append(CheckResult("singular-list", {"group": tag.label}, tag in found, "expected singular"))
    for tag, r in singular:
        if tag not in EXPECTED_SINGULAR:
            out.append(
                CheckResult(
                    "singular-list",
                    {"group": r.group},
                    False,
                    f"singular beyond the expected list (witness order {r.witness.order})",
                )
            )
    return out


# -- 9: linear independence of the operators ---------------------------------

# the saturation search runs this many degrees past the bound n*N
SATURATION_SLACK = 12


def independence_groups(cfg: VerifyConfig) -> list[FiniteMonomialGroup]:
    out = []
    max_m, max_n = cfg.bounds("operator-independence")
    for m in range(1, max_m + 1):
        for n in range(2, max_n + 1):
            out.extend(make_gmpn(m, p, n) for p in _divisors(m))
            if m % 2 == 0:
                out.extend(make_w(m, d, n) for d in _divisors(m))
    for m, p, n in GRIDS["operator-independence"][2]:
        if m <= cfg.max_m and n <= cfg.max_n:
            out.append(make_gmpn(m, p, n))
    return list(dict.fromkeys(out))


def check_operator_independence(cfg: VerifyConfig) -> list[CheckResult]:
    out = []
    for G in independence_groups(cfg):
        for c in (0, 1, cyc_make(4, 1)):
            bound = G.n * G.N
            d, _ = faithfulness_saturation_degree(G, c, bound + SATURATION_SLACK)
            tag = str(c) if isinstance(c, int) else "zeta4"
            if d is not None and d <= bound:
                detail = f"independent at degree {d}, bound {bound}"
            elif d is not None:
                detail = f"not independent by the bound {bound}, saturates at degree {d}"
            else:
                detail = f"no saturation found up to {bound + SATURATION_SLACK}"
            out.append(
                CheckResult(
                    "operator-independence",
                    {"group": G.tag.label, "c": tag},
                    d is not None and d <= bound,
                    detail,
                )
            )
    return out


# -- 10: identity suites, each proved on a finite domain ---------------------
#
# A suite is a list of blocks (predicate, factors): the cases of a block are
# the product of its factor sequences, and its predicate holds on a case
# when the identity does.  check_identity_suites runs every case.  phi_w^(c)(k)
# and the q = -1 bracket depend on k only through its parities, so exponent
# vectors in {0,1}^n prove the two cocycle identities for every k.  A suite
# function may build the constants of its domain once, in a table local to
# the call, and return predicates that close over it and do only the
# per-case algebra; each call builds its own table.


def _perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(n)))


def _vectors(n: int, size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(range(size), repeat=n))


def _cocycle_composes(c, w, wp, k) -> bool:
    """phi_(w'w)(k) = phi_w'(w(k)) phi_w(k)."""
    ww = tuple(wp[i] for i in w)
    return phi_w_eval(c, ww, k) == phi_w_eval(c, wp, perm_apply(w, k)) * phi_w_eval(c, w, k)


def _cocycle_composition():
    cs = (0, 1, cyc_make(4, 1), cyc_make(3, 1))
    return [(_cocycle_composes, (cs, _perms(n), _perms(n), _vectors(n, 2))) for n in (2, 3, 4)]


def _twisted_multiplicative(q, w, k, kp) -> bool:
    """<k, k'> phi_w(k + k') = <w(k), w(k')> phi_w(k) phi_w(k') at q = -1, c = 1."""
    ksum = tuple(a + b for a, b in zip(k, kp))
    lhs = qform_bracket(q, k, kp) * phi_w_eval(1, w, ksum)
    rhs = qform_bracket(q, perm_apply(w, k), perm_apply(w, kp)) * phi_w_eval(1, w, k) * phi_w_eval(1, w, kp)
    return lhs == rhs


def _twisted_multiplicativity():
    return [
        (_twisted_multiplicative, ((QMatrix.minus_one(n),), _perms(n), _vectors(n, 2), _vectors(n, 2)))
        for n in (2, 3, 4)
    ]


def _q_element_identities():
    """Q_w^(c) Q_w^(1/c) = 1 and Q_(w'w)^(c) = w^-1(Q_w'^(c)) Q_w^(c), at N = 12.

    Q_w^(c) and its inverse-law verdict are built once per call for each
    (c, w), keyed by c's canonical (order, nums, den): 24 inverse-law
    products.  The predicate fails a case whose (c, w) breaks the inverse
    law, and otherwise reads Q_(w'w), Q_w' and Q_w off that table and
    multiplies only w^-1(Q_w') Q_w."""
    N = 12
    cs = (Cyclotomic.rational(1), cyc_make(4, 1), cyc_make(3, 1))
    table = {}  # (c key, w) -> (Q_w^(c), whether Q_w^(c) Q_w^(1/c) = 1)
    for n in (2, 3):
        one = GroupAlgebraElement.one(n, N)
        for c in cs:
            for w in _perms(n):
                qw = q_w_element(c, w, n, N)
                table[(c.order, c.nums, c.den), w] = qw, qw * q_w_element(c.inverse(), w, n, N) == one

    def q_element_identities_hold(c, w, wp) -> bool:
        key = (c.order, c.nums, c.den)
        qw, inverse_law = table[key, w]
        if not inverse_law:
            return False
        winv = tuple(sorted(range(len(w)), key=w.__getitem__))
        ww = tuple(wp[i] for i in w)
        return table[key, ww][0] == perm_act(winv, table[key, wp][0]) * qw

    return [(q_element_identities_hold, (cs, _perms(n), _perms(n))) for n in (2, 3)]


def _j_c_intertwines(c, a, degree: int) -> bool:
    """rho_0(J_c(a)) = rho_c(a) on the degree slice, for a basis element
    a = t*w, in its finite form psi_k(Q_w^(c)) = phi_w^(c)(k) at each k:

      rho_0(t*w*s) sends x^k to zeta^<t,w(k)> zeta^<s,k> x^(w(k)), and J_c(t*w) = t*w*Q_w^(c),
      so rho_0(J_c(t*w)) x^k = psi_k(Q_w^(c)) zeta^<t,w(k)> x^(w(k)); rho_c(t*w) puts phi_w^(c)(k) there."""
    (g,) = a.terms
    qw = q_w_element(c, g.perm, g.n, g.N)
    return all(psi_eval(qw, k) == phi_w_eval(c, g.perm, k) for k in slice_monomials(g.n, degree))


def _twist_map():
    """J_c is linear and the product bilinear, so the basis of the group
    algebra of the n = 2, N = 4 monomial group proves both identities there.

    The J_c image of each basis element is built once per call.  The product
    of the basis elements g and h is the basis element g h, so the
    multiplicativity predicate reads J_c(ab), J_c(a) and J_c(b) off that
    table and multiplies only J_c(a) J_c(b)."""
    n, N = 2, 4
    elements = [MonomialElement(n, N, w, t) for w in _perms(n) for t in _vectors(n, N)]
    basis = tuple(GroupAlgebraElement.from_element(g) for g in elements)
    zeta4 = cyc_make(4, 1)
    image = {g: j_c(zeta4, a) for g, a in zip(elements, basis)}

    def j_c_multiplicative(c, a, b) -> bool:
        """J_c(ab) = J_c(a) J_c(b), at the table's c = zeta4."""
        (g,), (h,) = a.terms, b.terms
        return image[g * h] == image[g] * image[h]

    cs = (zeta4,)
    return [(j_c_multiplicative, (cs, basis, basis)), (_j_c_intertwines, (cs, basis, range(4)))]


def _long_cycles(n: int) -> tuple[tuple[int, ...], ...]:
    """The (n-1)! permutations that are a single n-cycle: each i goes to the
    entry after it in the cycle (0, ..., 0)."""
    cycles = ((0, *rest, 0) for rest in itertools.permutations(range(1, n)))
    return tuple(tuple(cycle[cycle.index(i) + 1] for i in range(n)) for cycle in cycles)


def _long_cycle_law_holds(N: int, cycle, exps) -> bool:
    """(t s)^n is the scalar zeta_N^(sum of t's exponents) for an n-cycle s."""
    n = len(cycle)
    t = MonomialElement(n, N, tuple(range(n)), exps)
    return (t * MonomialElement(n, N, cycle, (0,) * n)) ** n == central_scalar(n, N, sum(exps))


def _long_cycle_law():
    cells = ((2, 2), (3, 2), (4, 2), (3, 4))  # (n, N)
    return [(_long_cycle_law_holds, ((N,), _long_cycles(n), _vectors(n, N))) for n, N in cells]


def _odd_level_nonclosure():
    """At odd level m the generators of G(m,p,n) fix the first and the last
    fundamental invariant f, g, but not their q = -1 product.

    f, g and the generators of each G(m,p,n) are built once per call; the
    predicate checks that every generator fixes f and g, builds h = f * g
    at q = -1 and checks it against every generator."""
    levels = (1, 3, 5)
    table = {}  # (m, p, n) -> (f, g, generators of G(m,p,n) at N = 4m)
    for m in levels:
        N, step = 4 * m, 4  # zeta_N^step = zeta_m
        for p in _divisors(m):
            for n in (2, 3):
                polys = fundamental_invariants(m, p, n)
                gens = [adjacent_swap(n, N, i) for i in range(1, n)]
                gens.append(torus_gen(n, N, 1, step) * torus_gen(n, N, 2, -step))
                gens.append(torus_gen(n, N, 1, p * step))
                table[m, p, n] = polys[0], polys[-1], gens

    def odd_level_nonclosed(m: int, p: int, n: int) -> bool:
        f, g, gens = table[m, p, n]
        if any(act_c(0, gen, f) != f or act_c(0, gen, g) != g for gen in gens):
            return False
        h = qmul(QMatrix.minus_one(n), f, g)
        return not all(act_c(0, gen, h) == h for gen in gens)

    return [(odd_level_nonclosed, ((m,), _divisors(m), (2, 3))) for m in levels]


IDENTITY_SUITES = (
    ("cocycle-composition", _cocycle_composition),
    ("twisted-multiplicativity", _twisted_multiplicativity),
    ("q-element-identities", _q_element_identities),
    ("twist-map", _twist_map),
    ("long-cycle-law", _long_cycle_law),
    ("odd-level-nonclosure", _odd_level_nonclosure),
)


def check_identity_suites(cfg: VerifyConfig) -> list[CheckResult]:
    """Every case of every suite's domain; the grid bounds do not apply."""
    out = []
    for name, suite in IDENTITY_SUITES:
        cases = failures = 0
        for predicate, factors in suite():
            for case in itertools.product(*factors):
                cases += 1
                failures += not predicate(*case)
        out.append(
            CheckResult(
                "identity-suites",
                {"suite": name, "verified_cases": cases},
                failures == 0,
                f"{failures} failures",
            )
        )
    return out


def _sample(suite, rng, instances: int) -> int:
    """Failures among `instances` cases drawn from the suite's domain, each a
    block and then one entry of each of its factors."""
    failures = 0
    for _ in range(instances):
        predicate, factors = rng.choice(suite)
        failures += not predicate(*(rng.choice(f) for f in factors))
    return failures


# samplers of the domains above, the benchmark's identity-suites workload


def suite_cocycle_composition(rng, instances: int) -> int:
    return _sample(_cocycle_composition(), rng, instances)


def suite_twisted_multiplicativity(rng, instances: int) -> int:
    return _sample(_twisted_multiplicativity(), rng, instances)


def suite_q_element_identities(rng, instances: int) -> int:
    return _sample(_q_element_identities(), rng, instances)


def suite_twist_map(rng, instances: int) -> int:
    return _sample(_twist_map(), rng, instances)


def suite_long_cycle_law(rng, instances: int) -> int:
    return _sample(_long_cycle_law(), rng, instances)


def suite_odd_level_nonclosure(rng, instances: int) -> int:
    return _sample(_odd_level_nonclosure(), rng, instances)


ALL_CHECKS = (
    ("orders-grid", check_orders),
    ("counterpart-grid", check_counterpart_equivalence),
    ("invariant-dimensions", check_invariant_dimensions),
    ("group-ring-change-of-basis", check_group_ring),
    ("isomorphism-parity", check_isomorphism_parity),
    ("thick-enumeration", check_thick_enumeration),
    ("classification-grid", check_classification),
    ("singular-list", check_singular_list),
    ("operator-independence", check_operator_independence),
    ("identity-suites", check_identity_suites),
)


def run_all(cfg: VerifyConfig | None = None) -> list[CheckResult]:
    cfg = cfg or VerifyConfig()
    results = []
    for _, fn in ALL_CHECKS:
        results.extend(fn(cfg))
    return results
