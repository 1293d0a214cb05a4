"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 2 requires the threshold-3 gap at n=12 to equal its closed form
G* = 9*log(16/9) - 3*log(4) (about 1.019, or 0.085 per variable).  Grouping
the twelve entries into four blocks of three bounds the phi3 log-cost below by
the phi1 log-cost of the block sums, hence by 3*log(4), which the period-3
pattern attains; see the test's docstring.
"""

import math

import numpy as np
from scipy import integrate

from bvgamma.bounds import (
    domination_margins,
    psi_bound,
    theta_bound,
    zeta_bound,
)
from bvgamma.energy import (
    geometric_constant,
    hostility,
    lambda_quad,
    lambda_step,
    lambda_strip,
)
from bvgamma.laws import (
    AffineThetaLaw,
    DyadicAffineLaw,
    ModelLaw,
    PackagedDyadicLaw,
)
from bvgamma.minprob import (
    MinProblem,
    in_domain,
    log_cost,
    minimize,
    power_cost,
    telescopic_margin,
)
from bvgamma.stepfn import (
    StepFunction,
    gaps,
    rearrange,
    segment,
    staircase_from_gaps,
    truncate,
)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_lengths(rng, n, k):
    """Lognormal lengths, each zeroed with probability 0.3, with no k zeros in a row.

    The lengths are positive, so only the zero mask decides admissibility:
    masks are drawn 256 at a time, their zero runs read from one cumsum of
    the nonzero counts, and the lengths drawn once, for the first accepted mask.
    """
    while True:
        zero = rng.random((256, n)) < 0.3
        nonzeros = np.zeros((256, n + 1), dtype=np.int64)
        np.cumsum(~zero, axis=1, out=nonzeros[:, 1:])
        # a window of k entries is all zero iff the count does not grow across it
        accepted = np.flatnonzero(np.all(nonzeros[:, k:] > nonzeros[:, :-k], axis=1))
        if len(accepted):
            l = rng.lognormal(0.0, 1.0, n)
            l[zero[accepted[0]]] = 0.0
            assert in_domain(l, k)
            return l


def random_step(rng, n_max, levels=None, spread=3.0):
    n = int(rng.integers(2, n_max + 1))
    bp = np.sort(rng.uniform(0, 10, n + 1))
    while np.min(np.diff(bp)) < 1e-6:
        bp = np.sort(rng.uniform(0, 10, n + 1))
    if levels is None:
        vals = rng.uniform(-spread, spread, n)
    else:
        vals = rng.integers(0, levels + 1, n).astype(float)
    return StepFunction(tuple(bp), tuple(vals))


def chain_margin(bigger, smaller):
    if math.isinf(bigger) and math.isinf(smaller):
        return 0.0
    if math.isinf(bigger):
        return math.inf
    if math.isinf(smaller):
        return -math.inf
    return bigger - smaller


def test_criterion_01_model_law_minimum(capsys):
    worst_rel, worst_dev = 0.0, 0.0
    for n in range(2, 17):
        res = minimize(MinProblem(n=n, law=ModelLaw(1)), starts=16, seed=0)
        exact = (n - 1) * math.log(4.0)
        worst_rel = max(worst_rel, abs(res.value - exact) / exact)
        worst_dev = max(worst_dev, float(np.max(np.abs(np.asarray(res.minimizer) - 1.0 / n))))
    ok = worst_rel <= 1e-8 and worst_dev <= 1e-5
    report(capsys, 1, ok,
           f"phi1 minimum (n-1)log4 for n=2..16: rel err {worst_rel:.2e}, "
           f"minimizer dev {worst_dev:.2e}")


def test_criterion_02_phi3_pattern_gap(capsys):
    """The phi3 minimum at n=12 lies G* = 9 log(16/9) - 3 log 4 below all-equal.

    Write x0..x5 = l[3j..3j+5], T_i = S_{i,3} and U_i = S_{i,4}.  Then

        U_3j U_3j+1 U_3j+2 - S_{3j,6} T_3j+1 T_3j+2
            = x0 x4 T_3j+2 + x1 x5 T_3j+1 + x0 x5 U_3j+1 >= 0.

    Summing the logs over j = 0, 1, 2 gives log_cost(l, 3) >= log_cost(B, 1),
    where B holds the four block sums of three consecutive entries, and AM-GM
    gives log_cost(B, 1) >= 3 log 4.  The period-3 pattern attains 3 log 4,
    while all-equal costs 9 log(16/9), so G* is the largest gap there is.
    """
    n = 12
    pb = MinProblem(n=n, law=ModelLaw(3))
    res = minimize(pb, starts=16, seed=0)
    all_equal = pb.objective(np.ones(n))
    gap = all_equal - res.value
    exact = 9.0 * math.log(16.0 / 9.0) - 3.0 * math.log(4.0)
    ok = abs(gap - exact) <= 1e-9 and res.winning_seed.startswith("period-3")
    report(capsys, 2, ok,
           f"phi3 n=12 gap below all-equal: {gap:.12f} (exact {exact:.12f}, "
           f"err {abs(gap - exact):.1e}), winning seed {res.winning_seed}")


def test_criterion_03_telescopic_suite(capsys):
    rng = np.random.default_rng(0)
    worst = math.inf
    equality_exact = True
    for _ in range(10_000):
        n = int(rng.integers(4, 25))
        a = int(rng.integers(1, min(4, n - 1) + 1))
        l = random_lengths(rng, n, a)
        b = int(rng.integers(a, n))
        margin = telescopic_margin(l, a, b)
        worst = min(worst, margin)
        if b == a and margin != 0.0:
            equality_exact = False
    ok = worst >= -1e-10 and equality_exact
    report(capsys, 3, ok,
           f"telescopic margin over 10^4 draws: min {worst:.2e}, "
           f"b=a exact zero: {equality_exact}")


def test_criterion_04_rearrangement_suite(capsys):
    rng = np.random.default_rng(1)
    worst = math.inf
    for _ in range(1000):
        u = random_step(rng, 20, levels=6)
        for k in range(1, 6):
            fu = hostility(1.0, u, k).value
            fm = hostility(1.0, rearrange(u), k).value
            worst = min(worst, chain_margin(fu, fm))
    ok = worst >= -1e-10
    report(capsys, 4, ok, f"hostility rearrangement margin: min {worst:.2e}")


def test_criterion_05_monotone_chain(capsys):
    rng = np.random.default_rng(2)
    laws = (ModelLaw(1), PackagedDyadicLaw((1, 1)), PackagedDyadicLaw((0, 0, 1)))
    worst = math.inf
    for _ in range(500):
        u = random_step(rng, 10)
        delta = float(rng.choice([0.5, 1.0]))
        lo = delta * int(rng.integers(-4, 0))
        hi = delta * int(rng.integers(1, 5))
        tu = truncate(u, lo, hi)
        stu = segment(tu, delta)
        mstu = rearrange(stu)
        for law in laws:
            vals = [lambda_step(law, w, delta).value for w in (u, tu, stu, mstu)]
            for a, b in zip(vals, vals[1:]):
                worst = min(worst, chain_margin(a, b))
    ok = worst >= -1e-10
    report(capsys, 5, ok, f"truncation/segmentation/rearrangement chain: "
                          f"min margin {worst:.2e}")


def test_criterion_06_strip_equivalence(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    checked = 0
    while checked < 200:
        n = int(rng.integers(7, 14))
        l = rng.uniform(0.05, 2.0, n)
        l[rng.random(n) < 0.2] = 0.0
        if l[0] == 0.0:
            l[0] = 0.3
        delta = float(rng.choice([0.5, 1.0]))
        u = staircase_from_gaps(l, delta)
        used = False
        for k in range(1, 7):
            if not in_domain(l, k):
                continue
            v1 = lambda_strip(ModelLaw(k), u, delta).value
            v2 = delta * log_cost(l, k)
            worst = max(worst, abs(v1 - v2) / max(abs(v2), 1e-300))
            used = True
        checked += used
    ok = worst <= 1e-12
    report(capsys, 6, ok, f"strip energy vs delta*log-cost on 200 staircases: "
                          f"max rel diff {worst:.2e}")


def test_criterion_07_scale_factors(capsys):
    from fractions import Fraction

    model_ok = all(ModelLaw(k).scale_factor_exact() == Fraction(1, k)
                   for k in range(1, 13))
    psi_ok = all(
        PackagedDyadicLaw((1,) * m).scale_factor_exact()
        == sum(Fraction(1, k) for k in range(1, 2 ** m))
        for m in range(1, 13))
    theta_err = abs(AffineThetaLaw().scale_factor() - math.log(2.0))

    zeta_err = 0.0
    test_laws = (
        DyadicAffineLaw(nodes=((0, 0.0), (1, 1.0))),
        DyadicAffineLaw(nodes=tuple((z, min(1.0, 4.0 ** z)) for z in range(-6, 2))),
        DyadicAffineLaw(nodes=((-2, 0.1), (-1, 0.3), (0, 0.35), (2, 2.0))),
    )
    for law in test_laws:
        zmin, zmax = law.nodes[0][0], law.nodes[-1][0]
        pts = [2.0 ** z for z in range(zmin - 1, zmax + 1)]
        body, _ = integrate.quad(lambda t: law(t) / t ** 2, 2.0 ** (zmin - 1),
                                 2.0 ** zmax, points=pts, limit=400)
        quad = body + law.nodes[-1][1] / 2.0 ** zmax
        zeta_err = max(zeta_err, abs(law.scale_factor() - quad) / abs(quad))

    ok = model_ok and psi_ok and theta_err <= 1e-12 and zeta_err <= 1e-8
    report(capsys, 7, ok,
           f"scale factors: 1/k exact {model_ok}, harmonic exact {psi_ok}, "
           f"ramp err {theta_err:.1e}, dyadic series vs quad {zeta_err:.1e}")


def test_criterion_08_shape_factor_table(capsys):
    p1 = psi_bound(1).k_lower
    p2 = psi_bound(2).k_lower
    ks = [psi_bound(m).k_lower for m in range(1, 21)]
    increasing = all(b > a for a, b in zip(ks, ks[1:]))
    t = theta_bound().k_lower
    z = zeta_bound(DyadicAffineLaw(nodes=((0, 0.0), (1, 1.0)))).k_lower
    ok = (abs(p1 - math.log(2)) <= 1e-14
          and abs(p2 - 12.0 / 11.0 * math.log(2)) <= 1e-14
          and increasing and ks[-1] > 0.95 and t == 1.0 and z == 1.0)
    report(capsys, 8, ok,
           f"bounds: psi(1)={p1:.9f}, psi(2)={p2:.9f}, increasing={increasing}, "
           f"psi(20)={ks[-1]:.4f}, theta={t}, zeta={z}")


def test_criterion_09_domination(capsys):
    grid = np.linspace(0.0, 4.0, 10_000)
    worst = min(min(domination_margins(m, grid)) for m in range(2, 9))
    ok = worst >= -1e-12
    report(capsys, 9, ok, f"ramp vs rescaled package laws on 10^4 grid points: "
                          f"min margin {worst:.2e}")


def test_criterion_10_pointwise_trend(capsys):
    law = ModelLaw(1)
    bump = lambda x: np.sin(np.pi * np.asarray(x)) ** 2
    scale = 2.0 * law.scale_factor() * 2.0  # 2 * N * TV, TV(bump) = 2
    ratios = []
    for delta in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3):
        res = lambda_quad(law, bump, (0.0, 1.0), delta)
        ratios.append(res.value / scale)
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    ok = increasing and abs(ratios[-1] - 1.0) <= 0.05
    report(capsys, 10, ok,
           f"smooth bump energy ratios over delta sweep: "
           f"{[round(r, 5) for r in ratios]}, increasing={increasing}")


def test_criterion_11_geometric_constants(capsys):
    g1 = geometric_constant(1).value
    g2 = geometric_constant(2).value
    g3 = geometric_constant(3).value
    oracle2, _ = integrate.quad(lambda t: abs(math.cos(t)), 0.0, 2.0 * math.pi)
    oracle3, _ = integrate.quad(
        lambda t: abs(math.cos(t)) * math.sin(t), 0.0, math.pi)
    oracle3 *= 2.0 * math.pi
    body, _ = integrate.quad(
        lambda t: abs(math.cos(t)) * math.sin(t) ** 2, 0.0, math.pi)
    oracle4 = 4.0 * math.pi * body
    g4 = geometric_constant(4).value
    ok = (g1 == 2.0 and abs(g2 - oracle2) <= 1e-10
          and abs(g3 - oracle3) <= 1e-10 and abs(g4 - oracle4) <= 1e-10)
    report(capsys, 11, ok,
           f"G1={g1}, G2 err {abs(g2 - oracle2):.1e}, G3 err {abs(g3 - oracle3):.1e}, "
           f"G4 err {abs(g4 - oracle4):.1e}")


def test_criterion_12_power_cost_consistency(capsys):
    rng = np.random.default_rng(4)
    worst_rel, min_term = 0.0, math.inf
    for _ in range(200):
        n = int(rng.integers(4, 14))
        k = int(rng.integers(1, 4))
        l = random_lengths(rng, n, k)
        l = l / l.sum()
        min_term = min(min_term, power_cost(l, k, float(rng.uniform(1.01, 4.0))))
        a = power_cost(l, k, 1.0 + 1e-6)
        b = log_cost(l, k)
        worst_rel = max(worst_rel, abs(a - b) / max(abs(b), 1e-12))
    ok = worst_rel <= 1e-4 and min_term >= -1e-12
    report(capsys, 12, ok,
           f"generalized cost: p->1 rel diff {worst_rel:.2e}, "
           f"min value {min_term:.2e}")
