"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and asserts the criterion. Randomness is seeded so the gate is
reproducible run to run.
"""

import math
import time

import numpy as np

from maccretive.blockop import (
    BlockRealization,
    BlockState,
    apply_block,
    bd_space,
    block_resolve,
    state_l2_inner,
    state_l2_norm,
)
from maccretive.derivative import (
    BoundaryFunction,
    DerivativeContext,
    Realization1D,
    check_lipschitz_transfer,
    extract_h,
    pi_minus_coeff,
    pi_plus_coeff,
    pi_zero,
    resolve,
)
from maccretive.cli import _energy_run
from maccretive.evolution import convergence_order, evolve
from maccretive.funcspace import (
    ExpPoly,
    Interval,
    differentiate,
    graph_inner,
    graph_norm,
    l2_inner,
    l2_norm,
)
from maccretive.impedance1d import (
    ImpedanceK,
    gamma0,
    impedance_map_matrix,
    impedance_realization,
    is_K_accretive,
)
from maccretive.relations import (
    ContractionMap,
    InnerSpace,
    LinearRelation,
    OperatorPair,
    cayley_to_relation,
    is_m_accretive_linear,
    operator_norm,
    relation_to_cayley,
    st_criterion,
    st_relation,
)

_SUITE_START = time.monotonic()

E = math.e
CTX = DerivativeContext(Interval(0.0, 1.0))
UNIT = CTX.interval
EP = ExpPoly.exponential(1.0)
EM = ExpPoly.exponential(-1.0)


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_exppoly(rng: np.random.Generator, max_degree: int = 4) -> ExpPoly:
    terms = []
    for _ in range(rng.integers(1, 4)):
        mu = float(rng.integers(-2, 3))
        deg = int(rng.integers(0, max_degree + 1))
        terms.append((mu, tuple(rng.uniform(-2.0, 2.0, size=deg + 1))))
    return ExpPoly(tuple(terms))


def _shared_samples() -> list:
    if not hasattr(_shared_samples, "cache"):
        rng = np.random.default_rng(20_240)
        _shared_samples.cache = [random_exppoly(rng) for _ in range(500)]
    return _shared_samples.cache


def random_bd_contraction(rng: np.random.Generator) -> ContractionMap:
    space = bd_space(CTX)
    raw = rng.standard_normal((2, 2))
    return ContractionMap.from_matrix(
        space, raw / operator_norm(space, raw) * rng.uniform(0.05, 0.999)
    )


def random_block_state(rng: np.random.Generator) -> BlockState:
    def poly():
        terms = []
        for _ in range(rng.integers(1, 3)):
            mu = float(rng.integers(-2, 3))
            deg = int(rng.integers(0, 3))
            terms.append((mu, tuple(rng.uniform(-1.5, 1.5, size=deg + 1))))
        return ExpPoly(tuple(terms))

    return BlockState(poly(), poly())


def distances_fall(realization, starts, tau: float, steps: int) -> bool:
    """Whether the runs from the two ``starts`` take every step and their
    distance never rises by more than 1e-8."""
    run = evolve(realization, starts, tau, steps)
    gaps = run.distances
    return run.stops == [None, None] and bool(np.all(gaps[1:] <= gaps[:-1] + 1e-8))


# ----------------------------------------------------------------------


def test_criterion_01_decomposition():
    start = time.monotonic()
    worst_recon = worst_ortho = 0.0
    for u in _shared_samples():
        c1 = pi_plus_coeff(CTX, u)
        cm = pi_minus_coeff(CTX, u)
        p0 = pi_zero(CTX, u)
        scale = 1.0 + graph_norm(u, UNIT)
        recon = graph_norm(p0 + c1 * EP + cm * EM - u, UNIT) / scale
        sq = scale**2
        ortho = max(
            abs(graph_inner(p0, EP, UNIT) * c1),
            abs(graph_inner(p0, EM, UNIT) * cm),
            abs(graph_inner(c1 * EP, cm * EM, UNIT)),
        ) / sq
        worst_recon = max(worst_recon, recon)
        worst_ortho = max(worst_ortho, ortho)
    elapsed = time.monotonic() - start
    ok = worst_recon < 1e-10 and worst_ortho < 1e-10 and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"decomposition on 500 samples: recon={worst_recon:.2e} "
        f"ortho={worst_ortho:.2e} time={elapsed:.2f}s (tol 1e-10, 5s)",
    )


def test_criterion_02_inner_product_identity():
    worst = 0.0
    for u in _shared_samples():
        lhs = l2_inner(differentiate(u), u, UNIT)
        c1 = pi_plus_coeff(CTX, u)
        cm = pi_minus_coeff(CTX, u)
        mid = c1**2 * CTX.denom_plus / 2.0 - cm**2 * CTX.denom_minus / 2.0
        rhs = (u(1.0) ** 2 - u(0.0) ** 2) / 2.0
        scale = 1.0 + abs(rhs)
        worst = max(worst, abs(lhs - mid) / scale, abs(lhs - rhs) / scale)
    ok = worst < 1e-10
    _verdict(2, ok, f"<u',u> identity on 500 samples: defect={worst:.2e} (tol 1e-10)")


def test_criterion_03_projection_oracle():
    gram_p = l2_inner(EP, EP, UNIT)
    gram_m = l2_inner(EM, EM, UNIT)
    worst = 0.0
    for u in _shared_samples():
        du = differentiate(u)
        oracle_p = 0.5 * l2_inner(u + du, EP, UNIT) / gram_p
        oracle_m = 0.5 * l2_inner(u - du, EM, UNIT) / gram_m
        c1 = pi_plus_coeff(CTX, u)
        cm = pi_minus_coeff(CTX, u)
        worst = max(
            worst,
            abs(c1 - oracle_p) / (1.0 + abs(c1)),
            abs(cm - oracle_m) / (1.0 + abs(cm)),
        )
    ok = worst < 1e-10
    _verdict(3, ok, f"closed-form vs L2 Gram oracle: defect={worst:.2e} (tol 1e-10)")


def test_criterion_04_lipschitz_transfer():
    bound = CTX.lipschitz_bound
    pairs = [(1.0, 0.0), (0.25, -1.75), (2.0, 2.5), (-3.0, 1.0)]
    equality = check_lipschitz_transfer(CTX, BoundaryFunction.linear(bound), pairs)
    ratio_defect = max(
        abs(r.h_dist / r.x_dist - 1.0) for r in equality.samples if r.x_dist > 0
    )
    violating = check_lipschitz_transfer(
        CTX, BoundaryFunction.linear(bound * (1.0 + 1e-3)), pairs
    )
    flagged = (not violating.bound_holds) and bool(violating.violations)
    ok = ratio_defect < 1e-11 and flagged and equality.bound_holds
    _verdict(
        4,
        ok,
        f"transfer: equality ratio defect={ratio_defect:.2e} (tol 1e-11), "
        f"slope*(1+1e-3) flagged={flagged}",
    )


def test_criterion_05_resolvent():
    rng = np.random.default_rng(505)
    bound = CTX.lipschitz_bound

    def g_family(i: int) -> BoundaryFunction:
        kinds = [
            BoundaryFunction.linear(0.5 * bound),
            BoundaryFunction.linear(-0.8 * bound, intercept=0.3),
            BoundaryFunction.scaled_sin(0.9 * bound),
            BoundaryFunction.from_table([[-2.0, 1.0], [0.0, 0.0], [2.0, 1.5]]),
            BoundaryFunction.constant(0.4),
        ]
        return kinds[i % len(kinds)]

    worst_residual = 0.0
    for i in range(100):
        g = g_family(i)
        r = Realization1D(CTX, g)
        f = random_exppoly(rng, max_degree=3)
        tau = float(rng.uniform(0.15, 2.5))
        u = resolve(r, f, tau)
        res = l2_norm(u + tau * differentiate(u) - f, UNIT) / (1 + l2_norm(f, UNIT))
        worst_residual = max(worst_residual, res)

    worst_gap = -math.inf
    for i in range(100):
        g = g_family(i)
        r = Realization1D(CTX, g)
        tau = float(rng.uniform(0.15, 2.5))
        f1 = random_exppoly(rng, max_degree=3)
        f2 = random_exppoly(rng, max_degree=3)
        gap = l2_norm(resolve(r, f1, tau) - resolve(r, f2, tau), UNIT) - l2_norm(
            f1 - f2, UNIT
        )
        worst_gap = max(worst_gap, gap)

    u = resolve(Realization1D(CTX, BoundaryFunction.constant(0.0)), ExpPoly.constant(1.0), 1.0)
    worked = abs(u(1.0) - E * u(0.0))
    ok = worst_residual < 1e-9 and worst_gap <= 1e-9 and worked < 1e-10
    _verdict(
        5,
        ok,
        f"resolvent: residual={worst_residual:.2e} (tol 1e-9), "
        f"contraction excess={worst_gap:.2e} (tol 1e-9), "
        f"|u(1)-e*u(0)|={worked:.2e} (tol 1e-10)",
    )


def test_criterion_06_h_extraction():
    worst = 0.0
    points = np.linspace(-2.5, 2.5, 50)
    for g in (
        BoundaryFunction.linear(0.6 * CTX.lipschitz_bound),
        BoundaryFunction.scaled_sin(1.2, frequency=0.8),
    ):
        r = Realization1D(CTX, g)
        for v in points:
            worst = max(worst, abs(extract_h(r, float(v)) - g(float(v))))
    ok = worst < 1e-8
    _verdict(6, ok, f"h-extraction roundtrip at 50 points: defect={worst:.2e} (tol 1e-8)")


def test_criterion_07_cayley():
    rng = np.random.default_rng(707)
    space = InnerSpace.euclidean(2)
    worst = 0.0
    for _ in range(50):
        raw = rng.standard_normal((2, 2))
        matrix = raw / max(1.0, np.linalg.norm(raw, 2)) * rng.uniform(0.05, 1.0)
        f = ContractionMap.from_matrix(space, matrix)
        back = relation_to_cayley(space, cayley_to_relation(f).resolvent)
        for _ in range(100):
            x = rng.standard_normal(2)
            worst = max(worst, float(np.linalg.norm(back(x) - f(x))) / (1 + float(np.linalg.norm(x))))

    ident = cayley_to_relation(ContractionMap.zero(space)).linear
    zero = cayley_to_relation(ContractionMap.identity(space)).linear
    vert = cayley_to_relation(ContractionMap.identity(space, scale=-1.0)).linear
    trivial_ok = (
        ident.dim == 2
        and np.allclose(ident.basis[:, 0, :] - ident.basis[:, 1, :], 0.0, atol=1e-14)
        and zero.dim == 2
        and np.allclose(zero.basis[:, 1, :], 0.0, atol=1e-14)
        and vert.dim == 2
        and np.allclose(vert.basis[:, 0, :], 0.0, atol=1e-14)
    )
    ok = worst < 1e-9 and trivial_ok
    _verdict(
        7,
        ok,
        f"cayley roundtrip 50x100: defect={worst:.2e} (tol 1e-9), "
        f"trivial graphs exact={trivial_ok}",
    )


def test_criterion_08_st_criterion():
    rng = np.random.default_rng(808)
    space = InnerSpace.euclidean(2)
    disagreements = 0
    for _ in range(1000):
        pair = OperatorPair(space, rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        if st_criterion(pair).holds != is_m_accretive_linear(st_relation(pair)):
            disagreements += 1

    line = InnerSpace.euclidean(1)
    sweep_ok = True
    grid = np.linspace(-2.0, 2.0, 17)
    for s in grid:
        for t in grid:
            expected = (s * t >= 0.0) and not (s == 0.0 and t == 0.0)
            if st_criterion(OperatorPair(line, [[s]], [[t]])).holds != expected:
                sweep_ok = False
    ok = disagreements == 0 and sweep_ok
    _verdict(
        8,
        ok,
        f"(S,T) criterion: disagreements={disagreements}/1000, scalar sweep ok={sweep_ok}",
    )


def test_criterion_09_block_equivalence():
    rng = np.random.default_rng(909)
    disagreements = 0
    worst_residual = 0.0
    for _ in range(50):
        real = BlockRealization.from_f(CTX, random_bd_contraction(rng))
        states = [random_block_state(rng) for _ in range(1000)]
        verdicts = np.array(list(real.domain_test_many(states).values()))
        disagreements += int(np.count_nonzero(verdicts.any(axis=0) & ~verdicts.all(axis=0)))
        for _ in range(2):
            rhs = random_block_state(rng)
            tau = float(rng.uniform(0.3, 1.5))
            out = block_resolve(real, rhs, tau)
            scale = 1 + state_l2_norm(rhs, UNIT)
            worst_residual = max(
                worst_residual,
                l2_norm(out.u + tau * differentiate(out.v) - rhs.u, UNIT) / scale,
                l2_norm(out.v + tau * differentiate(out.u) - rhs.v, UNIT) / scale,
            )

    basis = np.array([np.stack([e, e]) for e in np.eye(2)])
    ident = BlockRealization.from_relation(CTX, LinearRelation(bd_space(CTX), basis))
    out = block_resolve(ident, BlockState(EP, EP), 1.0)
    worked = state_l2_norm(out - BlockState(0.5 * EP, 0.5 * EP), UNIT)
    ok = disagreements == 0 and worst_residual < 1e-9 and worked < 1e-10
    _verdict(
        9,
        ok,
        f"block equivalence: disagreements={disagreements}/50000, "
        f"resolve residual={worst_residual:.2e} (tol 1e-9), "
        f"worked example defect={worked:.2e} (tol 1e-10)",
    )


def test_criterion_10_impedance():
    rng = np.random.default_rng(1010)
    tol = 1e-9
    disagreements = 0
    worst_energy_defect = 0.0
    space = bd_space(CTX)
    for _ in range(200):
        k = ImpedanceK.from_matrix(rng.standard_normal((2, 2)))
        real = impedance_realization(CTX, k)
        verdict_k = is_K_accretive(k)

        # member basis (two boundary-data directions) and their exact pairings
        w = impedance_map_matrix(CTX, k)
        members = []
        for e in np.eye(2):
            dv = w @ e
            members.append(
                BlockState(
                    ExpPoly(((1.0, (e[0],)), (-1.0, (e[1],)))),
                    ExpPoly(((1.0, (dv[0],)), (-1.0, (-dv[1],)))),
                )
            )
        q_form = np.array(
            [
                [state_l2_inner(apply_block(mi), mj, UNIT) for mj in members]
                for mi in members
            ]
        )
        sym = 0.5 * (q_form + q_form.T)
        accretive_sampled = True
        for _ in range(1000):
            dc = rng.uniform(-2.0, 2.0, size=2)
            norm_sq = float(dc @ space.gram @ dc)
            if float(dc @ sym @ dc) < -tol * (1.0 + norm_sq):
                accretive_sampled = False
                break

        solvable = True
        outs = []
        try:
            for _ in range(20):
                rhs = random_block_state(rng)
                outs.append((rhs, block_resolve(real, rhs, 0.6)))
        except RootNotFound:
            solvable = False
        if solvable:
            for i in range(0, len(outs) - 1, 2):
                gap_in = state_l2_norm(outs[i][0] - outs[i + 1][0], UNIT)
                gap_out = state_l2_norm(outs[i][1] - outs[i + 1][1], UNIT)
                if gap_out > gap_in + tol:
                    solvable = False

        if verdict_k != (accretive_sampled and solvable):
            disagreements += 1

        # energy identity on a random member
        coeffs = rng.uniform(-1.5, 1.5, size=2)
        s = coeffs[0] * members[0] + coeffs[1] * members[1]
        lhs = state_l2_inner(apply_block(s), s, UNIT)
        tr = gamma0(CTX, s.u)
        rhs_val = float((k.matrix @ tr) @ tr)
        worst_energy_defect = max(
            worst_energy_defect, abs(lhs - rhs_val) / (1.0 + abs(lhs))
        )

    ok = disagreements == 0 and worst_energy_defect < 1e-9
    _verdict(
        10,
        ok,
        f"impedance: disagreements={disagreements}/200, "
        f"energy identity defect={worst_energy_defect:.2e} (tol 1e-9)",
    )


def test_criterion_11_evolution():
    # (a) eigenfunction benchmark: exact geometric decay per step
    r0 = Realization1D(CTX, BoundaryFunction.constant(0.0))
    benchmark_ok = True
    worst_step = 0.0
    for tau in (0.1, 0.25):
        run = evolve(r0, [(EP,)], tau, 20)
        benchmark_ok &= run.stops == [None]
        for k, x in enumerate(run.states):
            (state,) = run.basis.polys(x)
            coeff = sum(c[0] for rate, c in state.terms if rate == 1.0)
            defect = abs(coeff - (1.0 + tau) ** (-k))
            worst_step = max(worst_step, defect / (k + 1))
            if defect > 1e-12 * (k + 1):
                benchmark_ok = False

    # (b) convergence order on the same benchmark
    order = convergence_order(r0, (EP,), [0.2, 0.1, 0.05, 0.025], 1.0)
    order_ok = 0.8 <= order <= 1.2

    # (c) contraction monotone across admissible realizations
    rng = np.random.default_rng(1111)
    contraction_ok = True
    for g in (
        BoundaryFunction.scaled_sin(0.9 * CTX.lipschitz_bound),
        BoundaryFunction.linear(0.7 * CTX.lipschitz_bound),
    ):
        starts = [(random_exppoly(rng, 2),), (random_exppoly(rng, 2),)]
        contraction_ok &= distances_fall(Realization1D(CTX, g), starts, 0.3, 12)
    block_real = BlockRealization.from_f(CTX, random_bd_contraction(rng))
    u0, v0 = random_block_state(rng), random_block_state(rng)
    contraction_ok &= distances_fall(block_real, [(u0.u, u0.v), (v0.u, v0.v)], 0.25, 10)

    # (d) energy increase detection for K = -identity within 50 steps, by
    # the energy run of wave-impedance
    real = impedance_realization(CTX, ImpedanceK.from_matrix(-np.eye(2)))
    _, first_increase, _ = _energy_run(real, BlockState(EP + EM, ExpPoly.constant(0.5)), 0.2, 50, UNIT)
    detection_ok = first_increase is not None and first_increase <= 50

    ok = benchmark_ok and order_ok and contraction_ok and detection_ok
    _verdict(
        11,
        ok,
        f"evolution: decay defect/step={worst_step:.2e} (tol 1e-12), "
        f"order={order:.3f} (in [0.8,1.2]), contraction monotone={contraction_ok}, "
        f"K=-I increase at step {first_increase} (within 50)",
    )


def test_zz_acceptance_runtime():
    elapsed = time.monotonic() - _SUITE_START
    ok = elapsed < 60.0
    print(f"[runtime    ] {'PASS' if ok else 'FAIL'}  acceptance suite {elapsed:.1f}s (< 60s)")
    assert ok, f"acceptance suite took {elapsed:.1f}s"
