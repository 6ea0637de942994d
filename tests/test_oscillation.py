"""Gauge, oscillation seminorms, composition and average-shift checks."""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oscillab.carleson import CarlesonBox, CarlesonDensity, box_mass, carleson_norm
from oscillab.cli import SweepSpec, default_radii, run_sweep
from oscillab.domain import (
    Ball,
    BallFamily,
    Box,
    Grid,
    GridFunction,
    ball_family,
    ball_oscillation,
    cells_in_ball,
)
from oscillab.errors import DomainError, EmptyFamily, OutOfDomain, ZeroSeminorm
from oscillab.corpus import builtin_density, builtin_function, log_singularity
from oscillab.maps import make_rotation, make_translation
from oscillab.oscillation import (
    OscillationParams,
    check_average_shift,
    compose,
    john_nirenberg_ratio,
    rho,
    seminorm,
)

TORUS = Box((0.0, 0.0), 1.0, periodic=True)
WINDOW = Box((-1.0, -1.0), 2.0, periodic=False)


def _grid_fn(name, grid):
    fn = builtin_function(name, grid)
    return fn if isinstance(fn, GridFunction) else GridFunction.from_callable(grid, fn)


def test_rho_values():
    assert rho(0.0, 1.0) == 0.0
    assert abs(rho(0.0, math.e) - 1.0) < 1e-15
    assert rho(0.5, 4.0) == 2.0
    assert rho(1.0, 3.0) == 3.0
    with pytest.raises(DomainError):
        rho(0.0, 0.5)
    with pytest.raises(DomainError):
        rho(0.5, 0.9)


def test_seminorm_frozen_oracles():
    # frozen reference values for the default corpus on the standard window
    g = Grid(WINDOW, 64)
    fam = ball_family(g, 8, [8 * g.h * 2**k for k in range(3)])
    p10 = OscillationParams(p=1.0, a=0.0)
    log_v = seminorm(_grid_fn("log", g), p10, fam).value
    saw_v = seminorm(_grid_fn("sawtooth", g), p10, fam).value
    assert abs(log_v - 0.4778954802) < 1e-9
    assert abs(saw_v - 0.1236939338) < 1e-9


def test_seminorm_scaling_and_shift_invariance():
    g = Grid(TORUS, 64)
    fam = ball_family(g, 8, [4 * g.h, 8 * g.h])
    params = OscillationParams(p=2.0, a=0.0)
    f = _grid_fn("trig", g)
    v = seminorm(f, params, fam).value
    v_scaled = seminorm(GridFunction(g, 3.0 * f.values + 10.0), params, fam).value
    assert abs(v_scaled - 3.0 * v) < 1e-12 * max(1.0, v)


def test_seminorm_log_scale_invariance():
    # the hallmark of the a=0 class: log|x| and log|2x| have equal seminorms
    g = Grid(WINDOW, 128)
    fam = ball_family(g, 16, [8 * g.h, 16 * g.h])
    params = OscillationParams(p=1.0, a=0.0)
    f1 = GridFunction.from_callable(g, log_singularity(clamp=2 * g.h))
    f2 = GridFunction.from_callable(
        g, lambda x: log_singularity(clamp=g.h)(2.0 * x)
    )
    v1 = seminorm(f1, params, fam).value
    v2 = seminorm(f2, params, fam).value
    assert abs(v1 - v2) / v1 < 0.05


def test_refining_family_only_increases():
    # stride 1 takes every cell center, so its family holds the stride-16 one
    for box in (TORUS, WINDOW):
        g = Grid(box, 64)
        coarse = ball_family(g, 16, [8 * g.h, 16 * g.h])
        fine = ball_family(g, 1, [8 * g.h, 16 * g.h])
        assert set(coarse) < set(fine)
        f = _grid_fn("log", g)
        for p in (1.0, 2.0):
            params = OscillationParams(p=p, a=0.0)
            assert seminorm(f, params, fine).value >= seminorm(f, params, coarse).value
        mu = builtin_density("strip", g)
        assert carleson_norm(mu, fine).value >= carleson_norm(mu, coarse).value


def test_compose_exact_translation_on_torus():
    g = Grid(TORUS, 64)
    f = _grid_fn("trig", g)
    phi = make_translation((8 * g.h, 8 * g.h))
    comp = compose(f, phi)
    assert np.allclose(np.sort(comp.values), np.sort(f.values))


def test_compose_out_of_window_raises():
    g = Grid(WINDOW, 64)
    f = _grid_fn("trig", g)
    with pytest.raises(OutOfDomain):
        compose(f, make_translation((1.5, 0.0)))


def test_compose_callable_needs_out_grid():
    with pytest.raises(ValueError):
        compose(lambda x: x[:, 0], make_translation((0.1, 0.0)))


def test_composition_ratio_identityish():
    g = Grid(TORUS, 32)
    fam = ball_family(g, 1, [4 * g.h, 8 * g.h])
    params = OscillationParams(p=2.0, a=0.0)
    f = _grid_fn("log", g)
    quarter = make_rotation(math.pi / 2, center=(0.5, 0.5))
    ratio = seminorm(compose(f, quarter), params, fam).value / seminorm(f, params, fam).value
    assert abs(ratio - 1.0) < 1e-6


def test_composition_ratio_constant_raises():
    with pytest.raises(ZeroSeminorm):
        run_sweep(SweepSpec(
            kind="bmo-composition", maps=["strain:t=1"], functions=["bump:radius=1e-6"],
            grid_n=64, stride=8, p=2.0,
        ))


def test_composition_ratio_strain_grows():
    h = Grid(WINDOW, 128).h
    (row,), _ = run_sweep(SweepSpec(
        kind="bmo-composition", maps=["strain:t=1.5"], functions=["log"],
        grid_n=128, stride=16, p=2.0, radii=[8 * h, 16 * h, 32 * h],
    ))
    assert 1.1 < row["ratio"] < 3.0  # strictly grows, far below naive operator bounds


def test_average_shift_bounded_random():
    g = Grid(TORUS, 128)
    fam = ball_family(g, 16, [4 * g.h * 2**k for k in range(4)])
    rng = np.random.default_rng(5)
    f = _grid_fn("log", g)
    for a in (0.0, 0.5):
        params = OscillationParams(p=2.0, a=a)
        sv = seminorm(f, params, fam).value
        for _ in range(25):
            lam = rng.uniform(2.0, 32.0)
            r = min(rng.uniform(4 * g.h, 0.2), 0.5 / lam)
            r = max(r, 4 * g.h)
            ball = Ball(tuple(rng.uniform(0, 1, 2)), r)
            assert check_average_shift(f, ball, lam, params, sv) < 2.0


def test_average_shift_rejects_bad_lambda():
    g = Grid(TORUS, 32)
    f = _grid_fn("trig", g)
    params = OscillationParams(p=2.0, a=0.0)
    with pytest.raises(ValueError):
        check_average_shift(f, Ball((0.5, 0.5), 0.2), 1.0, params, 1.0)


def test_john_nirenberg_comparable():
    g = Grid(TORUS, 64)
    fam = ball_family(g, 8, [4 * g.h, 8 * g.h, 16 * g.h])
    for name in ("log", "trig", "sawtooth"):
        ratio = john_nirenberg_ratio(_grid_fn(name, g), fam)
        assert 1.0 <= ratio <= 3.0


def _first_max(values):
    """Index of the first largest value, as a strict ``>`` scan finds it."""
    best = 0
    for k, v in enumerate(values):
        if v > values[best]:
            best = k
    return best


def _assert_engine_matches_loop(f, mu, params, family):
    """seminorm and carleson_norm over ``family`` equal per-ball loops of the
    primitives bit for bit, in value and in argmax ball."""
    osc = [ball_oscillation(f, b, params.p) / b.volume ** (params.a / f.grid.d)
           for b in family]
    est = seminorm(f, params, family)
    k = _first_max(osc)
    assert (est.value, est.argmax_ball) == (osc[k], family[k])
    mass = [box_mass(mu, CarlesonBox(b)) / b.volume for b in family]
    norm = carleson_norm(mu, family)
    k = _first_max(mass)
    assert (norm.value, norm.argmax_ball) == (mass[k], family[k])


def _assert_norm_matches_shell_sums(mu, family):
    """carleson_norm within rounding of the per-shell box sums taken straight
    from the density values and cells_in_ball, an oracle that shares no
    code with the folded shell field of box_mass and the engine."""
    cell_mass = mu.grid.cell_volume * math.log(2.0)
    ratios = []
    for b in family:
        cells = cells_in_ball(mu.grid, b)
        mass = sum(float((mu.values[j, cells] ** 2).sum()) * cell_mass
                   for j, t in enumerate(mu.t_levels) if t <= b.radius * (1.0 + 1e-12))
        ratios.append(mass / b.volume)
    norm = carleson_norm(mu, family)
    assert norm.value == pytest.approx(max(ratios), rel=1e-12, abs=0.0)
    assert ratios[family.index(norm.argmax_ball)] == pytest.approx(norm.value, rel=1e-12, abs=0.0)


def _random_inputs(g, seed, pattern):
    rng = np.random.default_rng(seed)
    if pattern == "checker":  # many tied oscillations exercise the argmax order
        idx = np.indices((g.n, g.n)).sum(axis=0).ravel()
        vals = np.where(idx % 2 == 0, 1.0, -1.0)
    else:
        vals = rng.normal(size=g.size)
    shells = rng.normal(size=(4, g.size)) * (rng.random((4, g.size)) < 0.3)
    mu = CarlesonDensity(g, g.box.side / 2.0, shells)
    return GridFunction(g, vals), mu


@settings(max_examples=25)
@given(
    n=st.sampled_from([8, 16, 32, 64]),
    periodic=st.booleans(),
    # None: the default box; else a box whose cell centers round
    box=st.none() | st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.5, 4.0)),
    stride=st.integers(1, 16),
    fracs=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                   min_size=1, max_size=3),
    p=st.floats(1.0, 3.0),
    a=st.floats(0.0, 1.0),
    pattern=st.sampled_from(["normal", "checker"]),
    seed=st.integers(0, 2**16),
)
def test_compiled_family_matches_per_ball_loop(n, periodic, box, stride, fracs, p, a, pattern,
                                               seed):
    if box is None:
        box = TORUS if periodic else WINDOW
    else:
        box = Box(box[:2], box[2], periodic)
    g = Grid(box, n)
    radii = [4 * g.h + t * (g.box.side / 2 - 4 * g.h) for t in fracs]
    try:
        fam = ball_family(g, stride, radii)
    except EmptyFamily:
        reject()
    f, mu = _random_inputs(g, seed, pattern)
    _assert_engine_matches_loop(f, mu, OscillationParams(p=p, a=a), fam)
    _assert_norm_matches_shell_sums(mu, fam)


@pytest.mark.parametrize("periodic", [False, True])
def test_rounded_cell_centers_match_per_ball_loop(periodic):
    # cell centers and ball centers round on this box, and cells at exactly
    # r = 8h, 16h along an axis tie with the sphere: translates whose tie
    # cells round differently must not share a stencil
    g = Grid(Box((0.1, 0.3), 1.7, periodic), 64)
    fam = ball_family(g, 2, [8 * g.h, 16 * g.h])
    f, mu = _random_inputs(g, 1, "normal")
    _assert_engine_matches_loop(f, mu, OscillationParams(p=1.5, a=0.5), fam)


@settings(max_examples=40)
@given(
    periodic=st.booleans(),
    loose=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                   min_size=1, max_size=12),
    lattice=st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31), st.sampled_from([4, 6.5])),
                     max_size=12),
    p=st.floats(1.0, 3.0),
    a=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_plain_list_matches_per_ball_loop(periodic, loose, lattice, p, a, seed):
    # balls anywhere in the box (off the lattice, across the window edge),
    # mixed with lattice balls of shared radii that compile to translates
    g = Grid(TORUS if periodic else WINDOW, 32)
    low, side, h = g.box.lower[0], g.box.side, g.h
    balls = [Ball((low + x * side, low + y * side), h + r * (side / 2 - h)) for x, y, r in loose]
    balls += [Ball((low + (i + 0.5) * h, low + (j + 0.5) * h), r * h) for i, j, r in lattice]
    order = np.random.default_rng(seed).permutation(len(balls))
    f, mu = _random_inputs(g, seed, "normal")
    _assert_engine_matches_loop(f, mu, OscillationParams(p=p, a=a),
                                [balls[k] for k in order])


def _gather_every_ball(monkeypatch):
    """BallFamily.sup with an infinite bound, as the pruned engine's reference."""
    sup = BallFamily.sup
    monkeypatch.setattr(BallFamily, "sup",
                        lambda self, rows, bound: sup(self, rows, np.full(len(self), np.inf)))


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("pattern", ["offset", "checker", "near-constant", "spike", "normal"])
def test_pruned_sups_equal_a_gather_of_every_ball(monkeypatch, periodic, pattern):
    # 1e6 + noise cancels in the variance of the bound; a checkerboard ties
    # many balls, whose first (in family order) must stay the argmax; a
    # near-constant field has oscillations at the rounding level; a lone
    # spike beside a checkerboard has osc_3 > 1 = osc_3(checker) > osc_2
    g = Grid(TORUS if periodic else WINDOW, 32)
    radii = [4 * g.h, 6.5 * g.h, g.box.side / 4] + ([g.box.side / 2] if periodic else [])
    fam = ball_family(g, 2, radii)
    rng = np.random.default_rng(7)
    i, j = np.indices((g.n, g.n))
    checker = np.where((i + j) % 2 == 0, 1.0, -1.0)
    spike = np.where(i < g.n // 2, checker, 0.0)
    spike[3 * g.n // 4, g.n // 2] = 5.0
    vals = {"offset": 1e6 + 1e-3 * rng.normal(size=g.size),
            "checker": checker.ravel(),
            "near-constant": 3.7 + 1e-13 * rng.normal(size=g.size),
            "spike": spike.ravel(),
            "normal": rng.normal(size=g.size)}[pattern]
    f = GridFunction(g, vals)
    mu = CarlesonDensity(g, g.box.side / 2.0, np.stack([vals] * 3) * rng.random(3)[:, None])
    cases = [OscillationParams(p=p, a=a)
             for p in (1.0, 1.5, 2.0, 2.5, 3.0, 6.0) for a in (0.0, 0.5, 1.0)]
    pruned = [seminorm(f, params, fam) for params in cases] + [carleson_norm(mu, fam)]
    _gather_every_ball(monkeypatch)
    full = [seminorm(f, params, fam) for params in cases] + [carleson_norm(mu, fam)]
    for a, b in zip(pruned, full):
        assert (a.value, a.argmax_ball) == (b.value, b.argmax_ball)


def test_pruned_seminorm_gathers_few_balls(monkeypatch):
    # the default torus family at n = 256, stride 16: for p <= 2 the bound
    # leaves fewer than 5% of the balls to gather, and p = 3 fewer than half
    g = Grid(TORUS, 256)
    fam = ball_family(g, 16, default_radii(g))
    f = GridFunction.from_callable(g, builtin_function("trig", g, seed=3))
    sup, gathered = BallFamily.sup, []

    def counting(self, rows, bound=None):
        return sup(self, lambda ball, idx: (gathered.append(len(idx)), rows(ball, idx))[1], bound)

    monkeypatch.setattr(BallFamily, "sup", counting)
    for p in (1.0, 2.0):
        gathered.clear()
        seminorm(f, OscillationParams(p=p), fam)
        assert sum(gathered) < 0.05 * len(fam)
    gathered.clear()
    seminorm(f, OscillationParams(p=3.0), fam)
    assert sum(gathered) < 0.5 * len(fam)


@pytest.mark.parametrize("periodic", [False, True])
def test_overflowing_powers_gather_every_ball(monkeypatch, periodic):
    # at p = 1000 a deviation of 3 already overflows |dev|^p, so many balls
    # compute inf; the first of them in family order must stay the argmax
    g = Grid(TORUS if periodic else WINDOW, 32)
    fam = ball_family(g, 2, [4 * g.h, 6.5 * g.h, g.box.side / 4])
    f = GridFunction(g, np.random.default_rng(5).normal(size=g.size))
    with np.errstate(over="ignore"):
        pruned = [seminorm(f, OscillationParams(p=p), fam) for p in (1000.0, 1e6)]
        _gather_every_ball(monkeypatch)
        full = [seminorm(f, OscillationParams(p=p), fam) for p in (1000.0, 1e6)]
    for a, b in zip(pruned, full):
        assert (a.value, a.argmax_ball) == (b.value, b.argmax_ball)
