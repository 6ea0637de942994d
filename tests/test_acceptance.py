"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion pins the exact experiment configuration it was frozen with,
so reruns are deterministic. Heavier sweeps run at 256^2 and stay within a
couple of minutes in total. The growth-law criteria (03, 04, 08, 09) read
the rows and fits of ``cli.run_sweep``, the path the ``sweep``,
``transport`` and ``perturbed`` commands print.
"""

import math

import numpy as np

from oscillab.carleson import carleson_norm, pullback, sc_class_check
from oscillab.cli import SweepSpec, fits_summary, run_sweep, write_csv
from oscillab.corpus import builtin_density, builtin_function
from oscillab.domain import (
    Ball,
    Box,
    Grid,
    GridFunction,
    PixelMask,
    ball_family,
    distance_transform,
)
from oscillab.fits import fit_models
from oscillab.maps import (
    cellular_field,
    compose_maps,
    estimate_K,
    fd_jacobian,
    integrate_flow,
    make_linear_strain,
    make_rotation,
    make_shear,
    make_translation,
    strain_field,
)
from oscillab.oscillation import (
    OscillationParams,
    check_average_shift,
    compose,
    seminorm,
)
from oscillab.transport import (
    RieszOperator,
    perturbed_growth_comparison,
    solve_perturbed,
)
from oscillab.whitney import (
    check_cover_invariants,
    covering_statistic,
    image_mask,
    shell_histogram,
    whitney_decompose,
)

WINDOW = Box((-1.0, -1.0), 2.0, periodic=False)
TORUS = Box((0.0, 0.0), 1.0, periodic=True)
STRAIN_TS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
STRAIN_MAPS = [f"strain:t={t:g}" for t in STRAIN_TS]


def _verdict(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _sawtooth_profile(y):
    u = np.mod(y, 1.0)
    return np.minimum(u, 1.0 - u)


def _grid_fn(name, grid):
    fn = builtin_function(name, grid)
    return fn if isinstance(fn, GridFunction) else GridFunction.from_callable(grid, fn)


def test_criterion_01_isometry_exactness():
    g = Grid(TORUS, 32)
    fam = ball_family(g, 1, [4 * g.h, 8 * g.h])
    params = OscillationParams(p=2.0, a=0.0)
    isometries = [
        make_translation((8 * g.h, 3 * g.h)),
        make_rotation(math.pi / 2, center=(0.5, 0.5)),
    ]
    worst_ratio = 0.0
    for name in ("log", "sawtooth", "trig", "holder", "bump", "checker"):
        f = _grid_fn(name, g)
        base = seminorm(f, params, fam).value
        for phi in isometries:
            ratio = seminorm(compose(f, phi), params, fam).value / base
            worst_ratio = max(worst_ratio, abs(ratio - 1.0))
    worst_k = max(
        abs(estimate_K(phi, samples=1500, seed=1, box=TORUS) - 2.0)
        for phi in isometries
    )
    _verdict(
        "criterion-01 isometry exactness",
        worst_ratio <= 1e-6 and worst_k <= 1e-9,
        f"max|ratio-1|={worst_ratio:.2e} max|K-2|={worst_k:.2e}",
    )


def test_criterion_02_covering_statistic_bounded():
    g = Grid(TORUS, 256)
    ball = Ball((0.5, 0.5), 0.125)
    ratios = []
    for t in STRAIN_TS:
        # torus shear along a sawtooth profile tuned so K = 2 e^t exactly,
        # matching the distortion ladder of the straining sweep
        lam = math.exp(t) - math.exp(-t)
        phi = make_shear(lam, profile=_sawtooth_profile, profile_lip=1.0)
        cover = whitney_decompose(
            image_mask(phi, ball, g), source_ball=ball, map_name=phi.name
        )
        stat = covering_statistic(cover, a=0.0, p=1.0)
        ratios.append(stat / math.log(phi.K))
    band = max(ratios) / min(ratios)
    _verdict(
        "criterion-02 covering statistic bounded against log K",
        band <= 4.0,
        f"stat/logK in [{min(ratios):.3f}, {max(ratios):.3f}], spread {band:.2f}x",
    )


def test_criterion_03_log_growth_sharp_and_optimal():
    # the default radius ladder at n = 256 is 8h * 2^k, k < 4
    _, fits = run_sweep(SweepSpec(
        kind="bmo-composition", maps=STRAIN_MAPS, functions=["log"],
        grid_n=256, stride=16, p=2.0,
    ))
    log_fit, power_fit = fits["log"]["log"], fits["log"]["power"]
    ok = (
        log_fit.residual <= 0.15
        and log_fit.residual < power_fit.residual
        and log_fit.coeffs[1] > 0
    )
    _verdict(
        "criterion-03 logarithmic growth law for the unbounded-oscillation class",
        ok,
        f"log resid {log_fit.residual:.4f} < power {power_fit.residual:.4f}, "
        f"slope {log_fit.coeffs[1]:.3f}",
    )


def test_criterion_04_holder_power_law():
    h = Grid(WINDOW, 128).h
    worst_c = 0.0
    separations = []
    for a in (0.25, 0.5):
        name = f"holder:a={a:g}"
        rows, fits = run_sweep(SweepSpec(
            kind="holder", maps=[f"strain:t={0.5 * k:g}" for k in range(1, 13)],
            functions=[name], grid_n=128, stride=8, p=2.0, a=a,
            radii=[8 * h * 2**k for k in range(4)],
        ))
        worst_c = max(worst_c, max(r["ratio"] / r["K_analytic"] ** a for r in rows))
        separations.append(fits[name]["power"].residual < fits[name]["log"].residual)
    _verdict(
        "criterion-04 power-law growth in the Hoelder regime",
        worst_c <= 5.0 and all(separations),
        f"fitted C={worst_c:.3f}, power beats log at a=1/4 and a=1/2",
    )


def test_criterion_05_whitney_invariants_random():
    g = Grid(Box((-2.0, -2.0), 4.0), 128)
    rng = np.random.default_rng(11)
    failures = []
    for i in range(20):
        cx, cy = rng.uniform(-0.3, 0.3, size=2)
        ball = Ball((cx, cy), rng.uniform(0.15, 0.35))
        kind = i % 4
        if kind == 0:
            phi = make_shear(rng.uniform(0.5, 3.0))
        elif kind == 1:
            phi = make_rotation(rng.uniform(0, 2 * math.pi), center=(cx, cy))
        elif kind == 2:
            phi = make_linear_strain(rng.uniform(0.2, 0.9))
        else:
            phi = compose_maps(
                make_shear(rng.uniform(0.5, 2.0)), make_rotation(rng.uniform(0, 3))
            )
        mask = image_mask(phi, ball, g)
        cover = whitney_decompose(mask, source_ball=ball, map_name=phi.name)
        inv = check_cover_invariants(cover, mask)
        frac = shell_histogram(cover).covered_mass_fraction
        ok = (
            inv["min_gap"] > 0
            and inv["ratio_min"] >= 0.125
            and inv["ratio_max"] <= 4.0
            and inv["max_radius"] <= ball.radius * (1 + 1e-9)
            and inv["containment_violations"] == 0
            and cover.uncovered_fraction <= 0.02
            and 0.7 <= frac <= 1.0
        )
        if not ok:
            failures.append(phi.name)
    _verdict(
        "criterion-05 cover invariants on 20 random instances",
        not failures,
        f"failures: {failures or 'none'}",
    )


def test_criterion_06_carleson_pullback_growth():
    g = Grid(WINDOW, 256)
    fam = ball_family(g, 32, [0.0625, 0.125, 0.25, 0.5])
    densities = [builtin_density("strip", g), builtin_density("strip", g).scaled(2.0)]
    band_ok, ceiling_ok, sc_ok = True, True, True
    spread = 0.0
    for mu in densities:
        sc_ok &= sc_class_check(mu, fam)
        base = carleson_norm(mu, fam).value
        ys = []
        for t in STRAIN_TS:
            phi = make_linear_strain(-t)  # contracts the strip axis
            grown = carleson_norm(pullback(mu, phi), fam).value
            ceiling_ok &= grown <= 1.1 * phi.K**2 * base
            ys.append((grown - base) / mu.sup_norm**2 / math.log(phi.K))
        spread = max(spread, max(ys) / min(ys))
        band_ok &= min(ys) > 0 and max(ys) / min(ys) <= 4.0
    _verdict(
        "criterion-06 pull-back measure growth bounded against log K",
        band_ok and ceiling_ok and sc_ok,
        f"max band spread {spread:.2f}x, naive K^2 ceiling respected",
    )


def test_criterion_07_average_shift_bound():
    g = Grid(TORUS, 256)
    fam = ball_family(g, 16, [4 * g.h * 2**k for k in range(5)])
    rng = np.random.default_rng(7)
    worst = 0.0
    for name in ("log", "sawtooth", "trig", "holder"):
        f = _grid_fn(name, g)
        for a in (0.0, 0.5):
            params = OscillationParams(p=2.0, a=a)
            sv = seminorm(f, params, fam).value
            for _ in range(100):
                lam = rng.uniform(2.0, 32.0)
                rmax = 0.5 / lam
                r = min(max(rng.uniform(4 * g.h, max(rmax, 4 * g.h)), 4 * g.h), rmax)
                ball = Ball(tuple(rng.uniform(0, 1, 2)), r)
                worst = max(worst, check_average_shift(f, ball, lam, params, sv))
    _verdict(
        "criterion-07 dilation average-shift ratio uniformly bounded",
        worst <= 2.0,
        f"worst ratio {worst:.3f} over 800 draws",
    )


def _transport_rows(function, a, times):
    # the default radius ladder at n = 256 is 8h * 2^k, k < 4
    rows, _ = run_sweep(SweepSpec(
        kind="transport", functions=[function], field_name="strain", times=times,
        dt=0.05, grid_n=256, stride=16, p=2.0, a=a,
    ))
    return rows


def test_criterion_08_transport_growth():
    g = Grid(WINDOW, 256)
    v = strain_field()

    # a = 0: affine-in-time growth model beats the exponential one, fitted
    # on all seven rows with t = 0 entered as 1e-9
    rows0 = _transport_rows("log", 0.0, [0.0, *STRAIN_TS])
    fits0 = fit_models(
        [(max(r["t"], 1e-9), r["ratio"]) for r in rows0], models=("affine", "exp")
    )
    affine_wins = fits0["affine"].residual < fits0["exp"].residual

    # a = 1/2: log-ratio slope at most 1.1 a Lip(v)
    rows5 = _transport_rows("holder:a=0.5", 0.5, [0.5 * k for k in range(9)])
    ys = np.array([r["ratio"] for r in rows5])
    ts = np.array([r["t"] for r in rows5])
    slope = np.linalg.lstsq(
        np.vstack([np.ones_like(ts), ts]).T, np.log(ys), rcond=None
    )[0][1]
    slope_ok = slope <= 1.1 * 0.5 * v.lip

    # flow quality: volume preservation and the exponential distortion envelope
    vol_ok, gronwall_ok = True, True
    for field, tmax in ((v, 3.0), (cellular_field(0.05, 1), 1.0)):
        for t in (tmax / 3, tmax):
            phi = integrate_flow(field, t, min(0.02, 0.05 / field.lip))
            dets = np.linalg.det(fd_jacobian(phi.forward, g.cell_centers()[::97]))
            vol_ok &= np.abs(dets - 1.0).max() <= 1e-6
            K = estimate_K(phi, samples=1500, seed=5, box=WINDOW)
            gronwall_ok &= K <= 2.1 * math.exp(field.lip * t)
    _verdict(
        "criterion-08 transport norm growth and flow quality",
        affine_wins and slope_ok and vol_ok and gronwall_ok,
        f"affine beats exp, a=1/2 slope {slope:.3f} <= 0.55, det/envelope ok",
    )


def test_criterion_09_perturbed_transport():
    h = Grid(TORUS, 128).h
    runs = []
    l2_ok = True
    for amp in (0.0253, 0.0506, 0.0759):
        rows, _ = run_sweep(SweepSpec(
            kind="perturbed", field_name=f"cellular:amp={amp:g},k=1",
            functions=["trig:seed=1,modes=4"], box_lower=(0.0, 0.0), box_side=1.0,
            periodic=True, grid_n=128, stride=8, radii=[4 * h * 2**k for k in range(4)],
            p=2.0, dt=0.0625, times=[0.25 * k for k in range(7)],
        ))
        lip = cellular_field(amp, 1).lip
        for r in rows[1:]:
            runs.append((lip, r["t"], r["ratio"]))
            l2_ok &= r["l2"] / rows[0]["l2"] <= math.exp(1.05 * r["t"])
    max_lt = max(l * t for l, t, _ in runs)
    cmp = perturbed_growth_comparison(runs)
    sharp_wins = cmp["sharp"]["residual"] < cmp["rough"]["residual"]
    _verdict(
        "criterion-09 perturbed transport prefactor model",
        sharp_wins and l2_ok and max_lt >= 2.0,
        f"sharp resid {cmp['sharp']['residual']:.3f} < rough "
        f"{cmp['rough']['residual']:.3f}, max L*T={max_lt:.2f}",
    )


def test_criterion_10_numerical_infrastructure():
    # spectral multiplier self-adjointness
    g = Grid(TORUS, 64)
    R = RieszOperator(g)
    rng = np.random.default_rng(3)
    f1, f2 = rng.normal(size=g.size), rng.normal(size=g.size)
    lhs = float(np.dot(R.apply(GridFunction(g, f1)).values, f2))
    rhs = float(np.dot(f1, R.apply(GridFunction(g, f2)).values))
    adjoint_ok = abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    # splitting order by self-convergence
    g2 = Grid(TORUS, 256)
    c = g2.cell_centers()
    w0 = GridFunction(g2, np.sin(2 * np.pi * c[:, 0]) * np.cos(2 * np.pi * c[:, 1]))
    u = cellular_field(0.0253, 1)
    ref = solve_perturbed(u, w0, 1.0, 0.0078125, [1.0])[0].values
    errs = [
        np.linalg.norm(solve_perturbed(u, w0, 1.0, dt, [1.0])[0].values - ref)
        for dt in (0.25, 0.125, 0.0625)
    ]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    strang_ok = orders[0] > 1.6 and orders[1] > 1.5

    # distance transform against analytic distances
    g3 = Grid(WINDOW, 128)
    cc = g3.cell_centers()
    rr = np.sqrt((cc**2).sum(axis=1))
    disk = PixelMask(g3, rr < 0.6)
    err_disk = np.abs(
        distance_transform(disk).dist - np.maximum(0.6 - rr, 0.0)
    )[disk.bits].max()
    half = PixelMask(g3, cc[:, 0] < 0.2)
    err_half = np.abs(
        distance_transform(half).dist - np.maximum(0.2 - cc[:, 0], 0.0)
    )[half.bits].max()
    edt_ok = max(err_disk, err_half) <= g3.h * math.sqrt(2)

    # byte-identical determinism of a full sweep
    import io

    spec = SweepSpec.from_dict(
        {
            "kind": "bmo-composition",
            "maps": "strain:t=0.5;strain:t=1;strain:t=1.5;strain:t=2",
            "functions": "log",
            "grid_n": "64",
            "stride": "8",
            "seed": "3",
        }
    )
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        rows, fits = run_sweep(spec)
        write_csv(rows, buf)
        for line in fits_summary(fits):
            buf.write(line + "\n")
        outs.append(buf.getvalue())
    deterministic = outs[0] == outs[1]

    _verdict(
        "criterion-10 numerical infrastructure",
        adjoint_ok and strang_ok and edt_ok and deterministic,
        f"adjoint ok, splitting orders {orders[0]:.2f}/{orders[1]:.2f}, "
        f"edt errs {err_disk:.4f}/{err_half:.4f}, deterministic={deterministic}",
    )
