import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import elliprf

import aclab.ground_state
from aclab.catalog import orbit_invariant
from aclab.cli import _parse_kappa_grid
from aclab.errors import DomainError, ResolutionError, SymmetryError
from aclab.ground_state import (
    G_AT_ZERO,
    RESIDUAL_TOL,
    _g_from_complement,
    _jacobi_amplitude,
    build_ground_state,
    energy,
    energy_identities,
    eval_g,
    kink_profile,
    peak_bounds,
    solve_peak,
)
from aclab.oracles import peak_complement_mp
from aclab.spectral import TorusField, TorusGrid, sine_values
from helpers import composite_simpson, fft_derivative, grid_energy, mp_fraction

SQRT2 = math.sqrt(2.0)
# a few ulps: the closed form and the 30-digit reference round differently
CLOSED_FORM_RTOL = 8.0 * np.finfo(float).eps


def _g_reference(q):
    """g at 1 - N^2 = q (an mpf) to 30 digits: R_F(0, 1+q, 2q) as one AGM."""
    with mp.workdps(30):
        return mp.pi / (2 * mp.agm(mp.sqrt(1 + q), mp.sqrt(2 * q)))


class TestClosedForm:
    """The closed forms against 30-digit mpmath references."""

    @given(log10_w=st.floats(-48.0, 0.0))
    def test_g_against_mpmath(self, log10_w):
        w = mp.mpf(10.0**log10_w)
        ref = _g_reference(w * (2 - w))
        expected = pytest.approx(float(ref), rel=CLOSED_FORM_RTOL, abs=0.0)
        assert _g_from_complement(float(w)) == expected

    @given(N=st.floats(0.0, 1.0 - 1e-9))
    def test_eval_g_against_mpmath(self, N):
        ref = _g_reference((1 - mp.mpf(N)) * (1 + mp.mpf(N)))
        assert eval_g(N) == pytest.approx(float(ref), rel=CLOSED_FORM_RTOL, abs=0.0)

    @given(log10_w=st.floats(-48.0, 0.0))
    def test_profile_against_mpmath_sn(self, log10_w):
        # sin am(z | k) with k' from q in double, against sn(z | k^2) with k^2
        # from the same w in enough digits that 1 - k^2 = 2q / (1 + q) survives;
        # nodes from z = 1e-6 K, because mpmath's sn carries absolute noise
        # near z = 0 (-7e-76 at z = 0, w = 1e-48), and every grid node but the
        # exact x = 0 seam lies above z = 1e-4
        w = 10.0**log10_w
        q = w * (2.0 - w)
        t = np.concatenate([np.geomspace(1e-6, 1e-2, 5), np.linspace(0.05, 1.0, 12)])
        with mp.workdps(30 + math.ceil(-math.log10(q))):
            W = mp.mpf(w)
            Q = W * (2 - W)
            m = (1 - W) ** 2 / (1 + Q)
            K = mp.ellipk(m)
            z = np.array([float(ti * K) for ti in t])
            ref = np.array([float(mp.ellipfun("sn", zi, m=m)) for zi in z])
        sn = np.sin(_jacobi_amplitude(z, math.sqrt(2.0 * q / (1.0 + q))))
        np.testing.assert_allclose(sn, ref, rtol=CLOSED_FORM_RTOL, atol=0.0)


def _g_by_elliprf(w):
    # the Carlson R_F path the AGM replaced, kept as its reference
    q = w * (2.0 - w)
    return float(elliprf(0.0, 1.0 + q, 2.0 * q))


# every kappa the CLI defaults, the acceptance gate and the benchmark solve for
CLI_AND_GATE_KAPPAS = sorted(
    set(_parse_kappa_grid("0.05:0.95:0.05"))
    | {0.05 + 0.05 * i for i in range(19)}
    | {0.02, 0.26, 0.52, 0.78, 0.45, 0.9, 0.5, 0.39999999999999997, 0.44999999999999996}
    | {0.49999999999999994, 0.5499999999999999, 0.7999999999999999}
)


class TestAgainstElliprf:
    @settings(max_examples=400)
    @given(log10_w=st.floats(-60.0, 0.0))
    def test_g_within_two_ulp(self, log10_w):
        w = 10.0**log10_w
        ref = _g_by_elliprf(w)
        assert abs(_g_from_complement(w) - ref) <= 2.0 * math.ulp(ref)

    def test_peak_bit_identical_at_cli_and_gate_kappa(self, monkeypatch):
        agm = [solve_peak(k) for k in CLI_AND_GATE_KAPPAS]
        monkeypatch.setattr(aclab.ground_state, "_g_from_complement", _g_by_elliprf)
        for k, peak in zip(CLI_AND_GATE_KAPPAS, agm):
            ref = solve_peak(k)
            assert (peak.N, peak.complement) == (ref.N, ref.complement), k


def _imported_names(node):
    """Dotted names an import statement binds or reads from; [] for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
        return [module] + [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
    return []


def _module_level_nodes(tree):
    """Every node that runs on import: the tree without function bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _library_sources():
    return [(p.name, ast.parse(p.read_text())) for p in sorted(Path(aclab.__file__).parent.glob("*.py"))]


def _fresh_python(code, timeout):
    env = dict(os.environ)
    src = str(Path(aclab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_no_module_imports_scipy():
    # the library runs its own AGM, Taylor march, RK4 and numpy eigensolver;
    # scipy is a test dependency, imported nowhere in it, at module level or in a function
    hits = []
    for name, tree in _library_sources():
        for node in ast.walk(tree):
            hits += [(name, n) for n in _imported_names(node) if n.split(".")[0] == "scipy"]
            # __import__("scipy.x") and importlib.import_module("scipy.x") name it in a string
            if isinstance(node, ast.Constant) and str(node.value).split(".")[0] == "scipy":
                hits.append((name, node.value))
    assert hits == []


def test_no_scipy_module_loads_in_a_full_gate_run():
    code = (
        "import sys, aclab.verify; "
        "assert all(r.passed for r in aclab.verify.run_suite('all')); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
    out = _fresh_python(code, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_heavy_imports_wait_for_the_functions_that_need_them():
    # the oracles load on first call, and no module imports mpmath, a test
    # dependency, on import
    hits = []
    for name, tree in _library_sources():
        for node in _module_level_nodes(tree):
            for n in _imported_names(node):
                parts = n.split(".")  # ".oracles.x" -> ["", "oracles", "x"]
                if parts[:2] == ["", "oracles"] or parts[0] == "mpmath":
                    hits.append((name, n))
    assert hits == []


def test_steady_state_modules_import_without_scipy_or_mpmath():
    # a fresh process: the steady-state modules, and every CLI command, start
    # without the heavy modules; the oracles load on first call
    code = (
        "import sys, aclab.ground_state, aclab.spectral, aclab.catalog, aclab.diagnostics, "
        "aclab.evolution, aclab.serialize, aclab.verify, aclab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
    out = _fresh_python(code, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestEvalG:
    def test_at_zero(self):
        assert abs(eval_g(0.0) - G_AT_ZERO) < 1e-13

    def test_divergence_near_one(self):
        assert eval_g(0.999999) > 4.0

    def test_against_simpson(self):
        N = 0.9

        def f(theta):
            return 1.0 / np.sqrt(2.0 - N * N * (1.0 + np.sin(theta) ** 2))

        oracle = composite_simpson(f, 0.0, 0.5 * math.pi)
        assert eval_g(N) == pytest.approx(oracle, abs=1e-10)

    def test_strictly_increasing(self):
        ns = np.linspace(0.0, 1.0 - 1e-6, 40)
        vals = [eval_g(float(n)) for n in ns]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_g(1.0)
        with pytest.raises(DomainError):
            eval_g(-0.1)


class TestSolvePeak:
    def test_weak_diffusion_limit(self):
        pv = solve_peak(1.0 - 1e-9)
        assert pv.N < 1e-3

    def test_two_sided_bound_applies(self):
        pv = solve_peak(0.2)
        lo, hi = peak_bounds(pv)
        assert lo < pv.complement < hi

    def test_period_identity(self):
        pv = solve_peak(0.5)
        period = 4.0 * SQRT2 * 0.5 * eval_g(pv.N)
        assert period == pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_residual_certified(self):
        assert solve_peak(0.35).residual <= 1e-12

    def test_peak_decreases_with_kappa(self):
        kappas = [0.1, 0.3, 0.5, 0.7, 0.9]
        peaks = [solve_peak(k).N for k in kappas]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.4):
            with pytest.raises(DomainError):
                solve_peak(bad)
        with pytest.raises(DomainError, match="floor"):
            solve_peak(0.01)


class TestProfile:
    def test_endpoints(self, gs_cache):
        gs = gs_cache(0.5)
        assert gs.quarter_u[0] == 0.0
        assert gs.quarter_u[-1] == pytest.approx(gs.peak.N, abs=1e-10)

    def test_tabulation_is_read_only(self, gs_cache):
        # the session's gs_cache hands one GroundState to many tests
        gs = gs_cache(0.5)
        n = gs.field.grid.n_points
        quarter = slice(n // 2, n // 2 + n // 4 + 1)
        for arr in (gs.quarter_x, gs.quarter_u):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[1] = 0.0
        assert np.array_equal(gs.quarter_x, gs.field.grid.x[quarter])
        assert np.array_equal(gs.quarter_u, gs.field.values[quarter])

    def test_monotone_and_bounded(self, gs_cache):
        gs = gs_cache(0.5)
        assert np.all(np.diff(gs.quarter_u) > 0.0)
        assert np.max(np.abs(gs.field.values)) < 1.0

    def test_reflection_symmetries(self, gs_cache):
        v = gs_cache(0.7).field.values
        n = v.size
        # odd about 0 and even about pi/2, exactly by assembly
        assert v[0] == 0.0 and v[n // 2] == 0.0
        assert np.array_equal(v[1 : n // 2], -v[: n // 2 : -1])
        quarter = v[n // 2 : n // 2 + n // 4 + 1]
        mirrored = v[n // 2 + n // 4 : n][::-1]
        assert np.array_equal(quarter[1:], mirrored)

    def test_residual_claim_of_readme(self, gs_cache):
        # the README promises a residual below 1e-9 for kappa in [0.015, 0.95]
        # at n_points = 2048; kappa = 0.02 keeps it at n_points = 8192 too
        cases = [(float(k), 2048) for k in np.linspace(0.05, 0.95, 19)] + [(0.02, 8192)]
        worst = max((gs_cache(k, n).residual, k, n) for k, n in cases)
        assert worst[0] < 1e-9, worst

    @pytest.mark.parametrize("kappa", [0.3, 0.8])
    def test_quarter_profile_against_mpmath_inversion(self, kappa):
        # peak solve and profile inversion together, against both redone in
        # 30 digits; at the exact peak G(pi/2) = pi/(2 sqrt 2 kappa)
        gs = build_ground_state(kappa)
        nodes = np.linspace(1, gs.quarter_x.size - 1, 8).astype(int)
        with mp.workdps(30):
            w = mp_fraction(peak_complement_mp(kappa))
            N = 1 - w
            q = w * (2 - w)
            scale = mp.sqrt(2) * mp.mpf(kappa)

            def G(psi):
                return mp.quad(
                    lambda p: 1 / mp.sqrt(mp.sin(p) ** 2 + q * (1 + mp.cos(p) ** 2)),
                    [0, psi],
                )

            for i in nodes:
                target = (mp.pi / 2 - mp.mpf(gs.quarter_x[i])) / scale
                start = mp.acos(min(mp.mpf(gs.quarter_u[i]) / N, 1))
                psi = mp.findroot(lambda p: G(p) - target, start)
                assert abs(float(N * mp.cos(psi)) - gs.quarter_u[i]) <= 1e-14, i

    def test_pde_residual_including_seams(self, gs_cache):
        # the max-norm residual covers every grid node, in particular the
        # reflection seams at 0 and pi/2
        for kappa in (0.3, 0.9):
            assert gs_cache(kappa).residual < 1e-8

    def test_kink_comparison_small_kappa(self, gs_cache):
        gs = gs_cache(0.1)
        diff = kink_profile(gs.kappa, gs.quarter_x) - gs.quarter_u
        assert np.max(np.abs(diff)) < 1e-3
        assert np.min(diff) >= -1e-12  # round-off slack near x = 0

    def test_kink_dominates_everywhere(self, gs_cache):
        for kappa in (0.3, 0.5, 0.9):
            gs = gs_cache(kappa)
            assert np.min(kink_profile(kappa, gs.quarter_x) - gs.quarter_u) >= -1e-12

    def test_pointwise_ordering_in_kappa(self, gs_cache):
        u_small = gs_cache(0.3).quarter_u
        u_large = gs_cache(0.6).quarter_u
        assert np.all(u_small[1:] > u_large[1:])

    def test_orbit_invariant_constant_along_profile(self, gs_cache):
        gs = gs_cache(0.5)
        u = gs.field.values
        v = fft_derivative(gs.field.values)
        C = orbit_invariant(u, v, gs.kappa)
        expected = 0.5 * (1.0 - gs.peak.q**2)
        assert np.max(np.abs(C - expected)) < 1e-9

    def test_resolution_gate(self):
        # the residual there is 8.8e-5: n_points = 512 cannot resolve the layer
        with pytest.raises(ResolutionError, match="n_points=512"):
            build_ground_state(0.02, TorusGrid(512))

    @pytest.mark.parametrize("kappa, n", [(0.015, 2048), (0.02, 2048), (0.1, 256), (0.4, 64)])
    def test_builds_below_the_former_grid_floor(self, kappa, n):
        # the exact profile passes the residual test down to about kappa * n = 19
        assert build_ground_state(kappa, TorusGrid(n)).residual < 1e-9

    def test_rounding_floor_is_a_resolution_error(self):
        # at n = 16384 the rounding floor kappa^2 (n/2)^2 eps of the spectral
        # u'' reaches RESIDUAL_TOL near kappa = 0.8, so exact profiles may
        # fail the residual check there: the grid is refused, never the profile
        n = 16384
        grid = TorusGrid(n)
        built = set()
        for kappa in (0.3, 0.5, 0.7, 0.822, 0.8711, 0.9, 0.95):
            try:
                assert build_ground_state(kappa, grid).residual < RESIDUAL_TOL
                built.add(kappa)
            except ResolutionError as exc:
                floor = kappa**2 * (n // 2) ** 2 * np.finfo(float).eps
                assert floor >= 0.25 * RESIDUAL_TOL
                assert f"rounding floor of u'' is {floor:.3e}" in str(exc)
        assert 0.3 in built

    def test_small_kappa_energy_ratio_trend(self, gs_cache):
        limit = 4.0 * SQRT2 / 3.0
        r1 = gs_cache(0.1).energy / 0.1
        r2 = gs_cache(0.05).energy / 0.05
        assert abs(r2 - limit) < abs(r1 - limit) + 1e-12
        assert abs(r2 / limit - 1.0) < 1e-6


class TestEnergy:
    def test_zero_field(self, grid2048):
        field = TorusField(grid2048, np.zeros(2048))
        assert energy(field, 0.5) == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_uniform_one(self, grid2048):
        # an even field has no sine spectrum: refused, not differentiated otherwise
        field = TorusField(grid2048, np.ones(2048))
        with pytest.raises(SymmetryError, match="symmetry violation"):
            energy(field, 0.7)

    def test_single_mode_closed_form(self, grid2048):
        A, kappa = 0.5, 0.9
        field = TorusField(grid2048, A * np.sin(grid2048.x))
        closed = kappa**2 * A**2 * math.pi / 2.0 + 0.25 * (
            2.0 * math.pi - 2.0 * A**2 * math.pi + 0.75 * A**4 * math.pi
        )
        assert closed == pytest.approx(0.48797 * math.pi, abs=1e-4 * math.pi)
        assert energy(field, kappa) == pytest.approx(closed, abs=1e-12)

    def test_domain(self, grid2048):
        with pytest.raises(DomainError):
            energy(TorusField(grid2048, np.zeros(2048)), 0.0)

    @pytest.mark.parametrize("kappa", [math.inf, 1e200])
    def test_kappa_without_a_finite_square_refused(self, grid2048, kappa):
        with pytest.raises(DomainError, match="finite square"):
            energy(TorusField(grid2048, 0.5 * np.sin(grid2048.x)), kappa)

    @pytest.mark.parametrize("kappa", [0.05, 0.5, 0.9])
    def test_build_energy_is_public_energy(self, gs_cache, kappa):
        gs = gs_cache(kappa)
        assert gs.energy == energy(gs.field, kappa)

    @given(
        n=st.sampled_from([16, 32, 64, 128, 256]),
        seed=st.integers(0, 2**32 - 1),
        kappa=st.floats(0.05, 0.95),
    )
    def test_parseval_gradient_matches_the_grid_sum(self, n, seed, kappa):
        # the gradient term by Parseval against the grid sum of u'^2, over
        # random odd fields: within 4 ulp (13,000 draws measured, 4 at most)
        rng = np.random.default_rng(seed)
        values = sine_values(rng.uniform(-1.0, 1.0, rng.integers(1, n // 2)), n)
        e = energy(TorusField(TorusGrid(n), values), kappa)
        ref = grid_energy(values, kappa)
        assert abs(e - ref) <= 4.0 * np.spacing(ref)

    def test_parseval_gradient_against_40_digits(self):
        # where the two forms part most (equal coefficients: 7 ulp here), the
        # grid sum is the one that rounds: 7.7 ulp from the exact value of the
        # same definition, the Parseval form 0.7
        n, kappa = 256, 0.9
        values = sine_values(np.full(96, 0.5), n)
        with mp.workdps(40):
            v = [mp.mpf(float(t)) for t in values]
            c = [2 * mp.fsum(v[j] * mp.sinpi(mp.mpf(m * (2 * j - n)) / n) for j in range(n)) / n
                 for m in range(1, n // 2)]
            grad = mp.mpf(kappa) ** 2 / 2 * mp.pi * mp.fsum(m * m * c[m - 1] ** 2
                                                            for m in range(1, n // 2))
            exact = grad + mp.pi / (2 * n) * mp.fsum((1 - t * t) ** 2 for t in v)
        e = energy(TorusField(TorusGrid(n), values), kappa)
        assert abs(e - exact) <= np.spacing(e)


class TestEnergyIdentities:
    @pytest.mark.parametrize("kappa", [0.5, 0.9])
    def test_triple_agreement(self, gs_cache, kappa):
        rep = energy_identities(gs_cache(kappa))
        assert rep.max_discrepancy <= 1e-8

    def test_zero_field_quarter_form(self, grid2048):
        # the quartic form of the zero field integrates 1 over a quarter period
        v = np.zeros(2048)
        quarter = 0.25 * grid2048.dx * float(np.sum(1.0 - v**4))
        assert quarter == pytest.approx(0.5 * math.pi, abs=1e-12)
        assert quarter == pytest.approx(energy(TorusField(grid2048, v), 1.0), abs=1e-12)


def test_kink_profile_values():
    x = np.array([0.0, 1.0])
    k = kink_profile(0.5, x)
    assert k[0] == 0.0
    assert k[1] == pytest.approx(math.tanh(1.0 / (SQRT2 * 0.5)))


@pytest.mark.parametrize("kappa", [1e-320, 5e-324])
def test_kink_profile_of_a_tiny_kappa_is_the_step(kappa):
    # x / (sqrt 2 kappa) overflows; under the suite's warning filter the
    # overflow once escaped as an error instead of the correct step
    k = kink_profile(kappa, np.linspace(-1.0, 1.0, 5))
    assert k.tolist() == [-1.0, -1.0, 0.0, 1.0, 1.0]


def test_gs_cache_keys_on_exact_kappa(gs_cache):
    near = float(np.linspace(0.05, 0.95, 19)[15])  # 0.7999999999999999
    assert gs_cache(near).kappa == near
    assert gs_cache(0.8).kappa == 0.8
