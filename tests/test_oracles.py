"""The Taylor-shooting oracle against the mp evaluations its fast paths replace."""

import ast
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import aclab.oracles
from aclab.errors import AclabError, DomainError, ResolutionError, WindowError
from aclab.ground_state import build_ground_state
from aclab.oracles import (
    _horner2,
    _taylor_coeffs,
    first_return_period,
    peak_complement_mp,
    shoot_profile,
)


def _taylor_coeffs_fsum(u0, v0, kappa2, order):
    # the recurrence as first written: fsum over generators of products
    a = [u0, v0] + [mp.mpf(0)] * order
    b = [mp.mpf(0)] * (order + 1)
    c = [mp.mpf(0)] * (order + 1)
    for k in range(order):
        b[k] = mp.fsum(a[i] * a[k - i] for i in range(k + 1))
        c[k] = mp.fsum(b[i] * a[k - i] for i in range(k + 1))
        a[k + 2] = (c[k] - a[k]) / (kappa2 * (k + 1) * (k + 2))
    return a


def _shoot_mp(kappa, xs, dps=40, order=50):
    # the march of shoot_profile with every requested point summed in mp
    with mp.workdps(dps):
        kap = mp.mpf(kappa)
        w = peak_complement_mp(kappa, dps=dps)
        q = w * (2 - w)
        v0 = mp.sqrt(1 - q * q) / (mp.sqrt(2) * kap)
        h_step = min(0.44 * float(kap), 0.3)
        u, v, x = mp.mpf(0), v0, mp.mpf(0)
        out = np.empty(xs.size)
        idx = np.argsort(xs)
        pos = 0
        x_end = 0.5 * math.pi
        while True:
            h = min(h_step, x_end - float(x) + 1e-18)
            a = _taylor_coeffs(u, v, kap**2, order)
            while pos < xs.size and xs[idx[pos]] <= float(x) + h + 1e-15:
                uu, _ = _horner2(a, mp.mpf(xs[idx[pos]]) - x)
                out[idx[pos]] = float(uu)
                pos += 1
            if float(x) + h >= x_end - 1e-15:
                return out
            u, v = _horner2(a, mp.mpf(h))
            x += mp.mpf(h)


@pytest.mark.parametrize("kappa", [0.3, 0.9])
def test_double_sums_match_mp_sums_at_profile_nodes(kappa):
    xs = build_ground_state(kappa).quarter_x
    vals, info = shoot_profile(kappa, xs)
    ref = _shoot_mp(kappa, xs)
    assert np.max(np.abs(vals - ref)) <= 4.5e-16
    assert info["peak_value_gap"] <= 1e-17


@pytest.mark.parametrize("kappa2", ["0.01", "0.81"])
@pytest.mark.parametrize("u0, v0", [("0", "7.07"), ("0.6", "0.8"), ("-0.3", "2.5")])
def test_taylor_coeffs_match_fsum_recurrence(kappa2, u0, v0):
    with mp.workdps(40):
        args = (mp.mpf(u0), mp.mpf(v0), mp.mpf(kappa2), 50)
        fast = _taylor_coeffs(*args)
        ref = _taylor_coeffs_fsum(*args)
        assert len(fast) == len(ref) == 52
        for x, y in zip(fast, ref):
            assert abs(x - y) <= mp.mpf("1e-35") * abs(y)


@pytest.mark.parametrize("kappa", [0.05, 0.3, 0.7, 0.9])
def test_peak_complement_matches_two_transcendental_integrand(kappa):
    # the quarter-period integral by tanh-sinh quadrature, the path the AGM replaced
    dps = 40
    with mp.workdps(dps):
        target = mp.pi / (2 * mp.sqrt(2) * mp.mpf(kappa))

        def g_of_s(s):
            w = mp.e**s
            q = w * (2 - w)
            return (
                mp.quad(
                    lambda p: 1 / mp.sqrt(mp.sin(p) ** 2 + q * (1 + mp.cos(p) ** 2)),
                    [0, mp.pi / 2],
                )
                - target
            )

        s = mp.findroot(
            g_of_s, (-2 * target - 8, mp.mpf(0)), solver="anderson",
            tol=mp.mpf(10) ** (-2 * dps + 8),
        )
        ref = mp.e**s
        assert abs(peak_complement_mp(kappa, dps=dps) - ref) <= mp.mpf("1e-35") * ref


def test_unsorted_points_come_back_in_input_order():
    xs = np.array([1.2, 0.1, 0.5 * math.pi, 0.7, 0.0, 0.35])
    vals, _ = shoot_profile(0.9, xs)
    order = np.argsort(xs)
    sorted_vals, _ = shoot_profile(0.9, xs[order])
    assert np.array_equal(vals[order], sorted_vals)
    assert vals[4] == 0.0 and np.all(np.diff(sorted_vals) > 0)


@pytest.mark.parametrize("xs", [[-0.01, 0.5], [0.5, 0.5 * math.pi + 1e-12]])
def test_points_outside_quarter_period_are_refused(xs):
    with pytest.raises(ValueError, match="inside"):
        shoot_profile(0.5, xs)


def test_refuses_kappa_beyond_its_digits():
    xs = np.linspace(0.0, 0.5 * math.pi, 9)
    with pytest.raises(ResolutionError, match=r"kappa=0\.04 .* by 1\.\d+e-13") as exc:
        shoot_profile(0.04, xs)
    assert isinstance(exc.value, AclabError) and isinstance(exc.value, ValueError)
    vals, info = shoot_profile(0.05, xs)
    assert info["peak_value_gap"] <= 1e-17
    assert np.all(np.isfinite(vals)) and vals.max() <= 1.0


def test_points_outside_quarter_period_raise_domain_error():
    with pytest.raises(DomainError) as exc:
        shoot_profile(0.5, [2.0])
    assert isinstance(exc.value, AclabError)


def test_first_return_without_two_crossings_raises_window_error():
    # the orbit through (0.5, 0) at kappa = 0.5 has period 3.49, so t <= 1 holds no full turn
    with pytest.raises(WindowError, match="upward crossings in t <= 1.0") as exc:
        first_return_period(0.5, 0.0, 0.5, t_max=1.0)
    assert isinstance(exc.value, AclabError)


def test_oracles_import_nothing_of_the_construction():
    # the module docstring: "nothing here shares code paths with the construction it checks"
    names = set()
    for node in ast.walk(ast.parse(Path(aclab.oracles.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    construction = {"ground_state", "spectral", "catalog", "elliprf"}
    hits = sorted(
        n for n in names
        if construction & set(n.split(".")) or n == "scipy.special" or n.startswith("scipy.special.")
    )
    assert hits == []
