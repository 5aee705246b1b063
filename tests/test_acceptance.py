"""Acceptance suite: one test per numbered criterion, each enforcing the
agreed tolerance inside the agreed wall-clock budget and printing a single
PASS line when it holds."""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from oracles import WholeArrayPlan, fd_derivative, plancherel_coeffs_symbolic
from zetaflow import (
    EigenSpectrum,
    GroupData,
    PlancherelPolynomial,
    TruncationPolicy,
    abscissa_estimate,
    anchor_set,
    branch_weights,
    contour_residue,
    continued_from,
    fitted_growth_exponent,
    heat_resolvent_identity,
    heat_totals,
    log_derivative,
    m_tau_coeffs,
    moment_sum,
    partial_fraction_coeffs,
    plancherel_polynomial,
    residue_order,
    resolvent_trace_geometric,
    resolvent_trace_via_heat,
    ruelle_factorized_log,
    ruelle_log,
    save,
    selberg_log,
    singularities,
    small_t_combination,
    synthesize,
    tau_pm_split,
    weyl_action,
)
from zetaflow.chars import character_table
from zetaflow.cli import main
from zetaflow.continuation import cauchy_plancherel_identity
from zetaflow.heat import plancherel_heat_integral
from zetaflow.weights import as_weight
from zetaflow.zeta import exterior_class_sum


class _Budget:
    def __init__(self, num: int, seconds: float, message: str):
        self.num = num
        self.seconds = seconds
        self.message = message

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"FAIL criterion {self.num:02d}: {self.message} ({elapsed:.2f}s)")
            return False
        assert elapsed < self.seconds, (
            f"criterion {self.num:02d} took {elapsed:.2f}s, budget {self.seconds:.0f}s"
        )
        print(f"PASS criterion {self.num:02d}: {self.message} ({elapsed:.2f}s)")
        return False


def _separated(rng, count, lo=0.5, hi=6.0, gap=0.1):
    while True:
        pts = np.sort(rng.uniform(lo, hi, count))
        if np.diff(pts).min() >= gap:
            return pts


def test_criterion_01_matrix_resolvent_identity():
    with _Budget(1, 5.0, "anchored matrix resolvents match the partial fraction sum"):
        rng = np.random.default_rng(101)
        worst = 0.0
        eye = np.eye(5)
        for n_anchors in range(2, 7):
            for _ in range(6):
                while True:
                    V = rng.normal(size=(5, 5))
                    if np.linalg.cond(V) < 100.0:
                        break
                lam = rng.uniform(0.5, 5.0, 5) + 0.2 * np.arange(5)
                A = V @ np.diag(lam) @ np.linalg.inv(V)
                anchors = _separated(rng, n_anchors)
                coeffs = partial_fraction_coeffs(anchor_set(anchors))
                prod = eye.astype(complex)
                for s in anchors:
                    prod = prod @ np.linalg.inv(A + s * s * eye)
                split = sum(
                    c * np.linalg.inv(A + s * s * eye)
                    for c, s in zip(coeffs, anchors)
                )
                worst = max(worst, float(np.linalg.norm(prod - split)))
        assert worst < 1e-9, worst


def test_criterion_02_moment_vanishing():
    with _Budget(2, 2.0, "anchor combinations kill every moment below the top"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            aset = anchor_set(_separated(rng, n))
            coeffs = partial_fraction_coeffs(aset)
            for l in range(n):
                scale = sum(abs(c) * abs(a) ** (2 * l) for c, a in zip(coeffs, aset.anchors))
                want = 0.0 if l < n - 1 else (-1.0) ** (n - 1)
                assert abs(moment_sum(aset, l) - want) <= 1e-9 * max(scale, 1.0), (l, n)
        # the rational example works out to zero by hand: 1/24 - 4/15 + 9/40
        exact = moment_sum(anchor_set([1.0, 2.0, 3.0]), 1)
        assert abs(exact) < 1e-12


def test_criterion_03_small_time_vanishing_order():
    with _Budget(3, 5.0, "anchor-combined kernels vanish to order N-1 at small times"):
        ts = np.geomspace(1e-4, 1e-3, 9)
        for n in (3, 4, 5):
            aset = anchor_set([float(k) for k in range(1, n + 1)])
            ws = np.abs(small_t_combination(aset, ts))
            slope = float(np.polyfit(np.log(ts), np.log(ws), 1)[0])
            assert slope >= n - 1 - 0.1, (n, slope)


def test_criterion_04_heat_resolvent_identity_grid():
    with _Budget(4, 10.0, "the time integral of the heat kernel factor equals e^{-sl}/2s"):
        worst = 0.0
        for s in (1.0, 2.0, 2.0 + 1.0j, 3.0 - 1.0j, 0.5):
            for length in (0.2, 1.0, 2.0, 3.5, 5.0):
                lhs, rhs = heat_resolvent_identity(s, length)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst < 1e-7, worst


def test_criterion_05_cauchy_plancherel():
    with _Budget(5, 5.0, "the resolvent pairing of the spectral density equals pi P(s)/s"):
        flat = PlancherelPolynomial((1.0 + 0j,), (Fraction(1),))
        for s in (0.7, 1.0, 2.0, 1.5 - 0.4j, 3.0):
            lhs, rhs = cauchy_plancherel_identity(s, flat)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)), s
        gd = GroupData(3)
        for sigma in ((0,), (1,)):
            P = plancherel_polynomial(gd, sigma)
            for s in (0.8, 1.3, 2.0 + 0.5j):
                lhs, rhs = cauchy_plancherel_identity(s, P)
                scale = max(abs(rhs), math.pi * abs(P(s)) / abs(s), 1e-3)
                assert abs(lhs - rhs) <= 1e-6 * scale, (sigma, s)


def test_criterion_06_resolvent_two_routes():
    with _Budget(6, 60.0, "geometric and heat-integrated resolvent traces agree"):
        ls = synthesize(GroupData(3), 200, systole=0.5, seed=17)
        tp = TruncationPolicy(lmax=40.0, tail_eps=1e-5)
        for anchors in ((2.0, 3.0), (1.5, 2.5, 3.5)):
            aset = anchor_set(anchors)
            geo = resolvent_trace_geometric(ls, (0,), aset, tp)
            via, _ = resolvent_trace_via_heat(ls, (0,), aset, tp)
            assert abs(geo.value - via) <= 1e-5 * abs(via), anchors


def test_criterion_07_residues_recover_multiplicities():
    with _Budget(7, 10.0, "contour residues of the continuation are the multiplicities"):
        rng = np.random.default_rng(107)
        gd = GroupData(3)
        for trial in range(20):
            entries = []
            if trial == 0:
                entries.append((0j, int(rng.integers(1, 3))))
            base = _separated(rng, int(rng.integers(3, 8)), lo=0.5, hi=12.0, gap=0.3)
            for t in base:
                tk = complex(t, rng.uniform(-1.0, 1.0)) if rng.random() < 0.25 else complex(t)
                entries.append((tk, int(rng.integers(1, 4))))
            cl = continued_from(
                EigenSpectrum(entries=tuple(entries)), gd, (0,), dim_chi=1, volume=1.0
            )
            for point, order in singularities(cl):
                raw = contour_residue(cl, point)
                assert abs(raw - round(raw.real)) < 1e-6, (trial, point)
                assert residue_order(cl, point) == order, (trial, point)


def test_criterion_08_log_derivative_is_the_derivative():
    with _Budget(8, 30.0, "the log derivative series differentiates the log series"):
        ls = synthesize(GroupData(3), 150, systole=0.5, seed=11)
        tp = TruncationPolicy(lmax=40.0, tail_eps=1e-13)
        a = abscissa_estimate(ls, "selberg")
        rng = np.random.default_rng(108)
        for _ in range(10):
            s = complex(a + 1.0 + rng.uniform(0, 1), rng.uniform(-2, 2))
            ld = log_derivative(s, (0,), ls, tp).value
            fd = fd_derivative(lambda z: selberg_log(z, (0,), ls, tp).value, s)
            assert abs(fd - ld) <= 1e-6 * max(1.0, abs(ld)), s


def test_criterion_09_exterior_power_factorization():
    with _Budget(9, 60.0, "the full series factorizes through exterior-power factors"):
        cases = [
            (GroupData(3), 30.0, (4.2, 4.8, 5.1 + 0.6j, 5.5, 6.0 + 1.0j)),
            (GroupData(5), 14.0, (8.2, 8.8, 9.0 + 0.7j, 9.5, 10.0)),
        ]
        for gd, lmax, points in cases:
            ls = synthesize(gd, 100, systole=0.6, seed=19)
            sigma = (0,) * gd.n
            tp = TruncationPolicy(lmax=lmax, tail_eps=1e-2)
            for s in points:
                direct = ruelle_log(s, sigma, ls, tp).value
                split = ruelle_factorized_log(s, sigma, ls, tp).value
                assert abs(direct - split) < 1e-8, (gd.d, s)
        rng = np.random.default_rng(109)
        for gd in (GroupData(3), GroupData(5)):
            for _ in range(500):
                length = rng.uniform(0.4, 4.0)
                th = rng.uniform(0, 2 * np.pi, gd.n)
                assert abs(exterior_class_sum(gd, length, th) - 1.0) < 1e-12


def test_criterion_10_rank_one_closed_forms():
    with _Budget(10, 10.0, "rank-one densities and their heat integrals close exactly"):
        gd = GroupData(3)
        for k in (0, 1, 2, 3, Fraction(7, 2)):
            P = plancherel_polynomial(gd, (k,))
            assert P.exact == (-Fraction(k) ** 2, Fraction(1))
        for d in (3, 5, 7, 9):
            g = GroupData(d)
            sigma = (1,) + (0,) * (g.n - 1) if g.n > 1 else (1,)
            for sig in ((0,) * g.n, sigma):
                P = plancherel_polynomial(g, sig)
                assert P.exact == plancherel_coeffs_symbolic(d, sig), (d, sig)
        for k in (0, 2):
            P = plancherel_polynomial(gd, (k,))
            for t in (0.02, 0.4, 2.5):
                want = -(0.5 / t + k * k) * math.sqrt(math.pi / t)
                got = plancherel_heat_integral(P, t)
                assert abs(got - want) <= 1e-9 * abs(want), (k, t)


def test_criterion_11_growth_certification():
    with _Budget(11, 30.0, "counting growth fits 2|rho| and the per-class tail covers the "
                           "dropped terms"):
        ls = synthesize(GroupData(3), 5000, systole=0.5, seed=23)
        fit = fitted_growth_exponent(ls)
        assert abs(fit - 2.0) <= 0.15 * 2.0, fit
        twisted = synthesize(GroupData(3), 400, systole=0.5, seed=24, dim_chi=3, chi_norm=1.3)
        s = abscissa_estimate(twisted) + 0.5
        long = selberg_log(s, (0,), twisted, TruncationPolicy(lmax=40.0, tail_eps=math.inf))
        terms = WholeArrayPlan(twisted, 40.0).terms((character_table("D", (0,)),), s, "selberg")
        rounding = 64.0 * 2.0**-53 * float(np.abs(terms).sum())
        for lmax in (3.0, 6.0):
            short = selberg_log(s, (0,), twisted, TruncationPolicy(lmax=lmax, tail_eps=math.inf))
            dropped = abs(short.value - long.value)
            assert dropped <= short.tail_bound + rounding, lmax
            assert dropped > 10.0 * rounding and dropped <= short.tail_bound, lmax


def test_criterion_12_branching_identities():
    with _Budget(12, 20.0, "the plus/minus split and the inversion coefficients are exact"):
        split_cases = [(1,), (3,), (2, 1), (1, 1), (Fraction(3, 2), Fraction(1, 2)),
                       (2, 1, 1), (1, 1, 1), (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))]
        for sigma in split_cases:
            plus, minus = tau_pm_split(sigma)
            net: dict = {}
            for rep, sign in ((plus, 1), (minus, -1)):
                for tau, m in dict(rep).items():
                    for s in branch_weights(tau):
                        net[s] = net.get(s, 0) + sign * m
            net = {k: v for k, v in net.items() if v}
            want: dict = {as_weight(sigma): 1}
            w = weyl_action(sigma)
            want[w] = want.get(w, 0) + 1
            assert net == want, sigma
        inversion_cases = [(0,), (1, 0), (3, 0), (2, 2, 0), (1, 1, 0), (3, 1, 0)]
        for sigma in inversion_cases:
            rep = m_tau_coeffs(sigma)
            net = {}
            for tau, m in dict(rep).items():
                for s in branch_weights(tau):
                    net[s] = net.get(s, 0) + m
            net = {k: v for k, v in net.items() if v}
            assert net == {as_weight(sigma): 1}, sigma


def test_criterion_13_heat_trace_slopes():
    with _Budget(13, 20.0, "raw and anchor-combined heat traces blow up at the right rates"):
        ts = np.geomspace(1e-4, 1e-3, 9)
        logt = np.log(ts)
        for d in (3, 5):
            gd = GroupData(d)
            ls = synthesize(gd, 20, systole=0.8, seed=31)
            tp = TruncationPolicy(lmax=10.0)
            sigma = (0,) * gd.n
            totals = heat_totals(ls, sigma, ts, tp)
            slope = float(np.polyfit(logt, np.log(np.abs(totals)), 1)[0])
            assert abs(slope - (-d / 2)) <= 0.05 * (d / 2), (d, slope)
            n_anchors = (d + 1) // 2 + 1
            aset = anchor_set([float(k) for k in range(1, n_anchors + 1)])
            combo = small_t_combination(aset, ts) * totals
            slope = float(np.polyfit(logt, np.log(np.abs(combo)), 1)[0])
            target = n_anchors - 1 - d / 2
            assert abs(slope - target) <= 0.05 * abs(target), (d, slope)


def test_criterion_14_cli_determinism(tmp_path, capsys, monkeypatch):
    with _Budget(14, 60.0, "every command is byte-identical across runs and worker counts"):
        spectrum = tmp_path / "spectrum.json"
        eig = tmp_path / "eig.json"
        assert main(["gen-spectrum", "--d", "3", "--count", "40", "--systole", "0.6",
                     "--seed", "7", "--output", str(spectrum), "--deterministic"]) == 0
        save(EigenSpectrum(entries=((2.0 + 0j, 2), (5.0 + 0j, 1))), eig)
        capsys.readouterr()
        commands = [
            ["gen-spectrum", "--d", "3", "--count", "25", "--seed", "5"],
            ["plancherel", "--d", "5", "--sigma", "1,0", "--s", "2", "--s", "3+1j"],
            ["selberg", "--spectrum", str(spectrum), "--s", "3.5", "--s", "4+1j"],
            ["ruelle", "--spectrum", str(spectrum), "--s", "4.5"],
            ["log-derivative", "--spectrum", str(spectrum), "--s", "3.5", "--format", "json"],
            ["heat-trace", "--spectrum", str(spectrum), "--t", "0.05", "--t", "0.2",
             "--lmax", "12"],
            ["resolvent", "--spectrum", str(spectrum), "--anchor", "2", "--anchor", "3",
             "--lmax", "36", "--tail-eps", "1e-5"],
            ["resolvent", "--eigen", str(eig), "--anchor", "1", "--anchor", "2"],
            ["continue", "--eigen", str(eig), "--d", "3", "--s", "0.5", "--s", "1.5"],
            ["residues", "--eigen", str(eig), "--d", "3"],
            ["factorization-check", "--spectrum", str(spectrum), "--s", "4.5",
             "--lmax", "24", "--tail-eps", "1e-2"],
            ["verify", "--suite", "characters"],
        ]
        for argv in commands:
            seen = set()
            for workers in ("1", "4", "8"):
                monkeypatch.setenv("ZETAFLOW_THREADS", workers)
                for _ in range(3):
                    code = main(argv + ["--deterministic"])
                    captured = capsys.readouterr()
                    assert code == 0, (argv, captured.err)
                    seen.add((captured.out, captured.err))
            assert len(seen) == 1, argv
        # the same invariance holds for the installed entry point
        outs = set()
        for workers in ("1", "8"):
            env = dict(os.environ, ZETAFLOW_THREADS=workers)
            proc = subprocess.run(
                [sys.executable, "-m", "zetaflow.cli", "selberg", "--spectrum",
                 str(spectrum), "--s", "3.5", "--deterministic"],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1
