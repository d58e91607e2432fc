"""Acceptance suite: ten end-to-end checks at full working scale.

Each test prints exactly one PASS/FAIL line (run with `pytest -s` to see
them) and then asserts, so a red test also leaves a readable record of the
measured numbers.  Checks with a runtime budget time themselves and fail
when they blow it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from mvx_avgfilter.averaging import (
    analytic_bbar_linear,
    default_burn_in,
    ergodic_decay_profile,
    estimate_bbar,
    invariant_moments,
    make_drift_oracle,
)
from mvx_avgfilter.cli import run_command
from mvx_avgfilter.config import parse_config
from mvx_avgfilter.experiments import SweepConfig, averaging_error_sweep, filter_error_sweep, sup_path_error
from mvx_avgfilter.filtering import (
    FilterConfig,
    filter_discrepancy,
    generate_observations,
    kalman_oracle,
    make_linear_sensor_model,
    martingale_check,
    run_filter,
)
from mvx_avgfilter.measure import dirac_summary
from mvx_avgfilter.model import LinearModelParams, make_linear_model
from mvx_avgfilter.sde import FrozenRunConfig, SdeConfig, coupled_pair, simulate_slow_fast

REF = LinearModelParams()


def ref_model(params=REF, x0=1.0, z0=1.0):
    return make_linear_model(params, n=1, m=1, l=1, x0=[x0], z0=[z0])


def report(num, name, ok, detail):
    print(f"\nacceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")


def test_01_averaged_drift_oracle():
    t0 = time.perf_counter()
    model = ref_model()
    x = np.array([1.0])
    mu = dirac_summary(x)
    cfg = FrozenRunConfig(
        M=2000, dt=0.01, burn_in=default_burn_in(REF), avg_window=5.0, seed=0
    )
    est = estimate_bbar(model, x, mu, cfg)
    elapsed = time.perf_counter() - t0
    target = float(analytic_bbar_linear(REF, x, x)[0])
    err = abs(float(est.value[0]) - target)
    three_se = 3.0 * float(est.stderr[0])
    ok = err <= three_se and err <= 0.02 and elapsed < 60.0
    report(
        1,
        "averaged drift at x=1",
        ok,
        f"value={float(est.value[0]):.5f} target={target:.5f} err={err:.2e}"
        f" 3se={three_se:.2e} time={elapsed:.1f}s",
    )
    assert ok


def test_02_invariant_second_moment():
    params = LinearModelParams(gamma=2.0, s2=1.0, c1=0.0, c2=0.0, c3=0.0)
    model = ref_model(params, x0=0.0, z0=0.0)
    cfg = FrozenRunConfig(M=4000, dt=0.01, burn_in=3.0, avg_window=5.0, seed=102)
    mom = invariant_moments(model, np.array([0.0]), dirac_summary(np.array([0.0])), cfg)
    second = float(mom.second_moment[0]) if np.ndim(mom.second_moment) else float(mom.second_moment)
    ok = 0.2375 <= second <= 0.2625
    report(2, "OU invariant second moment", ok, f"second={second:.5f} band=[0.2375, 0.2625]")
    assert ok


def test_03_ergodic_decay_rate():
    model = ref_model()
    cfg = FrozenRunConfig(M=10_000, dt=0.01, burn_in=0.0, avg_window=3.0, seed=103)
    profile = ergodic_decay_profile(
        model,
        np.array([1.0]),
        dirac_summary(np.array([1.0])),
        cfg,
        t_grid=np.linspace(0.0, 3.0, 31),
        z_init=np.array([3.0]),
    )
    rate = float(profile.fitted_rate)
    lo, hi = 0.5 * 1.5, 2.0 * 1.5
    ok = lo <= rate <= hi and profile.fit_r2 >= 0.9
    report(
        3,
        "ergodic decay profile",
        ok,
        f"rate={rate:.3f} in [{lo:.2f}, {hi:.2f}] r2={profile.fit_r2:.4f}",
    )
    assert ok


def test_04_averaging_error_sweep():
    t0 = time.perf_counter()
    model = ref_model()
    drift = make_drift_oracle(model, mode="analytic-linear")
    sweep = SweepConfig(
        eps_grid=(0.1, 0.05, 0.02, 0.01),
        mc_reps=8,
        base_sde=SdeConfig(
            epsilon=0.1, T=1.0, dt_macro=0.01, micro_substeps=1, N=1000, seed=104
        ),
        p_orders=(1,),
    )
    rep = averaging_error_sweep(model, drift, sweep)
    elapsed = time.perf_counter() - t0
    means = [r.mean_error for r in rep.rows]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    halved = means[-1] <= 0.5 * means[0]
    ok = decreasing and halved and elapsed < 600.0
    report(
        4,
        "averaging error sweep",
        ok,
        "means=" + ",".join(f"{m:.2e}" for m in means) + f" time={elapsed:.0f}s",
    )
    assert ok


def test_05_exact_coupling_when_z_free():
    params = LinearModelParams(a11=-1.0, a12=0.3, a13=0.0, s1=0.5)
    model = ref_model(params)
    drift = make_drift_oracle(model, mode="analytic-linear")
    worst_by_eps = {}
    for eps in (0.1, 0.05, 0.02, 0.01):
        substeps = {0.1: 1, 0.05: 2, 0.02: 4, 0.01: 8}[eps]
        cfg = SdeConfig(
            epsilon=eps, T=1.0, dt_macro=0.01, micro_substeps=substeps, N=200, seed=105
        )
        slow_fast, averaged = coupled_pair(model, drift, cfg)
        worst_by_eps[eps] = float(sup_path_error(slow_fast, averaged).max())
    ok = all(w == 0.0 for w in worst_by_eps.values())
    report(5, "z-free coupling is exact", ok, f"sup errors={worst_by_eps}")
    assert ok


def test_06_girsanov_martingale():
    cfg = SdeConfig(
        epsilon=0.1, T=1.0, dt_macro=1e-3, micro_substeps=1, N=2, seed=106
    )
    mean, se = martingale_check(ref_model(), 10_000, cfg, dt=1e-3)
    ok = abs(mean - 1.0) <= 0.05
    report(6, "exponential martingale mean", ok, f"mean={mean:.4f} se={se:.4f}")
    assert ok


def test_07_normalization_and_weighted_mean_identity():
    model = ref_model()
    cfg = SdeConfig(epsilon=0.1, T=1.0, dt_macro=0.01, micro_substeps=1, N=100, seed=0)
    all_ones = True
    identity_exact = True
    for seed in (107, 207, 307):
        sde = dataclasses.replace(cfg, seed=seed)
        signal = simulate_slow_fast(model, sde)
        obs = generate_observations(model, signal, 0, seed_v=seed + 7000)
        ones = run_filter(
            "multiscale", model, None, obs,
            FilterConfig(Nf=500, resample_threshold=0.5, functional="one", p=1), sde,
        )
        all_ones &= all(v == 1.0 for v in ones.pi_F)
        traj = run_filter(
            "multiscale", model, None, obs,
            FilterConfig(Nf=500, resample_threshold=0.5, functional="tanh", p=1), sde,
            record_weights=True,
        )
        logw = traj.debug["log_weights"]
        fvals = traj.debug["f_values"]
        for k in range(len(traj.times)):
            mx = logw[k].max()
            u = np.exp(logw[k] - mx)
            s = u.sum()
            identity_exact &= float((u * fvals[k]).sum() / s) == traj.pi_F[k]
    ok = all_ones and identity_exact
    report(
        7,
        "pi(1)=1 and weighted-mean identity",
        ok,
        f"all_ones={all_ones} identity_bit_exact={identity_exact}",
    )
    assert ok


def test_08_particle_filter_tracks_kalman():
    params = LinearModelParams(a11=-1.0, a12=0.0, a13=0.0, s1=0.5)
    model = make_linear_sensor_model(params, gain=1.0, x0=1.0, z0=0.0)
    sde = SdeConfig(epsilon=0.1, T=1.0, dt_macro=0.01, micro_substeps=1, N=200, seed=108)
    signal = simulate_slow_fast(model, sde)
    obs = generate_observations(model, signal, 0, seed_v=8081)
    kal = kalman_oracle(model, obs)
    avg_std = float(np.mean(np.sqrt(kal.variance)))
    # one run's time-averaged error is a single draw of a serially correlated
    # process, so each Nf is measured as the mean over five independent
    # filter-noise replicates on the same observation record
    errors = {}
    for nf in (1000, 10_000):
        reps = []
        for fseed in (108, 1081, 2081, 3081, 4081):
            traj = run_filter(
                "multiscale", model, None, obs,
                FilterConfig(Nf=nf, resample_threshold=0.5, functional="identity", p=1),
                dataclasses.replace(sde, seed=fseed),
            )
            reps.append(float(np.mean(np.abs(np.asarray(traj.pi_F) - kal.mean))))
        errors[nf] = float(np.mean(reps))
    bounds = {nf: 5.0 / math.sqrt(nf) * avg_std for nf in errors}
    ok = all(errors[nf] <= bounds[nf] for nf in errors) and errors[10_000] < errors[1000]
    report(
        8,
        "particle filter vs Kalman",
        ok,
        f"err1e3={errors[1000]:.4f}<= {bounds[1000]:.4f},"
        f" err1e4={errors[10_000]:.4f}<= {bounds[10_000]:.4f}",
    )
    assert ok


def test_09_filter_error_sweep():
    t0 = time.perf_counter()
    model = ref_model()
    drift = make_drift_oracle(model, mode="analytic-linear")
    sweep = SweepConfig(
        eps_grid=(0.1, 0.02),
        mc_reps=20,
        base_sde=SdeConfig(
            epsilon=0.1, T=1.0, dt_macro=0.01, micro_substeps=1, N=400, seed=109
        ),
        p_orders=(1,),
        filter_cfg=FilterConfig(Nf=2000, resample_threshold=0.5, functional="tanh", p=1),
    )
    rep = filter_error_sweep(model, drift, sweep)
    elapsed = time.perf_counter() - t0
    by_eps = {r.eps: r for r in rep.rows}
    pooled = math.hypot(by_eps[0.1].std_error, by_eps[0.02].std_error)
    gap = by_eps[0.02].mean_error - by_eps[0.1].mean_error
    ok = gap <= pooled and elapsed < 900.0
    report(
        9,
        "filter discrepancy sweep",
        ok,
        f"mean(0.1)={by_eps[0.1].mean_error:.2e} mean(0.02)={by_eps[0.02].mean_error:.2e}"
        f" pooled_se={pooled:.2e} time={elapsed:.0f}s",
    )
    assert ok


def test_10_byte_identical_reruns(tmp_path):
    def run(doc, sub, threads=1):
        doc = dict(doc, output_dir=str(tmp_path / sub))
        run_command(parse_config(json.dumps(doc)), threads=threads)
        out = {}
        for f in (tmp_path / sub).glob("*.csv"):
            out[f.name] = f.read_bytes()
        return out

    simulate_doc = {
        "command": "simulate",
        "format": "csv",
        "model": {"kind": "linear", "params": {}, "n": 1, "m": 1, "l": 1,
                  "x0": [1.0], "z0": [1.0]},
        "sde": {"epsilon": 0.1, "T": 0.3, "dt_macro": 0.01, "micro_substeps": 1,
                "N": 50, "seed": 110},
    }
    sweep_doc = {
        "command": "sweep-averaging",
        "format": "csv",
        "model": simulate_doc["model"],
        "sde": {"epsilon": 0.1, "T": 0.3, "dt_macro": 0.01, "micro_substeps": 1,
                "N": 60, "seed": 111},
        "sweep": {"eps_grid": [0.1, 0.05], "mc_reps": 4, "p_orders": [1]},
    }
    sim_same = run(simulate_doc, "sim-a") == run(simulate_doc, "sim-b")
    sweep_a = run(sweep_doc, "sw-a", threads=1)
    sweep_same = sweep_a == run(sweep_doc, "sw-b", threads=1)
    sweep_threads = sweep_a == run(sweep_doc, "sw-c", threads=3)
    ok = sim_same and sweep_same and sweep_threads
    report(
        10,
        "byte-identical reruns",
        ok,
        f"simulate={sim_same} sweep={sweep_same} threads_invariant={sweep_threads}",
    )
    assert ok
