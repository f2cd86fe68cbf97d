"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion, including the measured tolerance margin and runtime against
its budget.
"""

import time

import numpy as np

import oracles
from blisslp import (
    BlissParams,
    DFFragment,
    MolecularHamiltonian,
    apply_bliss,
    assemble_global_bliss,
    build_fermionic_report,
    build_lp_bliss_problem,
    build_spectral_report,
    factorize_two_body_tensor,
    fragment_hamiltonian,
    l1_minimize,
    lambda_df,
    lp_bliss,
    lrps_one_body_correction,
    lrps_shift,
    merge_duplicate_rows,
    one_electron_shift,
    params_from_solution,
    parse_fcidump,
    pauli_one_norm,
    reconstruct_two_body,
    sector_matrix,
    truncated_lanczos,
    write_fcidump,
)


def verdict(number, name, budget_s, started, ok, detail):
    elapsed = time.perf_counter() - started
    in_budget = elapsed < budget_s
    status = "PASS" if (ok and in_budget) else "FAIL"
    line = (f"[criterion {number:02d}] {name}: {status} "
            f"({elapsed:.1f}s of {budget_s:.0f}s budget; {detail})")
    print(line)
    assert ok, line
    assert in_budget, line


def random_fragment(rng, n_orb):
    u, _ = np.linalg.qr(rng.normal(size=(n_orb, n_orb)))
    sign = 1 if rng.random() < 0.5 else -1
    return DFFragment(u=u, eps=rng.normal(size=n_orb), sign=sign)


def fock_range(hamiltonian):
    eigs = np.linalg.eigvalsh(oracles.fock_matrix(hamiltonian))
    return float(eigs[-1] - eigs[0])


def test_criterion_01_bliss_sector_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for case in range(50):
        n_orb = 2 + case % 2
        n_elec = int(rng.integers(1, 2 * n_orb))
        hamiltonian = oracles.random_hamiltonian(rng, n_orb, n_elec)
        shifts = (oracles.random_bliss(rng, n_orb),
                  lp_bliss(hamiltonian)[0],
                  assemble_global_bliss(hamiltonian, "flr"),
                  assemble_global_bliss(hamiltonian, "ffr"))
        idx = oracles.sector_indices(2 * n_orb, n_elec)
        fock = oracles.fock_matrix(hamiltonian)
        before = np.linalg.eigvalsh(fock[np.ix_(idx, idx)])
        for params in shifts:
            shifted = oracles.fock_matrix(apply_bliss(hamiltonian, params))
            after = np.linalg.eigvalsh(shifted[np.ix_(idx, idx)])
            worst = max(worst, float(np.max(np.abs(before - after))))
    verdict(1, "BLISS sector invariance", 60.0, started,
            worst < 1e-9, f"max spectrum deviation {worst:.2e} < 1e-9")


def test_criterion_02_pauli_norm_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for case in range(50):
        n_orb = 1 + case % 3
        hamiltonian = oracles.random_hamiltonian(rng, n_orb, n_elec=1)
        packaged = pauli_one_norm(hamiltonian).lambda_total
        explicit = oracles.jw_pauli_one_norm(hamiltonian)
        worst = max(worst, abs(packaged - explicit))
    verdict(2, "Pauli norm equals Jordan-Wigner oracle", 30.0, started,
            worst < 1e-10, f"max difference {worst:.2e} < 1e-10")


def test_criterion_03_lp_bliss_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_gap = -np.inf
    worst_zero_gap = -np.inf
    worst_oracle = 0.0
    for _ in range(20):
        hamiltonian = oracles.random_hamiltonian(rng, 2, n_elec=2)
        problem, vmap = build_lp_bliss_problem(hamiltonian)
        merged = merge_duplicate_rows(problem)
        solution = l1_minimize(merged)
        params = params_from_solution(vmap, solution.x)

        a = merged.a
        b = np.asarray(merged.b)
        weights = np.asarray(merged.weights)
        x_opt = solution.x
        blocks = [rng.normal(scale=0.1, size=(25_000, merged.n_vars)),
                  rng.normal(scale=1.0, size=(25_000, merged.n_vars)),
                  x_opt + rng.normal(scale=0.1,
                                     size=(25_000, merged.n_vars)),
                  x_opt + rng.normal(scale=0.01,
                                     size=(25_000, merged.n_vars))]
        best_sample = min(
            float(np.min(np.abs(block @ a.T - b) @ weights))
            for block in blocks)
        at_zero = float(np.abs(b) @ weights)

        worst_gap = max(worst_gap, solution.objective - best_sample)
        worst_zero_gap = max(worst_zero_gap, solution.objective - at_zero)
        through_modules = pauli_one_norm(
            apply_bliss(hamiltonian, params)).lambda_total
        worst_oracle = max(worst_oracle,
                           abs(solution.objective - through_modules))
    ok = (worst_gap < 1e-8 and worst_zero_gap < 1e-8
          and worst_oracle < 1e-8)
    verdict(3, "LP objective beats 1e5 samples and x=0", 300.0, started, ok,
            f"max gap to best sample {worst_gap:.2e}, to x=0 "
            f"{worst_zero_gap:.2e}, cross-module {worst_oracle:.2e}, "
            "all < 1e-8")


def test_criterion_04_df_reconstruction():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for case in range(20):
        n_orb = 1 + case % 6
        g = oracles.random_hamiltonian(rng, n_orb, n_elec=1).g
        fragments = factorize_two_body_tensor(g, tol=0.0)
        rebuilt = reconstruct_two_body(fragments, n_orb)
        worst = max(worst, float(np.max(np.abs(rebuilt - g))))
    verdict(4, "double factorization rebuilds g at tol=0", 60.0, started,
            worst < 1e-10, f"max elementwise error {worst:.2e} < 1e-10")


def test_criterion_05_fragment_shift_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    f_ops = oracles.excitation_matrices(2)
    worst = 0.0
    for _ in range(20):
        n_elec = int(rng.integers(1, 5))
        fragment = random_fragment(rng, 2)
        shifted = lrps_shift(fragment)
        corr = lrps_one_body_correction(shifted, n_elec)
        lhs = oracles.fock_matrix(fragment_hamiltonian(fragment, n_elec))
        rhs = oracles.fock_matrix(fragment_hamiltonian(shifted, n_elec))
        for i in range(2):
            for j in range(2):
                rhs += corr.one_body[i, j] * f_ops[i][j]
        rhs -= corr.constant * np.eye(16)
        rhs -= oracles.bliss_matrix(
            BlissParams(corr.mu1, corr.xi), n_elec)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    verdict(5, "fragment = shifted + corrections on Fock space", 30.0,
            started, worst < 1e-10, f"max matrix deviation {worst:.2e} "
            "< 1e-10")


def test_criterion_06_median_shifts_beat_random():
    # For even counts the L1 objective is flat on the median interval, so a
    # random trial inside it ties in exact arithmetic; 1e-10 absorbs the
    # last-ulp rounding of such ties without masking real suboptimality.
    rounding = 1e-10
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    beaten = True
    attained = True
    for case in range(30):
        size = 1 + case % 9
        eps = rng.normal(scale=1.0 + case % 3, size=size)
        fragment = lrps_shift(DFFragment(u=np.eye(size), eps=eps, sign=1))
        attained &= bool(np.min(np.abs(eps - fragment.phi)) == 0.0)
        lam_opt = lambda_df(fragment)
        trials = rng.uniform(eps.min() - 1.0, eps.max() + 1.0, size=1000)
        lam_rand = 0.5 * np.abs(eps[None, :] - trials[:, None]).sum(axis=1) ** 2
        beaten &= bool(np.all(lam_opt <= lam_rand + rounding))

        h_eff = rng.normal(size=(size, size))
        h_eff = (h_eff + h_eff.T) / 2.0
        spectrum = one_electron_shift(h_eff)
        attained &= bool(
            np.min(np.abs(spectrum.gamma - spectrum.mu1)) == 0.0)
        trials = rng.uniform(spectrum.gamma.min() - 1.0,
                             spectrum.gamma.max() + 1.0, size=1000)
        norm_rand = np.abs(
            spectrum.gamma[None, :] - trials[:, None]).sum(axis=1)
        beaten &= bool(np.all(spectrum.lambda_1e <= norm_rand + rounding))
    verdict(6, "median shifts beat 1e3 random shifts", 30.0, started,
            beaten and attained,
            f"all optimal, phi/mu1 always attained: {attained}")


def test_criterion_07_fragment_range_equals_norm():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    for case in range(15):
        n_orb = 1 + case % 3
        fragment = random_fragment(rng, n_orb)
        if case % 2:
            fragment = lrps_shift(fragment)
        spread = fock_range(fragment_hamiltonian(fragment, traceless=True))
        worst = max(worst, abs(spread - 2.0 * lambda_df(fragment)))
    verdict(7, "fragment spectral range equals 2*lambda_DF", 60.0, started,
            worst < 1e-8, f"max |range - 2 lambda| {worst:.2e} < 1e-8")


def test_criterion_08_lower_bound_chain():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_slack = -np.inf
    for case in range(15):
        n_orb = 1 + case % 3
        n_elec = int(rng.integers(1, 2 * n_orb))
        hamiltonian = oracles.random_hamiltonian(rng, n_orb, n_elec)
        delta_e = fock_range(hamiltonian)

        lam_pauli = pauli_one_norm(hamiltonian).lambda_total
        worst_slack = max(worst_slack, delta_e / 2.0 - lam_pauli)

        fragments = factorize_two_body_tensor(hamiltonian.g, tol=0.0)
        lam_df_total = build_fermionic_report(
            hamiltonian, "df", fragments).lambda_total
        worst_slack = max(worst_slack, delta_e / 2.0 - lam_df_total)

        fragment_sum = sum(
            fock_range(fragment_hamiltonian(f)) for f in fragments)
        two_body = MolecularHamiltonian(
            n_orb=n_orb, e_const=0.0, h=np.zeros((n_orb, n_orb)),
            g=hamiltonian.g, n_elec=n_elec)
        delta_2e = fock_range(two_body)
        worst_slack = max(worst_slack,
                          delta_2e / 2.0 - fragment_sum / 2.0)
    verdict(8, "norms bound half the spectral range", 60.0, started,
            worst_slack < 1e-10,
            f"worst bound violation {worst_slack:.2e} < 1e-10")


def test_criterion_09_truncated_lanczos():
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    variational = True
    worst_rel = 0.0
    for case in range(20):
        n_elec = 2 + case % 3
        hamiltonian = oracles.random_hamiltonian(rng, 3, n_elec)
        exact = np.linalg.eigvalsh(sector_matrix(hamiltonian, n_elec)[0])
        result = truncated_lanczos(hamiltonian, n_elec)
        variational &= bool(result.e_min >= exact[0] - 1e-10)
        variational &= bool(result.e_max <= exact[-1] + 1e-10)
        delta_exact = float(exact[-1] - exact[0])
        delta_lanczos = result.e_max - result.e_min
        worst_rel = max(worst_rel,
                        abs(delta_lanczos - delta_exact) / delta_exact)
    verdict(9, "Lanczos variational and within 5%", 120.0, started,
            variational and worst_rel < 0.05,
            f"variational: {variational}, worst range error "
            f"{100 * worst_rel:.2f}% < 5%")


def test_criterion_10_deviation_trend():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    deviations = {"lp-bliss": [], "flr-bliss": []}
    for _ in range(10):
        hamiltonian = oracles.decay_hamiltonian(rng, 4)
        for method, params in (
                ("lp-bliss", lp_bliss(hamiltonian)[0]),
                ("flr-bliss", assemble_global_bliss(hamiltonian, "flr"))):
            report = build_spectral_report(hamiltonian, params, "exact")
            deviations[method].append(report.deviation)
    defined = all(d is not None
                  for ds in deviations.values() for d in ds)
    mean_lp = float(np.mean(deviations["lp-bliss"]))
    mean_flr = float(np.mean(deviations["flr-bliss"]))
    ok = defined and (mean_lp < mean_flr
                      or abs(mean_lp - mean_flr) <= 0.05)
    verdict(10, "LP-BLISS deviation trend", 600.0, started, ok,
            f"mean D lp-bliss {mean_lp:.4f}, flr-bliss {mean_flr:.4f}")


def test_criterion_11_fcidump_roundtrip():
    started = time.perf_counter()
    rng = np.random.default_rng(1111)
    worst = 0.0
    exact = True
    for case in range(100):
        n_orb = 1 + case % 6
        n_elec = int(rng.integers(0, 2 * n_orb + 1))
        hamiltonian = oracles.random_hamiltonian(rng, n_orb, n_elec)
        rebuilt = parse_fcidump(write_fcidump(hamiltonian))
        exact &= (rebuilt.n_orb == n_orb and rebuilt.n_elec == n_elec)
        worst = max(worst,
                    abs(rebuilt.e_const - hamiltonian.e_const),
                    float(np.max(np.abs(rebuilt.h - hamiltonian.h))),
                    float(np.max(np.abs(rebuilt.g - hamiltonian.g))))
    verdict(11, "parse-write roundtrip on 100 files", 10.0, started,
            exact and worst < 1e-12,
            f"max tensor deviation {worst:.2e} < 1e-12")
