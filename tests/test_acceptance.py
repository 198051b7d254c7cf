"""Acceptance gate: every deliverable contract at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  Session fixtures compute the expensive payloads once; the determinism
criterion re-executes the same payload builders and compares canonical JSON
bytes.

Criterion 2 carries one strict expected failure: the expectation-inequality
estimator provably converges to the best constant of E_N(x) >= c x, which on
the reducible corpus members (scalars inside M_n, tensor(2,3)) is smaller
than the squared-multiplicity target named by the contract.  The green
companion test pins the estimator against the correct analytic values.
"""

import math
import time
import zlib

import numpy as np
import pytest

from pavelab import algebra as alg
from pavelab import families
from pavelab import freeness as fr
from pavelab import inclusion as incl
from pavelab import paving as pv
from pavelab import serialize as ser
from pavelab.algebra import identity, op_norm, trace
from pavelab.seeding import child_seed


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}{' — ' + detail if detail else ''}")


def lcm(a, b):
    return a * b // math.gcd(a, b)


# -- payload builders (shared by the criterion tests and the determinism rerun)

KESTEN_SETTINGS = [(n, lcm(512, n)) for n in (2, 3, 4, 5)]
KESTEN_TRIALS = 20
KESTEN_SEED = 1001

PIPELINE_SEEDS = [0, 1, 2, 3, 4]
PIPELINE_F_SEED = 4040

DIXMIER_EPSILONS = [0.5, 0.25, 0.1]
DIXMIER_SEEDS = list(range(20))
DIXMIER_ROOT = 6006


def build_kesten_payload():
    results = []
    for n, dim in KESTEN_SETTINGS:
        res = fr.run_kesten(fr.KestenExperiment(
            n=n, dim=dim, trials=KESTEN_TRIALS, seed=KESTEN_SEED))
        results.append({
            "n": n, "dim": dim, "bound": res.bound,
            "norms": [repr(float(v)) for v in res.norms],
            "max": repr(res.max_norm), "mean": repr(res.mean_norm),
            "exceedances": res.exceedances,
        })
    return results


def build_pipeline_payload():
    inc = families.tensor_product(512, 2)
    n, m, r = pv.paving_partition_bound(4.0, 0.9)
    ops = [alg.random_element(inc.m_shape, alg.SELFADJOINT,
                              child_seed(PIPELINE_F_SEED, t)) for t in range(2)]
    problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.9,
                               index=4.0)
    runs = []
    for seed in PIPELINE_SEEDS:
        cert = pv.pave_constructive(problem, pv.PipelineConfig(
            n_parts=n, m_refine=m, seed=seed))
        last = cert.diagnostics["attempts"][-1]
        runs.append({
            "seed": seed, "r": cert.r, "verified": cert.verified,
            "ratios": [repr(float(v)) for v in cert.per_x_ratio],
            "attempts": len(cert.diagnostics["attempts"]),
            "stage_ok": last["stage_ok"],
            "tau_q": [repr(float(v)) for v in last["tau_q"]],
            "compression_tail": [repr(float(v)) for v in last["compression_tail"]],
            "refined_expectation": [repr(float(v)) for v in last["refined_expectation"]],
            "transfer_lhs": [repr(float(v)) for v in last["transfer_lhs"]],
            "transfer_rhs": [repr(float(v)) for v in last["transfer_rhs"]],
            "schwarz_min": [repr(float(v)) for v in last["schwarz_min"]],
            "certified_bound": repr(float(cert.diagnostics["certified_bound"])),
        })
    return {"n": n, "m": m, "r": r, "runs": runs}


def build_dixmier_payload():
    inc = families.self_inclusion(64)
    out = []
    for eps in DIXMIER_EPSILONS:
        bound = pv.dixmier_count_bound(eps)
        for seed in DIXMIER_SEEDS:
            x = alg.random_element(inc.m_shape, alg.SELFADJOINT,
                                   child_seed(DIXMIER_ROOT, seed))
            problem = pv.PavingProblem(inclusion=inc, operators=[x],
                                       epsilon=eps, index=1.0)
            cert = pv.dixmier_average_run(problem, seed=seed)
            out.append({"epsilon": eps, "seed": seed, "count": cert.r,
                        "bound": bound, "verified": cert.verified,
                        "alarm": cert.soundness_alarm,
                        "ratios": [repr(float(v)) for v in cert.per_x_ratio]})
    return out


@pytest.fixture(scope="session")
def kesten_payload():
    t0 = time.monotonic()
    payload = build_kesten_payload()
    return payload, time.monotonic() - t0


@pytest.fixture(scope="session")
def pipeline_payload():
    t0 = time.monotonic()
    payload = build_pipeline_payload()
    return payload, time.monotonic() - t0


@pytest.fixture(scope="session")
def dixmier_payload():
    t0 = time.monotonic()
    payload = build_dixmier_payload()
    return payload, time.monotonic() - t0


# -- criteria -------------------------------------------------------------------


def test_criterion_1_kesten_bound(kesten_payload):
    payload, elapsed = kesten_payload
    ok = True
    for row in payload:
        tol = row["bound"] + 0.05
        worst = max(float(v) for v in row["norms"])
        ok = ok and worst <= tol and row["exceedances"] == 0
    ok = ok and elapsed <= 300.0
    report(1, "pinched norms within 2 sqrt(n-1)/n + 0.05", ok,
           f"{len(payload)} settings x {KESTEN_TRIALS} trials in {elapsed:.0f}s")
    for row in payload:
        assert row["exceedances"] == 0
        assert max(float(v) for v in row["norms"]) <= row["bound"] + 0.05
    assert elapsed <= 300.0


def test_criterion_2_expectation_inequality(corpus):
    t0 = time.monotonic()
    worst_margin = np.inf
    for inc in corpus:
        for t in range(100):
            x = alg.random_element(inc.m_shape, alg.POSITIVE,
                                   child_seed(2002, zlib.crc32(inc.label.encode()) % 1000, t))
            margin = incl.expectation_inequality_margin(inc, inc.known_index, x)
            worst_margin = min(worst_margin, margin)
    est = incl.expectation_index_estimate(families.tensor_product(2, 2),
                                 trials=2000, seed=2003)
    rel = abs(est.index_est - 4.0) / 4.0
    elapsed = time.monotonic() - t0
    ok = worst_margin >= -1e-9 and rel <= 0.05 and elapsed <= 120.0
    report(2, "expectation inequality and index estimate", ok,
           f"min margin {worst_margin:.2e}, tensor(2,2) estimate "
           f"{est.index_est:.4f}, {elapsed:.0f}s")
    assert worst_margin >= -1e-9
    assert rel <= 0.05
    assert elapsed <= 120.0


@pytest.mark.xfail(
    strict=True,
    reason="the estimator converges to the best constant of the expectation "
           "inequality, which is n for scalars-in(n) and d*min(k,d) for "
           "tensor(k,d); on these reducible corpus members that is provably "
           "below the squared-multiplicity target (see decisions ledger)")
def test_criterion_2_squared_multiplicity_targets():
    targets = [(families.scalars_in(2), 4.0), (families.scalars_in(3), 9.0),
               (families.scalars_in(4), 16.0), (families.tensor_product(2, 3), 9.0)]
    for inc, target in targets:
        est = incl.expectation_index_estimate(inc, trials=2000, seed=2003)
        assert abs(est.index_est - target) / target <= 0.05


def test_criterion_2_estimator_reference_values():
    # analytic best constants: n for scalars-in(n); d * min(k, d) for tensors
    expected = [(families.scalars_in(2), 2.0), (families.scalars_in(3), 3.0),
                (families.scalars_in(4), 4.0), (families.tensor_product(2, 2), 4.0),
                (families.tensor_product(2, 3), 6.0)]
    worst = 0.0
    for inc, target in expected:
        est = incl.expectation_index_estimate(inc, trials=2000, seed=2003)
        worst = max(worst, abs(est.index_est - target) / target)
        assert abs(est.index_est - target) / target <= 0.05
    report(2, "estimator against analytic best constants", True,
           f"worst relative error {worst:.2e}")


def test_criterion_3_support_trace_bound(corpus):
    t0 = time.monotonic()
    ok = True
    for inc in corpus:
        dim = max(inc.m_shape.block_dims)
        for t in range(100):
            rng = np.random.default_rng(child_seed(3003, zlib.crc32(inc.label.encode()) % 1000, t))
            rank = int(rng.integers(0, dim + 1))
            q = (alg.zero(inc.m_shape) if rank == 0 else
                 alg.random_element(inc.m_shape, alg.PROJECTION,
                                    child_seed(3004, zlib.crc32(inc.label.encode()) % 1000, t),
                                    theta=rank / dim))
            lhs, rhs = incl.expectation_support_bound(inc, q, inc.known_index)
            ok = ok and lhs <= rhs + 1e-6
            assert lhs <= rhs + 1e-6
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 60.0
    report(3, "support trace bound tau(s(E_N(q))) <= index tau(q)", ok,
           f"500 projections in {elapsed:.0f}s")
    assert elapsed <= 60.0


def test_criterion_4_constructive_pipeline(pipeline_payload):
    payload, elapsed = pipeline_payload
    assert (payload["n"], payload["m"], payload["r"]) == (20, 20, 400)
    assert payload["r"] <= math.ceil(16 / 0.81) * math.ceil(16 / 0.81)
    verified = [run for run in payload["runs"] if run["verified"]]
    ok = len(verified) >= 4 and elapsed <= 1800.0
    worst = max(max(float(v) for v in run["ratios"]) for run in verified)
    report(4, "constructive pipeline on tensor(512,2)", ok,
           f"{len(verified)}/5 verified, worst ratio {worst:.4f}, "
           f"r=400, {elapsed:.0f}s")
    for run in verified:
        assert run["r"] == 400
        assert max(float(v) for v in run["ratios"]) <= 0.9 + 1e-9
    assert len(verified) >= 4
    assert elapsed <= 1800.0


def test_criterion_5_stage_inequalities(pipeline_payload):
    payload, _ = pipeline_payload
    m = payload["m"]
    worst_ref, worst_transfer, worst_schwarz = 0.0, np.inf, np.inf
    for run in payload["runs"]:
        assert run["stage_ok"]
        for v in run["refined_expectation"]:
            worst_ref = max(worst_ref, float(v))
            assert float(v) <= 1.0 / m + 1e-8
        for lhs, rhs in zip(run["transfer_lhs"], run["transfer_rhs"]):
            resid = float(rhs) - float(lhs)
            worst_transfer = min(worst_transfer, resid)
            assert resid >= -1e-9
        for v in run["schwarz_min"]:
            worst_schwarz = min(worst_schwarz, float(v))
            assert float(v) >= -1e-9
    report(5, "pipeline stage inequalities", True,
           f"refined expectation max {worst_ref:.2e} <= 1/{m}; "
           f"transfer residual min {worst_transfer:.2e}; "
           f"Schwarz residual min {worst_schwarz:.2e}")


def test_criterion_6_averaging_counts(dixmier_payload):
    payload, elapsed = dixmier_payload
    ok = all(row["verified"] and row["count"] <= row["bound"]
             and not row["alarm"] for row in payload)
    ok = ok and elapsed <= 120.0
    worst = {eps: max(row["count"] for row in payload if row["epsilon"] == eps)
             for eps in DIXMIER_EPSILONS}
    report(6, "averaging counts within ceil(eps^-c)", ok,
           f"worst counts {worst} vs bounds {{0.5: 4, 0.25: 11, 0.1: 52}}, "
           f"{elapsed:.0f}s")
    for row in payload:
        assert row["verified"]
        assert row["count"] <= row["bound"]
    assert elapsed <= 120.0


def test_criterion_7_lower_bound_soundness(dixmier_payload):
    payload, _ = dixmier_payload
    violations = sum(1 for row in payload if row["alarm"])
    inc = families.self_inclusion(64)
    checked = 0
    for theta in (1 / 64, 1 / 16, 1 / 4):
        q = alg.random_element(inc.m_shape, alg.PROJECTION,
                               child_seed(7007, int(theta * 64)), theta=theta)
        for eps in DIXMIER_EPSILONS:
            problem = pv.PavingProblem(inclusion=inc, operators=[q],
                                       epsilon=eps, index=1.0)
            cert = pv.dixmier_average_run(problem, seed=77)
            if cert.verified:
                checked += 1
                floor = pv.averaging_count_lower_bound(theta, eps)
                if cert.r < floor - 1e-9 or cert.soundness_alarm:
                    violations += 1
    ok = violations == 0 and checked > 0
    report(7, "averaging-count lower bound soundness", ok,
           f"{checked} verified positive-element certificates, "
           f"{violations} violations")
    assert violations == 0
    assert checked > 0


def test_criterion_8_orthonormal_basis():
    t0 = time.monotonic()
    details = []
    for n in (2, 3):
        inc = families.scalars_in(n)
        basis = incl.orthonormal_basis(inc)
        value = incl.d_ob(inc, basis)
        lo, hi = incl.d_ob_interval(inc.known_index)
        assert abs(value - n * n) <= 1e-8
        assert lo - 1e-9 <= value <= hi + 1e-9
        worst = 0.0
        for t in range(50):
            x = alg.random_element(inc.m_shape, alg.SELFADJOINT,
                                   child_seed(8008, n, t))
            acc = alg.zero(inc.m_shape)
            for mj in basis.elements:
                acc = acc + mj @ inc.cond_exp_n(mj.adjoint() @ x)
            worst = max(worst, op_norm(acc - x))
        assert worst <= 1e-8
        details.append(f"n={n}: d_ob={value:.10f}, residual {worst:.1e}")
    elapsed = time.monotonic() - t0
    report(8, "orthonormal basis frame-sum value", elapsed <= 60.0,
           "; ".join(details) + f", {elapsed:.0f}s")
    assert elapsed <= 60.0


def test_criterion_9_trace_norm_paving():
    t0 = time.monotonic()
    inc = families.self_inclusion(256)
    target = 16 ** -0.5

    def mean_ratio(parts):
        vals = []
        for seed in range(20):
            x = alg.random_element(inc.m_shape, alg.SELFADJOINT,
                                   child_seed(9009, seed))
            problem = pv.PavingProblem(inclusion=inc, operators=[x],
                                       epsilon=0.3, index=1.0)
            cert = pv.l2_pave(problem, parts, seed=seed)
            vals.append(cert.per_x_ratio[0])
        return float(np.mean(vals))

    mean16 = mean_ratio(16)
    assert 0.9 * target <= mean16 <= 1.1 * target
    estimate = None
    for parts in range(1, 14):
        if mean_ratio(parts) <= 0.3:
            estimate = parts
            break
    cap = math.ceil(0.3 ** -2) + 1
    elapsed = time.monotonic() - t0
    ok = estimate is not None and estimate <= cap and elapsed <= 60.0
    report(9, "trace-norm paving band and size estimate", ok,
           f"mean ratio {mean16:.4f} vs {target:.4f}, "
           f"size estimate {estimate} <= {cap}, {elapsed:.0f}s")
    assert estimate is not None and estimate <= cap
    assert elapsed <= 60.0


def test_criterion_10_determinism(kesten_payload, pipeline_payload,
                                  dixmier_payload):
    first = {
        "kesten": ser.canonical_dumps(kesten_payload[0]),
        "pipeline": ser.canonical_dumps(pipeline_payload[0]),
        "dixmier": ser.canonical_dumps(dixmier_payload[0]),
    }
    second = {
        "kesten": ser.canonical_dumps(build_kesten_payload()),
        "pipeline": ser.canonical_dumps(build_pipeline_payload()),
        "dixmier": ser.canonical_dumps(build_dixmier_payload()),
    }
    ok = all(first[k] == second[k] for k in first)
    report(10, "byte-identical reruns of criteria 1, 4, 6", ok,
           ", ".join(f"{k}: {len(first[k])} bytes" for k in first))
    for k in first:
        assert first[k] == second[k], f"payload {k} differs between reruns"
