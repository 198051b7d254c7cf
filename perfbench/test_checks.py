"""Tests of the benchmark's own output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os

import numpy as np
import pytest

from pavelab import algebra as alg
from pavelab import families
from pavelab import paving as pv
from pavelab.cli import main

import checks
import workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def test_reference_expectation_is_idempotent_and_trace_preserving():
    rng = np.random.default_rng(0)
    k, d = 3, 2
    x = random_matrix(rng, k * d)
    e = checks.comm_expectation(x, k, d)
    assert np.allclose(checks.comm_expectation(e, k, d), e, atol=1e-13)
    assert abs(np.trace(e) - np.trace(x)) < 1e-12
    a = np.kron(random_matrix(rng, k), np.eye(d))     # an element of N
    assert np.allclose(a @ e, e @ a, atol=1e-12)


def test_reference_expectation_matches_program_on_tensor_3_2():
    inc = families.tensor_product(3, 2)
    x = alg.random_element(inc.m_shape, alg.SELFADJOINT, 11)
    ours = checks.comm_expectation(x.blocks[0], 3, 2)
    assert np.allclose(ours, inc.cond_exp_comm(x).blocks[0], atol=1e-13)


@pytest.fixture(scope="module")
def small_search():
    inc = families.tensor_product(6, 2)
    ops = workload.sample_operators(inc, 5, 2)
    problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=1.0 - 1e-6,
                               index=inc.known_index)
    cert = pv.pave_search(problem, pv.SearchConfig(r=3, restarts=1, steps=40, seed=2))
    frames = [fr[0] for fr in cert.partition.frames()]
    return cert, frames, [x.blocks[0] for x in ops]


def test_search_certificate_passes(small_search):
    cert, frames, xs = small_search
    assert checks.check_search(frames, cert.per_x_ratio,
                               cert.diagnostics["incumbent_history"],
                               cert.diagnostics["best_objective"], xs, 6, 2,
                               cert.epsilon, 3) == []


def test_perturbed_partition_is_rejected(small_search):
    cert, frames, xs = small_search
    bent = [f.copy() for f in frames]
    bent[0][:, 0] *= 1.0 + 1e-6
    assert checks.check_partition(bent, cert.per_x_ratio, xs, 6, 2, 1.0, 3)
    mixed = [f.copy() for f in frames]        # still a partition, but another one
    mixed[0][:, 0], mixed[1][:, 0] = frames[1][:, 0], frames[0][:, 0]
    problems = checks.check_partition(mixed, cert.per_x_ratio, xs, 6, 2, 1.0, 3)
    assert any("recomputed" in p for p in problems)


def test_wrong_incumbent_history_is_rejected(small_search):
    cert, frames, xs = small_search
    history = list(cert.diagnostics["incumbent_history"]) + [1.0]
    assert checks.check_search(frames, cert.per_x_ratio, history,
                               cert.diagnostics["best_objective"], xs, 6, 2,
                               cert.epsilon, 3)


def test_pipeline_certificate_and_stages_pass():
    inc = families.tensor_product(32, 2)
    ops = workload.sample_operators(inc, 3, 2)
    problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.9,
                               index=inc.known_index)
    cert = pv.pave_constructive(problem, pv.PipelineConfig(n_parts=4, m_refine=4, seed=1))
    frames = [fr[0] for fr in cert.partition.frames()]
    assert checks.check_partition(frames, cert.per_x_ratio,
                                  [x.blocks[0] for x in ops], 32, 2, 0.9, 16) == []
    assert checks.check_stages(cert.diagnostics, 4) == []
    record = cert.diagnostics["attempts"][-1]
    record["schwarz_min"] = [-1e-3]
    assert checks.check_stages(cert.diagnostics, 4)


def test_kesten_law_checks():
    bound = checks.kesten_constant(4)
    assert checks.check_kesten([bound - 0.01, bound + 0.01], 4, 0.05) == []
    assert checks.check_kesten([bound + 0.06], 4, 0.05)
    assert checks.check_kesten([bound - 0.2], 4, 0.05)
    assert checks.check_kesten([-0.1], 4, 0.05)


@pytest.fixture(scope="module")
def unitary_certificate(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("unitary"))
    assert main(["pave", "--family", "self(8)", "--epsilon", "0.5", "--f-random",
                 "selfadjoint:1", "--seed", "3", "--mode", "unitary", "--out", out]) == 0
    path = os.path.join(out, "pave_certificate.json")
    assert main(["pave", "--mode", "verify", "--certificate", path, "--seed", "0",
                 "--out", out]) == 0
    return checks.load_json(path), checks.load_json(os.path.join(out, "verify.json"))


def test_certificate_ratios_recomputed(unitary_certificate):
    cert, report = unitary_certificate
    xs = [x.blocks[0] for x in workload.sample_operators(families.self_inclusion(8), 3, 1)]
    us = checks.certificate_unitaries(cert)
    refs = [checks.averaging_ratio(us, x) for x in xs]
    assert checks.check_stored_ratios(refs, cert) == []
    assert checks.check_verify_report(cert, report) == []


def test_tampered_certificate_ratio_is_rejected(unitary_certificate):
    cert, report = unitary_certificate
    tampered = json.loads(json.dumps(cert))
    tampered["per_x_ratio"][0] = float(np.nextafter(cert["per_x_ratio"][0], 1.0))
    assert checks.check_verify_report(tampered, report)
    tampered["per_x_ratio"][0] *= 1.0 + 1e-6
    xs = [x.blocks[0] for x in workload.sample_operators(families.self_inclusion(8), 3, 1)]
    refs = [checks.averaging_ratio(checks.certificate_unitaries(cert), x) for x in xs]
    assert checks.check_stored_ratios(refs, tampered)


def test_inline_pipeline_certificate_frames_recompute(tmp_path):
    out = str(tmp_path)
    assert main(["pave", "--family", "tensor(8,2)", "--epsilon", "0.9", "--f-random",
                 "selfadjoint:2", "--seed", "5", "--mode", "pipeline", "--n-parts", "2",
                 "--m-refine", "2", "--out", out]) == 0
    cert = checks.load_json(os.path.join(out, "pave_certificate.json"))
    frames = checks.certificate_frames(cert)
    xs = [x.blocks[0] for x in workload.sample_operators(families.tensor_product(8, 2), 5, 2)]
    assert checks.check_partition(frames, cert["per_x_ratio"], xs, 8, 2, 0.9, 4) == []
    frames[0] = frames[0] * np.exp(0.1j) + 1e-6
    assert checks.check_partition(frames, cert["per_x_ratio"], xs, 8, 2, 0.9, 4)


def test_benchmark_json_names_match_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in workload.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [m[1] for m in workload.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workload.WORKLOADS)
