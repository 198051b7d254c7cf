"""One workload process of the pavelab benchmark; started by run.py.

The process sets up the workload's inputs from ``--seed``, then runs a closed
loop for ``--seconds``: one caller starts the next op only when the previous
one has finished.  Each op's output is checked right after it, outside the
timed region.  With ``--setup-only`` it stops once the inputs are ready.  With
``--trace 1`` every op runs twice on the same input, untraced and traced in
alternating order, and the process reports per-layer metrics and the tracing
overhead.  The last line of standard output is this process's result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from pavelab import algebra as alg
from pavelab import cli, families, freeness, paving
from pavelab.seeding import child_seed

import checks
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
OP_LIST_LEN = 512

TRACE_TARGETS = [
    ("algebra.haar_block", "pavelab.algebra", "haar_block"),
    ("algebra.frame_projection", "pavelab.algebra", "frame_projection"),
    ("algebra.projection_defect", "pavelab.algebra", "projection_defect"),
    ("algebra.PartitionOfUnity.validate", "pavelab.algebra", "PartitionOfUnity.validate"),
    ("algebra.op_norm", "pavelab.algebra", "op_norm"),
    ("algebra.random_element", "pavelab.algebra", "random_element"),
    ("inclusion.embed_frame", "pavelab.inclusion", "Inclusion.embed_frame"),
    ("inclusion.cond_exp_comm", "pavelab.inclusion", "Inclusion.cond_exp_comm"),
    ("inclusion.restrict_to_n", "pavelab.inclusion", "Inclusion.restrict_to_n"),
    ("paving.pave_constructive", "pavelab.paving", "pave_constructive"),
    ("paving.verify", "pavelab.paving", "verify"),
    ("paving.pave_search", "pavelab.paving", "pave_search"),
    ("freeness.run_kesten", "pavelab.freeness", "run_kesten"),
    ("serialize.partition_from_obj", "pavelab.serialize", "partition_from_obj"),
    ("serialize.element_from_obj", "pavelab.serialize", "element_from_obj"),
    ("cli.main", "pavelab.cli", "main"),
]

# (metric, unit, how it is read from the tracer); the names match BENCHMARK.json.
PER_LAYER = [
    ("algebra.haar_block.calls", "count", "calls"),
    ("algebra.haar_block.self_s", "s", "self_s"),
    ("algebra.frame_projection.calls", "count", "calls"),
    ("algebra.frame_projection.self_s", "s", "self_s"),
    ("algebra.projection_defect.self_s", "s", "self_s"),
    ("algebra.PartitionOfUnity.validate.self_s", "s", "self_s"),
    ("algebra.op_norm.calls", "count", "calls"),
    ("algebra.op_norm.self_s", "s", "self_s"),
    ("algebra.random_element.self_s", "s", "self_s"),
    ("inclusion.embed_frame.calls", "count", "calls"),
    ("inclusion.embed_frame.self_s", "s", "self_s"),
    ("inclusion.cond_exp_comm.self_s", "s", "self_s"),
    ("inclusion.restrict_to_n.self_s", "s", "self_s"),
    ("paving.pave_constructive.self_s", "s", "self_s"),
    ("paving.pipeline_attempts", "count", "counter"),
    ("paving.verify.calls", "count", "calls"),
    ("paving.verify.self_s", "s", "self_s"),
    ("paving.pave_search.self_s", "s", "self_s"),
    ("freeness.run_kesten.self_s", "s", "self_s"),
    ("serialize.partition_from_obj.self_s", "s", "self_s"),
    ("serialize.element_from_obj.self_s", "s", "self_s"),
    ("serialize.bytes_read", "B", "counter"),
    ("cli.main.self_s", "s", "self_s"),
    ("setup.algebra.haar_block.self_s", "s", "setup_self_s"),
    ("setup.algebra.random_element.self_s", "s", "setup_self_s"),
    ("trace.overhead_pct", "%", "overhead"),
]


def seeds(seed: int, stream: int, count: int) -> list:
    """`count` integer seeds drawn from stream `stream` of the workload seed."""
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


def sample_operators(inc, f_seed: int, count: int) -> list:
    """F as `pavelab pave --f-random selfadjoint:COUNT --seed f_seed` samples it."""
    return [alg.random_element(inc.m_shape, alg.SELFADJOINT, child_seed(f_seed, 9, i))
            for i in range(count)]


class Pipeline:
    """pave_constructive on tensor(40,2), ε = 0.9, n = m = 4, two self-adjoint x."""

    K, D, EPSILON, N, M = 40, 2, 0.9, 4, 4

    def __init__(self, seed: int, workdir: str):
        inc = families.parse_family(f"tensor({self.K},{self.D})")
        ops = sample_operators(inc, seeds(seed, 1, 1)[0], 2)
        self.problem = paving.PavingProblem(inclusion=inc, operators=ops,
                                            epsilon=self.EPSILON, index=inc.known_index)
        self.items = seeds(seed, 2, OP_LIST_LEN)

    def run(self, item):
        return paving.pave_constructive(self.problem, paving.PipelineConfig(
            n_parts=self.N, m_refine=self.M, seed=item))

    def check(self, item, cert) -> list:
        frames = [fr[0] for fr in cert.partition.frames()]
        xs = [x.blocks[0] for x in self.problem.operators]
        problems = checks.check_partition(frames, cert.per_x_ratio, xs, self.K, self.D,
                                          self.EPSILON, self.N * self.M)
        if cert.r != self.N * self.M:
            problems.append(f"certificate r = {cert.r}, expected n*m")
        return problems + checks.check_stages(cert.diagnostics, self.M)

    def finish(self) -> list:
        return []


class Kesten:
    """One run_kesten trial per op at n = 3, dim = 240."""

    N, DIM = 3, 240

    def __init__(self, seed: int, workdir: str):
        self.items = seeds(seed, 3, OP_LIST_LEN)

    def run(self, item):
        return freeness.run_kesten(freeness.KestenExperiment(
            n=self.N, dim=self.DIM, trials=1, seed=item))

    def check(self, item, result) -> list:
        return checks.check_kesten(result.norms, self.N, freeness.DEFAULT_SLACK)

    def finish(self) -> list:
        return []


class Search:
    """pave_search on tensor(32,2), r = 16, one restart of 10 steps, ε = 0.5."""

    K, D, EPSILON, R, STEPS = 32, 2, 0.5, 16, 10

    def __init__(self, seed: int, workdir: str):
        inc = families.parse_family(f"tensor({self.K},{self.D})")
        ops = sample_operators(inc, seeds(seed, 4, 1)[0], 2)
        self.problem = paving.PavingProblem(inclusion=inc, operators=ops,
                                            epsilon=self.EPSILON, index=inc.known_index)
        self.items = seeds(seed, 5, OP_LIST_LEN)

    def run(self, item):
        return paving.pave_search(self.problem, paving.SearchConfig(
            r=self.R, restarts=1, steps=self.STEPS, seed=item))

    def check(self, item, cert) -> list:
        frames = [fr[0] for fr in cert.partition.frames()]
        xs = [x.blocks[0] for x in self.problem.operators]
        return checks.check_search(frames, cert.per_x_ratio,
                                   cert.diagnostics["incumbent_history"],
                                   cert.diagnostics["best_objective"], xs,
                                   self.K, self.D, self.EPSILON, self.R)

    def finish(self) -> list:
        return []


class Certify:
    """Re-verify, through `pavelab pave --mode verify`, four certificates that
    `pavelab pave` wrote in set-up: a pipeline, a search, a unitary and an l2
    certificate, all inline.  A frame sidecar is written only above 2e6
    complex entries (r·k² for tensor(k,d), with r ≤ k), and verifying the
    smallest such certificate takes about 0.2 s: too long an op to time
    steadily on a host whose speed drifts, so the sidecar path is left out."""

    # name: (family, k, d, epsilon, F count, extra pave flags)
    CERTS = {
        "pipeline": ("tensor(16,2)", 16, 2, 0.9, 2,
                     ["--mode", "pipeline", "--n-parts", "2", "--m-refine", "2"]),
        "search": ("tensor(8,2)", 8, 2, 0.5, 2,
                   ["--mode", "search", "--n-parts", "8", "--budget", "1"]),
        "unitary": ("self(16)", 16, 1, 0.25, 1, ["--mode", "unitary"]),
        "l2": ("self(16)", 16, 1, 0.3, 1, ["--mode", "l2", "--n-parts", "4"]),
    }
    # The constructions are randomised: at these sizes l2 misses its threshold
    # on about one seed in ten, and `pave` then exits 1.  Set-up keeps the
    # first of these many candidate seeds whose certificate verifies.
    TRIES = 8

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.seeds = {}
        for j, (name, (family, _, _, eps, count, flags)) in enumerate(self.CERTS.items()):
            for candidate in seeds(seed, 6 + j, self.TRIES):
                code = quiet_main(["pave", "--family", family, "--epsilon", str(eps),
                                   "--f-random", f"selfadjoint:{count}",
                                   "--seed", str(candidate),
                                   "--out", os.path.join(workdir, name)] + flags)
                if code != 1:
                    break
            if code != 0:
                raise RuntimeError(f"pavelab pave exited {code} writing the {name} certificate")
            self.seeds[name] = candidate
        self.items = [None]
        self.stored = None      # the ratios each certificate stored, read once

    def _path(self, name: str, leaf: str) -> str:
        return os.path.join(self.workdir, name, leaf)

    def run(self, item):
        return {name: quiet_main(["pave", "--mode", "verify", "--certificate",
                                  self._path(name, "pave_certificate.json"),
                                  "--seed", "0", "--out", self._path(name, "verify")])
                for name in self.CERTS}

    def check(self, item, codes) -> list:
        if self.stored is None:
            self.stored = {name: {"per_x_ratio": checks.load_json(
                self._path(name, "pave_certificate.json"))["per_x_ratio"]}
                for name in self.CERTS}
        problems = []
        for name, code in codes.items():
            if code != 0:
                problems.append(f"{name}: verify exited {code}")
                continue
            report = checks.load_json(self._path(name, os.path.join("verify", "verify.json")))
            problems += [f"{name}: {p}"
                         for p in checks.check_verify_report(self.stored[name], report)]
        return problems

    def finish(self) -> list:
        """Recompute the pipeline and unitary certificates' ratios independently."""
        family, k, d, eps, count, _ = self.CERTS["pipeline"]
        cert = checks.load_json(self._path("pipeline", "pave_certificate.json"))
        xs = [x.blocks[0] for x in sample_operators(
            families.parse_family(family), self.seeds["pipeline"], count)]
        frames = checks.certificate_frames(cert)
        problems = checks.check_partition(frames, cert["per_x_ratio"], xs, k, d, eps,
                                          cert["config"]["n_parts"] * cert["config"]["m_refine"])
        family, k, d, eps, count, _ = self.CERTS["unitary"]
        cert = checks.load_json(self._path("unitary", "pave_certificate.json"))
        xs = [x.blocks[0] for x in sample_operators(
            families.parse_family(family), self.seeds["unitary"], count)]
        us = checks.certificate_unitaries(cert)
        problems += checks.check_stored_ratios([checks.averaging_ratio(us, x) for x in xs], cert)
        return problems


WORKLOADS = {"pipeline": Pipeline, "kesten": Kesten, "search": Search, "certify": Certify}


def quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "numpy": np.__version__,
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    tracer = None
    if args.trace:
        tracer = Tracer(TRACE_TARGETS, read_modules=("pavelab.cli", "pavelab.serialize"))
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    # run.py passes the monotonic time at which it started this process
    started = int(os.environ.get("PERFBENCH_T0_NS", time.monotonic_ns()))
    setup_s = (time.monotonic_ns() - started) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    times, traced_ops, paired = [], [], {}
    attempted = failed = wrong = 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        item = workload.items[i % len(workload.items)]
        for traced in ([False] if tracer is None else [i % 2 == 1, i % 2 == 0]):
            attempted += 1
            try:
                if tracer is not None:
                    tracer.op = i if traced else -2
                    (tracer.install if traced else tracer.uninstall)()
                began = time.perf_counter()
                out = workload.run(item)
                elapsed = time.perf_counter() - began
                if tracer is not None:
                    tracer.uninstall()
                    tracer.op = -2
            except Exception:  # a failed op is counted, and the loop goes on
                failed += 1
                traceback.print_exc()
                continue
            problems = workload.check(item, out)
            if traced and isinstance(getattr(out, "diagnostics", None), dict):
                tracer.count(i, "paving.pipeline_attempts",
                             len(out.diagnostics.get("attempts", [])))
            out = None
            if problems:
                failed += 1
                wrong += 1
                print(f"op {i} ({item}): {'; '.join(problems)}", file=sys.stderr)
                continue
            if tracer is None:
                times.append(elapsed)
            else:
                paired[i, traced] = elapsed
                if traced:
                    traced_ops.append(i)
        i += 1
    final = workload.finish()
    if final:
        print("final check: " + "; ".join(final), file=sys.stderr)
        failed, wrong = attempted, wrong + 1

    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    if tracer is None:
        if not times:
            print("error: no op passed its checks", file=sys.stderr)
            return 1
        print(f"op times: {len(times)} ops, min {min(times):.6f} s, "
              f"median {statistics.median(times):.6f} s, mean {statistics.fmean(times):.6f} s")
        metrics = {
            # The host alternates between a fast and a slower speed for seconds
            # at a time; the fastest op is the program's cost with the least
            # interference, while medians and means follow the host's mix.
            "op_min_s": {"value": min(times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
        }
    else:
        metrics = per_layer_metrics(tracer, traced_ops, paired)
        tracer.save(os.path.join(OUT_DIR, f"trace-{args.workload}.npz"))
        if tracer.absent:
            print("absent trace targets: " + ", ".join(tracer.absent))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "setup_s": setup_s}))
    return 0


def per_layer_metrics(tracer, ops, paired) -> dict:
    """Per-op layer figures over the traced ops; the overhead is the median of
    traced over untraced time for the same op."""
    out = {}
    for name, unit, kind in PER_LAYER:
        if kind == "calls":
            value = tracer.calls_per_op(name.rsplit(".", 1)[0], ops)
        elif kind == "self_s":
            value = tracer.self_s_per_op(name.rsplit(".", 1)[0], ops)
        elif kind == "setup_self_s":
            value = tracer.self_s_per_op(name[len("setup."):].rsplit(".", 1)[0], [-1])
        elif kind == "counter":
            value = tracer.counter_per_op(name, ops)
        else:
            value = 100.0 * (statistics.median(paired[i, True] / paired[i, False]
                                               for i in ops if (i, False) in paired) - 1.0)
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
