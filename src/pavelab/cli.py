"""Batch front door: build inclusions, dispatch experiments, emit artifacts.

Subcommands: index, pave, kesten, dixmier, basis, scan, spec.  Every problem
takes one path, args -> recipe -> problem: `_recipe` turns the arguments
into the recipe dict a certificate stores, and `_inputs_from_recipe` is the
only code that turns a recipe into an inclusion and an operator set, both
when a certificate is made and when `pave --mode verify` rebuilds it from
the saved recipe (`index` and `basis` use its inclusion half).  Every
--spec file is read by `_spec_from_file`, which normalizes its weights as
`pavelab spec` echoes them.

Exit codes follow one contract everywhere: 0 = done and verified, 1 = ran
but unverified, 2 = usage or specification error, a malformed input file
included.  Every file is written atomically and all randomness is seeded,
so reruns with the same flags reproduce byte-identical payloads (modulo the
isolated meta.timestamp field).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import algebra as alg
from . import families, freeness, inclusion as incl, paving, serialize
from .seeding import child_rng, child_seed

# `basis` accepts d_ob within this of its interval and an expansion
# residual at most this
BASIS_TOL = 1e-8


class UsageError(Exception):
    pass


def _parse_grid(text: str):
    vals = [float(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise UsageError("empty epsilon grid")
    return vals


def _at_least(minimum: int):
    """argparse type: an integer of at least `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _parse_f_random(text: str):
    try:
        kind, count = text.rsplit(":", 1)
        count = int(count)
    except ValueError as exc:
        raise UsageError(f"bad --f-random {text!r}; expected KIND:COUNT") from exc
    theta = None
    if kind.startswith("projection@"):
        theta = float(kind.split("@", 1)[1])
        kind = alg.PROJECTION
    elif kind == "selfadjoint":
        kind = alg.SELFADJOINT
    elif kind == "positive":
        kind = alg.POSITIVE
    else:
        raise UsageError(f"unknown random kind {kind!r}")
    if count < 1:
        raise UsageError("need at least one operator")
    return kind, theta, count


@contextlib.contextmanager
def _input_file(path):
    """Yield the JSON in `path`; a key the body finds missing is a usage error."""
    try:
        with open(path) as handle:
            yield json.load(handle)
    except KeyError as exc:
        raise UsageError(f"{path} lacks key {exc}") from exc


def _spec_from_file(path) -> incl.InclusionSpec:
    """The inclusion spec in a --spec file, with its weights normalized.

    Weights may come in unnormalized or rounded; once the dimension
    bookkeeping holds (`incl.check_multiplicities`), the M-side weights are
    rescaled to a unit trace and the N-side weights recomputed through the
    multiplicity matrix, so the spec is always trace-compatible.  The file
    still lists one N weight per N-block, but those values are not used.
    """
    with _input_file(path) as raw:
        m_dims = [int(v) for v in raw["m_blocks"]]
        n_dims = [int(v) for v in raw["n_blocks"]]
        lam = incl.check_multiplicities(n_dims, m_dims, raw["lambda"])
        m_weights = [float(v) for v in raw["m_weights"]]
        if len(raw["n_weights"]) != len(n_dims):
            raise UsageError("need one N weight per N-block")
    total = sum(w * d for w, d in zip(m_weights, m_dims))
    if total <= 0:
        raise UsageError("M trace weights must have positive total")
    m_weights = [w / total for w in m_weights]
    n_weights = [sum(lam[k][l] * m_weights[l] for l in range(len(m_dims)))
                 for k in range(len(n_dims))]
    return incl.InclusionSpec(
        n_shape=alg.AlgebraShape(tuple(n_dims), tuple(n_weights)),
        m_shape=alg.AlgebraShape(tuple(m_dims), tuple(m_weights)),
        inclusion_matrix=lam)


def _inclusion_recipe(args) -> dict:
    if args.family:
        return {"family": args.family}
    if args.spec:
        return {"spec": serialize.inclusion_spec_to_obj(_spec_from_file(args.spec)),
                "embed_seed": args.seed or 0}
    raise UsageError("need --family or --spec")


def _recipe(args) -> dict:
    """The recipe a certificate stores, from the arguments.

    ε is --epsilon, or for `scan` the first grid point; the index is --index,
    or None for the problem to take the inclusion's.
    """
    epsilon = args.epsilon if "epsilon" in args else _parse_grid(args.grid)[0]
    if epsilon is None:
        raise UsageError(f"{args.command} needs --epsilon")
    inclusion = _inclusion_recipe(args)
    if bool(args.f_random) == bool(args.f_file):
        raise UsageError("need exactly one operator source (--f-random or --f-file)")
    if args.f_random:
        f = {"random": args.f_random, "seed": args.seed}
    else:
        with _input_file(args.f_file) as obj:
            f = {"file": os.path.basename(args.f_file), "elements": obj["elements"]}
            for i, element in enumerate(f["elements"]):  # read here so a missing key names the file
                serialize.element_from_obj(element, f"element {i}")
    return {"inclusion": inclusion, "f": f, "epsilon": epsilon, "index": args.index}


def _inclusion_from_recipe(recipe: dict) -> incl.Inclusion:
    if "family" in recipe:
        return families.parse_family(recipe["family"])
    spec = serialize.inclusion_spec_from_obj(recipe["spec"])
    return incl.build_inclusion(spec, seed=recipe["embed_seed"])


def _inputs_from_recipe(recipe: dict):
    """The inclusion and operator set a recipe describes; the one path from
    user input to both."""
    inc = _inclusion_from_recipe(recipe["inclusion"])
    fsrc = recipe["f"]
    if "random" in fsrc:
        kind, theta, count = _parse_f_random(fsrc["random"])
        ops = [alg.random_element(inc.m_shape, kind,
                                  child_seed(fsrc["seed"], 9, i), theta=theta)
               for i in range(count)]
    else:
        ops = [serialize.element_from_obj(o, f"element {i}") for i, o in enumerate(fsrc["elements"])]
    return inc, ops


def _problem_from_recipe(recipe: dict) -> paving.PavingProblem:
    """Build the paving problem a recipe describes."""
    inc, ops = _inputs_from_recipe(recipe)
    return paving.PavingProblem(inclusion=inc, operators=ops,
                                epsilon=recipe["epsilon"], index=recipe["index"])


def _problem(args):
    """args -> recipe -> problem; the recipe records the index the problem uses."""
    recipe = _recipe(args)
    problem = _problem_from_recipe(recipe)
    recipe["index"] = problem.index
    return problem, recipe


def _write_json(args, name: str, obj) -> str:
    path = os.path.join(args.out, name)
    serialize.atomic_write_text(path, serialize.canonical_dumps(obj))
    return path


def cmd_index(args) -> int:
    inc_recipe = _inclusion_recipe(args)
    inc = _inclusion_from_recipe(inc_recipe)
    est = incl.expectation_index_estimate(inc, trials=args.trials, seed=args.seed)
    print(f"inclusion       : {inc.label or 'custom'}")
    print(f"lambda estimate : {est.lambda_est:.12g}")
    print(f"index estimate  : {est.index_est:.12g}")
    print(f"known index     : {inc.known_index:.12g}")
    print(f"trials          : {est.trials}")
    print(f"min-sample seed : trial {est.best_trial} of root {est.seed}")
    report = {"command": "index", "inclusion": inc_recipe,
              "lambda_est": est.lambda_est, "index_est": est.index_est,
              "known_index": inc.known_index, "trials": est.trials,
              "best_trial": est.best_trial, "seed": est.seed,
              "regularized": est.regularized, "meta": serialize.timestamp_meta()}
    if args.out:
        _write_json(args, "index.json", report)
    return 0


def _print_pave_table(problem, cert):
    n, m, r_bound = paving.paving_partition_bound(problem.index, problem.epsilon)
    print(f"mode={cert.mode} r={cert.r} epsilon={problem.epsilon} "
          f"threshold={cert.threshold:.6g} verified={cert.verified}")
    print(f"size bound: n={n} m={m} r<={r_bound}")
    for i, ratio in enumerate(cert.per_x_ratio):
        print(f"  x[{i}]: ratio = {ratio:.12g}")


def _reject_unused_size_flags(args):
    """A size flag that the mode cannot use would leave no trace in its output."""
    if args.m_refine is not None and args.mode != "pipeline":
        raise UsageError(f"pave --mode {args.mode} takes no --m-refine")
    if args.n_parts is not None and args.mode in ("unitary", "verify"):
        raise UsageError(f"pave --mode {args.mode} takes no --n-parts")


def _check_default_size(problem, args, sizes: str, parts: int, flags: str):
    """The theorem's sizes stand in for absent size flags; N must have
    slots for their `parts` parts."""
    slots = problem.inclusion.n_shape.total_dim
    if parts > slots:
        raise UsageError(f"pave --mode {args.mode} without {flags} takes the theorem's "
                         f"{sizes}, more parts than the {slots} slots of N; pass {flags}")


def cmd_pave(args) -> int:
    if args.mode == "verify":
        _reject_unused_size_flags(args)
        if not args.certificate:
            raise UsageError("verify mode needs --certificate")
        with _input_file(args.certificate) as saved:
            problem = _problem_from_recipe(saved["problem"])
            stored = serialize.certificate_from_obj(
                saved, os.path.dirname(os.path.abspath(args.certificate)))
        cert = paving.verify(problem, stored)
        _print_pave_table(problem, cert)
        report = {"command": "pave-verify",
                  "per_x_ratio": cert.per_x_ratio,
                  "verified": cert.verified, "r": cert.r,
                  "threshold": cert.threshold,
                  "meta": serialize.timestamp_meta()}
        _write_json(args, "verify.json", report)
        return 0 if cert.verified else 1

    if args.seed is None:  # optional only in verify mode, which reads it from the certificate
        raise UsageError(f"pave --mode {args.mode} needs --seed")
    _reject_unused_size_flags(args)
    problem, recipe = _problem(args)
    if args.mode == "pipeline":
        if (args.n_parts is None) != (args.m_refine is None):
            raise UsageError("pipeline mode takes --n-parts and --m-refine together")
        if args.n_parts is not None:
            n, m = args.n_parts, args.m_refine
        else:
            n, m, _ = paving.paving_partition_bound(problem.index, args.epsilon)
            _check_default_size(problem, args, f"n*m = {n}*{m}", n * m,
                                "--n-parts and --m-refine")
        cfg = paving.PipelineConfig(n_parts=n, m_refine=m, seed=args.seed,
                                    retry_budget=args.budget)
        cert = paving.pave_constructive(problem, cfg)
    elif args.mode == "search":
        r = args.n_parts
        if r is None:
            r = paving.paving_partition_bound(problem.index, args.epsilon)[2]
            _check_default_size(problem, args, f"r = {r}", r, "--n-parts")
        cert = paving.pave_search(problem, paving.SearchConfig(
            r=r, steps=50 * args.budget, seed=args.seed))
    elif args.mode == "l2":
        if not args.n_parts:
            raise UsageError("l2 mode needs --n-parts")
        cert = paving.l2_pave(problem, args.n_parts, seed=args.seed)
    elif args.mode == "unitary":
        cert = paving.dixmier_average_run(problem, seed=args.seed)
    else:
        raise UsageError(f"unknown mode {args.mode!r}")
    stem = os.path.join(args.out, "pave_certificate")
    obj = serialize.certificate_to_obj(cert, recipe, sidecar_stem=stem)
    _write_json(args, "pave_certificate.json", obj)
    _print_pave_table(problem, cert)
    return 0 if cert.verified else 1


def cmd_kesten(args) -> int:
    exp = freeness.KestenExperiment(n=args.n, dim=args.dim, trials=args.trials,
                                    seed=args.seed, slack=args.slack)
    result = freeness.run_kesten(exp)
    rows = []
    for t, norm in enumerate(result.norms):
        defect = None
        if args.defect_len:
            v, x = freeness.trial_pair(args.n, args.dim, child_rng(args.seed, t))
            defect = freeness.freeness_defect(v, x, args.defect_len)
        rows.append([args.n, args.dim, t, repr(float(norm)),
                     repr(result.bound), "" if defect is None else repr(float(defect))])
    serialize.write_csv(os.path.join(args.out, "kesten.csv"),
                        ["n", "dim", "trial", "norm", "bound", "defect"], rows)
    summary = {"command": "kesten", "n": args.n, "dim": args.dim,
               "trials": args.trials, "seed": args.seed,
               "bound": result.bound, "slack": exp.slack,
               "max": result.max_norm, "mean": result.mean_norm,
               "exceedances": result.exceedances,
               "meta": serialize.timestamp_meta()}
    _write_json(args, "kesten.json", summary)
    print(f"n={args.n} dim={args.dim} trials={args.trials}: "
          f"max={result.max_norm:.6f} mean={result.mean_norm:.6f} "
          f"bound={result.bound:.6f} (+{exp.slack}) exceedances={result.exceedances}")
    return 0 if result.exceedances == 0 else 1


def cmd_dixmier(args) -> int:
    problem, recipe = _problem(args)
    cert = paving.dixmier_average_run(problem, seed=args.seed)
    bound = paving.dixmier_count_bound(min(args.epsilon, 1.0))
    print(f"unitary count = {cert.r} (single-element bound {bound}); "
          f"max ratio = {max(cert.per_x_ratio):.6g}; verified = {cert.verified}")
    obj = serialize.certificate_to_obj(cert, recipe)
    obj["count_bound"] = bound
    _write_json(args, "dixmier_certificate.json", obj)
    return 0 if cert.verified else 1


def cmd_basis(args) -> int:
    inc_recipe = _inclusion_recipe(args)
    inc = _inclusion_from_recipe(inc_recipe)
    index = args.index if args.index is not None else inc.known_index
    basis = incl.orthonormal_basis(inc)
    value = incl.d_ob(inc, basis)
    lo, hi = incl.d_ob_interval(index)
    probes = [alg.random_element(inc.m_shape, alg.SELFADJOINT,
                                 child_seed(args.seed or 0, 3, t))
              for t in range(10)]
    residual = incl.expansion_residual(inc, basis.elements, probes)
    ok = (lo - BASIS_TOL <= value <= hi + BASIS_TOL) and residual <= BASIS_TOL
    print(f"basis size J = {len(basis.elements)}")
    print(f"d_ob = {value:.12g}, interval [{lo:.6g}, {hi:.6g}]")
    print(f"expansion residual = {residual:.3e}; verified = {ok}")
    report = {"command": "basis", "inclusion": inc_recipe, "J": len(basis.elements),
              "d_ob": value, "interval": [lo, hi],
              "expansion_residual": residual, "verified": ok,
              "meta": serialize.timestamp_meta()}
    _write_json(args, "basis.json", report)
    return 0 if ok else 1


def cmd_spec(args) -> int:
    """Validate an inclusion-spec JSON and echo it as every --spec reader
    takes it, with normalized weights (`_spec_from_file`)."""
    obj = serialize.inclusion_spec_to_obj(_spec_from_file(args.spec))
    print(serialize.canonical_dumps(obj), end="")
    if args.out:
        _write_json(args, "spec_normalized.json",
                    {**obj, "meta": serialize.timestamp_meta()})
    return 0


def cmd_scan(args) -> int:
    recipe = _recipe(args)
    inc, ops = _inputs_from_recipe(recipe)  # `scan` centers F once for the grid
    rows = paving.scan(inc, _parse_grid(args.grid), ops, recipe["index"],
                       seed=args.seed, r_cap=args.budget)
    csv_rows = [[r["epsilon"], r["r_found"], r["r_verified"], r["theorem_r"],
                 r["lower_bound"], r["seed"]] for r in rows]
    serialize.write_csv(os.path.join(args.out, "scan.csv"),
                        ["epsilon", "r_found", "r_verified", "theorem_r",
                         "lower_bound", "seed"], csv_rows)
    for r in rows:
        print(f"epsilon={r['epsilon']}: r_found={r['r_found']} "
              f"verified={r['r_verified']} theorem_r={r['theorem_r']} "
              f"lower={r['lower_bound']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pavelab",
        description="paving partitions, averaging certificates, and index "
                    "invariants for finite-dimensional inclusions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required=True):
        p.add_argument("--family", help="builtin: tensor(k,d), scalars-in(n), self(d)")
        p.add_argument("--spec", help="path to an inclusion-spec JSON file")
        p.add_argument("--seed", type=int, required=seed_required)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--index", type=float, default=None,
                       help="override the index used in bounds")

    p = sub.add_parser("index", help="estimate the expectation-inequality index")
    common(p)
    p.add_argument("--trials", type=int, default=2000)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("pave", help="construct/search/verify a paving certificate")
    common(p, seed_required=False)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--mode", default="pipeline",
                   choices=["pipeline", "search", "verify", "unitary", "l2"])
    p.add_argument("--f-random", dest="f_random",
                   help="KIND:COUNT with KIND in selfadjoint|positive|projection@THETA")
    p.add_argument("--f-file", dest="f_file", help="JSON file with an elements list")
    p.add_argument("--n-parts", dest="n_parts", type=_at_least(1), default=None)
    p.add_argument("--m-refine", dest="m_refine", type=_at_least(1), default=None)
    p.add_argument("--budget", type=_at_least(0), default=8,
                   help="pipeline: retries after the first attempt; "
                        "search: annealing steps per restart, in units of 50")
    p.add_argument("--certificate", help="saved certificate for verify mode")
    p.set_defaults(func=cmd_pave)

    p = sub.add_parser("kesten", help="pinched-norm random-matrix experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--slack", type=float, default=freeness.DEFAULT_SLACK)
    p.add_argument("--defect-len", dest="defect_len", type=int, default=0,
                   help="also compute the freeness defect up to this word length")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_kesten)

    p = sub.add_parser("dixmier", help="averaging certificate by unitary folds")
    common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--f-random", dest="f_random")
    p.add_argument("--f-file", dest="f_file")
    p.set_defaults(func=cmd_dixmier)

    p = sub.add_parser("basis", help="orthonormal basis and its frame-sum norm")
    common(p, seed_required=False)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("scan", help="profile smallest verified r over an epsilon grid")
    common(p)
    p.add_argument("--grid", required=True, help="comma-separated epsilons")
    p.add_argument("--f-random", dest="f_random")
    p.add_argument("--f-file", dest="f_file")
    p.add_argument("--budget", type=_at_least(1), default=64, help="largest r to try")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("spec", help="validate a spec JSON and echo normalized weights")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_spec)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()` once per process; parse_args fills a fresh namespace
    per call, so in-process callers of `main` share it safely."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, paving.PavingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
