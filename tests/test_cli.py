"""End-to-end tests of the command-line front door and its exit-code contract."""

import json
import os

import numpy as np
import pytest

from pavelab import algebra as alg
from pavelab import families
from pavelab import inclusion as incl
from pavelab import paving as pv
from pavelab import serialize as ser
from pavelab.cli import main

from conftest import embed_partition, pinch, spectral_partition, strip_meta


def run(args):
    return main(args)


def load(path):
    with open(path) as handle:
        return json.load(handle)


def canonical_without_meta(path):
    return ser.canonical_dumps(strip_meta(load(path)))


class TestIndexCommand:
    def test_report(self, tmp_path, capsys):
        code = run(["index", "--family", "tensor(2,2)", "--trials", "120",
                    "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "index estimate" in out
        report = load(os.path.join(tmp_path, "index.json"))
        assert abs(report["index_est"] - 4.0) < 0.2
        assert report["trials"] == 120

    def test_self_inclusion_index_one(self, tmp_path):
        code = run(["index", "--family", "self(3)", "--trials", "40",
                    "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        report = load(os.path.join(tmp_path, "index.json"))
        assert abs(report["index_est"] - 1.0) < 1e-3

    def test_bad_family_usage_error(self, tmp_path):
        assert run(["index", "--family", "nope(1)", "--trials", "10",
                    "--seed", "1", "--out", str(tmp_path)]) == 2


class TestPaveCommand:
    def test_trivial_epsilon(self, tmp_path):
        code = run(["pave", "--family", "self(8)", "--epsilon", "1.5",
                    "--f-random", "selfadjoint:1", "--seed", "2",
                    "--mode", "pipeline", "--n-parts", "2", "--m-refine", "2",
                    "--out", str(tmp_path)])
        assert code == 0
        cert = load(os.path.join(tmp_path, "pave_certificate.json"))
        assert cert["r"] == 1 and cert["verified"]

    def test_pipeline_and_verify_bit_identical(self, tmp_path):
        out1 = os.path.join(tmp_path, "a")
        code = run(["pave", "--family", "tensor(8,2)", "--epsilon", "0.9",
                    "--f-random", "selfadjoint:1", "--seed", "3",
                    "--mode", "pipeline", "--n-parts", "2", "--m-refine", "2",
                    "--out", out1])
        assert code == 0
        cert_path = os.path.join(out1, "pave_certificate.json")
        cert = load(cert_path)
        out2 = os.path.join(tmp_path, "b")
        code = run(["pave", "--mode", "verify", "--certificate", cert_path,
                    "--seed", "0", "--out", out2])
        assert code == 0
        verify = load(os.path.join(out2, "verify.json"))
        assert verify["per_x_ratio"] == cert["per_x_ratio"]

    def test_verify_rejects_tampered_inline_frame(self, tmp_path, capsys):
        # a candidate that fails its own structural checks is malformed input
        out1 = os.path.join(tmp_path, "a")
        assert run(["pave", "--family", "tensor(8,2)", "--epsilon", "0.9",
                    "--f-random", "selfadjoint:1", "--seed", "3",
                    "--mode", "pipeline", "--n-parts", "2", "--m-refine", "2",
                    "--out", out1]) == 0
        cert_path = os.path.join(out1, "pave_certificate.json")
        for scale in (1.0 + 1e-6, 0.0, 2.0):
            cert = load(cert_path)
            cert["partition"]["frames"][0][0][1][0][0] *= scale
            tampered = os.path.join(tmp_path, f"tampered_{scale}.json")
            with open(tampered, "w") as handle:
                json.dump(cert, handle)
            capsys.readouterr()
            assert run(["pave", "--mode", "verify", "--certificate", tampered,
                        "--seed", "0", "--out", os.path.join(tmp_path, "b")]) == 2
            assert ("error: partition frames are not unitary within 1e-08"
                    in capsys.readouterr().err)

    def test_verify_rejects_m_shaped_partition(self, tmp_path, capsys):
        # the same parts, stored by their embedded frames over M
        out1 = os.path.join(tmp_path, "a")
        assert run(["pave", "--family", "tensor(2,2)", "--epsilon", "0.9",
                    "--f-random", "selfadjoint:1", "--seed", "3",
                    "--mode", "search", "--n-parts", "2", "--out", out1]) in (0, 1)
        cert = load(os.path.join(out1, "pave_certificate.json"))
        part = ser.partition_from_obj(cert["partition"])
        cert["partition"] = ser.partition_to_obj(
            embed_partition(families.tensor_product(2, 2), part))
        m_shaped = os.path.join(tmp_path, "m_shaped.json")
        ser.atomic_write_text(m_shaped, ser.canonical_dumps(cert))
        capsys.readouterr()
        assert run(["pave", "--mode", "verify", "--certificate", m_shaped,
                    "--seed", "0", "--out", os.path.join(tmp_path, "b")]) == 2
        assert "error: partition must live over N\n" in capsys.readouterr().err

    @staticmethod
    def edited_certificate(tmp_path, edit):
        """The path of a verified tensor(4,2) search certificate after `edit`
        has changed its JSON object in place."""
        out1 = os.path.join(tmp_path, "a")
        assert run(["pave", "--family", "tensor(4,2)", "--epsilon", "0.9",
                    "--f-random", "selfadjoint:1", "--seed", "3",
                    "--mode", "search", "--n-parts", "2", "--out", out1]) == 0
        cert = load(os.path.join(out1, "pave_certificate.json"))
        edit(cert)
        path = os.path.join(tmp_path, "edited.json")
        ser.atomic_write_text(path, ser.canonical_dumps(cert))
        return path

    @pytest.mark.parametrize("fmt, shown", [
        ("paving-certificate/99", "'paving-certificate/99'"), (None, "None")])
    def test_verify_rejects_unknown_certificate_format(self, tmp_path, capsys, fmt, shown):
        def edit(cert):
            if fmt is None:
                del cert["format"]
            else:
                cert["format"] = fmt
        path = self.edited_certificate(tmp_path, edit)
        capsys.readouterr()
        assert run(["pave", "--mode", "verify", "--certificate", path,
                    "--out", os.path.join(tmp_path, "b")]) == 2
        assert capsys.readouterr().err == f"error: unsupported certificate format {shown}\n"

    @pytest.mark.parametrize("edit, count", [
        (lambda frames: frames.pop(), 0),                # too few: a part lists no frame
        (lambda frames: frames.append(frames[0]), 2),    # too many: an extra block
    ], ids=["missing-block", "extra-block"])
    def test_verify_rejects_inline_part_with_wrong_block_count(self, tmp_path, capsys,
                                                               edit, count):
        path = self.edited_certificate(tmp_path,
                                       lambda cert: edit(cert["partition"]["frames"][1]))
        capsys.readouterr()
        assert run(["pave", "--mode", "verify", "--certificate", path,
                    "--out", os.path.join(tmp_path, "b")]) == 2
        assert capsys.readouterr().err == \
            f"error: inline partition part 1 lists {count} frames for 1 N-blocks\n"

    def test_table_prints_no_count_lower_bound(self, tmp_path, capsys):
        # two parts pave diag(1, -1) within ε: ⌈1/ε⌉ = 20 bounds nothing here
        x = alg.Element(alg.AlgebraShape.matrix(2), [np.diag([1.0, -1.0]).astype(complex)])
        fpath = os.path.join(tmp_path, "ops.json")
        ser.atomic_write_text(fpath, ser.canonical_dumps({"elements": [ser.element_to_obj(x)]}))
        capsys.readouterr()
        assert run(["pave", "--family", "self(2)", "--f-file", fpath, "--epsilon", "0.05",
                    "--mode", "search", "--n-parts", "2", "--seed", "0",
                    "--out", os.path.join(tmp_path, "out")]) == 0
        out = capsys.readouterr().out
        assert "r=2 " in out and "verified=True" in out
        assert "size bound: n=6400 m=1600 r<=10240000\n" in out
        assert "lower bound" not in out

    def test_emitted_certificate_passes_standalone_verify(self, tmp_path):
        code = run(["pave", "--family", "tensor(8,2)", "--epsilon", "0.9",
                    "--f-random", "selfadjoint:2", "--seed", "4",
                    "--mode", "search", "--n-parts", "4", "--out", str(tmp_path)])
        cert_obj = load(os.path.join(tmp_path, "pave_certificate.json"))
        from pavelab.cli import _problem_from_recipe

        problem = _problem_from_recipe(cert_obj["problem"])
        partition = ser.partition_from_obj(cert_obj["partition"], str(tmp_path))
        cert = pv.verify(problem, partition)
        assert cert.per_x_ratio == cert_obj["per_x_ratio"]
        assert cert.verified == cert_obj["verified"]
        assert (code == 0) == cert.verified

    def test_unverified_exit_code(self, tmp_path):
        # one part cannot pave a generic operator at small epsilon
        code = run(["pave", "--family", "self(8)", "--epsilon", "0.2",
                    "--f-random", "selfadjoint:1", "--seed", "5",
                    "--mode", "search", "--n-parts", "1", "--out", str(tmp_path)])
        assert code == 1

    def test_l2_mode(self, tmp_path):
        code = run(["pave", "--family", "self(64)", "--epsilon", "0.3",
                    "--f-random", "selfadjoint:1", "--seed", "6",
                    "--mode", "l2", "--n-parts", "16", "--out", str(tmp_path)])
        assert code == 0
        cert = load(os.path.join(tmp_path, "pave_certificate.json"))
        assert cert["mode"] == "l2"
        assert cert["threshold"] == 0.25 + 0.05

    @pytest.mark.parametrize("flags", [
        ["--family", "tensor(8,2)", "--epsilon", "0.9", "--mode", "search",
         "--n-parts", "4"],
        ["--family", "self(64)", "--epsilon", "0.3", "--mode", "l2", "--n-parts", "16"],
    ])
    def test_search_and_l2_verify_bit_identical(self, tmp_path, flags):
        out1, out2 = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
        run(["pave", "--f-random", "selfadjoint:2", "--seed", "4", "--out", out1] + flags)
        cert_path = os.path.join(out1, "pave_certificate.json")
        run(["pave", "--mode", "verify", "--certificate", cert_path,
             "--seed", "0", "--out", out2])
        assert load(os.path.join(out2, "verify.json"))["per_x_ratio"] == \
            load(cert_path)["per_x_ratio"]

    def test_sidecar_certificate_verifies_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ser, "PARTITION_SIDE_CAR_LIMIT", 100)
        out1, out2 = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
        assert run(["pave", "--family", "tensor(16,2)", "--epsilon", "0.9",
                    "--f-random", "selfadjoint:2", "--seed", "3", "--mode", "pipeline",
                    "--n-parts", "2", "--m-refine", "2", "--out", out1]) == 0
        cert_path = os.path.join(out1, "pave_certificate.json")
        cert = load(cert_path)
        assert cert["partition"]["kind"] == "frame-sidecar"
        assert run(["pave", "--mode", "verify", "--certificate", cert_path,
                    "--seed", "0", "--out", out2]) == 0
        assert load(os.path.join(out2, "verify.json"))["per_x_ratio"] == cert["per_x_ratio"]

    def test_unitary_mode(self, tmp_path):
        code = run(["pave", "--family", "self(16)", "--epsilon", "0.25",
                    "--f-random", "selfadjoint:1", "--seed", "9",
                    "--mode", "unitary", "--out", str(tmp_path)])
        assert code == 0
        cert = load(os.path.join(tmp_path, "pave_certificate.json"))
        assert cert["mode"] == "unitaries" and cert["verified"]
        assert cert["r"] <= pv.dixmier_count_bound(0.25)

    def test_f_file_source(self, tmp_path):
        inc = families.self_inclusion(4)
        x = alg.random_element(inc.m_shape, alg.SELFADJOINT, 7)
        fpath = os.path.join(tmp_path, "ops.json")
        ser.atomic_write_text(fpath, ser.canonical_dumps(
            {"elements": [ser.element_to_obj(x)]}))
        code = run(["pave", "--family", "self(4)", "--epsilon", "1.2",
                    "--f-file", fpath, "--seed", "8", "--mode", "search",
                    "--n-parts", "2", "--out", str(tmp_path)])
        assert code == 0

    def test_spec_f_file_certificate_verifies_bit_identical(self, tmp_path):
        spec = {"n_blocks": [2], "n_weights": [0.5], "m_blocks": [4, 2],
                "m_weights": [0.125, 0.25], "lambda": [[2, 1]]}
        spec_path = os.path.join(tmp_path, "spec.json")
        ser.atomic_write_text(spec_path, ser.canonical_dumps(spec))
        shape = alg.AlgebraShape((4, 2), (0.125, 0.25))
        ops_path = os.path.join(tmp_path, "ops.json")
        ser.atomic_write_text(ops_path, ser.canonical_dumps({"elements": [
            ser.element_to_obj(alg.random_element(shape, alg.SELFADJOINT, s))
            for s in (70, 71)]}))
        out1, out2 = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
        assert run(["pave", "--spec", spec_path, "--index", "2.5", "--f-file", ops_path,
                    "--epsilon", "0.9", "--seed", "3", "--mode", "search",
                    "--n-parts", "2", "--out", out1]) in (0, 1)
        cert_path = os.path.join(out1, "pave_certificate.json")
        cert = load(cert_path)
        assert cert["problem"]["index"] == 2.5
        assert cert["problem"]["f"]["file"] == "ops.json"
        code = run(["pave", "--mode", "verify", "--certificate", cert_path,
                    "--seed", "0", "--out", out2])
        verify = load(os.path.join(out2, "verify.json"))
        assert verify["per_x_ratio"] == cert["per_x_ratio"]
        assert verify["verified"] == cert["verified"] and code == (0 if cert["verified"] else 1)

    def test_seed_optional_in_verify_mode_only(self, tmp_path, capsys):
        out1, out2 = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
        run(["pave", "--family", "tensor(8,2)", "--epsilon", "0.9", "--mode", "search",
             "--n-parts", "4", "--f-random", "selfadjoint:2", "--seed", "4", "--out", out1])
        cert = load(os.path.join(out1, "pave_certificate.json"))
        code = run(["pave", "--mode", "verify", "--certificate",
                    os.path.join(out1, "pave_certificate.json"), "--out", out2])
        assert code == (0 if cert["verified"] else 1)
        assert load(os.path.join(out2, "verify.json"))["per_x_ratio"] == cert["per_x_ratio"]
        capsys.readouterr()
        for mode in ("pipeline", "search", "l2", "unitary"):
            assert run(["pave", "--family", "self(4)", "--epsilon", "0.5", "--mode", mode,
                        "--n-parts", "2", "--f-random", "selfadjoint:1",
                        "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == f"error: pave --mode {mode} needs --seed\n"

    @pytest.mark.parametrize("budget, steps", [("0", 0), ("1", 50)])
    def test_search_budget_counts_steps_in_fifties(self, tmp_path, budget, steps):
        run(["pave", "--family", "tensor(8,2)", "--epsilon", "0.5",
             "--f-random", "selfadjoint:1", "--seed", "1", "--mode", "search",
             "--n-parts", "4", "--budget", budget, "--out", str(tmp_path)])
        cert = load(os.path.join(tmp_path, "pave_certificate.json"))
        assert cert["config"]["steps"] == steps

    def test_missing_epsilon_usage(self, tmp_path):
        assert run(["pave", "--family", "self(4)", "--f-random",
                    "selfadjoint:1", "--seed", "1", "--out", str(tmp_path)]) == 2

    def test_two_sources_usage(self, tmp_path):
        assert run(["pave", "--family", "self(4)", "--epsilon", "0.5",
                    "--f-random", "selfadjoint:1", "--f-file", "nope.json",
                    "--seed", "1", "--out", str(tmp_path)]) == 2


class TestKestenCommand:
    def test_csv_and_summary(self, tmp_path):
        code = run(["kesten", "--n", "3", "--dim", "48", "--trials", "4",
                    "--seed", "9", "--out", str(tmp_path)])
        assert code == 0
        with open(os.path.join(tmp_path, "kesten.csv")) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "n,dim,trial,norm,bound,defect"
        assert len(lines) == 5
        summary = load(os.path.join(tmp_path, "kesten.json"))
        assert summary["exceedances"] == 0

    def test_exceedance_exit(self, tmp_path):
        code = run(["kesten", "--n", "3", "--dim", "48", "--trials", "4",
                    "--seed", "9", "--slack", "-1.0", "--out", str(tmp_path)])
        assert code == 1

    def test_defect_column(self, tmp_path):
        code = run(["kesten", "--n", "2", "--dim", "16", "--trials", "2",
                    "--seed", "10", "--defect-len", "2", "--out", str(tmp_path)])
        assert code == 0
        with open(os.path.join(tmp_path, "kesten.csv")) as handle:
            rows = handle.read().splitlines()[1:]
        assert all(row.split(",")[5] for row in rows)

    def test_defect_is_of_the_row_pair(self, tmp_path):
        # row t's norm is the literal pinched norm of the pair whose defect
        # row t reports
        from pavelab import freeness as fr
        from pavelab.seeding import child_rng

        assert run(["kesten", "--n", "4", "--dim", "64", "--trials", "2",
                    "--seed", "3", "--defect-len", "2", "--out", str(tmp_path)]) == 0
        with open(os.path.join(tmp_path, "kesten.csv")) as handle:
            rows = [line.split(",") for line in handle.read().splitlines()[1:]]
        for t, row in enumerate(rows):
            v, x = fr.trial_pair(4, 64, child_rng(3, t))
            literal = alg.op_norm(pinch(spectral_partition(v), x))
            assert abs(float(row[3]) - literal) <= 1e-12
            assert float(row[5]) == fr.freeness_defect(v, x, 2)

    def test_byte_determinism_modulo_timestamp(self, tmp_path):
        a, b = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
        for out in (a, b):
            assert run(["kesten", "--n", "2", "--dim", "32", "--trials", "3",
                        "--seed", "11", "--out", out]) == 0
        with open(os.path.join(a, "kesten.csv")) as f1, \
                open(os.path.join(b, "kesten.csv")) as f2:
            assert f1.read() == f2.read()
        assert canonical_without_meta(os.path.join(a, "kesten.json")) == \
            canonical_without_meta(os.path.join(b, "kesten.json"))


class TestDixmierCommand:
    def test_certificate(self, tmp_path):
        code = run(["dixmier", "--family", "self(16)", "--epsilon", "0.25",
                    "--f-random", "selfadjoint:1", "--seed", "12",
                    "--out", str(tmp_path)])
        assert code == 0
        cert = load(os.path.join(tmp_path, "dixmier_certificate.json"))
        assert cert["verified"]
        assert cert["r"] <= cert["count_bound"]
        # emitted unitaries re-verify standalone
        from pavelab.cli import _problem_from_recipe

        problem = _problem_from_recipe(cert["problem"])
        us = [ser.element_from_obj(o) for o in cert["unitaries"]]
        again = pv.verify(problem, us)
        assert again.per_x_ratio == cert["per_x_ratio"]

    def test_certificate_verifies_through_pave(self, tmp_path):
        out1, out2 = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
        assert run(["dixmier", "--family", "self(16)", "--epsilon", "0.25",
                    "--f-random", "selfadjoint:2", "--seed", "12", "--out", out1]) == 0
        cert_path = os.path.join(out1, "dixmier_certificate.json")
        assert run(["pave", "--mode", "verify", "--certificate", cert_path,
                    "--seed", "0", "--out", out2]) == 0
        verify = load(os.path.join(out2, "verify.json"))
        cert = load(cert_path)
        assert verify["per_x_ratio"] == cert["per_x_ratio"]
        assert verify["r"] == cert["r"] and verify["verified"]


class TestBasisCommand:
    def test_report(self, tmp_path):
        code = run(["basis", "--family", "scalars-in(3)", "--out", str(tmp_path)])
        assert code == 0
        report = load(os.path.join(tmp_path, "basis.json"))
        assert abs(report["d_ob"] - 9.0) < 1e-8
        assert report["interval"] == [9.0, 1.0 + 9.0 * 8.0]
        assert report["expansion_residual"] <= 1e-8

    def test_multi_block_spec(self, tmp_path):
        spec = {"n_blocks": [2, 3], "n_weights": [1, 1], "m_blocks": [7, 5],
                "m_weights": [1, 2], "lambda": [[2, 1], [1, 1]]}
        spec_path = os.path.join(tmp_path, "spec.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        code = run(["basis", "--spec", spec_path, "--index", "9.72",
                    "--out", str(tmp_path)])
        assert code == 0
        report = load(os.path.join(tmp_path, "basis.json"))
        assert report["expansion_residual"] <= 1e-8
        lo, hi = report["interval"]
        assert lo <= report["d_ob"] <= hi


class TestScanCommand:
    def test_csv(self, tmp_path):
        code = run(["scan", "--family", "self(8)", "--grid", "0.8,1.1",
                    "--f-random", "projection@0.25:1", "--seed", "13",
                    "--budget", "8", "--out", str(tmp_path)])
        assert code == 0
        with open(os.path.join(tmp_path, "scan.csv")) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "epsilon,r_found,r_verified,theorem_r,lower_bound,seed"
        assert len(lines) == 3

    def test_centers_each_operator_once(self, tmp_path, monkeypatch):
        calls = []
        center = incl.Inclusion.center
        monkeypatch.setattr(incl.Inclusion, "center",
                            lambda self, x, *out: calls.append(x) or center(self, x, *out))
        assert run(["scan", "--family", "self(8)", "--grid", "0.5,0.7,1.0",
                    "--f-random", "selfadjoint:2", "--seed", "2", "--budget", "4",
                    "--out", str(tmp_path)]) == 0
        assert len(calls) == 2

    def test_default_budget(self, tmp_path, monkeypatch):
        seen = {}
        monkeypatch.setattr(pv, "scan", lambda *args, **kwargs: seen.update(kwargs) or [])
        assert run(["scan", "--family", "self(8)", "--grid", "0.5",
                    "--f-random", "selfadjoint:1", "--seed", "1",
                    "--out", str(tmp_path)]) == 0
        assert seen["r_cap"] == 64

    def test_empty_grid_usage(self, tmp_path):
        assert run(["scan", "--family", "self(8)", "--grid", ",",
                    "--f-random", "selfadjoint:1", "--seed", "1",
                    "--out", str(tmp_path)]) == 2

    def test_unknown_command_usage(self):
        assert run(["unknown-command"]) == 2


PAVE = ["pave", "--family", "tensor(8,2)", "--epsilon", "0.9",
        "--f-random", "selfadjoint:1", "--seed", "1"]
SCAN = ["scan", "--family", "self(8)", "--grid", "0.5", "--f-random", "selfadjoint:1",
        "--seed", "1"]


@pytest.mark.parametrize("argv, message", [
    (PAVE + ["--mode", "pipeline", "--n-parts", "2", "--m-refine", "2", "--budget", "-1"],
     "argument --budget: must be >= 0, got -1"),
    (PAVE + ["--mode", "search", "--n-parts", "4", "--budget", "-2"],
     "argument --budget: must be >= 0, got -2"),
    (SCAN + ["--budget", "0"], "argument --budget: must be >= 1, got 0"),
    (SCAN + ["--budget", "-1"], "argument --budget: must be >= 1, got -1"),
    (SCAN + ["--budget", "many"], "argument --budget: expected an integer, got 'many'"),
], ids=["pipeline-negative", "search-negative", "scan-zero", "scan-negative", "scan-text"])
def test_bad_budget_usage_error(tmp_path, capsys, argv, message):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (PAVE + ["--mode", "search", "--n-parts", "0"], "argument --n-parts: must be >= 1, got 0"),
    (PAVE + ["--mode", "pipeline", "--n-parts", "2", "--m-refine", "0"],
     "argument --m-refine: must be >= 1, got 0"),
    (PAVE + ["--mode", "pipeline", "--n-parts", "2"],
     "pipeline mode takes --n-parts and --m-refine together"),
    (PAVE + ["--mode", "pipeline", "--m-refine", "2"],
     "pipeline mode takes --n-parts and --m-refine together"),
], ids=["search-zero-parts", "pipeline-zero-refine", "pipeline-parts-only",
        "pipeline-refine-only"])
def test_bad_size_flags_usage_error(tmp_path, capsys, argv, message):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "pave_certificate.json"))


@pytest.mark.parametrize("flag, mode", [
    ("--m-refine", "search"), ("--m-refine", "l2"), ("--m-refine", "unitary"),
    ("--m-refine", "verify"), ("--n-parts", "unitary"), ("--n-parts", "verify"),
])
def test_size_flag_the_mode_cannot_use(tmp_path, capsys, flag, mode):
    # with --n-parts given too where the mode reads it, so only `flag` is unused
    if mode == "verify":
        argv = ["pave", "--certificate", str(tmp_path / "missing.json")]
    else:
        argv = PAVE + (["--n-parts", "4"] if mode in ("search", "l2") else [])
    argv += ["--mode", mode, flag, "3"]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: pave --mode {mode} takes no {flag}\n"
    assert not os.path.exists(os.path.join(tmp_path, "pave_certificate.json"))


@pytest.mark.parametrize("argv", [
    ["spec", "--spec", "{dir}"],
    ["pave", "--mode", "verify", "--certificate", "{dir}"],
], ids=["spec", "certificate"])
def test_directory_as_input_file_usage_error(tmp_path, capsys, argv):
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, name, expected", [
    (["pave", "--family", "tensor(8,2)", "--epsilon", "0.9", "--mode", "search",
      "--n-parts", "4", "--budget", "0"], "pave_certificate.json",
     {"step_scale": pv.STEP_SCALE, "cooling": pv.COOLING}),
    (["pave", "--family", "self(16)", "--epsilon", "0.3", "--mode", "l2", "--n-parts", "4"],
     "pave_certificate.json", {"delta_l2": pv.L2_SLACK}),
    (["dixmier", "--family", "self(16)", "--epsilon", "0.25"], "dixmier_certificate.json",
     {"stall_budget": pv.STALL_BUDGET, "max_folds": pv.MAX_FOLDS}),
], ids=["search", "l2", "dixmier"])
def test_certificate_config_records_constants(tmp_path, argv, name, expected):
    run(argv + ["--f-random", "selfadjoint:1", "--seed", "1", "--out", str(tmp_path)])
    config = load(os.path.join(tmp_path, name))["config"]
    assert {key: config[key] for key in expected} == expected


class TestSpecCommand:
    def write_spec(self, tmp_path, obj):
        path = os.path.join(tmp_path, "spec.json")
        with open(path, "w") as handle:
            json.dump(obj, handle)
        return path

    def test_valid_spec_echoes_normalized_weights(self, tmp_path, capsys):
        path = self.write_spec(tmp_path, {
            "n_blocks": [1, 2], "n_weights": [1, 1], "m_blocks": [3, 4],
            "m_weights": [2, 1], "lambda": [[1, 0], [1, 2]]})
        assert run(["spec", "--spec", path]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["m_weights"] == pytest.approx([0.2, 0.1], abs=1e-15)
        assert echoed["n_weights"] == pytest.approx([0.2, 0.4], abs=1e-15)
        assert echoed["lambda"] == [[1, 0], [1, 2]]

    def test_rounded_weights_pave_and_reverify(self, tmp_path, capsys):
        # weights written to 12 digits (1/21 and 3/21): `spec` and `pave --spec`
        # read them as the same normalized spec, stored in the certificate
        path = self.write_spec(tmp_path, {
            "n_blocks": [3, 4], "n_weights": [0.142857142857, 0.142857142857],
            "m_blocks": [11, 10], "m_weights": [0.047619047619, 0.047619047619],
            "lambda": [[1, 2], [2, 1]]})
        assert run(["spec", "--spec", path]) == 0
        echoed = json.loads(capsys.readouterr().out)
        out1, out2 = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
        assert run(["pave", "--spec", path, "--epsilon", "0.9", "--mode", "search",
                    "--n-parts", "7", "--f-random", "selfadjoint:2", "--seed", "6",
                    "--index", "8", "--out", out1]) == 0
        cert_path = os.path.join(out1, "pave_certificate.json")
        cert = load(cert_path)
        assert cert["problem"]["inclusion"]["spec"] == echoed
        assert run(["pave", "--mode", "verify", "--certificate", cert_path,
                    "--out", out2]) == 0
        verify = load(os.path.join(out2, "verify.json"))
        assert verify["per_x_ratio"] == cert["per_x_ratio"] and verify["verified"]

    @pytest.mark.parametrize("lam,m_blocks,message", [
        # two copies of M_2 fill 4 of the 5 dimensions of M_5
        ([[2]], [5], "M-block 0: multiplicities fill 4 of 5 dimensions"),
        ([[1]], [2, 2], "inclusion matrix shape does not match block counts"),
    ])
    def test_bad_spec_usage_error(self, tmp_path, capsys, lam, m_blocks, message):
        path = self.write_spec(tmp_path, {
            "n_blocks": [2], "n_weights": [0.5], "m_blocks": m_blocks,
            "m_weights": [1.0] * len(m_blocks), "lambda": lam})
        assert run(["spec", "--spec", path]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("obj,argv,key", [
    ({"n_blocks": [2], "n_weights": [0.5], "m_blocks": [2], "m_weights": [0.5]},
     ["spec", "--spec", "{path}"], "lambda"),
    ({"n_blocks": [2], "m_blocks": [2], "m_weights": [0.5], "lambda": [[1]]},
     ["index", "--spec", "{path}", "--trials", "5", "--seed", "1"], "n_weights"),
    ({"problem": {}},
     ["pave", "--mode", "verify", "--certificate", "{path}", "--seed", "0"], "inclusion"),
    ({"elements": [{"format": "element/1"}]},
     ["pave", "--family", "self(2)", "--epsilon", "0.5", "--f-file", "{path}",
      "--seed", "1"], "shape"),
])
def test_malformed_input_file_usage_error(tmp_path, capsys, obj, argv, key):
    path = os.path.join(tmp_path, "input.json")
    with open(path, "w") as handle:
        json.dump(obj, handle)
    argv = [a.replace("{path}", path) for a in argv]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path} lacks key '{key}'\n"


class TestParserReuse:
    def test_calls_in_one_process(self, tmp_path, monkeypatch):
        from pavelab import cli

        cert_dir = os.path.join(tmp_path, "cert")
        assert run(["pave", "--family", "tensor(8,2)", "--epsilon", "0.9",
                    "--f-random", "selfadjoint:1", "--seed", "3",
                    "--n-parts", "2", "--m-refine", "2", "--out", cert_dir]) == 0
        parser = cli._parser()
        assert cli._parser() is parser
        parse, seen = parser.parse_args, []
        monkeypatch.setattr(parser, "parse_args",
                            lambda argv=None: seen.append(parse(argv)) or seen[-1])
        codes = [
            run(["kesten", "--n", "2", "--dim", "16", "--trials", "2",
                 "--seed", "4", "--out", os.path.join(tmp_path, "k")]),
            run(["pave", "--mode", "verify", "--certificate",
                 os.path.join(cert_dir, "pave_certificate.json"),
                 "--seed", "0", "--out", os.path.join(tmp_path, "v")]),
            run(["kesten", "--n", "2"]),
        ]
        assert codes == [0, 0, 2]
        assert len(seen) == 2 and seen[0] is not seen[1]
        assert seen[0].command == "kesten" and seen[0].dim == 16
        assert seen[1].command == "pave" and seen[1].mode == "verify"
        assert not hasattr(seen[1], "dim") and seen[1].epsilon is None
        assert os.path.exists(os.path.join(tmp_path, "k", "kesten.csv"))
        assert os.path.exists(os.path.join(tmp_path, "v", "verify.json"))
