"""Round-trip and determinism tests for the JSON/CSV layer."""

import json
import os

import numpy as np
import pytest

from pavelab import algebra as alg
from pavelab import families
from pavelab import paving as pv
from pavelab import serialize as ser
from pavelab.algebra import AlgebraShape

from conftest import elements_close, pinch, strip_meta


def test_element_roundtrip():
    sh = AlgebraShape((2, 3), (0.125, 0.25))
    x = alg.random_element(sh, alg.SELFADJOINT, 1)
    obj = ser.element_to_obj(x)
    assert obj["format"] == "element/1"
    back = ser.element_from_obj(obj)
    assert elements_close(back, x, 0.0)


def test_element_format_guard():
    with pytest.raises(ValueError):
        ser.element_from_obj({"format": "element/99"})


def test_pairs_keep_their_text_and_bits():
    # the pairs written read as the per-entry [float(re), float(im)] lists,
    # and the reader restores every bit, signed zeros and a frame without
    # columns included
    m = np.random.default_rng(3).standard_normal((3, 2, 2)).view(np.complex128)[..., 0]
    m[0, 0], m[1, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
    pairs = ser._complex_matrix_to_pairs(m)
    assert json.dumps(pairs) == json.dumps([[[float(v.real), float(v.imag)] for v in row]
                                            for row in m])
    assert ser._pairs_to_complex_matrix(pairs, "m", 3, 2).tobytes() == m.tobytes()
    empty = ser._complex_matrix_to_pairs(np.zeros((3, 0), dtype=np.complex128))
    assert ser._pairs_to_complex_matrix(empty, "m", 3).shape == (3, 0)


@pytest.mark.parametrize("edit", [
    lambda b: b[:2],                                  # 2 of 3 rows
    lambda b: [row[:2] for row in b],                 # 2 of 3 columns
    lambda b: [[[re] for re, _ in row] for row in b],  # no imaginary parts
    lambda b: [[[re, None] for re, _ in row] for row in b],
    lambda b: b[:2] + [b[2][:1]],                     # ragged
], ids=["rows", "columns", "pairs", "null", "ragged"])
def test_element_block_shape_checked(edit):
    obj = ser.element_to_obj(alg.random_element(AlgebraShape((2, 3), (0.125, 0.25)),
                                                alg.SELFADJOINT, 4))
    obj["blocks"][1] = edit(obj["blocks"][1])
    with pytest.raises(ValueError, match=r"^unitary 5 block 1 is not a 3 x 3 matrix"):
        ser.element_from_obj(obj, "unitary 5")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_entry_refused(value):
    # json.load reads the NaN and Infinity literals that json.dump writes
    obj = ser.element_to_obj(alg.random_element(AlgebraShape((2, 3), (0.125, 0.25)),
                                                alg.SELFADJOINT, 4))
    obj["blocks"][1][2][0][1] = value
    obj = json.loads(json.dumps(obj))
    with pytest.raises(ValueError, match=r"^unitary 5 block 1 has a non-finite entry$"):
        ser.element_from_obj(obj, "unitary 5")


def test_element_block_count_checked():
    obj = ser.element_to_obj(alg.identity(AlgebraShape((2, 3), (0.125, 0.25))))
    for blocks in (obj["blocks"][:1], obj["blocks"] * 2):
        with pytest.raises(ValueError, match=r"^element lists \d blocks for 2$"):
            ser.element_from_obj({**obj, "blocks": blocks})


def test_inclusion_spec_roundtrip():
    spec = families.tensor_product(2, 3).spec
    obj = ser.inclusion_spec_to_obj(spec)
    assert set(obj) == {"n_blocks", "n_weights", "m_blocks", "m_weights", "lambda"}
    back = ser.inclusion_spec_from_obj(obj)
    assert back == spec


def dense(part):
    return [alg.frame_projection(part.shape, f) for f in part.frames()]


def test_partition_roundtrip_inline():
    sh = AlgebraShape.matrix(6)
    part = alg.coordinate_partition(sh, 3, unitary=alg.random_haar_unitary(sh, 2))
    obj = ser.partition_to_obj(part)
    assert obj["kind"] == "inline"
    back = ser.partition_from_obj(obj)
    assert back.residual() <= alg.TOL_PROJ
    for p, q in zip(dense(part), dense(back)):
        assert elements_close(p, q, 0.0)


def test_partition_frames_roundtrip_exact(tmp_path):
    sh = AlgebraShape.matrix(6)
    part = alg.coordinate_partition(sh, 3, unitary=alg.random_haar_unitary(sh, 9))
    obj = ser.partition_to_obj(part)
    assert "frames" in obj and "projections" not in obj
    back = ser.partition_from_obj(obj)
    for p, q in zip(dense(part), dense(back)):
        assert all((a == b).all() for a, b in zip(p.blocks, q.blocks))
    for f, g in zip(part.frames(), back.frames()):
        assert all((a == b).all() for a, b in zip(f, g))
    assert all(b.flags.c_contiguous for b in back.stacks)
    x = alg.random_element(sh, alg.SELFADJOINT, 10)
    assert all((a == b).all() for a, b in
               zip(pinch(part, x).blocks, pinch(back, x).blocks))


def test_inline_payload_dense_projections_ignored():
    # payloads of earlier writers carried a dense copy next to the frames
    inc = families.self_inclusion(6)
    problem = pv.PavingProblem(
        inclusion=inc, operators=[alg.random_element(inc.m_shape, alg.SELFADJOINT, 11)],
        epsilon=1.0, index=1.0)
    part = alg.coordinate_partition(inc.n_shape, 3,
                                    unitary=alg.random_haar_unitary(inc.n_shape, 12))
    obj = ser.partition_to_obj(part)
    obj["projections"] = [[ser._complex_matrix_to_pairs(b) for b in p.blocks]
                          for p in dense(part)]
    cert = pv.verify(problem, ser.partition_from_obj(obj))
    assert cert.verified
    assert cert.per_x_ratio == pv.verify(problem, part).per_x_ratio
    del obj["frames"]
    with pytest.raises(ValueError, match="frames"):
        ser.partition_from_obj(obj)


def test_partition_sidecar_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(ser, "PARTITION_SIDE_CAR_LIMIT", 10)
    sh = AlgebraShape.matrix(6)
    part = alg.coordinate_partition(sh, 2, unitary=alg.random_haar_unitary(sh, 3))
    stem = os.path.join(tmp_path, "cert")
    obj = ser.partition_to_obj(part, sidecar_stem=stem)
    assert obj["kind"] == "frame-sidecar"
    back = ser.partition_from_obj(obj, base_dir=str(tmp_path))
    for p, q in zip(dense(part), dense(back)):
        assert all((a == b).all() for a, b in zip(p.blocks, q.blocks))
    assert back.ranks == part.ranks
    # digest check trips on corruption
    target = os.path.join(tmp_path, obj["files"][0]["path"])
    with open(target, "r+b") as handle:
        handle.seek(200)
        handle.write(b"\xff")
    with pytest.raises(ValueError, match="digest"):
        ser.partition_from_obj(obj, base_dir=str(tmp_path))


@pytest.mark.parametrize("make", [
    lambda problem: pv.pave_search(problem, pv.SearchConfig(r=2, steps=20, seed=1)),
    lambda problem: pv.dixmier_average_run(problem, seed=1),
])
def test_certificate_roundtrip(make):
    inc = families.self_inclusion(4)
    x = alg.random_element(inc.m_shape, alg.SELFADJOINT, 5)
    problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.9, index=1.0)
    cert = make(problem)
    obj = json.loads(ser.canonical_dumps(ser.certificate_to_obj(cert, {"recipe": 1})))
    back = ser.certificate_from_obj(obj)
    assert json.loads(ser.canonical_dumps(back.summary())) == \
        json.loads(ser.canonical_dumps(cert.summary()))
    assert pv.verify(problem, back).per_x_ratio == cert.per_x_ratio
    del obj["partition" if cert.partition is not None else "unitaries"]
    with pytest.raises(ValueError, match="no candidate"):
        ser.certificate_from_obj(obj)


def test_canonical_dumps_handles_numpy_and_sorts():
    obj = {"b": np.float64(1.5), "a": np.int64(2),
           "c": np.array([1.0, 2.0]), "d": np.bool_(True)}
    text = ser.canonical_dumps(obj)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert json.loads(text) == {"a": 2, "b": 1.5, "c": [1.0, 2.0], "d": True}


def test_canonical_dumps_refuses_non_finite():
    for bad in (float("nan"), np.float64("inf"), np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            ser.canonical_dumps({"x": bad})


def test_atomic_write_and_csv(tmp_path):
    path = os.path.join(tmp_path, "sub", "table.csv")
    ser.write_csv(path, ["a", "b"], [[1, None], [2.5, "x"]])
    with open(path) as handle:
        lines = handle.read().splitlines()
    assert lines == ["a,b", "1,", "2.5,x"]


def test_strip_meta():
    # the helper the CLI tests compare payloads with
    obj = {"x": 1, "meta": {"timestamp": "now"}}
    assert strip_meta(obj) == {"x": 1}
    assert "meta" in obj
