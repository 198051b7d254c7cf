"""Versioned JSON forms and deterministic file output.

Elements serialize binary-free: block dims, trace weights, and blocks as
nested [re, im] pairs.  Certificates embed the problem recipe (family or
spec, ε, index, and how F was produced) so they can be re-verified
standalone; `certificate_from_obj` is the one reader of what
`certificate_to_obj` writes.  A partition of unity is stored only by its
frames: inline as per-part, per-block nested [re, im] pairs under
``frames``, or, above ``PARTITION_SIDE_CAR_LIMIT`` complex entries, as one
stacked .npy sidecar per N-block referenced by SHA-256 from the JSON.
Readers of ``paving-certificate/1`` ignore the dense ``projections`` copy
that earlier writers added to inline payloads, and reject an inline payload
without ``frames``.

All writes are atomic (temp file + rename) and canonical: sorted keys,
two-space indent, trailing newline.  Timestamps live only under "meta", so
payloads are byte-identical across reruns with the same seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from datetime import datetime, timezone

import numpy as np

from .algebra import AlgebraShape, Element, PartitionOfUnity
from .inclusion import InclusionSpec
from .paving import PavingCertificate

ELEMENT_FORMAT = "element/1"
CERT_FORMAT = "paving-certificate/1"
PARTITION_SIDE_CAR_LIMIT = 2 ** 16  # complex frame entries kept inline in JSON


def _complex_matrix_to_pairs(mat: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _pairs_to_complex_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows],
                    dtype=np.complex128)


def shape_to_obj(shape: AlgebraShape) -> dict:
    return {"block_dims": list(shape.block_dims),
            "trace_weights": list(shape.trace_weights)}


def shape_from_obj(obj) -> AlgebraShape:
    return AlgebraShape(tuple(obj["block_dims"]), tuple(obj["trace_weights"]))


def element_to_obj(x: Element) -> dict:
    return {"format": ELEMENT_FORMAT,
            "shape": shape_to_obj(x.shape),
            "blocks": [_complex_matrix_to_pairs(b) for b in x.blocks]}


def element_from_obj(obj) -> Element:
    if obj.get("format") != ELEMENT_FORMAT:
        raise ValueError(f"unsupported element format {obj.get('format')!r}")
    shape = shape_from_obj(obj["shape"])
    return Element(shape, [_pairs_to_complex_matrix(b) for b in obj["blocks"]])


def inclusion_spec_to_obj(spec: InclusionSpec) -> dict:
    return {"n_blocks": list(spec.n_shape.block_dims),
            "n_weights": list(spec.n_shape.trace_weights),
            "m_blocks": list(spec.m_shape.block_dims),
            "m_weights": list(spec.m_shape.trace_weights),
            "lambda": [list(row) for row in spec.inclusion_matrix]}


def inclusion_spec_from_obj(obj) -> InclusionSpec:
    return InclusionSpec(
        n_shape=AlgebraShape(tuple(obj["n_blocks"]), tuple(obj["n_weights"])),
        m_shape=AlgebraShape(tuple(obj["m_blocks"]), tuple(obj["m_weights"])),
        inclusion_matrix=tuple(tuple(row) for row in obj["lambda"]))


def _json_default(o):
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, np.bool_):
        return bool(o)
    raise TypeError(f"not JSON-serializable: {type(o)}")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n"


def atomic_write_text(path: str, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str, data: bytes):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def timestamp_meta() -> dict:
    return {"timestamp": datetime.now(timezone.utc).isoformat()}


def partition_to_obj(partition: PartitionOfUnity, sidecar_stem: str = None) -> dict:
    """Serialize a partition by its frames.

    Inline payloads list, per part and per block, the frame F_i (p_i = F_i F_i*)
    as nested [re, im] pairs.  When the complex entries written, sum_k d_k^2,
    exceed the inline limit, each block's stacked frame goes to one .npy
    sidecar referenced by hash, with the per-part column counts in ``ranks``.
    Either way the reader restores the stacked frames bit for bit.
    """
    shape = partition.shape
    entries = sum(d * d for d in shape.block_dims)
    if entries > PARTITION_SIDE_CAR_LIMIT and sidecar_stem is not None:
        files = []
        for k, stack in enumerate(partition.stacks):
            path = f"{sidecar_stem}.block{k}.npy"
            buf = io.BytesIO()
            np.save(buf, stack)
            data = buf.getvalue()
            atomic_write_bytes(path, data)
            files.append({"path": os.path.basename(path),
                          "sha256": hashlib.sha256(data).hexdigest()})
        return {"kind": "frame-sidecar", "shape": shape_to_obj(shape),
                "size": partition.size, "ranks": [list(rk) for rk in partition.ranks],
                "files": files}
    return {"kind": "inline", "shape": shape_to_obj(shape),
            "frames": [[_complex_matrix_to_pairs(f) for f in frames]
                       for frames in partition.frames()]}


def partition_from_obj(obj, base_dir: str = ".") -> PartitionOfUnity:
    """Read a partition payload; a stored dense ``projections`` key is ignored."""
    shape = shape_from_obj(obj["shape"])
    if obj["kind"] == "inline":
        if "frames" not in obj:
            raise ValueError("inline partition payload carries no frames")
        for i, frames in enumerate(obj["frames"]):
            if len(frames) != shape.num_blocks:
                raise ValueError(f"inline partition part {i} lists {len(frames)} frames "
                                 f"for {shape.num_blocks} N-blocks")
        return PartitionOfUnity.from_frames(
            shape, [[_pairs_to_complex_matrix(f).reshape(d, -1)
                     for f, d in zip(frames, shape.block_dims)]
                    for frames in obj["frames"]])
    if obj["kind"] != "frame-sidecar":
        raise ValueError(f"unknown partition payload kind {obj['kind']!r}")
    stacks = []
    for entry in obj["files"]:
        path = os.path.join(base_dir, entry["path"])
        with open(path, "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest()
        if digest != entry["sha256"]:
            raise ValueError(f"sidecar {path} digest mismatch")
        stacks.append(np.load(io.BytesIO(data)))
    return PartitionOfUnity(shape, stacks, obj["ranks"])


def certificate_to_obj(cert: PavingCertificate, problem_recipe: dict,
                       sidecar_stem: str = None) -> dict:
    obj = {
        "format": CERT_FORMAT,
        "problem": problem_recipe,
        **cert.summary(),
        "meta": timestamp_meta(),
    }
    if cert.partition is not None:
        obj["partition"] = partition_to_obj(cert.partition, sidecar_stem)
    if cert.unitaries is not None:
        obj["unitaries"] = [element_to_obj(u) for u in cert.unitaries]
    return obj


def certificate_from_obj(obj, base_dir: str = ".") -> PavingCertificate:
    """Read back what `certificate_to_obj` wrote, its candidate included; a
    ``format`` other than CERT_FORMAT, or none, is refused.

    The recipe under ``problem`` is left to the caller; `paving.verify` of the
    rebuilt problem and this certificate recomputes every stored ratio.
    """
    if obj.get("format") != CERT_FORMAT:
        raise ValueError(f"unsupported certificate format {obj.get('format')!r}")
    partition = unitaries = None
    if "partition" in obj:
        partition = partition_from_obj(obj["partition"], base_dir)
    elif "unitaries" in obj:
        unitaries = [element_from_obj(u) for u in obj["unitaries"]]
    else:
        raise ValueError("certificate carries no candidate to verify")
    summary = {key: obj[key] for key in (
        "mode", "per_x_ratio", "r", "epsilon", "threshold", "verified", "seed",
        "config", "diagnostics", "soundness_alarm")}
    return PavingCertificate(**summary, partition=partition, unitaries=unitaries)


def write_csv(path: str, header, rows):
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    atomic_write_text(path, buf.getvalue())
