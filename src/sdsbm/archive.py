"""Fitted-model archives: one ``.npz`` file, exact round-trip.

Tensors are stored as raw float64 arrays and metadata as a JSON string, so
``load(save(m))`` reproduces every number bit for bit (Python floats survive
JSON round-trips exactly).
"""
from __future__ import annotations

import functools
import json
import os
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContractError
from .model import BlockTensor, MembershipTensor, _arrays
from .prior import PriorConfig

FORMAT_VERSION = 1
#: only this many trailing objective values are kept
TRACE_TAIL = 50


def read_npz(path, names, what):
    """The arrays ``names`` of the npz file at ``path``, as a dict.

    A file that numpy cannot read as npz, or one that lacks any of the arrays,
    raises a ContractError naming ``path`` and ``what`` it should have been.
    File-system errors (no such file, a directory) propagate as OSError.
    """
    try:
        payload = np.load(path, allow_pickle=False)
        if not isinstance(payload, np.lib.npyio.NpzFile):
            raise ValueError("a bare .npy array")
        with payload:
            arrays = {name: payload[name] for name in names if name in payload.files}
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise ContractError(f"{path} is not a {what}: numpy cannot read it as npz") from None
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ContractError(f"{path} is not a {what}: it has no {missing[0]!r} array")
    return arrays


@functools.cache
def _build():
    """The numpy build and BLAS thread settings that a fit's last bits depend on.

    ``blas`` is the name and version numpy reports, or None on numpy releases
    whose ``show_config`` takes no ``mode``; a thread variable the
    environment does not set is None.  Read once per process, as BLAS does.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"numpy": np.__version__, "blas": blas,
            **{name: os.environ.get(name) for name in threads}}


@dataclass
class ModelArchive:
    """Everything needed to score new events with a fitted model."""

    theta: MembershipTensor
    p: BlockTensor
    prior: PriorConfig
    p_mode: str
    seed: int
    node_keys: list = field(default_factory=list)
    label_keys: list = field(default_factory=list)
    t_min: float = 0.0
    slice_width: float = 1.0
    trace_tail: np.ndarray = field(default_factory=lambda: np.zeros(0))
    converged: bool = True

    @classmethod
    def from_fit(cls, report, node_keys=None, label_keys=None, t_min=0.0,
                 slice_width=1.0):
        """Package a fit report; default vocabularies are stringified dense ids."""
        theta = report.theta
        if node_keys is None:
            node_keys = [str(i) for i in range(theta.n_items)]
        if label_keys is None:
            label_keys = [str(o) for o in range(report.p.n_labels)]
        return cls(
            theta=theta,
            p=report.p,
            prior=report.config.prior,
            p_mode=report.config.p_mode,
            seed=report.config.seed,
            node_keys=list(node_keys),
            label_keys=list(label_keys),
            t_min=float(t_min),
            slice_width=float(slice_width),
            trace_tail=np.asarray(report.trace[-TRACE_TAIL:], dtype=float),
            converged=report.converged,
        )

    def save(self, path):
        meta = {
            "format_version": FORMAT_VERSION,
            "p_mode": self.p_mode,
            "seed": int(self.seed),
            "prior": asdict(self.prior),
            "node_keys": [str(k) for k in self.node_keys],
            "label_keys": [str(k) for k in self.label_keys],
            "t_min": self.t_min,
            "slice_width": self.slice_width,
            "converged": bool(self.converged),
            "build": _build(),
        }
        with open(path, "wb") as handle:  # a path given to np.savez gains ".npz"
            np.savez(handle, theta=self.theta.values, p=self.p.values,
                     trace_tail=np.asarray(self.trace_tail, dtype=float),
                     meta=np.array(json.dumps(meta)))

    @staticmethod
    def load(path):
        """The archive saved at ``path``; content that does not make one is a ContractError."""
        arrays = read_npz(path, ("meta", "theta", "p", "trace_tail"), "model archive")
        try:
            meta = json.loads(str(arrays["meta"]))
            if meta.get("format_version") != FORMAT_VERSION:
                raise ContractError(
                    f"unsupported archive format {meta.get('format_version')!r}"
                )
            archive = ModelArchive(
                theta=MembershipTensor(arrays["theta"]),
                p=BlockTensor(arrays["p"]),
                prior=PriorConfig(**meta["prior"]),
                p_mode=meta["p_mode"],
                seed=meta["seed"],
                node_keys=meta["node_keys"],
                label_keys=meta["label_keys"],
                t_min=meta["t_min"],
                slice_width=meta["slice_width"],
                trace_tail=arrays["trace_tail"],
                converged=meta["converged"],
            )
            _arrays(archive.theta, archive.p)
            extents = (archive.theta.n_items, archive.p.n_labels)
            keys = (len(archive.node_keys), len(archive.label_keys))
            if keys != extents:
                raise ContractError(
                    f"{keys[0]} node and {keys[1]} label keys for "
                    f"{extents[0]} nodes and {extents[1]} labels"
                )
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise ContractError(
                f"{path} is not a model archive: {type(err).__name__}: {err}"
            ) from None
        return archive

    def node_id(self, key):
        try:
            return self.node_keys.index(str(key))
        except ValueError:
            raise ContractError(f"unknown node key {key!r}") from None
