"""JSON schemas for datasets, measures, fits and experiment configs.

All numbers are written as decimal doubles (Python's shortest round-trip
repr), so rewriting the same objects produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional

import numpy as np

from .data import CensoredObservation, CensoringDesign, Dataset, Observation
from .errors import InvalidArgumentError
from .measures import MixingMeasure, SieveBasis, SieveDensity
from .model import (
    GAUSSIAN,
    CensorMask,
    IdentityLocation,
    LinearInS,
    ModelSpec,
    PkExp,
    TimeDesign,
)
from .solver import Certificate, FitOptions, FitResult


def _listify(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _require(obj: dict, key: str):
    if key not in obj:
        raise InvalidArgumentError(f"missing required field {key!r}")
    return obj[key]


# --------------------------- model function ------------------------------


def model_function_to_dict(f) -> dict:
    if isinstance(f, PkExp):
        return {"kind": "pk_exp"}
    if isinstance(f, IdentityLocation):
        return {"kind": "identity_location"}
    if isinstance(f, LinearInS):
        return {"kind": "linear_in_s", "coefficients": [list(row) for row in f.coefficients]}
    raise InvalidArgumentError(f"unknown model function {type(f).__name__}")


def model_function_from_dict(obj: dict):
    kind = _require(obj, "kind")
    if kind == "pk_exp":
        return PkExp()
    if kind == "identity_location":
        return IdentityLocation()
    if kind == "linear_in_s":
        return LinearInS(tuple(tuple(row) for row in _require(obj, "coefficients")))
    raise InvalidArgumentError(f"unknown model function kind {kind!r}")


# ------------------------------ model spec --------------------------------


def spec_to_dict(spec: ModelSpec) -> dict:
    out = {
        "p": spec.p,
        "n": spec.n,
        "sigma": spec.sigma,
        "f": model_function_to_dict(spec.f),
        "time_design": [list(iv) for iv in spec.time_design.intervals],
    }
    if spec.sigma_prime is not None:
        out["g"] = {"sigma_prime": spec.sigma_prime}
    if spec.noise != GAUSSIAN:
        out["noise"] = spec.noise
    return out


def spec_from_dict(obj: dict) -> ModelSpec:
    g = obj.get("g")
    return ModelSpec(
        p=int(_require(obj, "p")),
        n=int(_require(obj, "n")),
        sigma=float(_require(obj, "sigma")),
        f=model_function_from_dict(_require(obj, "f")),
        time_design=TimeDesign(tuple(tuple(iv) for iv in _require(obj, "time_design"))),
        sigma_prime=None if g is None else float(_require(g, "sigma_prime")),
        noise=obj.get("noise", GAUSSIAN),
    )


# ------------------------------- measures ---------------------------------


def measure_to_dict(mu: MixingMeasure) -> dict:
    return {"atoms": [list(a) for a in np.asarray(mu.atoms)], "weights": _listify(mu.weights)}


def measure_from_dict(obj: dict) -> MixingMeasure:
    return MixingMeasure(np.asarray(_require(obj, "atoms"), dtype=float), _require(obj, "weights"))


# ------------------------------- censoring --------------------------------


def censoring_to_dict(design: CensoringDesign) -> dict:
    return {
        "n": design.n,
        "masks": [list(mask.indices) for mask, _ in design.mask_probabilities],
        "probabilities": [p for _, p in design.mask_probabilities],
    }


def censoring_from_dict(obj: dict) -> CensoringDesign:
    n = int(_require(obj, "n"))
    masks = [CensorMask(n, tuple(int(i) for i in idx)) for idx in _require(obj, "masks")]
    probs = _require(obj, "probabilities")
    if len(masks) != len(probs):
        raise InvalidArgumentError("masks and probabilities must have equal length")
    return CensoringDesign(tuple(zip(masks, [float(p) for p in probs])))


# -------------------------------- dataset ---------------------------------


def dataset_to_dict(ds: Dataset) -> dict:
    out = spec_to_dict(ds.spec)
    out["seed"] = ds.seed
    rows = []
    for o in ds.observations:
        if isinstance(o, CensoredObservation):
            rows.append({"y": _listify(o.z), "t": _listify(o.t), "mask": list(o.mask.indices)})
        else:
            rows.append({"y": _listify(o.y), "t": _listify(o.t)})
    out["observations"] = rows
    if ds.truth is not None:
        out["truth"] = measure_to_dict(ds.truth)
    if ds.censoring is not None:
        out["censoring"] = censoring_to_dict(ds.censoring)
    return out


def dataset_from_dict(obj: dict) -> Dataset:
    spec = spec_from_dict(obj)
    rows = _require(obj, "observations")
    if not isinstance(rows, list) or not rows:
        raise InvalidArgumentError("observations must be a nonempty array")
    censored = any("mask" in r for r in rows)
    observations = []
    for r in rows:
        t = np.asarray(_require(r, "t"), dtype=float)
        y = np.asarray(_require(r, "y"), dtype=float)
        if censored:
            if "mask" not in r:
                raise InvalidArgumentError("mixed censored and uncensored observations")
            mask = CensorMask(spec.n, tuple(int(i) for i in r["mask"]))
            observations.append(CensoredObservation(y, t, mask))
        else:
            observations.append(Observation(y, t))
    truth = measure_from_dict(obj["truth"]) if "truth" in obj else None
    censoring = censoring_from_dict(obj["censoring"]) if "censoring" in obj else None
    return Dataset(
        spec=spec,
        observations=tuple(observations),
        seed=int(obj.get("seed", 0)),
        truth=truth,
        censoring=censoring,
    )


# ------------------------------ fit results --------------------------------


def fit_options_from_dict(obj: Optional[dict]) -> FitOptions:
    """Options from a (possibly partial) dict; absent fields keep their defaults."""
    obj = obj or {}
    defaults = FitOptions()
    given = {
        f.name: type(getattr(defaults, f.name))(obj[f.name])
        for f in dataclasses.fields(FitOptions)
        if f.name in obj
    }
    return dataclasses.replace(defaults, **given)


def fit_to_dict(fit: FitResult, box=None, include_trace: bool = False) -> dict:
    if isinstance(fit.measure, SieveDensity):
        measure = {
            "sieve": {
                "box": [list(iv) for iv in np.asarray(fit.measure.basis.box)],
                "node_counts": list(fit.measure.basis.node_counts),
                "coefficients": _listify(fit.measure.coefficients),
            }
        }
    else:
        measure = {"measure": measure_to_dict(fit.measure)}
    out = dict(measure)
    out["final_loglik"] = fit.final_loglik
    out["iterations"] = fit.iterations
    out["status"] = fit.status
    out["certificate"] = {
        "sup": fit.certificate.sup_dir_derivative,
        "argmax": _listify(fit.certificate.argmax_point),
        "grid_resolution": fit.certificate.grid_resolution,
    }
    if box is not None:
        out["box"] = [list(iv) for iv in np.asarray(box, dtype=float)]
    if include_trace:
        out["loglik_trace"] = _listify(fit.loglik_trace)
    return out


def fit_from_dict(obj: dict) -> FitResult:
    cert_obj = _require(obj, "certificate")
    cert = Certificate(
        sup_dir_derivative=float(_require(cert_obj, "sup")),
        argmax_point=np.asarray(_require(cert_obj, "argmax"), dtype=float),
        grid_resolution=int(_require(cert_obj, "grid_resolution")),
    )
    if "sieve" in obj:
        s = obj["sieve"]
        basis = SieveBasis(np.asarray(_require(s, "box"), dtype=float), _require(s, "node_counts"))
        measure = SieveDensity(basis, np.asarray(_require(s, "coefficients"), dtype=float))
    else:
        measure = measure_from_dict(_require(obj, "measure"))
    trace = np.asarray(obj.get("loglik_trace", [obj["final_loglik"]]), dtype=float)
    return FitResult(
        measure=measure,
        loglik_trace=trace,
        final_loglik=float(_require(obj, "final_loglik")),
        iterations=int(_require(obj, "iterations")),
        certificate=cert,
        status=str(_require(obj, "status")),
    )


# --------------------------------- io -------------------------------------


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def write_json(path, obj: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def read_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not valid JSON ({exc})") from exc
