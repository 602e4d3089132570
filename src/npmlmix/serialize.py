"""JSON schemas for datasets, measures, fits and configs; no other module reads or writes one.

Every number is read by ``_number`` and written as a decimal double (Python's
shortest round-trip repr), so rewriting the same objects produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from typing import Optional

import numpy as np

from .data import CensoredObservation, CensoringDesign, Dataset, Observation
from .errors import InvalidArgumentError
from .experiments import ExperimentConfig
from .likelihood import DEFAULT_QUAD_POINTS
from .measures import MixingMeasure, SieveBasis, SieveDensity, _check_box
from .model import GAUSSIAN, CensorMask, IdentityLocation, LinearInS, ModelSpec, PkExp, TimeDesign
from .solver import STATUS_CONVERGED, STATUS_ITER_LIMIT, Certificate, FitOptions, FitResult


def _listify(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _require(obj: dict, key: str):
    if key not in obj:
        raise InvalidArgumentError(f"missing required field {key!r}")
    return obj[key]


def _number(obj: dict, key: str, kind: type = int, default=None, least=None):
    """Field ``key``, a number or nested arrays of numbers, as ``kind`` values; required without a default.

    The one number rule: a boolean, text or a non-finite number is an error naming the field, and
    so is a non-integral value of an int field (2.0 reads as 2) or a value below ``least``.
    """
    value = _require(obj, key) if default is None else obj.get(key, default)
    one, many = ("an integer", "integers") if kind is int else ("a finite number", "finite numbers")
    rule = f"{key} must hold only {many}" if isinstance(value, list) else f"{key} must be {one}"

    def read(v):
        if isinstance(v, list):
            return [read(u) for u in v]
        integral = isinstance(v, numbers.Integral)
        real = isinstance(v, numbers.Real) and not isinstance(v, bool)
        if not real or not (integral or math.isfinite(v)) or (kind is int and not (integral or v.is_integer())):
            raise InvalidArgumentError(f"{rule}, got {v!r}")
        if least is not None and v < least:
            raise InvalidArgumentError(f"{key} must be at least {least}, got {v!r}")
        return kind(v)

    return read(value)


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
        return LinearInS(_number(obj, "coefficients", float))
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
        p=_number(obj, "p"),
        n=_number(obj, "n"),
        sigma=_number(obj, "sigma", float),
        f=model_function_from_dict(_require(obj, "f")),
        time_design=TimeDesign(_number(obj, "time_design", float)),
        sigma_prime=None if g is None else _number(g, "sigma_prime", float),
        noise=obj.get("noise", GAUSSIAN),
    )


# ------------------------------- measures ---------------------------------


def measure_to_dict(mu: MixingMeasure) -> dict:
    return {"atoms": [list(a) for a in np.asarray(mu.atoms)], "weights": _listify(mu.weights)}


def measure_from_dict(obj: dict) -> MixingMeasure:
    return MixingMeasure(_number(obj, "atoms", float), _number(obj, "weights", float))


# ------------------------------- censoring --------------------------------


def censoring_to_dict(design: CensoringDesign) -> dict:
    return {
        "n": design.n,
        "masks": [list(mask.indices) for mask, _ in design.mask_probabilities],
        "probabilities": [p for _, p in design.mask_probabilities],
    }


def censoring_from_dict(obj: dict) -> CensoringDesign:
    n = _number(obj, "n")
    masks = [CensorMask(n, tuple(idx)) for idx in _number(obj, "masks")]
    probs = _number(obj, "probabilities", float)
    if len(masks) != len(probs):
        raise InvalidArgumentError("masks and probabilities must have equal length")
    return CensoringDesign(tuple(zip(masks, probs)))


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
    observations = []
    for r in rows:
        t, y = _number(r, "t", float), _number(r, "y", float)
        if "mask" in r:
            mask = CensorMask(spec.n, tuple(_number(r, "mask")))
            observations.append(CensoredObservation(y, t, mask))
        else:
            observations.append(Observation(y, t))
    truth = measure_from_dict(obj["truth"]) if "truth" in obj else None
    censoring = censoring_from_dict(obj["censoring"]) if "censoring" in obj else None
    return Dataset(spec, tuple(observations), _number(obj, "seed", default=0), truth, censoring)


# ------------------------------ fit results --------------------------------


def fit_options_from_dict(obj: Optional[dict]) -> FitOptions:
    """Options from a (possibly partial) dict; absent fields keep their defaults."""
    obj = obj or {}
    defaults = FitOptions()
    given = {
        f.name: _number(obj, f.name, type(getattr(defaults, f.name)))
        for f in dataclasses.fields(FitOptions)
        if f.name in obj
    }
    return dataclasses.replace(defaults, **given)


def certificate_to_dict(cert: Certificate, **extra) -> dict:
    """A fit file's certificate block; certify's verdict is the same block with ``extra`` keys."""
    point = _listify(cert.argmax_point)
    return {"sup": cert.sup_dir_derivative, "argmax": point, "grid_resolution": cert.grid_resolution, **extra}


def fit_to_dict(fit: FitResult, box=None, include_trace: bool = False, quad_points: Optional[int] = None) -> dict:
    """A fit file; a sieve fit's block records ``quad_points`` when given, a discrete fit ignores it."""
    if isinstance(fit.measure, SieveDensity):
        basis, coefficients = fit.measure.basis, _listify(fit.measure.coefficients)
        sieve = {"box": _listify(basis.box), "node_counts": list(basis.node_counts), "coefficients": coefficients}
        out = {"sieve": sieve if quad_points is None else {**sieve, "quad_points": quad_points}}
    else:
        out = {"measure": measure_to_dict(fit.measure)}
    out["final_loglik"] = fit.final_loglik
    out["iterations"] = fit.iterations
    out["status"] = fit.status
    out["certificate"] = certificate_to_dict(fit.certificate)
    if box is not None:
        out["box"] = [list(iv) for iv in np.asarray(box, dtype=float)]
    if include_trace:
        out["loglik_trace"] = _listify(fit.loglik_trace)
    return out


def fit_from_dict(obj: dict) -> FitResult:
    cert_obj = _require(obj, "certificate")
    cert = Certificate(
        sup_dir_derivative=_number(cert_obj, "sup", float),
        argmax_point=np.asarray(_number(cert_obj, "argmax", float)),
        grid_resolution=_number(cert_obj, "grid_resolution", least=1),
    )
    if "sieve" in obj:
        s = obj["sieve"]
        basis = SieveBasis(_number(s, "box", float), _number(s, "node_counts"))
        measure = SieveDensity(basis, _number(s, "coefficients", float))
    else:
        measure = measure_from_dict(_require(obj, "measure"))
    final_loglik = _number(obj, "final_loglik", float)
    statuses = (STATUS_CONVERGED, STATUS_ITER_LIMIT)
    if _require(obj, "status") not in statuses:
        raise InvalidArgumentError(f"status must be one of {statuses}, got {obj['status']!r}")
    trace = _number(obj, "loglik_trace", float, default=[final_loglik])
    if not trace or trace[-1] != final_loglik:
        raise InvalidArgumentError(f"loglik_trace must be nonempty and end at final_loglik {final_loglik!r}")
    return FitResult(
        measure=measure,
        loglik_trace=np.asarray(trace),
        final_loglik=final_loglik,
        iterations=_number(obj, "iterations", least=0),
        certificate=cert,
        status=obj["status"],
    )


def fit_file_from_dict(obj: dict) -> tuple:
    """A fit file as (result, checked box, sieve quadrature order).

    A discrete fit needs the box its certificate scans, and has order None; a sieve fit's box may be
    absent (None), and a sieve block without quad_points was fitted at the default order.
    """
    fit = fit_from_dict(obj)
    sieve = isinstance(fit.measure, SieveDensity)
    p = fit.measure.basis.p if sieve else fit.measure.p
    box = _check_box(_number(obj, "box", float), p) if "box" in obj or not sieve else None
    quad_points = _number(obj["sieve"], "quad_points", default=DEFAULT_QUAD_POINTS, least=1) if sieve else None
    return fit, box, quad_points


# ------------------------------ run configs --------------------------------


def simulation_from_dict(obj: dict) -> tuple:
    """A simulate config as (spec, truth, N, seed, censoring design or None, censor seed)."""
    seed = _number(obj, "seed")
    design = censoring_from_dict(obj["censoring"]) if "censoring" in obj else None
    return (
        spec_from_dict(_require(obj, "model")),
        measure_from_dict(_require(obj, "truth")),
        _number(obj, "N"),
        seed,
        design,
        _number(obj, "censor_seed", default=seed + 1),
    )


def experiment_config_from_dict(obj: dict) -> ExperimentConfig:
    return ExperimentConfig(
        kind=_require(obj, "kind"),
        spec=spec_from_dict(_require(obj, "model")),
        truth=measure_from_dict(_require(obj, "truth")),
        box=_number(obj, "box", float),
        initial_counts=_number(obj, "initial_counts"),
        n_schedule=_number(obj, "N_schedule"),
        seeds=_number(obj, "seeds"),
        m_schedule=_number(obj, "m_schedule", default=[]),
        options=fit_options_from_dict(obj.get("fit_options")),
        censoring=censoring_from_dict(obj["censoring"]) if "censoring" in obj else None,
        **{key: _number(obj, key, least=1) for key in ("quad_points", "competitors") if key in obj},
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidArgumentError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise InvalidArgumentError(f"{path}: nested too deeply ({exc})") from exc


def load(path, parse):
    """``parse`` of the JSON document at ``path``; a document of the wrong shape is an error naming the file."""
    obj = read_json(path)
    try:
        return parse(obj)
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc
