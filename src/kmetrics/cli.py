"""Command-line front end.

Every run prints one JSON report to stdout.  On success it holds command,
inputs (a sha256: digest per file read), results, outputs (each file written,
keyed metric, chains or chain by what it holds, or instance for gen) and
timing.seconds.  Otherwise it is one error object with kind (usage, input,
verification or solver) and message, plus file, field and line for a bad
file, or simplex, value and achieved for a table that is not strong.  Exit
codes: 0 success, 1 negative verification verdict, 2 unusable input (parse,
schema, or precondition), 3 solver failure.

The runtime is serial, so unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is
set the CLI runs OpenBLAS on one thread: its worker pool would cost each
process more at numpy load than it saves.  entry() flushes the report and
ends the process with os._exit, skipping interpreter teardown.
"""

from __future__ import annotations

import os

if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import corpus
from .apex import apex_extend, apex_extend_chain_matrix
from .coboundary import (
    ChainMatrix,
    NormSpec,
    NotStrongError,
    embed_l2_to_lp,
    eval_coboundary_metric,
    frechet_embed,
    jl_target_dim,
    max_distortion,
    random_project,
)
from .fileio import (
    InputError,
    read_any,
    read_chain_matrix,
    read_cloud,
    read_complex,
    read_kmetric,
    write_chain,
    write_chain_matrix,
    write_kmetric,
)
from .hypertree import HypertreeReport, NotHypertreeError, hypertree_to_l1, is_hypertree
from .lp import LPError
from .metric import (
    KMetric,
    UnfillableBoundaryError,
    check_strong,
    check_weak,
    min_bounding_chain,
)
from .simplicial import Chain, chain_from_dict, orientation_sign, validate_simplex
from .volume import volume_metric, volume_to_coboundary

OK, VERIFY_FAIL, INPUT_FAIL, SOLVER_FAIL = 0, 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # emit JSON instead of argparse's exit
        raise _UsageError(message)


def _parse_p(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"invalid norm exponent: {text!r}") from None


def _parse_target(text: str) -> tuple:
    try:
        verts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise _UsageError(f"invalid vertex list: {text!r}") from None
    if len(verts) < 2:
        raise _UsageError("target needs at least two vertices")
    return verts


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _read(reader, path: str, inputs: dict):
    """Parse path with reader, then record its digest under inputs."""
    payload = reader(path)
    inputs[path] = _sha256(path)
    return payload


# payload type -> (writer, its key under the report's outputs)
_WRITERS = {
    KMetric: (write_kmetric, "metric"),
    ChainMatrix: (write_chain_matrix, "chains"),
    Chain: (write_chain, "chain"),
}


def _write(payload, path, outputs: dict, key=None) -> None:
    """Write payload to path, unless path is None, and record it under outputs."""
    if path is None:
        return
    writer, default = _WRITERS[type(payload)]
    writer(payload, path)
    outputs[key or default] = path


def _simplex_list(s) -> list:
    return [int(v) for v in s]


def _chain_support(chain) -> list:
    """The nonzero coefficients of a chain, one entry per simplex."""
    return [
        {"s": _simplex_list(s), "coeff": float(c)}
        for s, c in zip(chain.support(), chain.coeffs[chain.coeffs != 0])
    ]


# gen name -> maker of its corpus instance, in the order usage messages list them
_MAKERS = {
    "subdivided-triangle": lambda args, inputs: corpus.subdivided_triangle(),
    "discrete": lambda args, inputs: corpus.discrete_metric(args.n, args.k),
    "four-point-equilateral": lambda args, inputs: corpus.four_point_equilateral(),
    "six-point-apex-discrete": lambda args, inputs: corpus.six_point_apex_discrete(),
    "perimeter": lambda args, inputs: corpus.perimeter_metric(
        _read(read_cloud, args.points, inputs)),
    "max-side": lambda args, inputs: corpus.max_side_metric(
        _read(read_cloud, args.points, inputs)),
    "random-strong": lambda args, inputs: corpus.random_strong_metric(
        args.n, args.k, args.seed),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="kmetrics", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the weak/strong chain inequalities")
    p.add_argument("metric")
    p.add_argument("--strong", action="store_true")
    p.add_argument("--exhaustive", action="store_true")

    p = sub.add_parser("min-chain", help="cheapest facet chain bounding a tuple")
    p.add_argument("complex")
    p.add_argument("--target", required=True, help="comma-separated vertices")
    p.add_argument("-o", "--output", help="write the optimal chain here")

    p = sub.add_parser("embed", help="build or shrink chain collections")
    esub = p.add_subparsers(dest="mode", required=True)
    q = esub.add_parser("frechet", help="strong table to max-norm chain columns")
    q.add_argument("metric")
    q.add_argument("-o", "--output", required=True)
    q = esub.add_parser("jl", help="Gaussian sketch at the dimension-bound size")
    q.add_argument("chains")
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("-o", "--output", required=True)
    q = esub.add_parser("l2lp", help="re-norm a Euclidean table into p-norm columns")
    q.add_argument("chains")
    q.add_argument("--p", required=True)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("-o", "--output", required=True)

    p = sub.add_parser("eval", help="evaluate chain columns into a distance table")
    p.add_argument("chains")
    p.add_argument("--p", required=True)
    p.add_argument("-o", "--output")

    p = sub.add_parser("volume", help="simplex volumes of a point cloud")
    p.add_argument("points")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--to-coboundary", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("apex", help="raise arity through a fresh apex vertex")
    p.add_argument("payload", help="a table or chain collection file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("hypertree", help="rank checks and the 1-norm realisation")
    p.add_argument("complex")
    p.add_argument("--to-l1", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("gen", help="write a named corpus instance")
    p.add_argument("name", choices=list(_MAKERS))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", help="cloud file for perimeter/max-side")
    p.add_argument("-o", "--output", required=True)

    return parser


# --- handlers ---------------------------------------------------------------


def _cmd_verify(args, inputs, outputs):
    d = _read(read_kmetric, args.metric, inputs)
    if args.strong:
        report = check_strong(d, exhaustive=args.exhaustive)
    else:
        report = check_weak(d)
    results = {
        "n": d.n,
        "k": d.k,
        "weak": report.is_weak,
        "weak_violations": [
            {"s": _simplex_list(s), "y": int(y)} for s, y in report.weak_violations
        ],
        "pseudo": len(report.pseudo_violations) > 0,
        "pseudo_zero_tuples": len(report.pseudo_violations),
    }
    code = OK if report.is_weak else VERIFY_FAIL
    if args.strong:
        results["strong"] = report.is_strong
        if report.strong_witness is not None:
            w = report.strong_witness
            results["witness"] = {
                "s": _simplex_list(w.simplex),
                "value": w.value,
                "cost": w.cost,
                "chain_support": _chain_support(w.chain),
            }
        if args.exhaustive:
            results["margins"] = [
                {"s": _simplex_list(s), "cost": cost, "value": value}
                for s, cost, value in report.strong_margins
            ]
        if not report.is_strong:
            code = VERIFY_FAIL
    return results, code


def _cmd_min_chain(args, inputs, outputs):
    K = _read(read_complex, args.complex, inputs)
    target = _parse_target(args.target)
    if len(target) != K.k:
        raise _UsageError(f"target needs {K.k} vertices, got {len(target)}")
    weights = np.zeros(math.comb(K.n, K.k))
    idx = K.facet_indices()
    weights[idx] = K.weights
    orientation_sign(target)  # a repeated or out-of-range vertex is named by the whole target
    validate_simplex(K.n, sorted(target))
    faces = {target[:i] + target[i + 1:]: (-1) ** i for i in range(K.k)}
    cost, chain = min_bounding_chain(weights, chain_from_dict(K.n, K.k - 2, faces), mask=idx)
    _write(chain, args.output, outputs)
    results = {
        "target": list(target),
        "cost": cost,
        "chain_support": _chain_support(chain),
    }
    return results, OK


def _cmd_embed(args, inputs, outputs):
    if args.mode == "frechet":
        F = frechet_embed(_read(read_kmetric, args.metric, inputs))
        _write(F, args.output, outputs)
        return {"n": F.n, "k": F.k, "columns": F.m}, OK

    F = _read(read_chain_matrix, args.chains, inputs)
    if args.mode == "jl":
        p = 2
        m_target = jl_target_dim(F.n, F.k, args.eps)
        projected = random_project(F, m_target, NormSpec(p), args.seed)
    else:  # l2lp
        p = _parse_p(args.p)
        projected = embed_l2_to_lp(F, p, args.eps, args.seed)
    distortion = max_distortion(
        eval_coboundary_metric(projected, NormSpec(p)),
        eval_coboundary_metric(F, NormSpec(2)),
    )
    results = {
        "columns_before": F.m,
        "columns_after": projected.m,
        **({"p": p} if args.mode == "l2lp" else {}),
        "eps": args.eps,
        "distortion": distortion,
    }
    _write(projected, args.output, outputs)
    return results, OK


def _cmd_eval(args, inputs, outputs):
    F = _read(read_chain_matrix, args.chains, inputs)
    d = eval_coboundary_metric(F, NormSpec(_parse_p(args.p)))
    _write(d, args.output, outputs)
    return {
        "n": d.n,
        "k": d.k,
        "min_value": float(d.values.min()),
        "max_value": float(d.values.max()),
    }, OK


def _cmd_volume(args, inputs, outputs):
    cloud = _read(read_cloud, args.points, inputs)
    if args.to_coboundary:
        F = volume_to_coboundary(cloud, args.k)
        _write(F, args.output, outputs)
        return {"points": cloud.count, "k": args.k, "columns": F.m}, OK
    d = volume_metric(cloud, args.k)
    _write(d, args.output, outputs)
    return {
        "points": cloud.count,
        "k": args.k,
        "min_volume": float(d.values.min()),
        "max_volume": float(d.values.max()),
    }, OK


_APEX = {"kmetric": apex_extend, "chain_matrix": apex_extend_chain_matrix}


def _cmd_apex(args, inputs, outputs):
    kind, payload = _read(read_any, args.payload, inputs)
    if kind not in _APEX:
        raise InputError(
            args.payload, f"apex extension applies to tables or chains, not {kind}"
        )
    extended = _APEX[kind](payload)
    _write(extended, args.output, outputs)
    return {
        "kind": kind,
        "n": extended.n,
        "k": extended.k,
        "apex": extended.n - 1,
    }, OK


def _cmd_hypertree(args, inputs, outputs):
    K = _read(read_complex, args.complex, inputs)
    if args.to_l1:
        F = hypertree_to_l1(K)  # the one check: raises NotHypertreeError on a bad complex
        _write(F, args.output, outputs)
        count = len(K.facets)  # its block was square and nonsingular: rank = count = cycle dim
        report = HypertreeReport(True, True, True, count, count, count)
    else:
        report = is_hypertree(K)
    results = {
        "n": K.n,
        "k": K.k,
        "facets": report.facet_count,
        "facet_rank": report.facet_rank,
        "cycle_space_dim": report.cycle_space_dim,
        "acyclic": report.acyclic,
        "fills_cycles": report.fills_cycles,
        "hypertree": report.is_hypertree,
    }
    if args.to_l1:
        results["columns"] = F.m
    return results, OK if report.is_hypertree else VERIFY_FAIL


def _cmd_gen(args, inputs, outputs):
    name = args.name
    if name in ("discrete", "random-strong") and (args.n is None or args.k is None):
        raise _UsageError(f"{name} needs --n and --k")
    if name in ("perimeter", "max-side") and not args.points:
        raise _UsageError(f"{name} needs --points")
    inst = _MAKERS[name](args, inputs)
    _write(inst.payload, args.output, outputs, key="instance")

    expected = {}
    for key, value in inst.expected.items():
        if isinstance(value, dict):
            expected[key] = {
                ",".join(map(str, s)): float(v) for s, v in value.items()
            }
        elif isinstance(value, tuple):
            expected[key] = list(value)
        else:
            expected[key] = value
    return {"name": name, "expected": expected}, OK


_HANDLERS = {
    "verify": _cmd_verify,
    "min-chain": _cmd_min_chain,
    "embed": _cmd_embed,
    "eval": _cmd_eval,
    "volume": _cmd_volume,
    "apex": _cmd_apex,
    "hypertree": _cmd_hypertree,
    "gen": _cmd_gen,
}


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=1))


def _fail(code: int, kind: str, message: str, **extra) -> int:
    """Print the error object; return the exit code."""
    body = {"kind": kind, "message": message}
    body.update({k: v for k, v in extra.items() if v is not None})
    _emit({"error": body})
    return code


def main(argv=None) -> int:
    started = time.perf_counter()
    inputs, outputs = {}, {}
    try:
        args = build_parser().parse_args(argv)
        results, code = _HANDLERS[args.command](args, inputs, outputs)
    except _UsageError as exc:
        return _fail(INPUT_FAIL, "usage", str(exc))
    except InputError as exc:
        return _fail(INPUT_FAIL, "input", exc.message, file=exc.path, field=exc.field,
                     line=exc.line)
    except NotStrongError as exc:
        return _fail(VERIFY_FAIL, "verification", str(exc), simplex=_simplex_list(exc.simplex),
                     value=exc.value, achieved=exc.achieved)
    except NotHypertreeError as exc:
        return _fail(VERIFY_FAIL, "verification", str(exc))
    except LPError as exc:
        return _fail(SOLVER_FAIL, "solver", str(exc))
    except (UnfillableBoundaryError, ValueError, OSError) as exc:
        return _fail(INPUT_FAIL, "input", str(exc))

    _emit(
        {
            "command": args.command
            + (f" {args.mode}" if getattr(args, "mode", None) else ""),
            "inputs": inputs,
            "results": results,
            "outputs": outputs,
            "timing": {"seconds": round(time.perf_counter() - started, 6)},
        }
    )
    return code


def entry() -> None:
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
