"""Command-line front end.

Every run prints one JSON report to stdout.  On success it holds command,
inputs (a sha256: digest per file read), results, outputs (each file written,
keyed metric, chains or chain by what it holds, or instance for gen) and
timing.seconds.  Otherwise it is one error object with kind (usage, input,
verification or solver) and message, plus file, field and line for a bad
file, or simplex, value and achieved for a table that is not strong.  Exit
codes: 0 success, 1 negative verification verdict (an embedding whose
distortion exceeds --eps is one, and writes no file), 2 unusable input (parse,
schema, or precondition), 3 solver failure.

Library names are reached through the package (km.name), whose export table
imports each module on first use, so a process loads only what its command runs.

The runtime is serial, so unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is
set the CLI runs OpenBLAS on one thread: its worker pool would cost each
process more at numpy load than it saves.
"""

from __future__ import annotations

import os

if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import sys
import time

import numpy as np

import kmetrics as km

from .simplicial import chain_from_dict, orientation_sign, validate_simplex

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


def _write(writer, payload, path, outputs: dict, key: str) -> None:
    """Write payload to path with writer, unless path is None, and record it under outputs."""
    if path is not None:
        writer(payload, path)
        outputs[key] = path


def _chain_support(chain) -> list:
    """The nonzero coefficients of a chain, one entry per simplex."""
    return [
        {"s": list(s), "coeff": float(c)}
        for s, c in zip(chain.support(), chain.coeffs[chain.coeffs != 0])
    ]


# gen name -> (the options its maker reads, the maker), in the order usage messages list them;
# a maker needs each option it reads but --seed, which random-strong takes as 0 when not given
_MAKERS = {
    "subdivided-triangle": ((), lambda args, inputs: km.corpus.subdivided_triangle()),
    "discrete": (("n", "k"), lambda args, inputs: km.corpus.discrete_metric(args.n, args.k)),
    "four-point-equilateral": ((), lambda args, inputs: km.corpus.four_point_equilateral()),
    "six-point-apex-discrete": ((), lambda args, inputs: km.corpus.six_point_apex_discrete()),
    "perimeter": (("points",), lambda args, inputs: km.corpus.perimeter_metric(
        _read(km.read_cloud, args.points, inputs))),
    "max-side": (("points",), lambda args, inputs: km.corpus.max_side_metric(
        _read(km.read_cloud, args.points, inputs))),
    "random-strong": (("n", "k", "seed"), lambda args, inputs: km.corpus.random_strong_metric(
        args.n, args.k, args.seed or 0)),
}


def _add_commands(sub, commands: dict) -> None:
    for name, (text, arguments, *_) in commands.items():
        p = sub.add_parser(name, help=text)
        if isinstance(arguments, dict):  # a table of modes, one level down
            _add_commands(p.add_subparsers(dest="mode", required=True), arguments)
        else:
            for names, keywords in arguments:
                p.add_argument(*names, **keywords)


def _parser(commands: dict) -> _Parser:
    parser = _Parser(prog="kmetrics", description=__doc__)
    _add_commands(parser.add_subparsers(dest="command", required=True), commands)
    return parser


def build_parser() -> _Parser:
    """Every command's parser; main builds only the one that argv[0] names, if any."""
    return _parser(_COMMANDS)


# --- handlers ---------------------------------------------------------------


def _cmd_verify(args, inputs, outputs):
    if args.exhaustive and not args.strong:
        raise _UsageError("--exhaustive needs --strong")
    d = _read(km.read_kmetric, args.metric, inputs)
    if args.strong:
        report = km.check_strong(d, exhaustive=args.exhaustive)
    else:
        report = km.check_weak(d)
    results = {
        "n": d.n,
        "k": d.k,
        "weak": report.is_weak,
        "weak_violations": [
            {"s": list(s), "y": int(y)} for s, y in report.weak_violations
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
                "s": list(w.simplex),
                "value": w.value,
                "cost": w.cost,
                "chain_support": _chain_support(w.chain),
            }
        if args.exhaustive:
            results["margins"] = [
                {"s": list(s), "cost": cost, "value": value}
                for s, cost, value in report.strong_margins
            ]
        if not report.is_strong:
            code = VERIFY_FAIL
    return results, code


def _cmd_min_chain(args, inputs, outputs):
    K = _read(km.read_complex, args.complex, inputs)
    target = _parse_target(args.target)
    if len(target) != K.k:
        raise _UsageError(f"target needs {K.k} vertices, got {len(target)}")
    weights = K.weight_table()
    orientation_sign(target)  # a repeated or out-of-range vertex is named by the whole target
    validate_simplex(K.n, sorted(target))
    faces = {target[:i] + target[i + 1:]: (-1) ** i for i in range(K.k)}
    cost, chain = km.min_bounding_chain(weights, chain_from_dict(K.n, K.k - 2, faces),
                                       mask=np.flatnonzero(weights))
    _write(km.write_chain, chain, args.output, outputs, "chain")
    results = {
        "target": list(target),
        "cost": cost,
        "chain_support": _chain_support(chain),
    }
    return results, OK


def _cmd_embed(args, inputs, outputs):
    if args.mode == "frechet":
        F = km.frechet_embed(_read(km.read_kmetric, args.metric, inputs))
        _write(km.write_chain_matrix, F, args.output, outputs, "chains")
        return {"n": F.n, "k": F.k, "columns": F.m}, OK

    F = _read(km.read_chain_matrix, args.chains, inputs)
    if args.mode == "jl":
        p = 2
        m_target = km.jl_target_dim(F.n, F.k, args.eps)
        projected = km.random_project(F, m_target, km.NormSpec(p), args.seed)
    else:  # l2lp
        p = _parse_p(args.p)
        projected = km.embed_l2_to_lp(F, p, args.eps, args.seed)
    distortion = km.max_distortion(
        km.eval_coboundary_metric(projected, km.NormSpec(p)),
        km.eval_coboundary_metric(F, km.NormSpec(2)),
    )
    results = {
        "columns_before": F.m,
        "columns_after": projected.m,
        **({"p": p} if args.mode == "l2lp" else {}),
        "eps": args.eps,
        "distortion": distortion,
    }
    if distortion > args.eps:  # the embedding misses its bound: write nothing
        return results, VERIFY_FAIL
    _write(km.write_chain_matrix, projected, args.output, outputs, "chains")
    return results, OK


def _cmd_eval(args, inputs, outputs):
    F = _read(km.read_chain_matrix, args.chains, inputs)
    d = km.eval_coboundary_metric(F, km.NormSpec(_parse_p(args.p)))
    _write(km.write_kmetric, d, args.output, outputs, "metric")
    return {
        "n": d.n,
        "k": d.k,
        "min_value": float(d.values.min()),
        "max_value": float(d.values.max()),
    }, OK


def _cmd_volume(args, inputs, outputs):
    cloud = _read(km.read_cloud, args.points, inputs)
    if args.to_coboundary:
        F = km.volume_to_coboundary(cloud, args.k)
        _write(km.write_chain_matrix, F, args.output, outputs, "chains")
        return {"points": cloud.count, "k": args.k, "columns": F.m}, OK
    d = km.volume_metric(cloud, args.k)
    _write(km.write_kmetric, d, args.output, outputs, "metric")
    return {
        "points": cloud.count,
        "k": args.k,
        "min_volume": float(d.values.min()),
        "max_volume": float(d.values.max()),
    }, OK


def _cmd_apex(args, inputs, outputs):
    kind, payload = _read(km.read_any, args.payload, inputs)
    if kind == "kmetric":
        extended = km.apex_extend(payload)
        _write(km.write_kmetric, extended, args.output, outputs, "metric")
    elif kind == "chain_matrix":
        extended = km.apex_extend_chain_matrix(payload)
        _write(km.write_chain_matrix, extended, args.output, outputs, "chains")
    else:
        raise km.InputError(
            args.payload, f"apex extension applies to tables or chains, not {kind}"
        )
    return {
        "kind": kind,
        "n": extended.n,
        "k": extended.k,
        "apex": extended.n - 1,
    }, OK


def _cmd_hypertree(args, inputs, outputs):
    if args.output is not None and not args.to_l1:
        raise _UsageError("--output needs --to-l1")
    K = _read(km.read_complex, args.complex, inputs)
    if args.to_l1:
        F = km.hypertree_to_l1(K)  # the one check: raises NotHypertreeError on a bad complex
        _write(km.write_chain_matrix, F, args.output, outputs, "chains")
        count = len(K.facets)  # its block was square and nonsingular: rank = count = cycle dim
        report = km.HypertreeReport(True, True, True, count, count, count)
    else:
        report = km.is_hypertree(K)
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
    reads, make = _MAKERS[name]
    given = {option: getattr(args, option) not in (None, "")
             for option in ("n", "k", "points", "seed")}
    needs = [option for option in reads if option != "seed"]
    if not all(given[option] for option in needs):
        raise _UsageError(f"{name} needs " + " and ".join(f"--{option}" for option in needs))
    ignored = [option for option, there in given.items() if there and option not in reads]
    if ignored:
        raise _UsageError(f"{name} does not read --{ignored[0]}")
    inst = make(args, inputs)
    writer = km.write_kmetric if isinstance(inst.payload, km.KMetric) else km.write_chain_matrix
    _write(writer, inst.payload, args.output, outputs, "instance")

    expected = {}
    for key, value in inst.expected.items():
        if isinstance(value, dict):
            expected[key] = {
                ",".join(map(str, s)): float(v) for s, v in value.items()
            }
        else:
            expected[key] = value
    return {"name": name, "expected": expected}, OK


_FLAG, _REQUIRED = {"action": "store_true"}, {"required": True}
_INT, _FLOAT = {"type": int, "required": True}, {"type": float, "required": True}
_OUT, _OUT_REQUIRED = (("-o", "--output"), {}), (("-o", "--output"), _REQUIRED)

# command -> (help, arguments, handler): arguments are (names, keywords) pairs, or
# embed's table of modes, each (help, arguments)
_COMMANDS = {
    "verify": ("check the weak/strong chain inequalities",
               [(("metric",), {}), (("--strong",), _FLAG), (("--exhaustive",), _FLAG)],
               _cmd_verify),
    "min-chain": ("cheapest facet chain bounding a tuple", [
        (("complex",), {}), (("--target",), {**_REQUIRED, "help": "comma-separated vertices"}),
        (("-o", "--output"), {"help": "write the optimal chain here"})], _cmd_min_chain),
    "embed": ("build or shrink chain collections", {
        "frechet": ("strong table to max-norm chain columns", [(("metric",), {}), _OUT_REQUIRED]),
        "jl": ("Gaussian sketch at the dimension-bound size", [
            (("chains",), {}), (("--eps",), _FLOAT), (("--seed",), _INT), _OUT_REQUIRED]),
        "l2lp": ("re-norm a Euclidean table into p-norm columns", [
            (("chains",), {}), (("--p",), _REQUIRED), (("--eps",), _FLOAT), (("--seed",), _INT),
            _OUT_REQUIRED]),
    }, _cmd_embed),
    "eval": ("evaluate chain columns into a distance table",
             [(("chains",), {}), (("--p",), _REQUIRED), _OUT], _cmd_eval),
    "volume": ("simplex volumes of a point cloud",
               [(("points",), {}), (("--k",), _INT), (("--to-coboundary",), _FLAG), _OUT],
               _cmd_volume),
    "apex": ("raise arity through a fresh apex vertex",
             [(("payload",), {"help": "a table or chain collection file"}), _OUT], _cmd_apex),
    "hypertree": ("rank checks and the 1-norm realisation",
                  [(("complex",), {}), (("--to-l1",), _FLAG), _OUT], _cmd_hypertree),
    "gen": ("write a named corpus instance", [
        (("name",), {"choices": list(_MAKERS)}), (("--n",), {"type": int}),
        (("--k",), {"type": int}), (("--seed",), {"type": int}),
        (("--points",), {"help": "cloud file for perimeter/max-side"}), _OUT_REQUIRED], _cmd_gen),
}


def _emit(obj: dict) -> None:
    try:
        print(json.dumps(obj, indent=1))
    except BrokenPipeError:  # the reader has gone; the exit code still reports the outcome
        pass


def _fail(code: int, kind: str, message: str, **extra) -> int:
    """Print the error object; return the exit code."""
    body = {"kind": kind, "message": message}
    body.update({k: v for k, v in extra.items() if v is not None})
    _emit({"error": body})
    return code


def main(argv=None) -> int:
    started = time.perf_counter()
    inputs, outputs = {}, {}
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else None
    parser = _parser({command: _COMMANDS[command]}) if command in _COMMANDS else build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # the records refuse what is not finite
            results, code = _COMMANDS[args.command][2](args, inputs, outputs)
    except _UsageError as exc:
        return _fail(INPUT_FAIL, "usage", str(exc))
    except km.InputError as exc:
        return _fail(INPUT_FAIL, "input", exc.message, file=exc.path, field=exc.field,
                     line=exc.line)
    except km.NotStrongError as exc:
        return _fail(VERIFY_FAIL, "verification", str(exc), simplex=list(exc.simplex),
                     value=exc.value, achieved=exc.achieved)
    except km.NotHypertreeError as exc:
        return _fail(VERIFY_FAIL, "verification", str(exc))
    except km.LPError as exc:
        return _fail(SOLVER_FAIL, "solver", str(exc))
    except (km.UnfillableBoundaryError, ValueError, OSError) as exc:
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

