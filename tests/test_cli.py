"""End-to-end command-line checks through cli.main with in-process capture."""

import argparse
import ast
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import kmetrics
from kmetrics import cli
from kmetrics.cli import main
from kmetrics.coboundary import NormSpec, eval_coboundary_metric, jl_target_dim
from kmetrics.corpus import SUBDIVISION_TRIANGLES, random_strong_metric
from kmetrics.fileio import (
    read_chain,
    read_chain_matrix,
    read_kmetric,
    write_chain_matrix,
    write_cloud,
    write_complex,
    write_kmetric,
)
from kmetrics.hypertree import random_spanning_tree
from kmetrics.simplicial import WeightedComplex, coboundary_operator
from kmetrics.volume import PointCloud
from oracles import scaled_row_norms


def _run(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def _subdivision_complex():
    return WeightedComplex(
        n=6,
        k=3,
        facets=tuple(sorted(tuple(sorted(t)) for t in SUBDIVISION_TRIANGLES)),
        weights=np.ones(7),
    )


# --- report envelope ---------------------------------------------------------


def test_success_report_shape(tmp_path, capsys):
    out = str(tmp_path / "d.json")
    code, report = _run(["gen", "subdivided-triangle", "-o", out], capsys)
    assert code == 0
    assert report["command"] == "gen"
    assert report["outputs"] == {"instance": out}
    assert report["results"]["name"] == "subdivided-triangle"
    assert report["results"]["expected"]["witness_cost"] == 7.0
    assert report["timing"]["seconds"] >= 0
    d = read_kmetric(out)
    assert (d.n, d.k) == (6, 3)


def test_input_hashes_are_sha256(tmp_path, capsys):
    out = str(tmp_path / "d.json")
    _run(["gen", "subdivided-triangle", "-o", out], capsys)
    code, report = _run(["verify", out], capsys)
    assert code == 0
    digest = report["inputs"][out]
    assert digest.startswith("sha256:") and len(digest) == 7 + 64


# The sh block under "## Command line" in README.md, one entry per line:
# (exit code, result keys in order, outputs, input files)
README_REPORTS = [
    (0, ["name", "expected"], {"instance": "d.json"}, []),
    (1, ["n", "k", "weak", "weak_violations", "pseudo", "pseudo_zero_tuples", "strong",
         "witness"], {}, ["d.json"]),
    (0, ["name", "expected"], {"instance": "s.json"}, []),
    (0, ["n", "k", "columns"], {"chains": "F.json"}, ["s.json"]),
    (0, ["n", "k", "min_value", "max_value"], {"metric": "back.json"}, ["F.json"]),
    (0, ["columns_before", "columns_after", "eps", "distortion"], {"chains": "small.json"},
     ["F.json"]),
    (0, ["columns_before", "columns_after", "p", "eps", "distortion"], {"chains": "l1.json"},
     ["F.json"]),
    (0, ["target", "cost", "chain_support"], {"chain": "chain.json"}, ["complex.json"]),
    (0, ["points", "k", "columns"], {"chains": "cones.json"}, ["cloud.json"]),
    (0, ["kind", "n", "k", "apex"], {"metric": "s4.json"}, ["s.json"]),
    (0, ["n", "k", "facets", "facet_rank", "cycle_space_dim", "acyclic", "fills_cycles",
         "hypertree", "columns"], {"chains": "cols.json"}, ["tree.json"]),
]


def _readme_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_command_block_runs_as_documented(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_complex(_subdivision_complex(), "complex.json")
    write_cloud(PointCloud(points=np.random.default_rng(5).standard_normal((6, 3))),
                "cloud.json")
    write_complex(random_spanning_tree(6, seed=1), "tree.json")
    commands = _readme_commands()
    assert len(commands) == len(README_REPORTS)
    for argv, (code, keys, outputs, inputs) in zip(commands, README_REPORTS):
        assert argv[0] == "kmetrics"
        got, report = _run(argv[1:], capsys)
        assert got == code, argv
        assert list(report["results"]) == keys, argv
        assert report["outputs"] == outputs, argv
        assert list(report["inputs"]) == inputs, argv


# --- verify ------------------------------------------------------------------


def test_verify_weak_only(tmp_path, capsys):
    out = str(tmp_path / "d.json")
    _run(["gen", "subdivided-triangle", "-o", out], capsys)
    code, report = _run(["verify", out], capsys)
    assert code == 0
    assert report["results"]["weak"] is True
    assert "strong" not in report["results"]


def test_verify_strong_failure_carries_witness(tmp_path, capsys):
    out = str(tmp_path / "d.json")
    _run(["gen", "subdivided-triangle", "-o", out], capsys)
    code, report = _run(["verify", out, "--strong"], capsys)
    assert code == 1
    results = report["results"]
    assert results["weak"] is True and results["strong"] is False
    witness = results["witness"]
    assert witness["s"] == [0, 1, 2]
    assert witness["value"] == 10.0
    assert witness["cost"] == pytest.approx(7.0, abs=1e-6)
    assert len(witness["chain_support"]) == 7
    support = {tuple(entry["s"]) for entry in witness["chain_support"]}
    assert support == {tuple(sorted(t)) for t in SUBDIVISION_TRIANGLES}


def test_verify_strong_pass_and_exhaustive_margins(tmp_path, capsys):
    out = str(tmp_path / "d.json")
    _run(["gen", "random-strong", "--n", "5", "--k", "3", "--seed", "4",
          "-o", out], capsys)
    code, report = _run(["verify", out, "--strong", "--exhaustive"], capsys)
    assert code == 0
    results = report["results"]
    assert results["strong"] is True
    assert len(results["margins"]) == math.comb(5, 3)
    for row in results["margins"]:
        assert row["cost"] >= row["value"] - 1e-6


@pytest.mark.parametrize("tol", ["nan", "inf", "2", "1"])
def test_verify_refuses_a_tolerance_that_passes_any_table(tmp_path, capsys, tol):
    # every verdict reads the one fixed tolerance, so verify takes none
    out = str(tmp_path / "d.json")
    _run(["gen", "subdivided-triangle", "-o", out], capsys)
    for extra in ([], ["--strong"]):
        code, report = _run(["verify", out, "--tol", tol, *extra], capsys)
        assert code == 2
        assert report["error"]["kind"] == "usage"
        assert "--tol" in report["error"]["message"]


def test_verify_strong_and_frechet_refuse_a_near_strong_table_alike(tmp_path, capsys):
    # (3, 4, 5) raised to 1.0005 times its cheapest other chain: a 5e-4 excess
    # that both strong deciders see, since both read the one tolerance
    d = random_strong_metric(6, 3, 3).payload
    i = kmetrics.simplex_index(6, (3, 4, 5))
    target = kmetrics.apply_operator(kmetrics.boundary_operator(6, 2),
                                     kmetrics.indicator_chain(6, (3, 4, 5)))
    others = np.delete(np.arange(d.values.size), i)
    cost, _ = kmetrics.min_bounding_chain(d.values, target, mask=others)
    values = d.values.copy()
    values[i] = 1.0005 * cost
    near = str(tmp_path / "near.json")
    write_kmetric(kmetrics.KMetric(n=6, k=3, values=values), near)
    code, report = _run(["verify", near, "--strong"], capsys)
    assert code == 1
    assert report["results"]["strong"] is False
    assert report["results"]["witness"]["s"] == [3, 4, 5]
    code, report = _run(["embed", "frechet", near, "-o", str(tmp_path / "F.json")], capsys)
    assert code == 1
    assert report["error"]["kind"] == "verification"
    assert report["error"]["simplex"] == [3, 4, 5]


# --- min-chain ---------------------------------------------------------------


def test_min_chain_on_subdivision(tmp_path, capsys):
    cx = str(tmp_path / "K.json")
    chain_out = str(tmp_path / "alpha.json")
    write_complex(_subdivision_complex(), cx)
    code, report = _run(
        ["min-chain", cx, "--target", "0,1,2", "-o", chain_out], capsys
    )
    assert code == 0
    assert report["results"]["cost"] == pytest.approx(7.0, abs=1e-9)
    assert len(report["results"]["chain_support"]) == 7
    chain = read_chain(chain_out)
    assert (chain.n, chain.dim) == (6, 2)
    assert np.count_nonzero(chain.coeffs) == 7


def test_min_chain_rejects_wrong_target_arity(tmp_path, capsys):
    cx = str(tmp_path / "K.json")
    write_complex(_subdivision_complex(), cx)
    code, report = _run(["min-chain", cx, "--target", "0,1"], capsys)
    assert code == 2
    assert report["error"]["kind"] == "usage"
    assert "3 vertices" in report["error"]["message"]


def test_min_chain_refuses_a_target_it_cannot_read(tmp_path, capsys):
    cx = str(tmp_path / "K.json")
    write_complex(_subdivision_complex(), cx)
    for target, message in [("1,a", "invalid vertex list: '1,a'"),
                            ("1", "target needs at least two vertices")]:
        code, report = _run(["min-chain", cx, "--target", target], capsys)
        assert (code, report) == (2, {"error": {"kind": "usage", "message": message}})


def test_a_solver_past_its_pivot_limit_exits_3(tmp_path, capsys, monkeypatch):
    cx = str(tmp_path / "K.json")
    write_complex(_subdivision_complex(), cx)
    monkeypatch.setattr(kmetrics.lp, "_MAX_PIVOTS", 1)
    code, report = _run(["min-chain", cx, "--target", "0,1,2"], capsys)
    message = "pivot limit exceeded; dual simplex did not terminate"
    assert (code, report) == (3, {"error": {"kind": "solver", "message": message}})


def _python(args, cwd=None, **env):
    """Run a new interpreter on args with this package importable.

    Each env entry sets a variable, or removes it when its value is None.
    """
    package_root = str(Path(kmetrics.__file__).resolve().parent.parent)
    full = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    for name, value in env.items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=full, cwd=cwd, timeout=120)


def test_min_chain_and_gen_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (numpy 2.4), about 30 ms of every short process
    cx = str(tmp_path / "K.json")
    write_complex(_subdivision_complex(), cx)
    script = (
        "import sys\n"
        "from kmetrics import cli\n"
        f"assert cli.main(['min-chain', {cx!r}, '--target', '0,1,2']) == 0\n"
        f"assert cli.main(['gen', 'random-strong', '--n', '6', '--k', '3', '--seed', '1',"
        f" '-o', {str(tmp_path / 'd.json')!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    proc = _python(["-c", script])
    assert proc.returncode == 0, proc.stderr


# the modules every command loads, then each command with the others it loads
CLI_MODULES = {"cli", "fileio", "simplicial"}
COMMAND_MODULES = [
    ("min-chain K.json --target 0,1,2", {"lp"}),
    ("verify d.json", {"metric"}),
    ("verify d.json --strong", {"lp", "metric"}),
    ("eval F.json --p inf", {"coboundary", "metric"}),
    ("embed jl F.json --eps 0.5 --seed 1 -o J.json", {"coboundary", "metric"}),
    ("gen subdivided-triangle -o g.json", {"corpus", "metric"}),
    ("hypertree K.json --to-l1", {"coboundary", "hypertree"}),
    ("volume P.json --k 3", {"metric", "volume"}),
    ("apex d.json", {"apex", "metric"}),
    ("embed frechet d.json -o F2.json", {"coboundary", "lp", "metric"}),
    ("volume P.json --k 3 --to-coboundary", {"coboundary", "volume"}),
    ("apex F.json", {"apex", "coboundary"}),
]


def _write_inputs(d, n, vertices, points):
    """A strong n-vertex table, its Frechet chains, a hypertree and a cloud, in d."""
    table = random_strong_metric(n, 3, 1).payload
    write_kmetric(table, str(d / "d.json"))
    write_chain_matrix(kmetrics.frechet_embed(table), str(d / "F.json"))
    write_complex(kmetrics.random_2hypertree(vertices, 1), str(d / "K.json"))
    write_cloud(PointCloud(points=np.random.default_rng(0).normal(size=(points, 3))),
                str(d / "P.json"))
    return d


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("inputs"), 5, 6, 6)


@pytest.mark.parametrize("command, extra", COMMAND_MODULES)
def test_each_command_loads_only_its_modules(inputs_dir, command, extra):
    # every src module is loaded by one of these commands, and none imports dataclasses
    script = (
        "import sys\n"
        "from kmetrics import cli\n"
        f"assert cli.main({command.split()!r}) == 0\n"
        "assert 'dataclasses' not in sys.modules\n"
        "print(*sorted(m for m in sys.modules if m.startswith('kmetrics.')))\n"
    )
    proc = _python(["-c", script], cwd=inputs_dir)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert loaded == sorted(f"kmetrics.{m}" for m in CLI_MODULES | extra)


def test_the_garbage_of_a_command_without_gc_does_not_grow_with_its_input(tmp_path):
    # a CLI process runs with the cyclic collector off: what a command leaves
    # unreachable must be bounded, the same on a larger input
    script = (
        "import contextlib, gc, io, sys\n"
        "gc.disable()\n"
        "from kmetrics import cli\n"
        "counts = []\n"
        f"for argv in {[command.split() for command, _ in COMMAND_MODULES]!r}:\n"
        "    gc.collect()\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    counts.append(gc.collect())\n"
        "print(*counts)\n"
    )
    counts = []
    for size in [(5, 6, 6), (8, 10, 14)]:
        d = tmp_path / "x".join(map(str, size))
        d.mkdir()
        proc = _python(["-c", script], cwd=_write_inputs(d, *size))
        assert proc.returncode == 0, proc.stderr
        counts.append([int(c) for c in proc.stdout.split()])
    small, large = counts
    assert len(small) == len(COMMAND_MODULES)
    assert large == small


_NUMPY_PROBE = """
import gc, runpy, sys

class Probe:  # reports whether the collector runs when numpy is first looked up
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print("numpy loads with gc", gc.isenabled(), file=sys.stderr)

sys.meta_path.insert(0, Probe())
sys.argv = ["kmetrics", "gen", "subdivided-triangle", "-o", "g.json"]
"""
_GC_AT_NUMPY = _NUMPY_PROBE + 'runpy.run_module("kmetrics", run_name="__main__")\n'


def test_python_m_kmetrics_runs_without_gc_and_an_import_leaves_it_on(tmp_path):
    proc = _python(["-c", _GC_AT_NUMPY], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["numpy loads with gc False"]
    assert json.loads(proc.stdout)["command"] == "gen"
    proc = _python(["-c", "import gc, kmetrics.cli; print(gc.isenabled())"])
    assert proc.stdout.split() == ["True"]


def _script() -> tuple:
    """(module, function) that pyproject.toml's kmetrics script runs."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tuple(tomllib.load(fh)["project"]["scripts"]["kmetrics"].split(":"))


def test_the_kmetrics_script_runs_python_m_kmetrics_and_loads_numpy_without_gc(tmp_path):
    module, function = _script()
    assert module == "kmetrics.__main__"
    main_py = ast.parse(Path(kmetrics.__file__).with_name("__main__.py").read_text())
    assert ast.unparse(main_py.body[-1]) == f"if __name__ == '__main__':\n    {function}()"
    # launched as the console script launches it
    proc = _python(["-c", _NUMPY_PROBE + f"from {module} import {function}\n{function}()\n"],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["numpy loads with gc False"]
    assert json.loads(proc.stdout)["command"] == "gen"


# --- embed / eval ------------------------------------------------------------


def test_frechet_then_eval_recovers_the_table(tmp_path, capsys):
    metric = str(tmp_path / "d.json")
    chains = str(tmp_path / "F.json")
    table = str(tmp_path / "back.json")
    _run(["gen", "random-strong", "--n", "6", "--k", "3", "--seed", "11",
          "-o", metric], capsys)
    code, report = _run(["embed", "frechet", metric, "-o", chains], capsys)
    assert code == 0
    assert report["command"] == "embed frechet"
    assert report["results"]["columns"] == math.comb(6, 3)
    code, report = _run(["eval", chains, "--p", "inf", "-o", table], capsys)
    assert code == 0
    original = read_kmetric(metric)
    recovered = read_kmetric(table)
    assert np.allclose(recovered.values, original.values, rtol=1e-6, atol=1e-9)


def test_frechet_refuses_a_non_strong_table(tmp_path, capsys):
    metric = str(tmp_path / "d.json")
    chains = str(tmp_path / "F.json")
    _run(["gen", "subdivided-triangle", "-o", metric], capsys)
    code, report = _run(["embed", "frechet", metric, "-o", chains], capsys)
    assert code == 1
    err = report["error"]
    assert err["kind"] == "verification"
    assert err["simplex"] == [0, 1, 2]
    assert err["value"] == 10.0
    assert err["achieved"] == pytest.approx(7.0, abs=1e-6)


def test_jl_projection_reports_target_dimension(tmp_path, capsys):
    metric = str(tmp_path / "d.json")
    chains = str(tmp_path / "F.json")
    small = str(tmp_path / "G.json")
    _run(["gen", "random-strong", "--n", "6", "--k", "3", "--seed", "11",
          "-o", metric], capsys)
    _run(["embed", "frechet", metric, "-o", chains], capsys)
    code, report = _run(
        ["embed", "jl", chains, "--eps", "0.5", "--seed", "2", "-o", small],
        capsys,
    )
    assert code == 0
    results = report["results"]
    assert results["columns_before"] == 20
    assert results["columns_after"] == jl_target_dim(6, 3, 0.5)
    assert results["distortion"] < 0.5
    assert read_chain_matrix(small).m == results["columns_after"]


@pytest.mark.parametrize(
    "flags, kind, message",
    [
        (["--cprime", "inf"], "usage", "--cprime"),
        (["--cprime", "nan"], "usage", "--cprime"),
        (["--cprime", "0"], "usage", "--cprime"),
        (["--cprime", "-8"], "usage", "--cprime"),
        (["--eps", "1e-4"], "input", "budget"),
        (["--eps", "1e-200"], "input", "finite"),
    ],
    ids=["cprime-inf", "cprime-nan", "cprime-zero", "cprime-negative", "tiny-eps",
         "eps-squared-underflows"],
)
def test_jl_refuses_a_projection_size_before_allocating(tmp_path, capsys, flags, kind,
                                                        message):
    # the JL constant is fixed, so --cprime is no option; eps 1e-4 asks for
    # about 4.3e9 columns at n=6, and eps 1e-200 squares to zero, so no
    # dimension is finite; each refusal comes first
    metric = str(tmp_path / "d.json")
    chains = str(tmp_path / "F.json")
    out = tmp_path / "G.json"
    _run(["gen", "random-strong", "--n", "6", "--k", "3", "--seed", "11",
          "-o", metric], capsys)
    _run(["embed", "frechet", metric, "-o", chains], capsys)
    argv = ["embed", "jl", chains, "--eps", "0.5", *flags, "--seed", "2", "-o", str(out)]
    code, report = _run(argv, capsys)
    assert code == 2
    assert report["error"]["kind"] == kind
    assert message in report["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("p", ["320", "400", "800"])
def test_l2lp_refuses_a_p_without_a_finite_normaliser(tmp_path, capsys, p):
    # 2**(p/2) Gamma((p+1)/2) is inf from p = 302 and raises from p = 343, and
    # at p = 800 the column count underflows to zero; each is an input error
    metric = str(tmp_path / "d.json")
    chains = str(tmp_path / "F.json")
    out = tmp_path / "G.json"
    _run(["gen", "random-strong", "--n", "5", "--k", "3", "--seed", "1", "-o", metric], capsys)
    _run(["embed", "frechet", metric, "-o", chains], capsys)
    code, report = _run(["embed", "l2lp", chains, "--p", p, "--eps", "0.5", "--seed", "1",
                         "-o", str(out)], capsys)
    assert code == 2
    assert report["error"]["kind"] == "input"
    assert "normaliser" in report["error"]["message"]
    assert not out.exists()


def test_eval_at_a_large_p_keeps_the_table_finite(tmp_path, capsys):
    # entries up to 1.93, so |x|**1100 overflows unless each row is scaled first
    metric = str(tmp_path / "d.json")
    chains = str(tmp_path / "F.json")
    table = str(tmp_path / "T.json")
    _run(["gen", "random-strong", "--n", "5", "--k", "3", "--seed", "1", "-o", metric], capsys)
    _run(["embed", "frechet", metric, "-o", chains], capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = _run(["eval", chains, "--p", "1100", "-o", table], capsys)
    assert code == 0
    F = read_chain_matrix(chains)
    want = scaled_row_norms(coboundary_operator(F.n, F.k - 2).matrix @ F.data, 1100.0)
    assert np.allclose(read_kmetric(table).values, want, rtol=1e-12, atol=0.0)


def test_l2lp_projection_writes_the_renormed_columns(tmp_path, capsys):
    metric = str(tmp_path / "d.json")
    chains = str(tmp_path / "F.json")
    renormed = str(tmp_path / "G.json")
    _run(["gen", "random-strong", "--n", "6", "--k", "3", "--seed", "11",
          "-o", metric], capsys)
    _run(["embed", "frechet", metric, "-o", chains], capsys)
    code, report = _run(
        ["embed", "l2lp", chains, "--p", "1", "--eps", "0.5", "--seed", "7",
         "-o", renormed],
        capsys,
    )
    assert code == 0
    assert report["results"]["columns_after"] == 80
    G = read_chain_matrix(renormed)
    d1 = eval_coboundary_metric(G, NormSpec(1))
    d2 = eval_coboundary_metric(read_chain_matrix(chains), NormSpec(2))
    ratio = d1.values[d2.values > 0] / d2.values[d2.values > 0]
    assert ratio.max() <= 1.5 and ratio.min() >= 0.5


@pytest.mark.parametrize("p, columns", [("2", 20), ("40", 1)])
def test_an_embedding_over_its_eps_exits_1_and_writes_nothing(tmp_path, capsys, p, columns):
    metric, chains = str(tmp_path / "d.json"), str(tmp_path / "F.json")
    _run(["gen", "random-strong", "--n", "5", "--k", "3", "--seed", "1", "-o", metric], capsys)
    _run(["embed", "frechet", metric, "-o", chains], capsys)
    code, report = _run(["embed", "l2lp", chains, "--p", p, "--eps", "0.5", "--seed", "1",
                         "-o", str(tmp_path / "G.json")], capsys)
    assert code == 1
    assert report["results"]["columns_after"] == columns
    assert report["results"]["distortion"] > 0.5
    assert report["outputs"] == {}
    assert not (tmp_path / "G.json").exists()


def test_eval_reads_infinity_in_any_spelling(tmp_path, capsys):
    metric = str(tmp_path / "d.json")
    chains = str(tmp_path / "F.json")
    _run(["gen", "random-strong", "--n", "5", "--k", "3", "--seed", "2", "-o", metric], capsys)
    _run(["embed", "frechet", metric, "-o", chains], capsys)
    tables = []
    for i, p in enumerate(["INF", " Infinity ", "inf"]):
        table = tmp_path / f"back{i}.json"
        code, _ = _run(["eval", chains, "--p", p, "-o", str(table)], capsys)
        assert code == 0
        tables.append(table.read_bytes())
    assert tables[0] == tables[1] == tables[2]
    code, report = _run(["eval", chains, "--p", "x"], capsys)
    assert code == 2
    assert report["error"]["kind"] == "usage"
    assert "invalid norm exponent" in report["error"]["message"]


def test_bad_exponent_and_seed_are_input_errors(tmp_path, capsys):
    metric = str(tmp_path / "d.json")
    chains = str(tmp_path / "F.json")
    _run(["gen", "random-strong", "--n", "5", "--k", "2", "--seed", "0",
          "-o", metric], capsys)
    _run(["embed", "frechet", metric, "-o", chains], capsys)
    code, report = _run(["eval", chains, "--p", "0.5"], capsys)
    assert code == 2
    assert report["error"]["kind"] == "input"
    assert "at least 1" in report["error"]["message"]
    code, report = _run(["embed", "jl", chains, "--eps", "0.5", "--seed", "-1",
                         "-o", str(tmp_path / "G.json")], capsys)
    assert code == 2
    assert report["error"]["kind"] == "input"


# --- volume ------------------------------------------------------------------


def test_volume_table_and_coboundary_routes(tmp_path, capsys):
    cloud_path = str(tmp_path / "P.json")
    rng = np.random.default_rng(5)
    write_cloud(PointCloud(points=rng.standard_normal((5, 3))), cloud_path)
    code, report = _run(["volume", cloud_path, "--k", "3"], capsys)
    assert code == 0
    assert report["results"]["points"] == 5
    assert report["results"]["min_volume"] >= 0

    chains = str(tmp_path / "F.json")
    code, report = _run(
        ["volume", cloud_path, "--k", "3", "--to-coboundary", "-o", chains],
        capsys,
    )
    assert code == 0
    assert report["results"]["columns"] == math.comb(3, 2)
    assert read_chain_matrix(chains).k == 3


# --- apex --------------------------------------------------------------------


def test_apex_on_a_table(tmp_path, capsys):
    metric = str(tmp_path / "d.json")
    bigger = str(tmp_path / "up.json")
    _run(["gen", "random-strong", "--n", "5", "--k", "3", "--seed", "3",
          "-o", metric], capsys)
    code, report = _run(["apex", metric, "-o", bigger], capsys)
    assert code == 0
    assert report["results"] == {"kind": "kmetric", "n": 6, "k": 4, "apex": 5}
    up = read_kmetric(bigger)
    assert (up.n, up.k) == (6, 4)


def test_apex_on_chains(tmp_path, capsys):
    chains = str(tmp_path / "F.json")
    bigger = str(tmp_path / "up.json")
    _run(["gen", "four-point-equilateral", "-o", chains], capsys)
    code, report = _run(["apex", chains, "-o", bigger], capsys)
    assert code == 0
    assert report["results"] == {"kind": "chain_matrix", "n": 5, "k": 4, "apex": 4}
    assert report["outputs"] == {"chains": bigger}
    up = read_chain_matrix(bigger)
    assert (up.n, up.k, up.m) == (5, 4, 2)


def test_apex_rejects_a_point_cloud(tmp_path, capsys):
    cloud_path = str(tmp_path / "P.json")
    write_cloud(PointCloud(points=np.eye(3)), cloud_path)
    code, report = _run(["apex", cloud_path], capsys)
    assert code == 2
    assert report["error"]["kind"] == "input"
    assert "not cloud" in report["error"]["message"]


# --- hypertree ---------------------------------------------------------------


def test_hypertree_report_and_l1_realisation(tmp_path, capsys):
    cx = str(tmp_path / "T.json")
    chains = str(tmp_path / "F.json")
    write_complex(random_spanning_tree(6, seed=1), cx)
    code, report = _run(["hypertree", cx, "--to-l1", "-o", chains], capsys)
    assert code == 0
    results = report["results"]
    assert results["hypertree"] is True
    assert results["facets"] == 5 and results["facet_rank"] == 5
    assert read_chain_matrix(chains).n == 6


def test_hypertree_cycle_fails_verification(tmp_path, capsys):
    cycle = WeightedComplex(
        n=4,
        k=2,
        facets=((0, 1), (0, 3), (1, 2), (2, 3)),
        weights=np.ones(4),
    )
    cx = str(tmp_path / "C.json")
    write_complex(cycle, cx)
    code, report = _run(["hypertree", cx], capsys)
    assert code == 1
    assert report["results"]["hypertree"] is False

    code, report = _run(["hypertree", cx, "--to-l1"], capsys)
    assert code == 1
    assert report["error"]["kind"] == "verification"
    assert "not a hypertree" in report["error"]["message"]


def test_hypertree_to_l1_takes_no_svd(tmp_path, capsys, monkeypatch):
    # the solve decides: an exactly singular block (vertex 3 on no edge) is a
    # verification failure, not the ValueError that LinAlgError also is
    def no_svd(*args, **kwargs):
        raise AssertionError("hypertree --to-l1 took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "matrix_rank", no_svd)
    tree, cycle = str(tmp_path / "T.json"), str(tmp_path / "C.json")
    write_complex(random_spanning_tree(6, seed=1), tree)
    write_complex(WeightedComplex(n=4, k=2, facets=((0, 1), (0, 2), (1, 2)), weights=np.ones(3)),
                  cycle)
    code, report = _run(["hypertree", tree, "--to-l1", "-o", str(tmp_path / "F.json")], capsys)
    assert code == 0
    assert report["results"]["hypertree"] is True
    assert report["results"]["facet_rank"] == 5

    code, report = _run(["hypertree", cycle, "--to-l1", "-o", str(tmp_path / "G.json")], capsys)
    assert code == 1
    assert report["error"]["kind"] == "verification"
    assert report["error"]["message"].startswith("not a hypertree")
    assert not (tmp_path / "G.json").exists()


def test_hypertree_too_large_for_memory_is_an_input_error(tmp_path, capsys):
    # the 19,701 triangles through vertex 0 at n=200: the kept block would take 3.1 GB
    facets = tuple((0, i, j) for i, j in combinations(range(1, 200), 2))
    cx = str(tmp_path / "star.json")
    write_complex(WeightedComplex(n=200, k=3, facets=facets, weights=np.ones(len(facets))), cx)
    out = tmp_path / "F.json"
    for argv in (["hypertree", cx], ["hypertree", cx, "--to-l1", "-o", str(out)]):
        code, report = _run(argv, capsys)
        assert code == 2
        assert report["error"]["kind"] == "input"
        assert "budget" in report["error"]["message"]
    assert not out.exists()


# --- error envelope ----------------------------------------------------------


def test_missing_file_is_an_input_error(tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    code, report = _run(["verify", path], capsys)
    assert code == 2
    err = report["error"]
    assert err["kind"] == "input"
    assert err["file"] == path
    assert "cannot read file" in err["message"]


def test_undecodable_file_is_an_input_error_naming_it(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_bytes(b'{"n": 3, "k": 2, "values": [\xff]}')
    code, report = _run(["verify", str(path)], capsys)
    assert code == 2
    err = report["error"]
    assert err["kind"] == "input"
    assert err["file"] == str(path)
    assert err["message"].startswith("not UTF-8 text: ")


def test_schema_error_names_field(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text('{"n": 3, "k": 2, "values": [{"s": [0, 1], "d": 1.0}]}',
                    encoding="utf-8")
    code, report = _run(["verify", str(path)], capsys)
    assert code == 2
    assert report["error"]["field"] == "values"
    assert "missing" in report["error"]["message"]


def test_number_too_large_for_a_float_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "d.json"
    entries = [{"s": [0, 1], "d": 1.0}, {"s": [0, 2], "d": 1.0}, {"s": [1, 2], "d": 10**400}]
    path.write_text(json.dumps({"n": 3, "k": 2, "values": entries}), encoding="utf-8")
    code, report = _run(["verify", str(path)], capsys)
    assert code == 2
    assert report["error"]["kind"] == "input"
    assert report["error"]["field"] == "values[2].d"


def test_bare_invocation_is_a_usage_error(capsys):
    # neither --jobs nor gen's --high is an option
    for argv in ([], ["--jobs", "2", "verify", "d.json"],
                 ["gen", "subdivided-triangle", "--high", "8.5", "-o", "d.json"]):
        code, report = _run(argv, capsys)
        assert code == 2
        assert report["error"]["kind"] == "usage"


def test_gen_requires_shape_arguments(tmp_path, capsys):
    out = str(tmp_path / "d.json")
    code, report = _run(["gen", "discrete", "-o", out], capsys)
    assert code == 2
    assert report["error"]["kind"] == "usage"
    assert "--n and --k" in report["error"]["message"]
    code, report = _run(["gen", "random-strong", "--n", "5", "--k", "0", "-o", out], capsys)
    assert code == 2
    assert report["error"]["kind"] == "input"
    assert "arity must be at least 2" in report["error"]["message"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "d.json", "--exhaustive"], "--exhaustive needs --strong"),
    (["hypertree", "K.json", "-o", "out.json"], "--output needs --to-l1"),
    (["gen", "subdivided-triangle", "--n", "5", "-o", "out.json"],
     "subdivided-triangle does not read --n"),
    (["gen", "discrete", "--n", "5", "--k", "3", "--points", "P.json", "-o", "out.json"],
     "discrete does not read --points"),
    (["gen", "perimeter", "--points", "P.json", "--k", "3", "-o", "out.json"],
     "perimeter does not read --k"),
])
def test_an_option_its_mode_ignores_is_refused(inputs_dir, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(inputs_dir)
    assert _run(argv, capsys) == (2, {"error": {"kind": "usage", "message": message}})
    assert not (inputs_dir / "out.json").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "subdivided-triangle", "--seed", "5"],
    ["gen", "discrete", "--n", "5", "--k", "3", "--seed", "9"],
    ["gen", "perimeter", "--points", "P.json", "--seed", "0"],
])
def test_gen_refuses_seed_where_its_maker_reads_none(inputs_dir, capsys, monkeypatch, argv):
    monkeypatch.chdir(inputs_dir)
    message = f"{argv[1]} does not read --seed"
    assert _run([*argv, "-o", "out.json"], capsys) == (
        2, {"error": {"kind": "usage", "message": message}})
    assert not (inputs_dir / "out.json").exists()


def test_gen_random_strong_without_seed_draws_seed_zero(tmp_path, capsys):
    out, zero = tmp_path / "d.json", tmp_path / "zero.json"
    assert _run(["gen", "random-strong", "--n", "6", "--k", "3", "-o", str(out)], capsys)[0] == 0
    argv = ["gen", "random-strong", "--n", "6", "--k", "3", "--seed", "0", "-o", str(zero)]
    assert _run(argv, capsys)[0] == 0
    assert out.read_bytes() == zero.read_bytes()


def test_gen_random_strong_refuses_n_below_k_as_gen_discrete_does(tmp_path, capsys):
    out = str(tmp_path / "d.json")
    strong = _run(["gen", "random-strong", "--n", "2", "--k", "3", "-o", out], capsys)
    discrete = _run(["gen", "discrete", "--n", "2", "--k", "3", "-o", out], capsys)
    message = "need n >= k, got n=2, k=3"
    assert strong == discrete == (2, {"error": {"kind": "input", "message": message}})


def test_gen_perimeter_and_max_side_read_their_cloud(tmp_path, capsys):
    out, cloud = str(tmp_path / "d.json"), str(tmp_path / "P.json")
    code, report = _run(["gen", "perimeter", "-o", out], capsys)
    assert (code, report) == (2, {"error": {"kind": "usage",
                                            "message": "perimeter needs --points"}})
    # every triple of a unit square's corners has sides 1, 1 and sqrt(2)
    write_cloud(PointCloud(points=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), cloud)
    for name, value in [("perimeter", 2.0 + math.sqrt(2.0)), ("max-side", math.sqrt(2.0))]:
        code, report = _run(["gen", name, "--points", cloud, "-o", out], capsys)
        assert code == 0
        assert list(report["inputs"]) == [cloud]
        assert report["results"] == {"name": name, "expected": {"weak": True}}
        assert np.allclose(read_kmetric(out).values, value, rtol=1e-15, atol=0.0)


def test_gen_keys_expected_values_by_tuple(tmp_path, capsys):
    out = str(tmp_path / "F.json")
    code, report = _run(["gen", "four-point-equilateral", "-o", out], capsys)
    assert code == 0
    assert report["results"]["expected"] == {
        "norm_p": 2, "values": {"0,1,2": 0.0, "0,1,3": 1.0, "0,2,3": 1.0, "1,2,3": 1.0},
        "weak": True, "strong": True, "volume_realizable": False}
    code, report = _run(["gen", "six-point-apex-discrete", "-o", out], capsys)
    assert code == 0
    expected = report["results"]["expected"]
    assert expected["values"] == {
        ",".join(map(str, s)): float(s[-1] == 5) for s in combinations(range(6), 4)}
    # the written chains evaluate to the values the report names
    table = eval_coboundary_metric(read_chain_matrix(out), NormSpec(expected["norm_p"]))
    assert table.values.tolist() == list(expected["values"].values())


def test_gen_discrete_over_the_simplex_limit_is_an_input_error(tmp_path, capsys):
    # C(100000, 3) values would take 1.18 PiB; the count is refused first
    out = tmp_path / "d.json"
    code, report = _run(["gen", "discrete", "--n", "100000", "--k", "3", "-o", str(out)],
                        capsys)
    assert code == 2
    assert report["error"]["kind"] == "input"
    assert "refusing to enumerate" in report["error"]["message"]
    assert not out.exists()


def test_a_failed_write_is_an_input_error_with_no_outputs(tmp_path, capsys):
    metric, chains, cx = (str(tmp_path / name) for name in ("s.json", "F.json", "K.json"))
    _run(["gen", "random-strong", "--n", "5", "--k", "3", "--seed", "4", "-o", metric],
         capsys)
    _run(["embed", "frechet", metric, "-o", chains], capsys)
    write_complex(_subdivision_complex(), cx)
    out = str(tmp_path / "missing" / "out.json")
    for argv in (["eval", chains, "--p", "inf", "-o", out],  # a table
                 ["embed", "frechet", metric, "-o", out],  # a chain collection
                 ["min-chain", cx, "--target", "0,1,2", "-o", out]):  # a chain
        code = main(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 2, argv
        assert list(report) == ["error"], argv
        assert report["error"]["kind"] == "input", argv
        assert captured.err == ""


def test_cone_chains_too_large_for_memory_are_an_input_error(tmp_path, capsys, monkeypatch):
    # 40 points in R^40 at k=4: 9,880 triangles x 9,880 axis sets would take 1.6 GB with
    # ChainMatrix's copy. np.empty refuses anything large, so a build before the check fails.
    empty = np.empty

    def small_only(shape, *args, **kwargs):
        if np.prod(shape) > 2**20:
            raise AssertionError("cone chains allocated before the byte budget")
        return empty(shape, *args, **kwargs)

    cloud = str(tmp_path / "P.json")
    write_cloud(PointCloud(np.random.default_rng(3).normal(size=(40, 40))), cloud)
    monkeypatch.setattr(np, "empty", small_only)
    out = tmp_path / "F.json"
    code, report = _run(["volume", cloud, "--k", "4", "--to-coboundary", "-o", str(out)], capsys)
    assert code == 2
    assert report["error"]["kind"] == "input"
    assert "budget" in report["error"]["message"]
    assert not out.exists()


def test_strong_check_too_large_for_memory_is_an_input_error(tmp_path, capsys):
    # 280,840 tuples pass MAX_SIMPLICES; the bounding-chain LP would not fit
    table = str(tmp_path / "d.json")
    assert _run(["gen", "discrete", "--n", "120", "--k", "3", "-o", table], capsys)[0] == 0
    code, report = _run(["verify", table, "--strong"], capsys)
    assert code == 2
    assert report["error"]["kind"] == "input"
    assert "budget" in report["error"]["message"]


# --- the process: BLAS threads and exit without teardown ---------------------

_THREADS = (
    "import os, kmetrics.cli, numpy\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'),"
    " len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1)\n"
)


def test_the_cli_runs_blas_on_one_thread_by_default():
    proc = _python(["-c", _THREADS], OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None)
    assert proc.returncode == 0, proc.stderr
    blas, omp, threads = proc.stdout.split()
    assert (blas, omp) == ("1", "None")
    if threads == "-1":
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == "1"


@pytest.mark.parametrize("preset, expected", [
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None}, ["3", "None"]),
    ({"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}, ["None", "2"]),
])
def test_a_thread_setting_of_the_user_wins(preset, expected):
    proc = _python(["-c", _THREADS], **preset)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:2] == expected


def _kmetrics(cwd, *argv):
    """python -m kmetrics argv, with stdout block-buffered as it is by default."""
    return _python(["-m", "kmetrics", *argv], cwd=cwd, PYTHONUNBUFFERED=None)


# spawns python -m kmetrics argv with stdout a pipe whose read end it closes at
# once, so the report meets a broken pipe; prints the exit code and stderr
_CLOSED_STDOUT = """
import subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "kmetrics", *sys.argv[1:]],
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
proc.stdout.close()
print(proc.wait(timeout=120), repr(proc.stderr.read()))
"""


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize("argv, code", [
    (["gen", "subdivided-triangle", "-o", "d.json"], 0),
    (["gen", "subdivided-triangle", "--n", "5", "-o", "d.json"], 2),
])
def test_a_closed_stdout_keeps_the_exit_code(tmp_path, unbuffered, argv, code):
    # unbuffered, print meets the broken pipe; block-buffered, the final flush does
    proc = _python(["-c", _CLOSED_STDOUT, *argv], cwd=tmp_path, PYTHONUNBUFFERED=unbuffered)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(code), "b''"]
    assert (tmp_path / "d.json").exists() == (code == 0)


def test_a_report_larger_than_a_pipe_buffer_arrives_whole(tmp_path):
    gen = _kmetrics(tmp_path, "gen", "random-strong", "--n", "16", "--k", "3", "--seed", "1",
                    "-o", "d.json")
    assert gen.returncode == 0, gen.stderr
    assert json.loads(gen.stdout)["outputs"] == {"instance": "d.json"}
    assert read_kmetric(str(tmp_path / "d.json")).n == 16

    proc = _kmetrics(tmp_path, "verify", "d.json", "--strong", "--exhaustive")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.encode()) > 65536  # the default pipe buffer on Linux
    assert proc.stdout.endswith("}\n")
    assert json.loads(proc.stdout)["results"]["strong"] is True


def test_the_process_keeps_its_exit_codes(tmp_path):
    for argv, code, kind in [
        (["gen", "subdivided-triangle", "-o", "d.json"], 0, "gen"),
        (["verify", "d.json"], 0, "verify"),
        (["verify", "d.json", "--strong"], 1, "verify"),
        (["verify"], 2, "usage"),
    ]:
        proc = _kmetrics(tmp_path, *argv)
        report = json.loads(proc.stdout)
        assert proc.returncode == code, argv
        assert (report["error"]["kind"] if code == 2 else report["command"]) == kind


def test_an_exception_out_of_main_still_ends_in_a_traceback():
    proc = _python(["-c", "import kmetrics.cli as c; c.main = lambda: 1 / 0\n"
                          "from kmetrics.__main__ import entry; entry()"])
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "ZeroDivisionError" in proc.stderr


# --- no warning on stderr -----------------------------------------------------


def _extreme_inputs(d):
    """Files whose runs overflow inside numpy: a chain file, a cloud and a 1e308 table."""
    (d / "big.json").write_text('{"n":3,"k":3,"m":1,"data":[1e308,-1e308,1e308]}')
    rng = np.random.default_rng(3)
    write_cloud(PointCloud(points=rng.uniform(-1e200, 1e200, size=(6, 3))), str(d / "far.json"))
    write_cloud(PointCloud(points=1e-90 * rng.normal(size=(6, 3))), str(d / "near.json"))
    write_kmetric(kmetrics.KMetric(n=4, k=3, values=np.full(4, 1e308)), str(d / "huge.json"))


# (argv, exit code): every command on the corpus, then the extreme inputs
QUIET_RUNS = [
    *[(["gen", name, "-o", f"{name}.json"], 0) for name in
      ("subdivided-triangle", "four-point-equilateral", "six-point-apex-discrete")],
    (["gen", "discrete", "--n", "6", "--k", "3", "-o", "discrete.json"], 0),
    (["gen", "random-strong", "--n", "6", "--k", "3", "-o", "s.json"], 0),
    (["gen", "perimeter", "--points", "P.json", "-o", "perimeter.json"], 0),
    (["gen", "max-side", "--points", "P.json", "-o", "max-side.json"], 0),
    (["verify", "subdivided-triangle.json"], 0),
    (["verify", "subdivided-triangle.json", "--strong"], 1),
    (["verify", "s.json", "--strong", "--exhaustive"], 0),
    (["verify", "perimeter.json", "--strong"], 0),
    (["min-chain", "K.json", "--target", "0,1,2", "-o", "chain.json"], 0),
    (["embed", "frechet", "s.json", "-o", "F6.json"], 0),
    (["embed", "jl", "F6.json", "--eps", "0.5", "--seed", "1", "-o", "J.json"], 0),
    (["embed", "l2lp", "F6.json", "--p", "1", "--eps", "0.9", "--seed", "1", "-o", "L.json"], 0),
    *[(["eval", "F6.json", "--p", p], 0) for p in ("1", "2", "3", "inf")],
    (["eval", "four-point-equilateral.json", "--p", "2"], 0),
    (["volume", "P.json", "--k", "3"], 0),
    (["volume", "P.json", "--k", "3", "--to-coboundary"], 0),
    (["apex", "s.json"], 0),
    (["apex", "six-point-apex-discrete.json"], 0),
    (["hypertree", "K.json"], 0),
    (["hypertree", "K.json", "--to-l1"], 0),
    *[(["eval", "big.json", "--p", p], 2) for p in ("1", "2", "3", "inf")],
    (["embed", "jl", "big.json", "--eps", "0.5", "--seed", "1", "-o", "big-J.json"], 2),
    (["volume", "far.json", "--k", "3"], 2),
    (["volume", "far.json", "--k", "3", "--to-coboundary"], 2),
    (["gen", "perimeter", "--points", "far.json", "-o", "far-perimeter.json"], 0),
    (["gen", "max-side", "--points", "far.json", "-o", "far-max-side.json"], 0),
    (["volume", "near.json", "--k", "3"], 0),
    (["verify", "huge.json", "--strong", "--exhaustive"], 0),
]


def test_no_command_warns_on_the_corpus_or_on_extreme_input(tmp_path, capsys, monkeypatch):
    # numpy's RuntimeWarnings go to stderr before the report; the records refuse
    # what is not finite, so every run is quiet and keeps its exit code
    _write_inputs(tmp_path, 6, 6, 6)
    _extreme_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv, code in QUIET_RUNS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = main(argv)
        capsys.readouterr()
        assert (got, [str(w.message) for w in caught]) == (code, []), argv


# --- the one-command parser --------------------------------------------------


def _argvs_in_this_file() -> list:
    """Every list literal here that starts with a command name, as an argv.

    An element that is not a string literal (a path, mostly) reads "x.json";
    a starred one is dropped.
    """
    argvs = []
    for node in ast.walk(ast.parse(Path(__file__).read_text())):
        if (isinstance(node, ast.List) and node.elts and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in cli._COMMANDS):
            argvs.append([e.value if isinstance(e, ast.Constant) else "x.json"
                          for e in node.elts if not isinstance(e, ast.Starred)])
    return argvs


def _parsed(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except cli._UsageError as exc:
        return "usage", str(exc)


def _subparsers(parser, prefix=()):
    """(command path, parser) for every command and embed mode under parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield (*prefix, name), sub
                yield from _subparsers(sub, (*prefix, name))


def test_the_one_command_parser_reads_every_argv_as_the_full_parser_does(capsys):
    argvs = _argvs_in_this_file() + [
        [], ["bogus"], ["min-chain", "K.json"], ["verify", "d.json", "--bogus"],
        ["embed"], ["embed", "jl", "F.json"], ["gen", "bogus", "-o", "g.json"],
    ]
    assert len(argvs) > 60
    full = cli.build_parser()
    for argv in argvs:
        if argv and argv[0] in cli._COMMANDS:
            assert _parsed(cli._parser({argv[0]: cli._COMMANDS[argv[0]]}), argv) == \
                _parsed(full, argv), argv
    # main reads these usage errors with the full parser or the one-command one
    for argv in ([], ["bogus"], ["min-chain", "K.json"], ["verify", "d.json", "--bogus"]):
        kind, message = _parsed(full, argv)
        assert _run(argv, capsys) == (2, {"error": {"kind": kind, "message": message}})


def test_the_one_command_parser_helps_as_the_full_parser_does():
    helps = {path: sub.format_help() for path, sub in _subparsers(cli.build_parser())}
    assert len(helps) == len(cli._COMMANDS) + 3  # and embed's three modes
    for command in cli._COMMANDS:
        one = dict(_subparsers(cli._parser({command: cli._COMMANDS[command]})))
        assert {path: sub.format_help() for path, sub in one.items()} == {
            path: text for path, text in helps.items() if path[0] == command}
