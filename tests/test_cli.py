"""End-to-end command-line checks through cli.main with in-process capture."""

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
from kmetrics.hypertree import WeightedComplex, random_spanning_tree
from kmetrics.simplicial import coboundary_operator
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


VERIFY_MODULES = {"cli", "fileio", "jsonblocks", "lp", "metric", "simplicial"}


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    table = random_strong_metric(5, 3, 1).payload
    write_kmetric(table, str(d / "d.json"))
    write_chain_matrix(kmetrics.frechet_embed(table), str(d / "F.json"))
    write_complex(kmetrics.random_2hypertree(6, 1), str(d / "K.json"))
    write_cloud(PointCloud(points=np.random.default_rng(0).normal(size=(6, 3))),
                str(d / "P.json"))
    return d


@pytest.mark.parametrize("command, extra", [
    ("min-chain K.json --target 0,1,2", {"hypertree"}),
    ("verify d.json", set()),
    ("verify d.json --strong", set()),
    ("eval F.json --p inf", {"coboundary"}),
    ("embed jl F.json --eps 0.5 --seed 1 -o J.json", {"coboundary"}),
    ("gen subdivided-triangle -o g.json", {"corpus"}),
    ("hypertree K.json --to-l1", {"coboundary", "hypertree"}),
    ("volume P.json --k 3", {"coboundary", "volume"}),
])
def test_each_command_loads_only_its_modules(inputs_dir, command, extra):
    script = (
        "import sys\n"
        "from kmetrics import cli\n"
        f"assert cli.main({command.split()!r}) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('kmetrics.')))\n"
    )
    proc = _python(["-c", script], cwd=inputs_dir)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert loaded == sorted(f"kmetrics.{m}" for m in VERIFY_MODULES | extra)


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
    proc = _python(["-c", "import kmetrics.cli as c; c.main = lambda: 1 / 0; c.entry()"])
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "ZeroDivisionError" in proc.stderr
