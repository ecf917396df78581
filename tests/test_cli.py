"""Command-line behavior: subcommands, report lines, exit codes, pipelines."""

import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gugp_workbench import (
    GenSpec,
    GugpEdge,
    GugpInstance,
    InternalError,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    T22Edge,
    TwoToTwoInstance,
    generate,
    parse,
    serialize,
)
from gugp_workbench.cli import main

from conftest import gugp, identity, perm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def write(path, payload):
    path.write_text(serialize(payload) if not isinstance(payload, str) else payload)
    return str(path)


@pytest.fixture
def counterexample(tmp_path):
    inst = gugp(
        2, 2, (0, 1, 1, identity(2)), (0, 1, Fraction(-1, 3), perm(2, 1))
    )
    return write(tmp_path / "mixed.gugp", inst)


@pytest.fixture
def block_gadget_file(tmp_path):
    source = TwoToTwoInstance(
        2,
        2,
        (T22Edge(0, 1, Fraction(1), identity(4), identity(4)),),
    )
    from gugp_workbench import two2two_to_pwt_half

    gadget, _ = two2two_to_pwt_half(source)
    return (
        write(tmp_path / "block.gugp", gadget),
        write(tmp_path / "block.t22", source),
    )


# ---------------------------------------------------------------------------
# metrics / eval / solve


def test_metrics_pinned_lines(capsys, block_gadget_file):
    gadget_path, _ = block_gadget_file
    code, out, _ = run(capsys, "metrics", "--in", gadget_path)
    assert code == 0
    assert out == ["WPLUS=4/3", "WMINUS=-2/3", "SIGMA=2/3", "RATIO=1/2"]


def test_metrics_undefined_ratio(capsys, tmp_path):
    path = write(tmp_path / "neg.gugp", gugp(2, 2, (0, 1, -1, identity(2))))
    code, out, _ = run(capsys, "metrics", "--in", path)
    assert code == 0
    assert "RATIO=UNDEFINED" in out


def test_solve_brute_and_eval_agree(capsys, counterexample, tmp_path):
    lab = tmp_path / "best.lab"
    code, out, _ = run(
        capsys,
        "solve",
        "brute",
        "--in",
        counterexample,
        "--objective",
        "min-pwt",
        "--labeling",
        str(lab),
    )
    assert code == 0
    assert "VAL=-1/2" in out
    assert "VISITED=4" in out
    assert parse(lab.read_text()) == (1, 1)
    code, out, _ = run(
        capsys,
        "eval",
        "--in",
        counterexample,
        "--labeling",
        str(lab),
        "--objective",
        "min-pwt",
    )
    assert code == 0
    assert "VAL=-1/2" in out
    assert "SAT=1/1" in out
    assert "UNSAT=-1/3" in out


@pytest.mark.parametrize(
    "text, objective, message",
    [
        (
            "REL v1\nk1 2\nk2 2\nn 2\nbipartite 0\n",
            (),
            "relational value undefined: no edges",
        ),
        (
            "GUGP v1\nk 2\nn 2\ne 0 1 1/1 1 2\ne 0 1 -1/3 2 1\n",
            ("--objective", "max-nwa"),
            "max-nwa requires all weights negative",
        ),
    ],
)
def test_eval_prints_nothing_when_a_value_fails(
    capsys, tmp_path, text, objective, message
):
    instance = write(tmp_path / "instance.txt", text)
    labeling = write(tmp_path / "ones.lab", (1, 1))
    code, out, err = run(
        capsys, "eval", "--in", instance, "--labeling", labeling, *objective
    )
    assert (code, out) == (1, [])
    assert err == f"error: {message}\n"


def test_solve_brute_needs_objective_for_gugp(capsys, counterexample):
    code, _, err = run(capsys, "solve", "brute", "--in", counterexample)
    assert code == 1
    assert "objective" in err


def test_solve_local2_on_negative_instance(capsys, tmp_path):
    path = write(tmp_path / "neg.gugp", gugp(2, 2, (0, 1, -1, identity(2))))
    code, out, _ = run(capsys, "solve", "local2", "--in", path)
    assert code == 0
    assert "VAL=1/1" in out
    assert "ITERATIONS=1" in out


def test_solve_local2_rejects_other_objectives(capsys, tmp_path):
    path = write(tmp_path / "neg.gugp", gugp(2, 2, (0, 1, -1, identity(2))))
    code, _, err = run(
        capsys, "solve", "local2", "--in", path, "--objective", "min-pwt"
    )
    assert code == 1
    assert "max-nwa" in err


def test_solve_capacity_exit_code(capsys, tmp_path):
    inst = gugp(
        10, 3, *(((i, i + 1, 1, identity(3))) for i in range(9))
    )
    path = write(tmp_path / "big.gugp", inst)
    code, _, err = run(
        capsys,
        "solve",
        "brute",
        "--in",
        path,
        "--objective",
        "max-ugp",
        "--cap",
        "100",
    )
    assert code == 3
    assert "exceeds cap" in err


def run_module(directory, *argv):
    """Run the CLI as a child process that must answer within seconds;
    ``{d}`` in an argument stands for ``directory``."""
    proc = subprocess.run(
        [sys.executable, "-m", "gugp_workbench"]
        + [arg.format(d=directory) for arg in argv],
        capture_output=True,
        text=True,
        timeout=10,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("solve", "brute", "--in", "{d}/big.gugp", "--objective", "max-pwt"),
            "label space 2^20000 exceeds cap 1000000",
        ),
        (
            ("verify", "strip-bounds", "--in", "{d}/big.gugp"),
            "label space 2^20000 exceeds cap 1000000",
        ),
        (
            ("solve", "brute", "--in", "{d}/huge.rel"),
            "label space 3^1000000000000 exceeds cap 1000000",
        ),
        (
            ("reduce", "repeat3cut", "--in", "{d}/edge.rel", "--l", "1000000000")
            + ("--out", "{d}/out.rel"),
            "label count 3^1000000000 exceeds cap 729",
        ),
        (
            ("verify", "tsp-equiv", "--in", "{d}/n11.tsp"),
            "label space 11^11 exceeds cap 1000000",
        ),
    ],
)
def test_over_cap_input_is_refused_before_any_work(tmp_path, argv, message):
    # header counts alone decide: no big power is printed, no label or tour
    # is scanned
    (tmp_path / "big.gugp").write_text("GUGP v1\nk 2\nn 20000\ne 0 1 1/1 1 2\n")
    rel = "REL v1\nk1 3\nk2 3\nn {}\nbipartite 0\ne 0 1 1/1 1 1 2\n"
    (tmp_path / "huge.rel").write_text(rel.format(10**12))
    (tmp_path / "edge.rel").write_text(rel.format(2))
    tsp = generate(GenSpec(family="random-tsp", seed=1, n=11)).instance
    write(tmp_path / "n11.tsp", tsp)
    code, out, err = run_module(tmp_path, *argv)
    assert code == 3
    assert out == []
    assert err == f"error: {message}\n"


def _limit_address_space():
    """Cap the child's address space at 512 MiB (never above its own limit)."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 512 * 2**20 if hard == resource.RLIM_INFINITY else min(hard, 512 * 2**20)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "local2", "--in", "{d}/bomb.gugp", "--labeling", "{d}/out.lab"),
        ("verify", "half-guarantee", "--in", "{d}/bomb.gugp"),
    ],
)
def test_local_search_refuses_a_huge_vertex_count_before_allocating(tmp_path, argv):
    # one all-negative edge and a header n of 10^12; the parent code ended
    # in a MemoryError traceback (exit 1) under this limit
    (tmp_path / "bomb.gugp").write_text(
        "GUGP v1\nk 2\nn 1000000000000\ne 0 1 -1/1 1 2\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "gugp_workbench"]
        + [arg.format(d=tmp_path) for arg in argv],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3
    assert (proc.stdout, proc.stderr) == (
        "",
        "error: vertex count 1000000000000 exceeds cap 100000\n",
    )
    assert not (tmp_path / "out.lab").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("random-gugp", "--n", "4", "--m", "6", "--k", "1000000000"),
            "random-gugp size 6000000000 exceeds cap 100000",
        ),
        (
            ("random-gugp", "--n", "4", "--m", "1000000000", "--k", "3"),
            "random-gugp size 3000000000 exceeds cap 100000",
        ),
        (
            ("random-t22", "--n", "4", "--m", "5", "--k", "1000000000"),
            "random-t22 size 20000000000 exceeds cap 100000",
        ),
        (
            ("random-tsp", "--n", "100000"),
            "random-tsp size 4999950000 exceeds cap 100000",
        ),
        (
            ("planted-3col", "--n", "100000000", "--m", "6"),
            "planted-3col size 100000006 exceeds cap 100000",
        ),
    ],
)
def test_gen_refuses_an_over_cap_size_before_the_first_draw(tmp_path, argv, message):
    # without the cap these ended in a MemoryError traceback under this
    # limit, or were still drawing after 20 s
    out = tmp_path / "out.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "gugp_workbench", "gen", "--seed", "1"]
        + ["--out", str(out), "--family", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3
    assert (proc.stdout, proc.stderr) == ("", f"error: {message}\n")
    assert not out.exists()


def test_reduce_pwt1_on_a_huge_header_takes_the_root_directly(tmp_path):
    (tmp_path / "base.rel").write_text(
        "REL v1\nk1 3\nk2 3\nn 1000000000000\nbipartite 0\n"
    )
    code, out, err = run_module(
        tmp_path, "reduce", "pwt1", "--in", "{d}/base.rel", "--out", "{d}/g.gugp"
    )
    assert (code, err) == (0, "")
    assert out == [f"OUT={tmp_path}/g.gugp", "BUNDLES=0", "EDGES=0"]
    assert parse((tmp_path / "g.gugp").read_text()).n == 10**12


@pytest.mark.parametrize(
    "instance, objective, space, shown",
    [
        (gugp(4, 3, (0, 1, 1, identity(3))), ("--objective", "max-ugp"), 81, "3^4"),
        (
            RelationalInstance(
                3,
                2,
                3,
                (RelEdge(0, 2, Fraction(1), Relation(2, 3, frozenset({(1, 2)}))),),
                sides=("V", "V", "W"),
            ),
            (),
            12,
            "2^2 * 3^1",
        ),
    ],
)
def test_cap_equal_to_label_space_solves_and_one_less_refuses(
    capsys, tmp_path, instance, objective, space, shown
):
    path = write(tmp_path / "instance.txt", instance)
    argv = ("solve", "brute", "--in", path, *objective, "--cap")
    code, out, _ = run(capsys, *argv, str(space))
    assert code == 0
    assert f"VISITED={space}" in out
    code, out, err = run(capsys, *argv, str(space - 1))
    assert (code, out) == (3, [])
    assert err == f"error: label space {shown} exceeds cap {space - 1}\n"


def test_internal_error_exit_code(capsys, tmp_path, monkeypatch):
    import gugp_workbench.cli as cli

    def broken(*_args, **_kwargs):
        raise InternalError("local search step failed to improve globally")

    monkeypatch.setattr(cli, "local_search_half", broken)
    path = write(tmp_path / "neg.gugp", gugp(2, 2, (0, 1, -1, identity(2))))
    code, out, err = run(capsys, "solve", "local2", "--in", path)
    assert code == 4
    assert out == []
    assert "internal error: local search step failed" in err


def test_unknown_objective(capsys, counterexample):
    code, _, err = run(
        capsys, "solve", "brute", "--in", counterexample, "--objective", "best"
    )
    assert code == 1
    assert "unknown objective" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(
        capsys, "solve", "brute", "--in", "nope.gugp", "--objective", "max-ugp"
    )
    assert code == 1
    assert "error:" in err


def test_malformed_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.gugp"
    bad.write_text("GUGP v1\nk 2\nn 2\ne 0 1 0/1 1 2\n")
    code, _, err = run(
        capsys, "solve", "brute", "--in", str(bad), "--objective", "max-ugp"
    )
    assert code == 1
    assert "zero-weight edge" in err


def test_argparse_usage_exit_is_remapped(capsys):
    assert main(["solve"]) == 1  # missing mode
    capsys.readouterr()
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_deterministic_file(capsys, tmp_path):
    out_a = tmp_path / "a.gugp"
    out_b = tmp_path / "b.gugp"
    for out in (out_a, out_b):
        code, lines, _ = run(
            capsys,
            "gen",
            "--family",
            "random-gugp",
            "--seed",
            "7",
            "--n",
            "4",
            "--m",
            "6",
            "--k",
            "3",
            "--nwa",
            "--out",
            str(out),
        )
        assert code == 0
        assert "SEED=7" in lines
    assert out_a.read_text() == out_b.read_text()
    inst = parse(out_a.read_text())
    assert isinstance(inst, GugpInstance)
    assert all(e.weight < 0 for e in inst.edges)


def test_gen_planted_output(capsys, tmp_path):
    code, lines, _ = run(
        capsys,
        "gen",
        "--family",
        "planted-3col",
        "--seed",
        "5",
        "--n",
        "6",
        "--m",
        "7",
        "--out",
        str(tmp_path / "c.rel"),
        "--planted-out",
        str(tmp_path / "c.lab"),
    )
    assert code == 0
    planted = parse((tmp_path / "c.lab").read_text())
    assert len(planted) == 6


def test_gen_planted_out_rejected_without_witness(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "gen",
        "--family",
        "random-tsp",
        "--seed",
        "5",
        "--n",
        "4",
        "--out",
        str(tmp_path / "t.tsp"),
        "--planted-out",
        str(tmp_path / "t.lab"),
    )
    assert code == 1
    assert "plants no witness" in err


def test_gen_bad_ratio_syntax(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "gen",
        "--family",
        "random-gugp",
        "--seed",
        "1",
        "--n",
        "3",
        "--m",
        "2",
        "--k",
        "2",
        "--max-ratio",
        "0.5",
        "--out",
        str(tmp_path / "x.gugp"),
    )
    assert code == 1
    assert "num" in err and "den" in err


# ---------------------------------------------------------------------------
# reduce + verify pipelines


def test_full_gadget_pipeline(capsys, tmp_path):
    rel = tmp_path / "cut.rel"
    rep = tmp_path / "rep.rel"
    gadget = tmp_path / "gadget.gugp"
    code, _, _ = run(
        capsys,
        "gen",
        "--family",
        "planted-3col",
        "--seed",
        "3",
        "--n",
        "4",
        "--m",
        "4",
        "--out",
        str(rel),
    )
    assert code == 0
    code, lines, _ = run(
        capsys, "reduce", "repeat3cut", "--in", str(rel), "--l", "2", "--out", str(rep)
    )
    assert code == 0
    assert any(line.startswith("VERTICES=16") for line in lines)
    code, lines, _ = run(
        capsys, "reduce", "pwt1", "--in", str(rep), "--out", str(gadget)
    )
    assert code == 0
    code, lines, _ = run(capsys, "verify", "gadget-pwt1", "--in", str(gadget))
    assert code == 0
    assert lines[-1] == "VERDICT=PASS"
    assert lines.count("VERDICT=PASS") >= 4  # three subchecks + aggregate


def test_block_gadget_pipeline(capsys, tmp_path, block_gadget_file):
    gadget_path, source_path = block_gadget_file
    code, lines, _ = run(
        capsys,
        "verify",
        "gadget-pwt-half",
        "--in",
        gadget_path,
        "--source",
        source_path,
    )
    assert code == 0
    assert lines[-1] == "VERDICT=PASS"


def test_block_gadget_verify_requires_source(capsys, block_gadget_file):
    gadget_path, _ = block_gadget_file
    code, _, err = run(capsys, "verify", "gadget-pwt-half", "--in", gadget_path)
    assert code == 1
    assert "--source" in err


def test_verify_fails_with_exit_2_on_perturbed_gadget(capsys, tmp_path, block_gadget_file):
    gadget_path, source_path = block_gadget_file
    gadget = parse(Path(gadget_path).read_text())
    edges = list(gadget.edges)
    edges[0] = GugpEdge(edges[0].u, edges[0].v, Fraction(1, 9), edges[0].pi)
    bad = write(tmp_path / "bad.gugp", GugpInstance(gadget.n, gadget.k, tuple(edges)))
    code, lines, _ = run(
        capsys, "verify", "gadget-pwt-half", "--in", bad, "--source", source_path
    )
    assert code == 2
    assert lines[-1] == "VERDICT=FAIL"
    assert any(line.startswith("WITNESS=") for line in lines)


def test_reduce_strip_neg(capsys, tmp_path, counterexample):
    out = tmp_path / "stripped.gugp"
    code, lines, _ = run(
        capsys, "reduce", "strip-neg", "--in", counterexample, "--out", str(out)
    )
    assert code == 0
    assert "EDGES=1" in lines
    stripped = parse(out.read_text())
    assert len(stripped.edges) == 1


def test_reduce_tsp_pipeline(capsys, tmp_path):
    tsp = tmp_path / "t.tsp"
    enc = tmp_path / "t.gugp"
    run(
        capsys,
        "gen",
        "--family",
        "random-tsp",
        "--seed",
        "11",
        "--n",
        "4",
        "--out",
        str(tsp),
    )
    code, lines, _ = run(
        capsys, "reduce", "tsp-nwa", "--in", str(tsp), "--out", str(enc)
    )
    assert code == 0
    assert "BUNDLES=6" in lines
    assert "EDGES=18" in lines
    code, lines, _ = run(capsys, "verify", "tsp-equiv", "--in", str(tsp))
    assert code == 0
    assert lines[-1] == "VERDICT=PASS"


def test_reduce_rejects_wrong_input_type(capsys, counterexample, tmp_path):
    code, _, err = run(
        capsys,
        "reduce",
        "tsp-nwa",
        "--in",
        counterexample,
        "--out",
        str(tmp_path / "x.gugp"),
    )
    assert code == 1
    assert "expects a TSP file" in err


def test_verify_strip_bounds_and_half_guarantee(capsys, counterexample, tmp_path):
    code, lines, _ = run(capsys, "verify", "strip-bounds", "--in", counterexample)
    assert code == 0
    assert "NOTE=NORMALIZED_UPPER=FAILS" in lines
    assert "NOTE=NORMALIZED_UPPER_BOUND=-1/6" in lines
    neg = write(tmp_path / "neg.gugp", gugp(2, 2, (0, 1, -1, identity(2))))
    code, lines, _ = run(capsys, "verify", "half-guarantee", "--in", neg)
    assert code == 0
    assert "NOTE=VAL=1/1" in lines


def test_verify_smoothness(capsys, tmp_path):
    from gugp_workbench import RelEdge, Relation, RelationalInstance

    rel = Relation(2, 2, frozenset({(1, 1), (2, 2)}))
    inst = RelationalInstance(
        2,
        2,
        2,
        (RelEdge(0, 1, Fraction(1), rel),),
        sides=("V", "W"),
    )
    path = write(tmp_path / "b.rel", inst)
    code, out, _ = run(capsys, "verify", "smoothness", "--in", path)
    assert code == 0
    assert "ETA=0/1" in out


def test_pipeline_is_referentially_transparent(capsys, tmp_path):
    args = [
        "gen",
        "--family",
        "random-t22",
        "--seed",
        "9",
        "--n",
        "3",
        "--m",
        "4",
        "--k",
        "2",
        "--out",
    ]
    a, b = tmp_path / "a.t22", tmp_path / "b.t22"
    run(capsys, *args, str(a))
    run(capsys, *args, str(b))
    assert a.read_text() == b.read_text()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gugp_workbench", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "verify" in proc.stdout
