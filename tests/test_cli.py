"""Command-line behavior: subcommands, report lines, exit codes, pipelines."""

import contextlib
import functools
import io
import math
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gugp_workbench import (
    BundleMap,
    GenSpec,
    GugpEdge,
    GugpInstance,
    InternalError,
    Permutation,
    RelEdge,
    Relation,
    RelationalInstance,
    Objective,
    T22Edge,
    TwoToTwoInstance,
    generate,
    max3cut_instance,
    parse,
    pwt1_gadget,
    repeat_max3cut,
    serialize,
    tsp_to_min_nwa,
    two2two_to_pwt_half,
)
from gugp_workbench import cli
from gugp_workbench.cli import main
from gugp_workbench.generators import FAMILIES

from conftest import gugp, gugp_instances, identity, perm, relational_instances


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
            "max-ugp value undefined: zero normalizer",
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


MIXED_GUGP = "GUGP v1\nk 2\nn 2\ne 0 1 1/1 1 2\ne 0 1 -1/3 2 1\n"
EDGELESS_GUGP = "GUGP v1\nk 2\nn 2\n"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("solve", "local2"), MIXED_GUGP, "max-nwa requires all weights negative"),
        (
            ("verify", "half-guarantee"),
            MIXED_GUGP,
            "max-nwa requires all weights negative",
        ),
        (
            ("solve", "local2"),
            EDGELESS_GUGP,
            "max-nwa value undefined: zero normalizer",
        ),
        (
            ("verify", "half-guarantee"),
            EDGELESS_GUGP,
            "max-nwa value undefined: zero normalizer",
        ),
        (
            ("verify", "strip-bounds"),
            "GUGP v1\nk 2\nn 2\ne 0 1 1/1 1 2\ne 0 1 -1/1 2 1\n",  # sigma = 0
            "min-pwt requires positive total weight",
        ),
        (
            ("verify", "strip-bounds"),
            "GUGP v1\nk 2\nn 2\ne 0 1 1/3 1 2\ne 0 1 -1/1 2 1\n",  # sigma < 0
            "min-pwt requires positive total weight",
        ),
    ],
    ids=[
        "local2-mixed",
        "half-guarantee-mixed",
        "local2-edgeless",
        "half-guarantee-edgeless",
        "strip-bounds-zero-sigma",
        "strip-bounds-negative-sigma",
    ],
)
def test_local_search_and_strip_bounds_refuse_through_the_objective_rule(
    capsys, tmp_path, argv, text, message
):
    # the same sign and normalizer rule as labeling_value, with its messages
    path = write(tmp_path / "instance.gugp", text)
    code, out, err = run(capsys, *argv, "--in", path)
    assert (code, out, err) == (1, [], f"error: {message}\n")


def test_solve_brute_needs_objective_for_gugp(capsys, counterexample):
    code, _, err = run(capsys, "solve", "brute", "--in", counterexample)
    assert code == 1
    assert "objective" in err


@pytest.mark.parametrize(
    "argv",
    [("solve", "brute"), ("eval", "--labeling", "{d}/f.lab")],
    ids=["solve-brute", "eval"],
)
def test_relational_instances_refuse_an_objective(capsys, tmp_path, argv):
    game = write(tmp_path / "g.rel", "REL v1\nk1 3\nk2 3\nn 2\nbipartite 0\n")
    write(tmp_path / "f.lab", (1, 2))
    argv = [arg.format(d=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv, "--in", game, "--objective", "max-ugp")
    assert (code, out) == (1, [])
    assert err == (
        "error: relational instances have a single objective; drop --objective\n"
    )


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


BIG = 10**12
# header bombs: one record under a huge vertex count, or none under a huge
# label count, in every format; small valid companions fill the other slots,
# and the wide files hold one edge whose label count sizes the work
BOMB_FILES = {
    "n.gugp": f"GUGP v1\nk 2\nn {BIG}\ne 0 1 -1/1 1 2\n",
    "k.gugp": f"GUGP v1\nk {BIG}\nn 2\n",
    "one.gugp": f"GUGP v1\nk 1\nn {BIG}\ne 0 1 1/1 1\n",
    "n.rel": f"REL v1\nk1 3\nk2 3\nn {BIG}\nbipartite 0\ne 0 1 1/1 1 1 2\n",
    "k.rel": f"REL v1\nk1 {BIG}\nk2 {BIG}\nn 2\nbipartite 0\n",
    "one.rel": f"REL v1\nk1 1\nk2 1\nn {BIG}\nbipartite 0\ne 0 1 1/1 1 1 1\n",
    "fold25.rel": f"REL v1\nk1 {3**25}\nk2 {3**25}\nn 2\nbipartite 0\n",
    "n.t22": f"T22 v1\nk 2\nn {BIG}\ne 0 1 1/1 pu 1 2 3 4 pv 1 2 3 4\n",
    "wide.t22": "T22 v1\nk 2000\nn 2\ne 0 1 1/1 pu {0} pv {0}\n".format(
        " ".join(map(str, range(1, 4001)))
    ),
    "wide.rel": "REL v1\nk1 5000\nk2 1\nn 2\nbipartite 1\ns 0 V\ns 1 W\n"
    + "e 0 1 1/1 5000 " + " ".join(f"{a} 1" for a in range(1, 5001)) + "\n",
    "k.t22": f"T22 v1\nk {BIG}\nn 2\n",
    "n.tsp": f"TSP v1\nn {BIG}\nw 0 1 1/1\n",
    "n.lab": f"LAB v1\nn {BIG}\nf 0 1\n",
    "two.lab": "LAB v1\nn 2\nf 0 1\nf 1 1\n",
    "two.t22": "T22 v1\nk 2\nn 2\ne 0 1 1/1 pu 1 2 3 4 pv 1 2 3 4\n",
    "four.gugp": "GUGP v1\nk 4\nn 2\ne 0 1 1/1 1 2 3 4\n",
}


def _bomb_rows():
    """``(argv, exit code)`` for every subcommand and kind that reads each
    format; the GUGP and REL rows give the codes for the n and the k bomb."""
    for argv, n_code, k_code in (
        (("reduce", "strip-neg", "--out", "out"), 1, 1),
        (("solve", "brute", "--objective", "max-nwa"), 3, 3),
        (("solve", "local2"), 3, 1),
        (("eval", "--labeling", "two.lab"), 1, 0),
        (("metrics",), 0, 0),
        (("verify", "gadget-pwt1"), 1, 1),
        (("verify", "gadget-pwt-half", "--source", "two.t22"), 1, 1),
        (("verify", "strip-bounds"), 1, 1),
        (("verify", "half-guarantee"), 3, 1),
    ):
        yield (*argv, "--in", "n.gugp"), n_code
        yield (*argv, "--in", "k.gugp"), k_code
    for argv, n_code, k_code in (
        (("reduce", "repeat3cut", "--l", "2", "--out", "out"), 3, 1),
        (("reduce", "pwt1", "--out", "out"), 1, 1),
        (("solve", "brute"), 3, 3),
        (("eval", "--labeling", "two.lab"), 1, 1),
        (("verify", "smoothness"), 1, 1),
    ):
        yield (*argv, "--in", "n.rel"), n_code
        yield (*argv, "--in", "k.rel"), k_code
    # one label: a label space of 1 under any n, so the scans' vertex rule
    # refuses; each ended in a MemoryError traceback while nothing counted n
    yield ("solve", "brute", "--objective", "max-ugp", "--in", "one.gugp"), 3
    yield ("verify", "strip-bounds", "--in", "one.gugp"), 3
    yield ("solve", "brute", "--in", "one.rel"), 3
    for bomb in ("n.t22", "k.t22"):
        yield ("reduce", "pwt-half", "--in", bomb, "--out", "out"), 0
        yield ("verify", "gadget-pwt-half", "--in", "four.gugp", "--source", bomb), 1
    yield ("reduce", "tsp-nwa", "--in", "n.tsp", "--out", "out"), 1
    yield ("verify", "tsp-equiv", "--in", "n.tsp"), 1
    yield ("eval", "--in", "four.gugp", "--labeling", "n.lab"), 1
    # 3^25 labels read as fold 25: building that fold's k^2 relation never ended
    yield ("reduce", "pwt1", "--in", "fold25.rel", "--out", "out"), 3
    # 4 base edges at fold 5: 16,384 edges of 7,776 pairs each, which ended
    # in a MemoryError traceback while serializing when nothing refused it
    yield ("reduce", "repeat3cut", "--in", "base.rel", "--l", "5", "--out", "out"), 3
    # one projection edge on 5,000 left labels: 12.5M label-pair looks, which
    # ran past the time limit when each pair built a generator and a Fraction
    yield ("verify", "smoothness", "--in", "wide.rel"), 3
    # one edge on 4,000 labels: a gadget of 4,000 edges of 4,000 image entries
    # each, which ran past the limits while nothing sized it first
    yield ("reduce", "pwt-half", "--in", "wide.t22", "--out", "out"), 3


@pytest.mark.parametrize(
    "argv, code",
    list(_bomb_rows()),
    ids=lambda value: "-".join(value) if isinstance(value, tuple) else None,
)
def test_header_bombs_end_in_their_exit_code_within_a_memory_limit(
    tmp_path, argv, code
):
    # a header count alone never sizes an allocation or a loop: each child
    # answers within seconds under 512 MiB, with no traceback.  Exit 0 means
    # the file is valid and the work is proportional to its records.
    for name, text in BOMB_FILES.items():
        (tmp_path / name).write_text(text)
    base = generate(GenSpec(family="planted-3col", seed=1, n=4, m=4)).instance
    write(tmp_path / "base.rel", base)
    paths = {*BOMB_FILES, "base.rel", "out"}
    argv = [str(tmp_path / arg) if arg in paths else arg for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "gugp_workbench", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ") if code else proc.stderr == ""


def _primes_above(low, count):
    """The first ``count`` primes above ``low``, by a sieve."""
    high = low + 20 * count + 1000
    sieve = bytearray([1]) * (high + 1)
    for p in range(2, math.isqrt(high) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, high + 1, p)))
    return [p for p in range(low + 1, high + 1) if sieve[p]][:count]


def _prime_weight_game(count, signs):
    """A GUGP file on k 2 and n 50 whose ``count`` edges weigh 1/p for the
    first ``count`` primes above 10^6: every denominator is new, so the
    common scale grows by about 20 bits an edge.  ``signs`` is "+", "-" or
    "+-" (alternating, positive first, so the total stays positive)."""
    lines = ["GUGP v1", "k 2", "n 50"]
    for i, p in enumerate(_primes_above(10**6, count)):
        u = i % 50
        v = (u + 1 + i // 50 % 49) % 50
        lines.append(f"e {u} {v} {signs[i % len(signs)].strip('+')}1/{p} 1 2")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def prime_weight_files(tmp_path_factory):
    """The 1,000-edge file (21,617 bytes) and a 31,000-edge one (670 to 685
    KB) in each sign variant, and an all-ones labeling of their 50 vertices."""
    d = tmp_path_factory.mktemp("prime-weights")
    for count in (1000, 31000):
        for name, signs in (("pos", "+"), ("neg", "-"), ("mixed", "+-")):
            (d / f"{count}-{name}.gugp").write_text(_prime_weight_game(count, signs))
    ones = "".join(f"f {v} 1\n" for v in range(50))
    (d / "ones.lab").write_text("LAB v1\nn 50\n" + ones)
    return d


@pytest.mark.parametrize("count, bits", [(1000, 16790), (31000, 559)])
@pytest.mark.parametrize(
    "argv, signs, code",
    [
        (("metrics",), "pos", 3),
        (("eval", "--labeling", "ones.lab", "--objective", "max-ugp"), "pos", 3),
        (("solve", "local2"), "neg", 3),
        (("solve", "brute", "--objective", "max-ugp"), "pos", 3),
        (("verify", "strip-bounds"), "mixed", 3),
        (("reduce", "strip-neg", "--out", "out.gugp"), "mixed", 0),
    ],
    ids=lambda value: "-".join(value) if isinstance(value, tuple) else None,
)
def test_exact_weight_bombs_end_in_their_exit_code_within_a_memory_limit(
    prime_weight_files, tmp_path, count, bits, argv, signs, code
):
    # each edge's new denominator grows the common scale: the 1,000-edge
    # file ended in a ValueError traceback from printing a 6,000-digit sum,
    # and scaling the 31,000-edge one needs about 2.4 GB.  The gate refuses
    # both before scaling; stripping never scales and writes the positive half.
    d = prime_weight_files
    argv = [str(d / arg) if arg == "ones.lab" else arg for arg in argv]
    argv = [str(tmp_path / arg) if arg == "out.gugp" else arg for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "gugp_workbench", *argv]
        + ["--in", str(d / f"{count}-{signs}.gugp")],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    if code:
        assert (proc.stdout, proc.stderr) == (
            "",
            f"error: scaled weights need {count} * {bits} bits > cap 16777216\n",
        )
    else:
        stripped = parse((tmp_path / "out.gugp").read_text())
        assert len(stripped.edges) == count // 2
        assert proc.stdout.endswith(f"EDGES={count // 2}\n")


def test_sums_past_the_digit_limit_print_exactly(digit_limit, tmp_path, capsys):
    # 800 prime denominators: a 15,952-bit scale, 800 * 15,952 bits under
    # the gate, whose sum prints 4,799 and 4,802 digits, past the
    # 4,300-digit limit that guards parsing
    path = tmp_path / "game.gugp"
    path.write_text(_prime_weight_game(800, "+"))
    assert main(["metrics", "--in", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    sys.set_int_max_str_digits(0)
    total = sum(Fraction(1, p) for p in _primes_above(10**6, 800))
    assert out == [
        f"WPLUS={total.numerator}/{total.denominator}",
        "WMINUS=0/1",
        f"SIGMA={total.numerator}/{total.denominator}",
        "RATIO=0/1",
    ]
    assert len(str(total.numerator)) > digit_limit


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


def test_gen_stops_redrawing_an_unmet_ratio_bound_by_drawn_size(tmp_path):
    # m*k is at the size cap, and with a quarter of the edges negative no
    # draw of 20,000 edges comes near the bound; a count-only limit of
    # 10,000 redraws was still running at 20 s
    out = tmp_path / "out.gugp"
    code, stdout, err = run_module(
        tmp_path, "gen", "--family", "random-gugp", "--seed", "1", "--n", "10",
        "--m", "20000", "--k", "5", "--max-ratio", "1/100", "--out", str(out),
    )
    assert (code, stdout) == (1, [])
    assert err == "error: could not meet ratio bound 1/100 within 11 resamples\n"
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


def test_oversized_weight_is_refused_by_its_digit_count(capsys, tmp_path, digit_limit):
    # the 5,000-digit numerator is named by its length, not echoed
    bad = tmp_path / "big.gugp"
    bad.write_text(f"GUGP v1\nk 2\nn 2\ne 0 1 {'8' * 5000}/7 2 1\n")
    code, out, err = run(capsys, "metrics", "--in", str(bad))
    message = "rational part of 5000 digits exceeds the 4300-digit limit"
    assert (code, out, err) == (1, [], f"error: line 4: {message}\n")


def test_oversized_vertex_id_is_refused_by_its_digit_count(
    capsys, tmp_path, digit_limit
):
    # the 5,000-digit endpoint is named by its length, not echoed
    bad = tmp_path / "big.gugp"
    bad.write_text(f"GUGP v1\nk 2\nn 2\ne 0 {'1' * 5000} 1/1 2 1\n")
    code, out, err = run(capsys, "metrics", "--in", str(bad))
    message = "integer of 5000 digits exceeds the 4300-digit limit"
    assert (code, out, err) == (1, [], f"error: line 4: {message}\n")


def test_reduce_refuses_a_weight_its_file_would_not_parse_back(tmp_path):
    # M = n x (largest pair weight) has 4,301 digits for a 4,300-digit pair
    # weight: the file was written with exit 0, then refused by every reader
    tsp = tmp_path / "big.tsp"
    tsp.write_text(f"TSP v1\nn 3\nw 0 1 {'9' * 4300}/1\nw 0 2 1/1\nw 1 2 1/1\n")
    out = tmp_path / "out.gugp"
    code, stdout, err = run_module(
        tmp_path, "reduce", "tsp-nwa", "--in", str(tsp), "--out", str(out)
    )
    assert (code, stdout) == (3, [])
    assert err == "error: weight part of 4301 digits exceeds the 4300-digit limit\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "cap, extra_vertices, builds",
    [
        (16, 0, True),  # 4^2 labelings: value transfer runs
        (15, 0, False),  # the source's label space is refused before its game is built
        (16, 1, True),  # the source fits, the gadget's 4^3 labelings do not
    ],
)
def test_block_gadget_value_transfer_builds_the_source_only_when_it_fits(
    capsys, tmp_path, monkeypatch, block_gadget_file, cap, extra_vertices, builds
):
    gadget_path, source_path = block_gadget_file
    gadget = parse(Path(gadget_path).read_text())
    wider = GugpInstance(gadget.n + extra_vertices, gadget.k, gadget.edges)
    built = []
    real = TwoToTwoInstance.to_unit_relational

    def counted(self):
        built.append(self.n)
        return real(self)

    monkeypatch.setattr(TwoToTwoInstance, "to_unit_relational", counted)
    argv = ("--in", write(tmp_path / "wider.gugp", wider), "--source", source_path)
    code, lines, _ = run(capsys, "verify", "gadget-pwt-half", *argv, "--cap", str(cap))
    assert code == 0 and lines[-1] == "VERDICT=PASS"
    assert built == ([2] if builds else [])
    skipped = "NOTE=VALUE_TRANSFER=SKIPPED-CAPACITY" in lines
    assert skipped == (cap < 16 or extra_vertices > 0)
    assert ("CLAIM=value-transfer" in lines) == (not skipped)


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


def test_reduce_counts_the_edges_of_the_gadget_it_wrote(capsys, tmp_path, monkeypatch):
    # EDGES= comes from the written gadget, not from the returned bundle map
    def short_map(tsp):
        gadget, bundles = tsp_to_min_nwa(tsp)
        return gadget, BundleMap(bundles.source_count, 2)

    monkeypatch.setattr(cli, "tsp_to_min_nwa", short_map)
    tsp = write(tmp_path / "t.tsp", generate(GenSpec("random-tsp", seed=11, n=4)).instance)
    enc = tmp_path / "t.gugp"
    code, lines, _ = run(capsys, "reduce", "tsp-nwa", "--in", tsp, "--out", str(enc))
    assert code == 0
    assert "EDGES=18" in lines
    assert len(parse(enc.read_text()).edges) == 18


# one row per kind: its input (a generated source, or the file an earlier
# row's kind wrote), its options, and the stdout lines after OUT=
REDUCE_STDOUT = [
    (GenSpec("random-tsp", seed=1, n=5), "tsp-nwa", (), ["BUNDLES=10", "EDGES=30"]),
    (
        GenSpec("planted-3col", seed=1, n=4, m=4),
        "repeat3cut",
        ("--l", "2"),
        ["VERTICES=16", "EDGES=32"],
    ),
    ("repeat3cut", "pwt1", (), ["BUNDLES=32", "EDGES=288"]),
    (GenSpec("random-t22", seed=3, n=5, m=6, k=2), "pwt-half", (), ["BUNDLES=6", "EDGES=24"]),
    (GenSpec("random-gugp", seed=3, n=4, m=6, k=3), "strip-neg", (), ["EDGES=4"]),
]


def test_reduce_stdout_for_every_kind(capsys, tmp_path):
    assert sorted(row[1] for row in REDUCE_STDOUT) == sorted(cli._REDUCE_INPUT)
    for source, kind, argv, tail in REDUCE_STDOUT:
        if isinstance(source, str):
            path = str(tmp_path / source)
        else:
            path = write(tmp_path / f"{kind}.in", generate(source).instance)
        out = tmp_path / kind
        code, lines, err = run(capsys, "reduce", kind, "--in", path, *argv, "--out", str(out))
        assert (code, lines, err) == (0, [f"OUT={out}", *tail], "")
        assert f"EDGES={len(parse(out.read_text()).edges)}" == tail[-1]


DIFFER_PAIRS = "6 1 2 1 3 2 1 2 3 3 1 3 2"


@pytest.mark.parametrize("kind", ["repeat3cut", "pwt1"])
@pytest.mark.parametrize(
    "edges, message",
    [
        # the file repeat3cut once rewrote as two unit-weight all-differ edges
        (
            ((0, 1, "5/7", "1 1 1"), (1, 2, "1/1", "2 1 1 2 2")),
            "repeated 3-cut edges carry unit weight",
        ),
        (
            ((0, 1, "1/1", DIFFER_PAIRS), (1, 2, "1/1", "2 1 1 2 2")),
            "every relation must be the all-coordinates-differ relation",
        ),
        (
            ((0, 1, "1/1", DIFFER_PAIRS), (1, 2, "2/1", DIFFER_PAIRS)),
            "repeated 3-cut edges carry unit weight",
        ),
        (
            ((0, 1, "1/1", DIFFER_PAIRS), (1, 0, "1/1", DIFFER_PAIRS)),
            "duplicate repeated edge (0,1)",
        ),
    ],
)
def test_repeat3cut_refuses_a_base_that_is_not_a_3_cut_game(
    capsys, tmp_path, kind, edges, message
):
    # repeat3cut and pwt1 read the same file through one rule, so they
    # refuse it with the same message
    text = "REL v1\nk1 3\nk2 3\nn 3\nbipartite 0\n" + "".join(
        f"e {u} {v} {w} {pairs}\n" for u, v, w, pairs in edges
    )
    rel = write(tmp_path / "base.rel", text)
    out = tmp_path / "out.rel"
    argv = ("--l", "2") if kind == "repeat3cut" else ()
    code, lines, err = run(
        capsys, "reduce", kind, "--in", rel, *argv, "--out", str(out)
    )
    assert (code, lines, err) == (1, [], f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["repeat3cut", "pwt1"])
def test_3cut_reductions_refuse_a_bipartite_file_off_three_labels(
    capsys, tmp_path, kind
):
    # edgeless, so no relation shows the W side's two labels; repeat3cut once
    # wrote this file's repetition as a 3-cut game
    rel = write(
        tmp_path / "base.rel",
        "REL v1\nk1 3\nk2 2\nn 2\nbipartite 1\ns 0 V\ns 1 W\n",
    )
    out = tmp_path / "out.rel"
    code, lines, err = run(capsys, "reduce", kind, "--in", rel, "--out", str(out))
    message = "label count must be a power of three (at least 3)"
    assert (code, lines, err) == (1, [], f"error: {message}\n")
    assert not out.exists()


T22_TWO_EDGES = (
    "T22 v1\nk 2\nn 3\n"
    "e 0 1 1/1 pu 1 2 3 4 pv 1 2 3 4\n"
    "e 1 2 1/1 pu 2 1 3 4 pv 1 2 4 3\n"
)


@pytest.mark.parametrize(
    "kind, shape, message",
    [
        ("gadget-pwt1", "short", "gadget edge count must be a positive multiple of 3"),
        ("gadget-pwt1", "edgeless", "gadget edge count must be a positive multiple of 3"),
        ("gadget-pwt-half", "labels", "gadget has 3 labels but source expects 4"),
        (
            "gadget-pwt-half",
            "short",
            "gadget edge count does not match source edges times bundle size",
        ),
        ("gadget-pwt-half", "flipped", "bundle 1 endpoints do not match source edge"),
    ],
)
def test_verify_gadget_refuses_a_gadget_of_the_wrong_shape(
    capsys, tmp_path, kind, shape, message
):
    source = write(tmp_path / "source.t22", T22_TWO_EDGES)
    if kind == "gadget-pwt1":
        gadget, _ = pwt1_gadget(repeat_max3cut(3, ((0, 1), (1, 2)), 1))
    else:
        gadget, _ = two2two_to_pwt_half(parse(T22_TWO_EDGES))
    if shape == "short":
        gadget = GugpInstance(gadget.n, gadget.k, gadget.edges[:-1])
    elif shape == "edgeless":
        gadget = GugpInstance(gadget.n, gadget.k, ())
    elif shape == "labels":
        gadget = gugp(3, 3, (0, 1, 1, identity(3)))
    else:  # bundle 1 runs from v to u
        k = gadget.k
        edges = tuple(
            GugpEdge(e.v, e.u, e.weight, e.pi) if k <= i < 2 * k else e
            for i, e in enumerate(gadget.edges)
        )
        gadget = GugpInstance(gadget.n, k, edges)
    path = write(tmp_path / "gadget.gugp", gadget)
    argv = ("--source", source) if kind == "gadget-pwt-half" else ()
    code, lines, err = run(capsys, "verify", kind, "--in", path, *argv)
    assert (code, lines, err) == (1, [], f"error: {message}\n")


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


WRONG_FILES = {
    "a.lab": "LAB v1\nn 2\nf 0 1\nf 1 1\n",
    "a.gugp": "GUGP v1\nk 4\nn 2\ne 0 1 1/1 1 2 3 4\n",
    "a.rel": "REL v1\nk1 2\nk2 2\nn 2\nbipartite 0\ne 0 1 1/1 1 1 2\n",
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("reduce", "tsp-nwa", "--in", "a.lab"), "tsp-nwa expects a TSP file"),
        (("reduce", "repeat3cut", "--in", "a.lab"), "repeat3cut expects a 3-cut REL file"),
        (("reduce", "repeat3cut", "--in", "a.rel"), "repeat3cut expects a 3-cut REL file"),
        (("reduce", "pwt1", "--in", "a.lab"), "pwt1 expects a repeated 3-cut REL file"),
        (("reduce", "pwt-half", "--in", "a.lab"), "pwt-half expects a T22 file"),
        (("reduce", "strip-neg", "--in", "a.lab"), "strip-neg expects a GUGP file"),
        (("solve", "brute", "--in", "a.lab"), "solve expects a GUGP or REL file"),
        (("solve", "local2", "--in", "a.rel"), "local2 expects a GUGP file"),
        (
            ("eval", "--in", "a.lab", "--labeling", "a.lab"),
            "eval expects a GUGP or REL file",
        ),
        (
            ("eval", "--in", "a.gugp", "--labeling", "a.gugp"),
            "--labeling must point at a LAB file",
        ),
        (("metrics", "--in", "a.rel"), "metrics expects a GUGP file"),
        (("verify", "smoothness", "--in", "a.gugp"), "smoothness expects a REL file"),
        (("verify", "gadget-pwt1", "--in", "a.rel"), "gadget-pwt1 expects a GUGP file"),
        (
            ("verify", "gadget-pwt-half", "--in", "a.rel"),
            "gadget-pwt-half expects a GUGP file",
        ),
        (
            ("verify", "gadget-pwt-half", "--in", "a.gugp", "--source", "a.gugp"),
            "--source must be a T22 file",
        ),
        (("verify", "strip-bounds", "--in", "a.lab"), "strip-bounds expects a GUGP file"),
        (
            ("verify", "half-guarantee", "--in", "a.lab"),
            "half-guarantee expects a GUGP file",
        ),
        (("verify", "tsp-equiv", "--in", "a.gugp"), "tsp-equiv expects a TSP file"),
    ],
)
def test_each_input_names_the_file_type_it_expects(capsys, tmp_path, argv, message):
    for name, text in WRONG_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in WRONG_FILES else arg for arg in argv]
    if argv[0] == "reduce":
        argv += ["--out", str(tmp_path / "out.txt")]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, [], f"error: {message}\n")
    assert not (tmp_path / "out.txt").exists()


def _rel(*lines, k=2, bipartite=0):
    head = ("REL v1", f"k1 {k}", f"k2 {k}", "n 4", f"bipartite {bipartite}")
    return "\n".join(head + lines) + "\n"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (
            ("gen", "--family", "random-gugp", "--seed", "1", "--n", "3", "--m",
             "2", "--k", "2", "--max-ratio=-1/2"),
            None,
            "ratio must be non-negative with positive denominator",
        ),
        (
            ("gen", "--family", "planted-3col", "--seed", "1", "--n", "1", "--m", "1"),
            None,
            "planted-3col needs n >= 2 and m >= 1",
        ),
        (("solve", "brute"), _rel(k=0), "label counts must be positive"),
        (
            ("solve", "brute"),
            _rel("e 0 1 1/1 0", k=0),
            "relation label counts must be positive",
        ),
        (
            ("solve", "brute"),
            _rel("e 0 1 1/1 2 1 1"),
            "line 6: relation of 2 pairs needs 4 label fields",
        ),
        (
            ("solve", "brute"),
            _rel("e 0 1 1/1"),
            "line 6: expected 'e <u> <v> <num>/<den> <m> <a1> <b1> ...'",
        ),
        (("solve", "brute"), _rel("s 0 X", bipartite=1), "line 6: expected 's <v> <V|W>'"),
        (("solve", "brute"), _rel("s 0 V"), "line 6: side line in a non-bipartite file"),
        (
            ("solve", "brute"),
            _rel("s 0 V", "s 0 W", bipartite=1),
            "line 7: duplicate side line for vertex 0",
        ),
        (
            ("reduce", "pwt1"),
            _rel("e 0 1 1/1 1 1 2", k=4),
            "label count must be a power of three (at least 3)",
        ),
        (
            ("reduce", "pwt1"),
            serialize(max3cut_instance(4, ((0, 1),), 2)),
            "edge (0,1) has a colliding coordinate pair",
        ),
        (
            ("verify", "smoothness"),
            _rel("s 0 V", "s 1 W", "s 2 W", "s 3 W", "e 0 1 1/1 1 1 1", bipartite=1),
            "edge (0,1) relation is not a projection: some left label has no image",
        ),
    ],
)
def test_file_refusals_end_in_exit_1_with_one_error_line(
    capsys, tmp_path, argv, text, message
):
    out_file = tmp_path / "out.txt"
    if text is not None:
        (tmp_path / "in.txt").write_text(text)
        argv += ("--in", str(tmp_path / "in.txt"))
    if argv[0] in ("gen", "reduce"):
        argv += ("--out", str(out_file))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, [], f"error: {message}\n")
    assert not out_file.exists()


def test_verify_strip_bounds_and_half_guarantee(capsys, counterexample, tmp_path):
    code, lines, _ = run(capsys, "verify", "strip-bounds", "--in", counterexample)
    assert code == 0
    assert "NOTE=NORMALIZED_UPPER=FAILS" in lines
    assert "NOTE=NORMALIZED_UPPER_BOUND=-1/6" in lines
    neg = write(tmp_path / "neg.gugp", gugp(2, 2, (0, 1, -1, identity(2))))
    code, lines, _ = run(capsys, "verify", "half-guarantee", "--in", neg)
    assert code == 0
    assert "NOTE=VAL=1/1" in lines


def test_local_search_notes_more_iterations_than_vertices(capsys, tmp_path):
    path = str(tmp_path / "long.gugp")
    spec = ("--family", "random-gugp", "--seed", "249", "--n", "4", "--m", "4")
    assert run(capsys, "gen", *spec, "--k", "2", "--nwa", "--out", path)[0] == 0
    note = "NOTE=ITERATIONS_EXCEED_VERTICES=5>4"
    code, out, err = run(capsys, "solve", "local2", "--in", path)
    assert (code, out, err) == (0, ["VAL=1/1", "ITERATIONS=5", note], "")
    code, out, err = run(capsys, "verify", "half-guarantee", "--in", path)
    assert (code, err) == (0, "")
    assert out == [
        "CLAIM=local-search-half-guarantee",
        "VERDICT=PASS",
        "CASES=21",
        "WITNESSES=0",
        "NOTE=VAL=1/1",
        "NOTE=ITERATIONS=5",
        note,
        "NOTE=OPTIMUM=1/1",
        "VERDICT=PASS",
    ]


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


# ---------------------------------------------------------------------------
# CLI-wide fuzz: every subcommand and kind, small arbitrary files and flags


@functools.cache
def _valid_texts() -> tuple[str, ...]:
    """One small valid file per format, and per stage of the README pipelines."""
    three_col = generate(GenSpec(family="planted-3col", seed=2, n=4, m=4)).instance
    pairs = tuple((e.u, e.v) for e in three_col.edges)
    t22 = generate(GenSpec(family="random-t22", seed=3, n=3, m=3, k=2)).instance
    tsp = generate(GenSpec(family="random-tsp", seed=4, n=4)).instance
    mixed = GenSpec("random-gugp", seed=5, n=4, m=6, k=3, max_ratio=Fraction(1, 2))
    nwa = GenSpec("random-gugp", seed=6, n=4, m=6, k=3, nwa=True)
    objects = [three_col, t22, tsp, generate(mixed).instance, generate(nwa).instance]
    for fold in (1, 2):
        repeated = repeat_max3cut(4, pairs[:2], fold)
        objects += [repeated.to_relational(), pwt1_gadget(repeated)[0]]
    objects += [two2two_to_pwt_half(t22)[0], tsp_to_min_nwa(tsp)[0], (1, 2, 1, 3)]
    return tuple(map(serialize, objects))


# tokens that reach the deeper checks when swapped into a valid file
_TOKENS = st.sampled_from(
    ["-1", "0", "1", "2", "3", "1/1", "-1/2", "1/0", "V", "W", "e", "x", ""]
)


@st.composite
def _mutated(draw):
    lines = draw(st.sampled_from(_valid_texts())).splitlines()
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    fields = lines[i].split(" ")
    how = draw(st.sampled_from(["token", "drop", "repeat"]))
    if how == "token":
        j = draw(st.integers(min_value=0, max_value=len(fields) - 1))
        fields[j] = draw(_TOKENS)
        lines[i] = " ".join(fields)
    elif how == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


_LABELINGS = st.one_of(
    st.just(serialize((1, 2, 1, 3))),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5)
    .map(tuple)
    .map(serialize),
)
_ARBITRARY = st.one_of(
    _mutated(),
    gugp_instances(min_m=0).map(serialize),
    relational_instances(min_m=0).map(serialize),
    _LABELINGS,
    st.text(max_size=30),
    st.binary(max_size=30),
)


def _mostly(common, rare, share: int):
    """``common`` in ``share`` of ten draws, else ``rare``."""
    return st.integers(min_value=0, max_value=9).flatmap(
        lambda i: common if i < share else rare
    )


# f0 and f1 are mostly valid pipeline files, f2 mostly a labeling
_FILES = st.tuples(
    _mostly(st.sampled_from(_valid_texts()), _ARBITRARY, 8),
    _mostly(st.sampled_from(_valid_texts()), _ARBITRARY, 5),
    _mostly(_LABELINGS, _ARBITRARY, 5),
)
_PATHS = ("f0", "f1", "f2", "missing", ".", "out", "missing/out")
_IN = st.sampled_from(["f0"] * 4 + ["f1", "f2", "missing", "."])
_LABELING_IN = st.sampled_from(["f2"] * 3 + ["f0", "f1", "missing"])
_SOURCE_IN = st.sampled_from(["f1"] * 3 + ["f0", "f2", "missing"])
_OUT = st.sampled_from(["out"] * 4 + ["missing/out", "."])
_INT_VALUES = [str(i) for i in range(-1, 7)] * 2 + ["x", "", "1/2"]
_INT = st.sampled_from(_INT_VALUES + ["9" * 25])
# a cap past every scan the fuzzed files allow would enumerate the fold-2
# pwt1 gadget's 9^16 labelings; test_a_huge_cap_parses_and_runs covers the
# huge integer
_CAP = st.sampled_from(_INT_VALUES + ["2000000"])
_OBJECTIVES = st.sampled_from([o.value for o in Objective] + ["max"])
# subcommand -> (positional choices, required flags, optional flags), each
# flag with its values; None marks a bare switch
_COMMANDS = {
    "gen": (
        (),
        {
            "--family": st.sampled_from(FAMILIES + ("tsp",)),
            "--seed": _INT,
            "--n": st.sampled_from([str(i) for i in range(2, 8)] + ["-1", "x"]),
            "--m": st.sampled_from([str(i) for i in range(1, 13)] + ["-1", "x"]),
            "--k": _INT,
            "--out": _OUT,
        },
        {
            "--max-ratio": st.sampled_from(["1/2", "0/1", "-1/2", "1/0", "x"]),
            "--nwa": None,
            "--satisfiable": None,
            "--planted-out": _OUT,
        },
    ),
    "reduce": (
        ("tsp-nwa", "repeat3cut", "pwt1", "pwt-half", "strip-neg"),
        {"--in": _IN, "--out": _OUT},
        {"--l": st.sampled_from(["-1", "0", "1", "2", "x"])},
    ),
    "solve": (
        ("brute", "local2"),
        {"--in": _IN},
        {"--objective": _OBJECTIVES, "--cap": _CAP, "--seed": _INT, "--labeling": _OUT},
    ),
    "eval": (
        (),
        {"--in": _IN, "--labeling": _LABELING_IN},
        {"--objective": _OBJECTIVES},
    ),
    "metrics": ((), {"--in": _IN}, {}),
    "verify": (
        ("gadget-pwt1", "gadget-pwt-half", "strip-bounds", "half-guarantee",
         "tsp-equiv", "smoothness"),
        {"--in": _IN},
        {"--source": _SOURCE_IN, "--cap": _CAP, "--seed": _INT},
    ),
}


@st.composite
def _invocations(draw, command):
    kinds, required, optional = _COMMANDS[command]
    argv = [command] + ([draw(st.sampled_from(kinds))] if kinds else [])
    # now and then one required flag is left out
    dropped = draw(st.sampled_from([None] * 9 + list(required)))
    for flag, values in required.items():
        if flag != dropped:
            argv += [flag, draw(values)]
    for flag, values in optional.items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


def test_a_huge_cap_parses_and_runs(tmp_path, capsys):
    path = tmp_path / "two.gugp"
    path.write_text("GUGP v1\nk 2\nn 2\ne 0 1 1/1 2 1\n", encoding="utf-8")
    cap = "9" * 25
    assert main(["solve", "brute", "--in", str(path), "--objective", "max-ugp", "--cap", cap]) == 0
    assert "VISITED=4" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=50, deadline=None)
@given(files=_FILES, data=st.data())
def test_every_cli_invocation_ends_in_a_documented_exit_code(command, files, data):
    argv = data.draw(_invocations(command))
    # each example runs in a fresh directory; the path names resolve into it
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(io.StringIO()):
        for i, content in enumerate(files):
            path = Path(d, f"f{i}")
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
        argv = [str(Path(d, arg)) if arg in _PATHS else arg for arg in argv]
        assert main(argv) in (0, 1, 2, 3)
