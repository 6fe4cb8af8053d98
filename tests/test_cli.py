"""CLI surface: output shapes, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from genpos import families, statements
from genpos.cli import main
from genpos.graph6 import parse_graph6
from genpos.products import strong_product

# SHA-256 of `verify --statements all --corpus exhaustive:4`; a change that
# moves it must say why the verdict stream changed.
EXHAUSTIVE_4_SHA256 = "633600286e2b35ca918063d8b8619a089119bf57a5fa6108849253eb8da9a32b"

# SHA-256 of `verify --statements all --corpus WIDE_PAIRS`: factors of order
# up to 7 reach the S22 and S26 strong resolving and SRS graph paths that
# exhaustive:4 does not.
WIDE_PAIRS = (
    "pairs:family:path:2,path:5,cycle:5,complete:3,star:3,cycle_plus:5,"
    "subdivided_star:3,1,complete:1"
    "xfamily:path:3,cycle:4,complete:4,path:6,cycle:6,star:4,complete:1"
)
WIDE_PAIRS_SHA256 = "de0f536aef20e6bd7bae6cf7e87ea21fc7ce06d529d0811addc7a17351118163"

# SHA-256 of `genpos statements`: ids, arities and descriptions of the catalog.
STATEMENTS_SHA256 = "8a52a56625606a32a04b613b6a421dd1183e35c3724dd3ac323c56d270efc01c"

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """``python *args`` in a child process that imports this checkout's genpos."""
    src = os.path.dirname(os.path.dirname(statements.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_invariants_family(capsys):
    code, out, _ = run(capsys, "invariants", "family:cycle:5")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 5 and obj["diam"] == 2 and obj["b"] == 5
    assert obj["s"] == 0 and obj["gp_o"] == 2


def test_invariants_graph6_and_witnesses(capsys):
    code, out, _ = run(capsys, "invariants", "Dhc", "--witnesses")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["witnesses"]["gp"]) == obj["gp"] == 3


def test_invariants_oracle_engine(capsys):
    code, out, _ = run(capsys, "invariants", "family:path:4", "--oracle")
    assert code == 0
    assert json.loads(out)["gp_t"] == 2


def test_invariants_disconnected(capsys):
    code, _, err = run(capsys, "invariants", "A?")
    assert code == 2 and "disconnected" in err
    code, out, _ = run(capsys, "invariants", "A?", "--allow-disconnected")
    assert code == 0
    assert json.loads(out)["connected"] is False


def test_product_strong_k4(capsys):
    code, out, _ = run(capsys, "product", "strong", "family:path:2", "family:path:2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "C~"
    assert lines[1].startswith("# codec:")


def test_product_above_short_graph6_form(capsys):
    code, out, _ = run(capsys, "product", "strong", "family:cycle:8", "family:cycle:8")
    assert code == 0
    line = out.splitlines()[0]
    cycle = families.generate(families.parse_family("cycle:8"))
    assert parse_graph6(line) == strong_product(cycle, cycle).graph


def test_product_lex_with_invariants(capsys):
    code, out, _ = run(capsys, "product", "lex", "family:path:3",
                       "family:complete:2", "--invariants")
    assert code == 0
    obj = json.loads(out.splitlines()[2])
    assert obj["n"] == 6 and obj["gp_o"] == 4


def test_product_invariants_of_a_disconnected_product(capsys):
    code, out, _ = run(capsys, "product", "strong", "B?", "family:path:2", "--invariants")
    assert code == 0
    assert out.splitlines()[-1] == (
        '{"alpha": 3, "connected": false, "max_degree": 1, "n": 6, "n1": 6, "omega": 2}')


def test_product_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("GP_VERTEX_CAP", "10")
    code, _, err = run(capsys, "product", "strong", "family:path:4", "family:path:4")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("GP_VERTEX_CAP", "banana")
    code, _, err = run(capsys, "product", "strong", "family:path:2", "family:path:2")
    assert code == 2
    monkeypatch.setenv("GP_VERTEX_CAP", "0")
    code, _, err = run(capsys, "product", "strong", "family:path:2", "family:path:2")
    assert code == 2 and "GP_VERTEX_CAP must be a positive integer, got '0'" in err


def test_corpus_stream(capsys):
    code, out, _ = run(capsys, "corpus", "exhaustive:3")
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run(capsys, "corpus", "family:star:3")
    assert code == 0 and len(out.splitlines()) == 1


def test_corpus_pairs_stream(capsys):
    code, out, _ = run(capsys, "corpus", "pairs:family:path:2,path:3xexhaustive:2")
    assert code == 0
    assert out.splitlines() == ["A_,A_", "Bg,A_"]


def test_corpus_cap_exit(capsys):
    code, _, err = run(capsys, "corpus", "exhaustive:7")
    assert code == 2 and err


@pytest.mark.parametrize("corpus", ["family:", "pairs:family:path:3xfamily:"])
def test_verify_empty_family_corpus_exits_2(capsys, corpus):
    code, out, err = run(capsys, "verify", "--statements", "S1,S5", "--corpus", corpus)
    assert code == 2
    assert err.startswith("error: ") and "family corpus names no family" in err
    assert "Traceback" not in err
    assert out == ""


def test_verify_single_fixed_statement(capsys):
    code, out, _ = run(capsys, "verify", "--statements", "S14")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[0]["outcome"] == "holds"
    assert lines[-1]["type"] == "summary" and lines[-1]["fails"] == 0


def test_verify_exit_1_on_fails(capsys):
    code, out, _ = run(capsys, "verify", "--statements", "S17")
    assert code == 1
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[-1]["fails"] == 1


def test_verify_exhaustive_4_stream_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--statements", "all", "--corpus", "exhaustive:4")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == EXHAUSTIVE_4_SHA256


def test_verify_wide_pair_stream_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--statements", "all", "--corpus", WIDE_PAIRS)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_PAIRS_SHA256


def test_verify_wide_pair_stream_is_pinned_with_two_jobs(capsys):
    # WIDE_PAIRS heads several pairs with each first graph; its 71 groups
    # (14 graphs, 56 pairs, the fixed statements) reach both workers in 18
    # hand-offs.
    code, out, _ = run(capsys, "verify", "--statements", "all", "--corpus", WIDE_PAIRS,
                       "--jobs", "2")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_PAIRS_SHA256


def test_verify_file_corpus_with_a_disconnected_graph(capsys, tmp_path):
    # B? (three isolated vertices) next to path:3: every graph and pair
    # verdict with B? is precondition-not-met, so the only fails verdict left
    # is the documented S17 one and the run exits 1, not 2.
    corpus = tmp_path / "mixed.g6"
    corpus.write_text("B?\nBg\n")
    code, out, err = run(capsys, "verify", "--statements", "all", "--corpus", f"file:{corpus}")
    assert code == 1 and err == ""
    lines = [json.loads(l) for l in out.splitlines()]
    fails = [(l["statement"], l["instance"]) for l in lines[:-1] if l["outcome"] == "fails"]
    assert fails == [("S17", "cycle_plus:7")]
    assert lines[-1]["fails"] == 1
    skipped = [l for l in lines[:-1] if "B?" in l["instance"].split(",")]
    arity = [st.arity for st in statements.STATEMENTS.values()]
    # each graph statement on B?, each pair statement on (B?, Bg) and (Bg, B?)
    assert len(skipped) == arity.count("graph") + 2 * arity.count("pair")
    assert all(l["outcome"] == "precondition-not-met"
               and l["note"] == "requires connected graphs" for l in skipped)


def test_internal_error_exits_2(capsys, monkeypatch):
    def crash(g, h):
        raise RuntimeError("injected crash")

    monkeypatch.setitem(statements.STATEMENTS, "S10",
                        statements.Statement("S10", "pair", "crashes", crash))
    code, out, err = run(capsys, "verify", "--statements", "S10", "--corpus", "exhaustive:3")
    assert code == 2
    assert "RuntimeError: injected crash" in err and "Traceback" in err
    assert '"summary"' not in out


def test_verify_unknown_statement(capsys):
    code, _, err = run(capsys, "verify", "--statements", "bogus")
    assert code == 2 and err


@pytest.mark.parametrize("text", [" all", "all ", "\tall\n"])
def test_verify_statement_list_ignores_surrounding_whitespace(capsys, text):
    _, want, _ = run(capsys, "verify", "--statements", "all", "--corpus", "exhaustive:3")
    code, out, err = run(capsys, "verify", "--statements", text, "--corpus", "exhaustive:3")
    assert (code, err) == (1, "")
    assert out == want


def test_verify_empty_statement_list_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--statements", "", "--corpus", "exhaustive:3")
    assert code == 2
    assert "no statement ids given" in err
    assert out == ""


def test_verify_repeated_statement_runs_once(capsys):
    code, out, _ = run(capsys, "verify", "--statements", "S1,S1", "--corpus", "exhaustive:3")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 4 + 1
    assert lines[-1]["total"] == 4


def test_verify_deterministic_output(capsys):
    args = ("verify", "--statements", "S1,S2,S4", "--corpus", "exhaustive:4")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = [json.loads(l) for l in out1.splitlines()]
    assert lines[-1]["fails"] == 0
    assert all(l["outcome"] == "holds" for l in lines[:-1])


def test_verify_jobs_output_identical(capsys):
    base = ("verify", "--statements", "S1,S9", "--corpus", "exhaustive:3")
    _, out1, _ = run(capsys, *base, "--jobs", "1")
    _, out2, _ = run(capsys, *base, "--jobs", "3")
    assert out1 == out2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "--statements", "S17", "--jobs", jobs)
    assert code == 2
    assert f"jobs must be at least 1, got {jobs}" in err
    assert out == ""


def test_verify_exhaustive_script_strips_statement_ids():
    proc = run_python(os.path.join(SCRIPTS, "verify_exhaustive.py"),
                      "--statements", "S1, S2", "--min-n", "3", "--max-n", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n=3: 4 graphs, 8 verdicts, 0 fails")


@pytest.mark.parametrize("argv", [("--statements", "bogus"), ("--jobs", "0")])
def test_verify_exhaustive_script_bad_argument_exits_2(argv):
    # exit 1 is "some statement fails", so a bad argument must not end with it
    proc = run_python(os.path.join(SCRIPTS, "verify_exhaustive.py"), *argv, "--max-n", "2")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,code,lines", [
    (("statements",), 0, 27),
    (("verify", "--statements", "bogus"), 2, 0),
])
def test_python_dash_m_runs_the_cli(argv, code, lines):
    proc = run_python("-m", "genpos", *argv)
    assert proc.returncode == code, proc.stderr
    assert len(proc.stdout.splitlines()) == lines


LEAN_IMPORT_PROBE = """
import sys
import genpos
print(sorted(m for m in ("dataclasses", "inspect", "genpos.statements") if m in sys.modules))
from genpos import cli
cli.main(["invariants", "family:cycle:5"])
print("genpos.statements" in sys.modules)
"""


def test_import_and_invariants_leave_the_catalog_unloaded():
    # neither the package nor the commands that compute one graph's numbers
    # need dataclasses (nor the inspect it imports) or the statement catalog
    proc = run_python("-c", LEAN_IMPORT_PROBE)
    assert proc.returncode == 0, proc.stderr
    before, bundle, after = proc.stdout.splitlines()
    assert before == "[]"
    assert json.loads(bundle)["n"] == 5
    assert after == "False"


def test_statements_listing(capsys):
    code, out, _ = run(capsys, "statements")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 27
    assert lines[0]["id"] == "S1" and lines[-1]["id"] == "S27"
    assert hashlib.sha256(out.encode()).hexdigest() == STATEMENTS_SHA256


def test_bad_usage(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "invariants", "not graph6 at all!")[0] == 2
