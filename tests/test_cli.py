"""CLI contract: flags, exit codes, stream separation, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from afkit.cli import build_parser, main

from support import DIGIT_LIMIT, needs_digit_limit, shephard_table_past_the_digit_limit


def run_main(args, capsys=None):
    code = main(args)
    if capsys is None:
        return code, None, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def checkout_env():
    """The parent's environment with this checkout's sources first on the
    child's PYTHONPATH, so a subprocess imports this afkit, not an
    installed one or none."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_parser_defaults():
    ns = build_parser().parse_args([])
    assert ns.mode == "all"
    assert ns.seed == 0 and ns.trials == 5 and ns.n == 3
    assert ns.r == 2 and ns.m == 2 and ns.grid == 11
    assert ns.tol == 1e-9 and ns.entry_bound == 5
    assert ns.out is None and ns.fixture is None
    assert ns.exact_only is False


def test_invalid_mode_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--mode", "wrong"])
    assert exc.value.code == 2


def test_run_ok_with_out_file(tmp_path):
    out = tmp_path / "run.jsonl"
    code = main(
        ["--mode", "discriminant", "--seed", "7", "--trials", "4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    summary = json.loads(lines[-1])
    assert summary["type"] == "summary"
    assert summary["failures"] == 0


def test_stdout_is_pure_jsonl(capsys):
    code, outs, errs = run_main(
        ["--mode", "shephard", "--trials", "3", "--seed", "1"], capsys
    )
    assert code == 0
    for line in outs.splitlines():
        json.loads(line)
    assert "elapsed" in errs
    assert "3 instances, 0 failures" in errs


def test_determinism_across_invocations(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["--mode", "all", "--seed", "9", "--trials", "2", "--n", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_failing_fixture_exits_1(tmp_path, capsys):
    fx = tmp_path / "bad.json"
    fx.write_text(json.dumps({"r": 1, "d": [["100", "3"], ["3", "1"]]}))
    code, outs, errs = run_main(
        ["--mode", "shephard", "--in", str(fx)], capsys
    )
    assert code == 1
    lines = outs.splitlines()
    assert json.loads(lines[-1])["failures"] == 1
    assert json.loads(lines[0])["witness"] == [1, "-91"]


def test_config_errors_exit_2(tmp_path, capsys):
    cases = [
        ["--trials", "0"],
        ["--mode", "bm", "--exact-only"],
        ["--mode", "volume", "--n", "5"],
        ["--in", str(tmp_path / "missing.json")],
    ]
    for args in cases:
        code, outs, errs = run_main(args, capsys)
        assert code == 2
        assert outs == ""
        assert "configuration error" in errs

    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    code, outs, errs = run_main(["--mode", "shephard", "--in", str(broken)], capsys)
    assert code == 2
    assert "configuration error" in errs

    fx = tmp_path / "ok.json"
    fx.write_text(json.dumps({"r": 1, "d": [["8", "8"], ["8", "8"]]}))
    code, outs, errs = run_main(["--mode", "all", "--in", str(fx)], capsys)
    assert code == 2


def test_exit_2_leaves_no_out_file(tmp_path):
    out = tmp_path / "never.jsonl"
    assert main(["--trials", "0", "--out", str(out)]) == 2
    assert not out.exists()


def test_console_script_subprocess(tmp_path):
    args = [
        sys.executable,
        "-m",
        "afkit.cli",
        "--mode",
        "discriminant",
        "--seed",
        "11",
        "--trials",
        "3",
    ]
    env = checkout_env()
    env.pop("AFKIT_THREADS", None)
    plain = subprocess.run(args, capture_output=True, text=True, env=env)
    assert plain.returncode == 0
    # the suite is serial: a leftover AFKIT_THREADS from older releases
    # changes neither the bytes nor the exit code
    env["AFKIT_THREADS"] = "2"
    leftover = subprocess.run(args, capture_output=True, text=True, env=env)
    assert leftover.returncode == 0
    assert plain.stdout == leftover.stdout
    assert "elapsed" in plain.stderr


def test_cli_import_loads_no_process_pool():
    # instances run serially, so starting the CLI pays for no pool machinery
    code = (
        "import sys, afkit.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=checkout_env()
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_one_dimensional_fixtures_exit_2(tmp_path, capsys):
    one = {"re": "1", "im": "0"}
    fixtures = {
        "volume": {"dim": 1, "bodies": [{"dim": 1, "vertices": [["0"], ["1"]]}]},
        "torus": {"n": 1, "mats": [{"n": 1, "entries": [[one]]}]},
        "discriminant": {"n": 1, "mats": [{"n": 1, "entries": [[one]]}]},
    }
    for mode, obj in fixtures.items():
        fx = tmp_path / f"{mode}.json"
        fx.write_text(json.dumps(obj))
        out = tmp_path / f"{mode}.jsonl"
        code, outs, errs = run_main(
            ["--mode", mode, "--in", str(fx), "--out", str(out)], capsys
        )
        assert code == 2
        assert "configuration error" in errs and "dimension at least 2" in errs
        assert not out.exists()


def test_entry_bound_beyond_64_bits_exits_2(tmp_path, capsys):
    out = tmp_path / "wide.jsonl"
    code, outs, errs = run_main(
        ["--mode", "discriminant", "--entry-bound", str(10 ** 83), "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "entry bound" in errs
    assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "1e400", "-inf", "nan"])
def test_non_finite_tolerance_exits_2(tmp_path, capsys, tol):
    # inf and 1e400 pass the positivity test; strict JSON cannot carry
    # them into the summary line, so they are rejected before any work
    out = tmp_path / "tol.jsonl"
    code, outs, errs = run_main(["--mode", "bm", f"--tol={tol}", "--out", str(out)], capsys)
    assert code == 2
    assert outs == ""
    expected = "must be finite" if tol in ("inf", "1e400") else "must be positive"
    assert f"configuration error: tolerance {expected}" in errs
    assert not out.exists()


def test_shephard_rank_40_finishes():
    # principal-minor sums once took 2^r determinants: r = 16 ran 15 s
    start = time.perf_counter()
    code = main(["--mode", "shephard", "--n", "2", "--r", "40", "--trials", "1", "--out", os.devnull])
    assert code == 0
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unopenable_out_exits_2(tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "run.jsonl"
    code, outs, errs = run_main(["--mode", "discriminant", "--trials", "1", "--out", str(out)], capsys)
    assert code == 2
    assert outs == ""
    assert errs.startswith("afkit: configuration error: ")
    assert "Traceback" not in errs


@pytest.mark.parametrize("payload", ["digits", "nesting"])
def test_unreadable_fixture_numbers_and_nesting_exit_2(tmp_path, capsys, payload):
    if payload == "digits" and not DIGIT_LIMIT:
        pytest.skip("this interpreter has no int/str digit limit")
    fx = tmp_path / "fx.json"
    if payload == "digits":
        fx.write_text(f'{{"r": 1, "d": [[{"7" * (DIGIT_LIMIT + 1)}, "0"], ["0", "1"]]}}')
    else:
        fx.write_text("[" * 200_000 + "]" * 200_000)
    out = tmp_path / "run.jsonl"
    code, outs, errs = run_main(["--mode", "shephard", "--in", str(fx), "--out", str(out)], capsys)
    assert code == 2
    assert errs.startswith("afkit: configuration error: ")
    assert len(errs) < 300
    assert not out.exists()


@needs_digit_limit
def test_witness_past_the_digit_limit_exits_1_with_the_error_recorded(tmp_path, capsys):
    fx = tmp_path / "wide.json"
    fx.write_text(json.dumps(shephard_table_past_the_digit_limit()))
    code, outs, errs = run_main(["--mode", "shephard", "--in", str(fx)], capsys)
    assert code == 1
    first, summary = map(json.loads, outs.splitlines())
    assert first["error"].startswith("SizeLimitError: ")
    assert summary["failed_indices"] == [0]
    assert "Traceback" not in errs
