"""End-to-end CLI tests."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cantordiff
from cantordiff.cli import main


TERNARY_SPEC = '{"family": "central", "ratios": {"rule": "constant", "value": "1/3"}}'
PERTURBED_SPEC = '{"family": "perturbed", "c1": "1/5"}'
TAB_SPEC = (
    '{"family": "tab",'
    ' "a": {"family": "central", "ratios": "1/2"},'
    ' "b": {"family": "central", "ratios": "1/2"}}'
)


@pytest.fixture
def ternary_spec(tmp_path):
    path = tmp_path / "ternary.json"
    path.write_text(TERNARY_SPEC)
    return path


def test_construct_writes_stages_and_gap_tables(tmp_path, ternary_spec):
    out = tmp_path / "out"
    code = main(
        [
            "construct",
            "--spec",
            str(ternary_spec),
            "--max-stage",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stage = json.loads((out / "stage_002.json").read_text())
    assert stage["n"] == 2 and len(stage["components"]) == 4
    gaps = (out / "gaps_002.csv").read_text().splitlines()
    assert gaps[0].startswith("address,lo,hi,stage_created")
    assert gaps[1].startswith(",1/3,2/3,1")
    assert gaps[2].startswith("0,1/9,2/9,2")
    assert gaps[3].startswith("1,7/9,8/9,2")


def test_construct_perturbed_single_gap(tmp_path):
    spec = tmp_path / "p.json"
    spec.write_text(PERTURBED_SPEC)
    out = tmp_path / "out"
    assert main(
        ["construct", "--spec", str(spec), "--max-stage", "1", "--out", str(out)]
    ) == 0
    gaps = (out / "gaps_001.csv").read_text().splitlines()
    assert gaps[1].startswith(",2/5,3/5,1")


def test_invalid_ratio_is_config_error(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text('{"family": "central", "ratios": "1/1"}')
    code = main(
        ["construct", "--spec", str(spec), "--max-stage", "1", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "ratio out of (0,1)" in capsys.readouterr().err


def test_out_of_range_source_ratio_names_its_path(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "family": "tab",
        "a": {"family": "central", "ratios": "1/2"},
        "b": {"family": "central", "ratios": "3/2"},
    }))
    code = main(
        ["construct", "--spec", str(spec), "--max-stage", "1", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "spec.b.ratios: ratio out of (0,1)" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    spec = tmp_path / "broken.json"
    spec.write_text('{"family":\n "central",,}')
    code = main(
        ["construct", "--spec", str(spec), "--max-stage", "1", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_exponent_notation_is_refused_at_once(tmp_path):
    # Fraction expands "1e99999999" into a 10^8-digit integer; the
    # spec reader refuses exponent notation before that starts.
    spec = tmp_path / "huge.json"
    spec.write_text('{"family": "perturbed", "c1": "1e99999999"}')
    src = str(Path(cantordiff.__file__).parents[1])
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", "construct", "--spec", str(spec),
         "--max-stage", "1", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": src},
    )
    elapsed = time.perf_counter() - started
    assert result.returncode == 2, result.stderr
    assert "spec.c1: invalid rational '1e99999999'" in result.stderr
    assert elapsed < 10


def test_huge_max_stage_is_clamped_at_once(tmp_path, ternary_spec):
    # The clamp must not walk down from 2^100000 one stage at a time.
    out = tmp_path / "out"
    src = str(Path(cantordiff.__file__).parents[1])
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", "construct", "--spec",
         str(ternary_spec), "--max-stage", "100000", "--budget", "16",
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": src},
    )
    elapsed = time.perf_counter() - started
    assert result.returncode == 0, result.stderr
    assert "clamped to 4" in result.stderr
    assert (out / "stage_004.json").exists()
    assert not (out / "stage_005.json").exists()
    assert elapsed < 10


def test_tamc_chain_beyond_budget_is_refused_at_once(tmp_path):
    # Base 2^-30 puts the chain's stage near 30; scanning toward it with
    # exact component lengths must stop at the budget's deepest stage.
    spec = tmp_path / "steep.json"
    spec.write_text(
        '{"family": "central", "ratios": '
        '{"rule": "geometric", "base": "1/1073741824"}}'
    )
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", "verify", "tamc", "--spec",
         str(spec), "--max-stage", "6"],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 2, result.stderr
    assert "needs a stage beyond 14" in result.stderr


def test_tab_stage8_diff_bounds_finishes(tmp_path):
    # Tab 1/2,1/2 stage 8 has 3,535 gaps and 7,072 endpoints; a bracket
    # that sums every gap with every endpoint takes about 20 s on 2 vCPUs.
    spec = tmp_path / "tab.json"
    spec.write_text(TAB_SPEC)
    out = tmp_path / "out"
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", "diff-bounds", "--spec", str(spec),
         "--max-stage", "8", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=15,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert (out / "diff_bounds.json").exists()


def test_construct_over_budget_writes_nothing(tmp_path, capsys):
    # Tab 1/2,1/2 fits the budget of 8 up to stage 2 and fails at stage 3:
    # no stage file may be left behind.
    spec = tmp_path / "tab.json"
    spec.write_text(TAB_SPEC)
    out = tmp_path / "out"
    code = main(
        ["construct", "--spec", str(spec), "--max-stage", "4", "--budget", "8",
         "--out", str(out)]
    )
    assert code == 2
    assert "budget allows 8" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_diff_bounds_csv(tmp_path, ternary_spec):
    out = tmp_path / "out"
    code = main(
        [
            "diff-bounds",
            "--spec",
            str(ternary_spec),
            "--max-stage",
            "2",
            "--out",
            str(out),
            "--format",
            "csv",
            "--plot-data",
        ]
    )
    assert code == 0
    rows = (out / "diff_bounds.csv").read_text().splitlines()
    assert rows[1].startswith("0,0/1,2/1,2/1,0")
    assert rows[2].startswith("1,4/3,2/1,2/3,3")
    dat = (out / "diff_bounds.dat").read_text().splitlines()
    assert dat[0].startswith("#")
    assert dat[2].split()[1] == "1.3333333333333333333"


def test_measure_scan_json(tmp_path, ternary_spec):
    out = tmp_path / "out"
    code = main(
        [
            "measure-scan",
            "--spec",
            str(ternary_spec),
            "--max-stage",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = json.loads((out / "measure_scan.json").read_text())
    assert records[3]["m_middle"] == "0/1"
    assert records[0]["m_outer"] == "2/1"


def test_verify_pass_and_report(tmp_path, ternary_spec):
    out = tmp_path / "out"
    code = main(
        [
            "verify",
            "ccp",
            "--spec",
            str(ternary_spec),
            "--max-stage",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "verify_ccp.json").read_text())
    assert report["passed"] is True
    assert len(report["assertions"]) == 5
    assert report["assertions"][1]["details"]["missing_measure"] == "2/3"


def test_verify_incompatible_selector(tmp_path, capsys):
    spec = tmp_path / "quarter.json"
    spec.write_text('{"family": "central", "ratios": "1/4"}')
    code = main(["verify", "t13", "--spec", str(spec), "--max-stage", "3"])
    assert code == 2
    assert "at least 1/3" in capsys.readouterr().err


def test_verify_tab_stdout(tmp_path, capsys):
    spec = tmp_path / "tab.json"
    spec.write_text(TAB_SPEC)
    code = main(["verify", "tab", "--spec", str(spec), "--max-stage", "3"])
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["suite"] == "tab"
    assert report["passed"] is True


def test_budget_clamps_stage_with_warning(tmp_path, ternary_spec, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "construct",
            "--spec",
            str(ternary_spec),
            "--max-stage",
            "8",
            "--budget",
            "16",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "clamped to 4" in capsys.readouterr().err
    assert (out / "stage_004.json").exists()
    assert not (out / "stage_005.json").exists()


def test_diff_bounds_json_embeds_brackets(tmp_path, ternary_spec):
    out = tmp_path / "out"
    assert main(
        [
            "diff-bounds",
            "--spec",
            str(ternary_spec),
            "--max-stage",
            "1",
            "--out",
            str(out),
        ]
    ) == 0
    records = json.loads((out / "diff_bounds.json").read_text())
    bracket = records[1]["bracket"]
    assert bracket["inner"][0]["lo"] == "-2/3"
    assert {p["lo"] for p in bracket["missing_outer"]} >= {"-1/3", "0/1", "1/3"}


def test_verify_deterministic_bytes(tmp_path, ternary_spec):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(
            [
                "verify",
                "tamc",
                "--spec",
                str(ternary_spec),
                "--max-stage",
                "4",
                "--out",
                str(out),
                "--format",
                "csv",
            ]
        ) == 0
    for name in ("verify_tamc.json", "verify_tamc.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


UNREADABLE_SPECS = {
    "missing": None,
    "not-utf8": b"\xff\xfe",
    "long-integer": b'{"family":"perturbed","c1":1' + b"0" * 5000 + b"}",
    "deep-nesting": b"[" * 100_000,
}


@pytest.mark.parametrize("name", UNREADABLE_SPECS)
def test_unreadable_spec_is_config_error(tmp_path, capsys, name):
    content = UNREADABLE_SPECS[name]
    spec = tmp_path / f"{name}.json"
    if content is not None:
        spec.write_bytes(content)
    code = main(
        ["construct", "--spec", str(spec), "--max-stage", "1", "--out", str(tmp_path)]
    )
    assert code == 2
    assert f"error: {spec}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["construct"],
        ["diff-bounds"],
        ["measure-scan"],
        ["verify", "steinhaus"],
        ["verify", "t13"],
    ],
    ids=" ".join,
)
def test_negative_max_stage_is_refused(tmp_path, ternary_spec, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as caught:
        main([*command, "--spec", str(ternary_spec), "--max-stage", "-1",
              "--out", str(out)])
    assert caught.value.code == 2
    assert "--max-stage: must be at least 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize(
    "command",
    [["construct"], ["diff-bounds"], ["measure-scan"], ["verify", "ccp"]],
    ids=" ".join,
)
def test_budget_below_one_is_refused(tmp_path, capsys, command, budget):
    # Refused while the arguments are parsed: the spec, which does not
    # exist, is never read, and no stage is clamped.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as caught:
        main([*command, "--spec", str(tmp_path / "missing.json"), "--max-stage", "8",
              "--budget", budget, "--out", str(out)])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert f"--budget: must be at least 1, got {budget}" in err
    assert "clamped" not in err and "missing.json" not in err
    assert not out.exists()


def test_verify_csv_without_out_is_refused(ternary_spec, capsys):
    # Without --out the JSON report goes to stdout and the CSV table
    # would go nowhere.
    with pytest.raises(SystemExit) as caught:
        main(["verify", "ccp", "--spec", str(ternary_spec), "--max-stage", "2",
              "--format", "csv"])
    assert caught.value.code == 2
    captured = capsys.readouterr()
    assert "--format csv needs --out" in captured.err
    assert captured.out == ""


def test_reports_are_utf8_whatever_the_locale(tmp_path, ternary_spec):
    # Every report is opened with an explicit encoding: a default one
    # would be the locale's, and here raises an EncodingWarning as error.
    src = str(Path(cantordiff.__file__).parents[1])
    commands = [
        ["construct"],
        ["diff-bounds", "--plot-data"],
        ["verify", "tamc", "--format", "csv"],
    ]
    for command in commands:
        out = tmp_path / command[0]
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "cantordiff.cli", *command,
             "--spec", str(ternary_spec), "--max-stage", "2", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, (command, result.stderr)
        for path in out.iterdir():
            assert b"\r" not in path.read_bytes(), path


def test_construct_twice_in_one_process_gives_the_same_bytes(tmp_path):
    spec = tmp_path / "tab.json"
    spec.write_text(TAB_SPEC)
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert main(
            ["construct", "--spec", str(spec), "--max-stage", "6", "--out", str(out)]
        ) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert len(names) == 14
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize(
    "command",
    [
        ["construct", "--format", "csv"],
        ["construct", "--plot-data"],
        ["verify", "ccp", "--plot-data"],
    ],
    ids=" ".join,
)
def test_flags_a_subcommand_ignores_are_refused(
    tmp_path, ternary_spec, capsys, command
):
    with pytest.raises(SystemExit) as caught:
        main([*command, "--spec", str(ternary_spec), "--max-stage", "1",
              "--out", str(tmp_path / "out")])
    assert caught.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["construct"], ["diff-bounds"], ["verify", "ccp"]], ids=" ".join
)
def test_unwritable_out_is_config_error(tmp_path, ternary_spec, command):
    # An output directory under a regular file cannot be made: exit 2
    # with an error line, not a traceback and exit 1.
    blocker = tmp_path / "file"
    blocker.write_text("")
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", *command, "--spec", str(ternary_spec),
         "--max-stage", "1", "--out", str(blocker / "out")],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_cli_import_leaves_logging_out():
    # Start-up cost: the package logs nothing, so importing the CLI
    # must not pull in the logging package.
    src = str(Path(cantordiff.__file__).parents[1])
    code = "import sys, cantordiff.cli; print('logging' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_every_exported_name_resolves():
    # A name left in __all__ after its definition goes breaks
    # ``from module import *``.
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(cantordiff.__path__):
        module = importlib.import_module(f"cantordiff.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


GREEDY_QUARTER_SPEC = (
    '{"family": "greedy",'
    ' "b": {"family": "central", "ratios": {"rule": "geometric", "base": "1/4"}}}'
)


@pytest.mark.parametrize(
    "command,spec_text,max_stage,needs",
    [
        # Bracketing stages 0-14 of greedy 1/4 first took 3 to 60 s
        # before stage 15 was refused; requesting the deepest stage
        # first takes well under a second.
        *(
            pytest.param(command, GREEDY_QUARTER_SPEC, 15, "32768", id=command)
            for command in ("diff-bounds", "measure-scan")
        ),
        # 2**100000 has too many digits for str() to print.
        *(
            pytest.param(command, TAB_SPEC, 100000, "2^100000", id=f"{command}-tab")
            for command in ("diff-bounds", "measure-scan")
        ),
    ],
)
def test_over_budget_max_stage_is_refused_before_any_bracket(
    tmp_path, command, spec_text, max_stage, needs
):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", command, "--spec", str(spec),
         "--max-stage", str(max_stage), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=5,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == (
        f"error: stage needs {needs} components, budget allows 16384\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["diff-bounds", "measure-scan"])
def test_refused_stage_computes_no_bracket(tmp_path, capsys, monkeypatch, command):
    # Tab 1/2,1/2 fits the budget of 64 up to stage 4 and fails at stage 5.
    # Every inner bracket filters with minus_translates; no stage does.
    from cantordiff.intervals import IntervalUnion

    def bracket(*args):
        raise AssertionError("a bracket was computed before the refusal")

    monkeypatch.setattr(IntervalUnion, "minus_translates", bracket)
    spec = tmp_path / "tab.json"
    spec.write_text(TAB_SPEC)
    code = main(
        [command, "--spec", str(spec), "--max-stage", "5", "--budget", "64",
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: stage needs 153 components, budget allows 64\n"
    )


def _run_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_construct_imports_neither_analysis_nor_verify(tmp_path, ternary_spec):
    code = (
        "import sys\n"
        "from cantordiff.cli import main\n"
        f"code = main(['construct', '--spec', {str(ternary_spec)!r},"
        f" '--max-stage', '2', '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('cantordiff.')))\n"
    )
    assert _run_python(code).split(" ", 1) == [
        "0",
        "['cantordiff.cli', 'cantordiff.constructions', 'cantordiff.errors', "
        "'cantordiff.intervals', 'cantordiff.jsonio']\n",
    ]
    assert (tmp_path / "out" / "gaps_002.csv").exists()


def test_importing_the_package_loads_no_module():
    code = (
        "import sys, cantordiff\n"
        "print(sorted(m for m in sys.modules if m.startswith('cantordiff.')),"
        " [n for n in vars(cantordiff) if not n.startswith('_')])\n"
    )
    assert _run_python(code) == "[] []\n"


def test_each_exported_name_is_defined_in_its_module():
    # A name exported from a module that imports it is a second import
    # path; builtin and typing aliases (``NodeAddress = str``) are skipped.
    import importlib
    import inspect
    import pkgutil

    for info in pkgutil.iter_modules(cantordiff.__path__):
        module = importlib.import_module(f"cantordiff.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                if value.__module__.startswith("cantordiff."):
                    assert value.__module__ == module.__name__, (module.__name__, name)


def test_suite_choices_are_the_verify_suites():
    from cantordiff import cli
    from cantordiff.verify import SUITES

    assert cli._SUITE_NAMES == tuple(sorted(SUITES))
