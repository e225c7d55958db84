"""End-to-end CLI tests."""

import ast
import gc
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
    path.write_text(TERNARY_SPEC, encoding="utf-8")
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
    stage = json.loads((out / "stage_002.json").read_text(encoding="utf-8"))
    assert stage["n"] == 2 and len(stage["components"]) == 4
    gaps = (out / "gaps_002.csv").read_text(encoding="utf-8").splitlines()
    assert gaps[0].startswith("address,lo,hi,stage_created")
    assert gaps[1].startswith(",1/3,2/3,1")
    assert gaps[2].startswith("0,1/9,2/9,2")
    assert gaps[3].startswith("1,7/9,8/9,2")


def test_construct_perturbed_single_gap(tmp_path):
    spec = tmp_path / "p.json"
    spec.write_text(PERTURBED_SPEC, encoding="utf-8")
    out = tmp_path / "out"
    assert main(
        ["construct", "--spec", str(spec), "--max-stage", "1", "--out", str(out)]
    ) == 0
    gaps = (out / "gaps_001.csv").read_text(encoding="utf-8").splitlines()
    assert gaps[1].startswith(",2/5,3/5,1")


def test_invalid_ratio_is_config_error(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text('{"family": "central", "ratios": "1/1"}', encoding="utf-8")
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
    }), encoding="utf-8")
    code = main(
        ["construct", "--spec", str(spec), "--max-stage", "1", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "spec.b.ratios: ratio out of (0,1)" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    spec = tmp_path / "broken.json"
    # a bare CR ends a line too, as in a text-mode read
    for end in (b"\n", b"\r\n", b"\r"):
        spec.write_bytes(b'{"family":' + end + b' "central",,}')
        code = main(["construct", "--spec", str(spec), "--out", str(tmp_path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err


def test_exponent_notation_is_refused_at_once(tmp_path):
    # Fraction expands "1e99999999" into a 10^8-digit integer; the
    # spec reader refuses exponent notation before that starts.
    spec = tmp_path / "huge.json"
    spec.write_text('{"family": "perturbed", "c1": "1e99999999"}', encoding="utf-8")
    src = str(Path(cantordiff.__file__).parents[1])
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", "construct", "--spec", str(spec),
         "--max-stage", "1", "--out", str(tmp_path / "out")],
        capture_output=True,
        encoding="utf-8",
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
        encoding="utf-8",
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
        '{"rule": "geometric", "base": "1/1073741824"}}',
        encoding="utf-8",
    )
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", "verify", "tamc", "--spec",
         str(spec), "--max-stage", "6"],
        capture_output=True,
        encoding="utf-8",
        timeout=20,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 2, result.stderr
    assert "needs a stage beyond 14" in result.stderr


def test_t13_beyond_budget_names_its_cover_stage(
    tmp_path, ternary_spec, capsys, monkeypatch
):
    # The covers certify on stage 8 whatever --max-stage is; the refusal
    # comes before any stage is requested.
    from cantordiff import constructions

    def stage(*args):
        raise AssertionError("a stage was requested before the refusal")

    monkeypatch.setattr(constructions, "_stage", stage)
    code = main(
        ["verify", "t13", "--spec", str(ternary_spec), "--max-stage", "0",
         "--budget", "16", "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: suite 't13' certifies its covers on stage 8, beyond 4, "
        "the deepest the component budget 16 holds\n"
    )
    assert not (tmp_path / "out").exists()


def test_tab_stage8_diff_bounds_finishes(tmp_path):
    # Tab 1/2,1/2 stage 8 has 3,535 gaps and 7,072 endpoints; a bracket
    # that sums every gap with every endpoint takes about 20 s on 2 vCPUs.
    spec = tmp_path / "tab.json"
    spec.write_text(TAB_SPEC, encoding="utf-8")
    out = tmp_path / "out"
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", "diff-bounds", "--spec", str(spec),
         "--max-stage", "8", "--out", str(out)],
        capture_output=True,
        encoding="utf-8",
        timeout=15,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert (out / "diff_bounds.json").exists()


def test_construct_over_budget_writes_nothing(tmp_path, capsys):
    # Tab 1/2,1/2 fits the budget of 8 up to stage 2 and fails at stage 3:
    # no stage file may be left behind.
    spec = tmp_path / "tab.json"
    spec.write_text(TAB_SPEC, encoding="utf-8")
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
    rows = (out / "diff_bounds.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].startswith("0,0/1,2/1,2/1,0")
    assert rows[2].startswith("1,4/3,2/1,2/3,3")
    dat = (out / "diff_bounds.dat").read_text(encoding="utf-8").splitlines()
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
    records = json.loads((out / "measure_scan.json").read_text(encoding="utf-8"))
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
    report = json.loads((out / "verify_ccp.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert len(report["assertions"]) == 5
    assert report["assertions"][1]["details"]["missing_measure"] == "2/3"


def test_verify_incompatible_selector(tmp_path, capsys):
    spec = tmp_path / "quarter.json"
    spec.write_text('{"family": "central", "ratios": "1/4"}', encoding="utf-8")
    code = main(["verify", "t13", "--spec", str(spec), "--max-stage", "3"])
    assert code == 2
    assert "at least 1/3" in capsys.readouterr().err


def test_verify_tab_stdout(tmp_path, capsys):
    spec = tmp_path / "tab.json"
    spec.write_text(TAB_SPEC, encoding="utf-8")
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
    records = json.loads((out / "diff_bounds.json").read_text(encoding="utf-8"))
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


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_spec_file_is_refused(tmp_path):
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", "construct", "--spec", "/dev/zero",
         "--out", str(tmp_path / "out")],
        capture_output=True,
        encoding="utf-8",
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 2
    assert result.stderr == (
        "error: /dev/zero: cannot read spec: longer than 1048576 bytes\n"
    )
    assert not (tmp_path / "out").exists()


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
            encoding="utf-8",
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, (command, result.stderr)
        for path in out.iterdir():
            assert b"\r" not in path.read_bytes(), path


def test_construct_twice_in_one_process_gives_the_same_bytes(tmp_path):
    spec = tmp_path / "tab.json"
    spec.write_text(TAB_SPEC, encoding="utf-8")
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
    blocker.write_text("", encoding="utf-8")
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", *command, "--spec", str(ternary_spec),
         "--max-stage", "1", "--out", str(blocker / "out")],
        capture_output=True,
        encoding="utf-8",
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
        encoding="utf-8",
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
    "args,spec_text,max_stage,needs",
    [
        # Bracketing stages 0-14 of greedy 1/4 first took 3 to 60 s
        # before stage 15 was refused; requesting the deepest stage
        # first takes well under a second.
        *(
            pytest.param([command], GREEDY_QUARTER_SPEC, 15, "32768", id=command)
            for command in ("diff-bounds", "measure-scan")
        ),
        # 2**100000 has too many digits for str() to print.
        *(
            pytest.param([command], TAB_SPEC, 100000, "2^100000", id=f"{command}-tab")
            for command in ("diff-bounds", "measure-scan")
        ),
        # Every command and suite requests its deepest stage first, so
        # none builds a stage before the refusal.
        *(
            pytest.param(args, TAB_SPEC, 100000, "2^100000", id="-".join(args))
            for args in (["construct"], ["verify", "tab"], ["verify", "steinhaus"])
        ),
        pytest.param(
            ["verify", "cspm"], GREEDY_QUARTER_SPEC, 100000, "2^100000",
            id="verify-cspm",
        ),
    ],
)
def test_over_budget_max_stage_is_refused_before_any_bracket(
    tmp_path, args, spec_text, max_stage, needs
):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text, encoding="utf-8")
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", *args, "--spec", str(spec),
         "--max-stage", str(max_stage), "--out", str(tmp_path / "out")],
        capture_output=True,
        encoding="utf-8",
        timeout=5,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == (
        f"error: stage needs {needs} components, budget allows 16384\n"
    )
    assert not (tmp_path / "out").exists()


def _address_space_cap():
    # The child's own address space: a refusal that builds 2^n or
    # base**n on the way fails with MemoryError instead of exit 2.
    import resource

    cap = 192 << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize(
    "args,spec_text,max_stage,needs",
    [
        # 2 ** 4_000_000_000 alone is half a gigabyte.
        *(
            pytest.param(
                [command], TAB_SPEC, "4000000000", "2^4000000000", id=command
            )
            for command in ("diff-bounds", "measure-scan")
        ),
        # 4 ** 300_000_001, the cspm tail's denominator, takes 75 MB.
        pytest.param(
            ["verify", "cspm"], GREEDY_QUARTER_SPEC, "300000000", "2^300000000",
            id="cspm",
        ),
    ],
)
def test_huge_max_stage_is_refused_without_building_its_count(
    tmp_path, args, spec_text, max_stage, needs
):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text, encoding="utf-8")
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", *args, "--spec", str(spec),
         "--max-stage", max_stage, "--out", str(tmp_path / "out")],
        capture_output=True,
        encoding="utf-8",
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_address_space_cap,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == (
        f"error: stage needs {needs} components, budget allows 16384\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args,spec_text,name,cap",
    [
        pytest.param(["verify", "tab"], TAB_SPEC, "verify_tab.json", 1_000,
                     id="verify"),
        pytest.param(["diff-bounds"], TERNARY_SPEC, "diff_bounds.json", 4_000,
                     id="diff-bounds"),
        pytest.param(["measure-scan", "--format", "csv"], TERNARY_SPEC,
                     "measure_scan.csv", 300, id="measure-scan"),
        # Stages 0-8 fit under the cap and stage 9 does not: every stage
        # file of the run is removed, not only stage 9's.
        pytest.param(["construct", "--max-stage", "9"], TERNARY_SPEC,
                     "stage_000.json", 100_000, id="construct"),
    ],
)
def test_a_report_cut_short_is_removed(tmp_path, args, spec_text, name, cap):
    # A child that may write no file past ``cap`` bytes, as on a full
    # disk: the report is longer, so its write fails with EFBIG.
    def file_size_cap():
        import resource

        resource.setrlimit(resource.RLIMIT_FSIZE, (cap, cap))

    spec = tmp_path / "spec.json"
    spec.write_text(spec_text, encoding="utf-8")
    out = tmp_path / "out"
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", *args, "--spec", str(spec),
         "--out", str(out)],
        capture_output=True,
        encoding="utf-8",
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=file_size_cap,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: [Errno 27] File too large\n"
    assert out.is_dir() and not (out / name).exists()


@pytest.mark.parametrize(
    "args,written,blocked",
    [
        pytest.param(["verify", "ccp", "--format", "csv"], "verify_ccp.json",
                     "verify_ccp.csv", id="verify-csv"),
        pytest.param(["diff-bounds", "--plot-data"], "diff_bounds.json",
                     "diff_bounds.dat", id="diff-bounds-plot-data"),
    ],
)
def test_a_report_blocked_by_a_directory_leaves_no_file(
    tmp_path, ternary_spec, capsys, args, written, blocked
):
    # The second file of the call cannot be opened, as a directory holds
    # its name: the first, already written, is removed, the directory kept.
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    code = main([*args, "--spec", str(ternary_spec), "--max-stage", "2",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    assert sorted(p.name for p in out.iterdir()) == [blocked]
    assert not any((out / blocked).iterdir())
    assert not (out / written).exists()


@pytest.mark.parametrize(
    "args,blocked",
    [
        pytest.param(["construct"], "stage_001.json", id="construct"),
        pytest.param(["verify", "ccp", "--format", "csv"], "verify_ccp.csv",
                     id="verify-csv"),
    ],
)
def test_a_path_the_call_could_not_open_is_kept(
    tmp_path, ternary_spec, capsys, args, blocked
):
    # A dangling symlink whose target's directory is missing holds the
    # name of a file of the call, which cannot be opened: every file the
    # call wrote is removed, and the symlink, which it never wrote, stays.
    out = tmp_path / "out"
    out.mkdir()
    target = tmp_path / "missing" / "target"
    (out / blocked).symlink_to(target)
    code = main([*args, "--spec", str(ternary_spec), "--max-stage", "2",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file")
    assert sorted(p.name for p in out.iterdir()) == [blocked]
    assert (out / blocked).is_symlink() and os.readlink(out / blocked) == str(target)


@pytest.mark.parametrize(
    "command",
    [("diff-bounds",), ("measure-scan",), ("verify", "steinhaus")],
    ids="-".join,
)
def test_refused_stage_computes_no_bracket(tmp_path, capsys, monkeypatch, command):
    # Tab 1/2,1/2 fits the budget of 64 up to stage 4 and fails at stage 5.
    # Every inner bracket filters with minus_translates; no stage does.
    from cantordiff.intervals import IntervalUnion

    def bracket(*args):
        raise AssertionError("a bracket was computed before the refusal")

    monkeypatch.setattr(IntervalUnion, "minus_translates", bracket)
    spec = tmp_path / "tab.json"
    spec.write_text(TAB_SPEC, encoding="utf-8")
    code = main(
        [*command, "--spec", str(spec), "--max-stage", "5", "--budget", "64",
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: stage needs 153 components, budget allows 64\n"
    )


@pytest.mark.parametrize("fmt, calls", [("csv", 0), ("json", 4)])
def test_diff_bounds_serializes_brackets_only_for_json(
    tmp_path, ternary_spec, monkeypatch, fmt, calls
):
    # One bracket object per stage 0-3 for JSON; the CSV rows hold none.
    from cantordiff import cli

    serialized = []
    real = cli.bracket_to_obj
    monkeypatch.setattr(cli, "bracket_to_obj", lambda b: serialized.append(b) or real(b))
    code = main(
        ["diff-bounds", "--spec", str(ternary_spec), "--max-stage", "3",
         "--format", fmt, "--out", str(tmp_path / "out")]
    )
    assert code == 0
    assert len(serialized) == calls


def _run_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        encoding="utf-8",
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


_STARTUP_COMMANDS = {
    "construct": ["construct"],
    "diff-bounds": ["diff-bounds", "--format", "json"],
    "measure-scan": ["measure-scan"],
    "verify-tab": ["verify", "tab", "--format", "json"],
    "diff-bounds-csv": ["diff-bounds", "--format", "csv"],
}


@pytest.mark.parametrize("argv", _STARTUP_COMMANDS.values(), ids=_STARTUP_COMMANDS)
def test_commands_load_neither_dataclasses_nor_inspect(tmp_path, argv):
    # dataclasses (which loads inspect, ast, dis, tokenize) would cost
    # every command tens of ms of start-up; csv only --format csv needs.
    spec = tmp_path / "spec.json"
    spec.write_text(TAB_SPEC if "tab" in argv else TERNARY_SPEC, encoding="utf-8")
    argv = [*argv, "--spec", str(spec), "--max-stage", "2", "--out", str(tmp_path)]
    code = (
        "import sys\n"
        "from cantordiff.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))\n"
    )
    expected = ["csv"] if "csv" in argv else []
    assert _run_python(code) == f"0 {expected}\n"


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


def test_every_exported_name_has_a_caller():
    """A public name lands with its first caller.

    Each entry of a module's ``__all__`` is read somewhere in the package,
    as a name or an attribute, or named in a string by the benchmark
    harness, whose tracer patches functions by name.  A name that only
    the tests call belongs in the tests.
    """
    root = Path(__file__).resolve().parents[1]
    read, exported = set(), {}
    for path in sorted(Path(cantordiff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and "__all__" in (
                getattr(t, "id", None) for t in node.targets
            ):
                exported[path.stem] = ast.literal_eval(node.value)
    for path in sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert {"intervals", "constructions", "analysis", "jsonio"} <= exported.keys()
    unread = {m: [n for n in names if n not in read] for m, names in exported.items()}
    assert {m: names for m, names in unread.items() if names} == {}


def test_benchmark_hooks_run_on_the_package(tmp_path, ternary_spec):
    # The benchmark's tracer patches library functions by name and its
    # probe imports two of them; a deleted or renamed one fails here.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    env = {**os.environ, "PYTHONPATH": str(Path(cantordiff.__file__).parents[1])}
    trace = tmp_path / "trace.json"
    cli_args = ["construct", "--spec", str(ternary_spec), "--max-stage", "0"]
    traced = subprocess.run(
        [sys.executable, str(perfbench / "tracer.py"), str(trace), "0", "t",
         *cli_args, "--out", str(tmp_path / "out")],
        capture_output=True, encoding="utf-8", timeout=60, env=env,
    )
    assert traced.returncode == 0, traced.stderr
    spans = json.loads(trace.read_text(encoding="utf-8"))["spans"]
    assert "constructions.central_stage" in {span[0] for span in spans}
    listing = tmp_path / "probe.json"
    listing.write_text(f"[[{TERNARY_SPEC}, 1]]", encoding="utf-8")
    probed = subprocess.run(
        [sys.executable, str(perfbench / "probe.py"), str(listing)],
        capture_output=True, encoding="utf-8", timeout=60, env=env,
    )
    assert probed.returncode == 0, probed.stderr
    assert json.loads(probed.stdout)["sizes"] == [
        {"components": 2, "gaps": 1, "endpoints": 4, "pairs": 4}
    ]


def test_suite_choices_are_the_verify_suites():
    from cantordiff import cli
    from cantordiff.verify import SUITES

    assert cli._SUITE_NAMES == tuple(sorted(SUITES))


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


_EXIT_PATH_COMMANDS = {
    "construct": (TERNARY_SPEC, ["construct", "--max-stage", "2", "--out", "out"]),
    "diff-bounds-csv": (
        TERNARY_SPEC,
        ["diff-bounds", "--format", "csv", "--plot-data", "--max-stage", "2",
         "--out", "out"],
    ),
    "measure-scan": (TERNARY_SPEC, ["measure-scan", "--max-stage", "2", "--out", "out"]),
    "verify-tab": (TAB_SPEC, ["verify", "tab", "--max-stage", "3", "--out", "out"]),
    "verify-ccp-stdout": (TERNARY_SPEC, ["verify", "ccp", "--max-stage", "3"]),
}


@pytest.mark.parametrize(
    "spec_text, args", _EXIT_PATH_COMMANDS.values(), ids=_EXIT_PATH_COMMANDS
)
def test_process_exit_keeps_every_byte(
    tmp_path, monkeypatch, capfdbinary, spec_text, args
):
    # The process exits through entrypoint, which freezes the heap after
    # main has returned; in-process callers run main alone.  Both must
    # give the same exit code, streams and files.  Each run gets its own
    # working directory, so the arguments (a relative --out) are the same.
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text, encoding="utf-8")
    argv = [*args, "--spec", str(spec)]
    child_dir, own_dir = tmp_path / "child", tmp_path / "in-process"
    child_dir.mkdir()
    own_dir.mkdir()
    # Without PYTHONUNBUFFERED the child's stdout, a pipe, is block
    # buffered, so its report reaches the pipe only by the exit flush.
    env = {**os.environ, "PYTHONPATH": str(Path(cantordiff.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    child = subprocess.run(
        [sys.executable, "-m", "cantordiff.cli", *argv],
        capture_output=True,
        cwd=child_dir,
        timeout=60,
        env=env,
    )
    monkeypatch.chdir(own_dir)
    code = main(argv)
    captured = capfdbinary.readouterr()
    assert child.returncode == code == 0, child.stderr
    assert child.stderr.decode("utf-8") == captured.err.decode("utf-8")
    assert child.stdout == captured.out
    files = _tree_bytes(child_dir)
    assert files == _tree_bytes(own_dir)
    # Each command writes its report either to files or to stdout.
    assert bool(files) != bool(child.stdout)


def test_only_the_process_exit_freezes_the_heap(tmp_path, ternary_spec):
    assert main(
        ["construct", "--spec", str(ternary_spec), "--max-stage", "1",
         "--out", str(tmp_path / "in-process")]
    ) == 0
    assert gc.get_freeze_count() == 0
    # atexit handlers still run after entrypoint, and see a frozen heap.
    argv = ["cantordiff", "construct", "--spec", str(ternary_spec),
            "--max-stage", "1", "--out", str(tmp_path / "child")]
    code = (
        "import atexit, gc, sys\n"
        "from cantordiff.cli import entrypoint\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        f"sys.argv = {argv!r}\n"
        "entrypoint()\n"
    )
    assert _run_python(code) == "True\n"
    assert _tree_bytes(tmp_path / "child") == _tree_bytes(tmp_path / "in-process")


def test_refused_spec_through_entrypoint_exits_2(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text('{"family": "central", "ratios": "1/1"}', encoding="utf-8")
    argv = ["cantordiff", "construct", "--spec", str(spec), "--max-stage", "1",
            "--out", str(tmp_path / "out")]
    src = str(Path(cantordiff.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys\nfrom cantordiff.cli import entrypoint\n"
         f"sys.argv = {argv!r}\nentrypoint()\n"],
        capture_output=True,
        encoding="utf-8",
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ") and "ratio out of (0,1)" in line


@pytest.mark.parametrize("max_stage", range(5))
def test_ts3_strips_start_at_stage_3(tmp_path, capsys, max_stage):
    # The strip of stage n >= 3 is read off the all-ones gap of step n - 2.
    spec = tmp_path / "perturbed.json"
    spec.write_text(PERTURBED_SPEC, encoding="utf-8")
    main(["verify", "ts3", "--spec", str(spec), "--max-stage", str(max_stage)])
    assertions = json.loads(capsys.readouterr().out)["assertions"]
    ids = [a["id"] for a in assertions]
    anchors = [f"ts3-anchor-{n}" for n in range(max_stage + 1)]
    core = [f"ts3-core-{max_stage}"] if max_stage >= 3 else []
    assert ids == [*anchors, "ts3-strip-widths", *core]
    widths = assertions[max_stage + 1]["details"]["widths"]
    assert len(widths) == max(0, max_stage - 2)


@pytest.mark.skipif(os.name != "posix", reason="EPIPE on a closed pipe is POSIX")
@pytest.mark.parametrize(
    "suite, spec_text, max_stage, size, unbuffered",
    [
        pytest.param("tab", TAB_SPEC, "9", 79_512, "", id="buffered"),
        pytest.param("tab", TAB_SPEC, "9", 79_512, "1", id="unbuffered"),
        pytest.param("ccp", TERNARY_SPEC, "1", 2_446, "", id="small-buffered"),
        pytest.param("ccp", TERNARY_SPEC, "1", 2_446, "1", id="small-unbuffered"),
    ],
)
def test_report_to_a_closed_pipe_is_one_error_line(
    tmp_path, capsys, suite, spec_text, max_stage, size, unbuffered
):
    # The tab 1/2, 1/2 report at stage 9 is more than a pipe or stdout
    # buffer holds, so its write inside main fails.  The ccp report fits
    # the stdout buffer, so only the flush inside main can fail; stdout
    # then goes to the null device, and the exit path has nothing left
    # to fail on.  Block-buffered stdout (the default for a pipe) and
    # PYTHONUNBUFFERED both give the same end.
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text, encoding="utf-8")
    argv = ["verify", suite, "--spec", str(spec), "--max-stage", max_stage]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.encode("utf-8")) == size
    env = {**os.environ, "PYTHONPATH": str(Path(cantordiff.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "cantordiff.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            encoding="utf-8",
            timeout=60,
            env=env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2, result.stderr
    assert result.stderr.splitlines() == ["error: [Errno 32] Broken pipe"]


@pytest.mark.skipif(os.name != "posix", reason="EPIPE on a closed pipe is POSIX")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args, written",
    [
        pytest.param(["verify", "ccp", "--max-stage", "1", "--out"], True, id="verify"),
        pytest.param(["verify", "ccp", "--max-stage", "1"], False, id="no-spec"),
    ],
)
def test_closed_stderr_exits_2(tmp_path, args, written, unbuffered):
    # The assertion lines of a passing report, or argparse's usage error
    # for a missing --spec, go to a pipe whose read end is closed: the
    # report is still written whole, and the exit is 2 with no traceback
    # left for the flush at exit to fail on (which would exit 120).
    spec = tmp_path / "ternary.json"
    spec.write_text(TERNARY_SPEC, encoding="utf-8")
    out = tmp_path / "out"
    argv = [*args, str(out), "--spec", str(spec)] if written else args
    env = {**os.environ, "PYTHONPATH": str(Path(cantordiff.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "cantordiff.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=write_end,
            encoding="utf-8",
            timeout=60,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stdout) == (2, "")
    if written:
        report = json.loads((out / "verify_ccp.json").read_text(encoding="utf-8"))
        assert report["passed"] is True
