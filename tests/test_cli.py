import json
import math
import os
import subprocess
import sys

import pytest

import owakit
from owakit.cli import EXIT_IO, EXIT_METHOD_DOMAIN, EXIT_OK, EXIT_USAGE, main
from owakit.reports import METHODS, evaluate_method, read_sweep_csv, sweep


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_linear_uniform(self, capsys):
        code, out, _ = run(["gen", "--n", "5", "--orness", "0.5", "--method", "linear"], capsys)
        assert code == EXIT_OK
        assert "0.2 0.2 0.2 0.2 0.2" in out
        assert f"{math.log(5):.6f}"[:6] in out

    def test_linear_golden(self, capsys):
        code, out, _ = run(
            ["gen", "--n", "5", "--orness", "0.6", "--method", "linear", "--beta", "1.5"],
            capsys,
        )
        assert code == EXIT_OK
        for val in ("0.2715541", "0.2484458", "0.2042229", "0.16", "0.1157770"):
            assert val in out

    def test_maxent_without_a_sign_change_at_the_bracket_ends_exits_0(self, capsys):
        args = ["gen", "--n", "5", "--orness", "0.500087", "--method", "maxent"]
        code, out, err = run(args, capsys)
        assert (code, err) == (EXIT_OK, "")
        assert "maxent" in out

    def test_maxent_extreme_orness_exit3(self, capsys):
        code, _, err = run(["gen", "--n", "5", "--orness", "1.0", "--method", "maxent"], capsys)
        assert code == EXIT_METHOD_DOMAIN
        assert "orness" in err

    def test_maxent_tiny_orness_exit3(self, capsys):
        # 1 - 1e-17 rounds to 1.0, outside the maxent solver's domain.
        assert evaluate_method("maxent", 1e-17, 5).status == "unstable"
        code, _, err = run(["gen", "--n", "5", "--orness", "1e-17", "--method", "maxent"], capsys)
        assert code == EXIT_METHOD_DOMAIN
        assert "status unstable" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["gen", "--n", "3", "--orness", "0.7", "--method", "maxent", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert abs(payload["achieved_orness"] - 0.7) <= 1e-9
        assert len(payload["w"]) == 3

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["gen", "--n", "3", "--orness", "0.5", "--format", "csv"], capsys
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("method,beta,n,")
        assert lines[1].startswith("linear,1.5,3,")

    def test_bad_orness_usage_error(self, capsys):
        code, _, err = run(["gen", "--n", "5", "--orness", "1.5"], capsys)
        assert code == EXIT_USAGE
        assert "orness" in err

    @pytest.mark.parametrize("m", METHODS, ids=lambda m: m.flag)
    def test_method_flag_prints_that_method(self, m, capsys):
        code, out, _ = run(["gen", "--n", "5", "--orness", "0.3", "--method", m.flag], capsys)
        assert code == EXIT_OK
        assert [line for line in out.splitlines() if line.startswith("method:")] == [
            f"method: {m.name}" + (" (beta=1.5)" if m.takes_beta else "")
        ]

    @pytest.mark.parametrize("m", METHODS, ids=lambda m: m.flag)
    def test_csv_format_reads_back(self, m, tmp_path, capsys):
        # `\n` line endings and no `#` line: the reader takes both.
        code, out, _ = run(
            ["gen", "--n", "5", "--orness", "0.3", "--method", m.flag, "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        path = tmp_path / "gen.csv"
        path.write_text(out, newline="")
        assert b"\r" not in path.read_bytes()
        assert read_sweep_csv(str(path)) == [evaluate_method(m.name, 0.3, 5, 1.5)]

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "5", "--orness", "0.5", "--bogus"])
        assert exc.value.code == 2


class TestSweep:
    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["sweep", "--n", "5", "--method", "all", "--steps", "11", "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        rows = read_sweep_csv(str(out_path))
        assert {r.method for r in rows} == {
            "linear",
            "exponential",
            "exponential-no-preset",
            "maxent",
        }

    def test_multiple_betas(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            [
                "sweep", "--n", "5", "--method", "linear", "--steps", "5",
                "--beta", "1.0", "--beta", "1.5", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = read_sweep_csv(str(out_path))
        assert {r.beta for r in rows} == {1.0, 1.5}

    def test_provenance_keeps_every_digit_of_beta(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            [
                "sweep", "--n", "5", "--method", "linear", "--steps", "3",
                "--beta", "1.2345678", "--beta", "1.5", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert out_path.read_text().splitlines()[0].endswith(" betas=1.2345678,1.5")
        assert {r.beta for r in read_sweep_csv(str(out_path))} == {1.2345678, 1.5}

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        code, _, err = run(
            [
                "sweep", "--n", "3", "--method", "linear", "--steps", "3",
                "--out", str(tmp_path / "missing" / "s.csv"),
            ],
            capsys,
        )
        assert code == EXIT_IO
        assert "cannot write" in err

    def test_bad_steps_exits_2(self, capsys):
        code, _, _ = run(
            ["sweep", "--n", "3", "--method", "linear", "--steps", "1", "--out", "x.csv"],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_library_value_error_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        code, _, err = run(
            [
                "sweep", "--n", "5", "--method", "linear", "--beta", "2.0",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert err.count("\n") == 1 and "beta" in err
        assert not out_path.exists()

    def test_repeated_beta_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "f.csv"
        code, _, err = run(
            [
                "sweep", "--n", "5", "--method", "linear", "--steps", "3",
                "--beta", "1.5", "--beta", "1.5", "--out", str(out_path),
            ],
            capsys,
        )
        assert (code, err) == (EXIT_USAGE, "betas repeats 1.5\n")
        assert not out_path.exists()

    def test_n1_linear_follows_the_library(self, tmp_path):
        # The size rule is the method's own: linear takes n = 1, and the
        # orness warning of a length-1 vector stays out of the output.
        out_path = tmp_path / "s.csv"
        proc = _fresh_python(
            "-m", "owakit.cli", "sweep", "--n", "1", "--method", "linear", "--steps", "3",
            "--out", str(out_path),
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        with pytest.warns(UserWarning, match="orness of a length-1"):
            expected = sweep(1, ["linear"], steps=3)
        assert read_sweep_csv(str(out_path)) == expected

    def test_n1_all_methods_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "s.csv"
        code, _, err = run(
            ["sweep", "--n", "1", "--method", "all", "--steps", "3", "--out", str(out_path)],
            capsys,
        )
        assert (code, err) == (EXIT_USAGE, "n must be >= 2; got 1\n")
        assert not out_path.exists()


class TestBench:
    def test_smoke(self, capsys):
        code, out, _ = run(["bench", "--n", "3", "--reps", "1", "--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "method,beta,n,reps,mean_time,best_time,relative_time"
        assert len(lines) == 7

    def test_json_format(self, capsys):
        code, out, _ = run(["bench", "--n", "3", "--reps", "1", "--format", "json"], capsys)
        assert code == EXIT_OK
        records = json.loads(out)
        assert [(r["method"], r["beta"]) for r in records] == [
            (m.name, beta)
            for m in METHODS
            for beta in ((1.0, 1.25, 1.5) if m.takes_beta else (None,))
        ]
        assert all(r["n"] == 3 and r["reps"] == 1 for r in records)
        assert min(r["relative_time"] for r in records) == 1.0

    def test_plain_format(self, capsys):
        code, out, _ = run(["bench", "--n", "3", "--reps", "1"], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].split() == ["method", "n", "reps", "mean", "[s]", "best", "[s]", "relative"]
        assert len(lines) == 7
        assert lines[1].startswith("linear (beta=1)")
        assert lines[-1].split()[:3] == ["maxent", "3", "1"]

    def test_bad_reps_exits_2(self, capsys):
        code, _, _ = run(["bench", "--n", "3", "--reps", "0"], capsys)
        assert code == EXIT_USAGE

    def test_repeated_n_exits_2(self, capsys):
        code, out, err = run(["bench", "--n", "10", "--n", "10"], capsys)
        assert (code, out, err) == (EXIT_USAGE, "", "n_list repeats 10\n")



def _fresh_env():
    """The environment of a fresh interpreter that imports this owakit."""
    src = os.path.dirname(os.path.dirname(owakit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports this
    owakit, so imports and warnings show as a user would see them."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=_fresh_env(),
        check=False,
    )


def test_gen_n1_prints_no_warning():
    proc = _fresh_python(
        "-m", "owakit.cli", "gen", "--n", "1", "--orness", "0.5", "--method", "linear"
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[:3] == [
        "method: linear (beta=1.5)",
        "weights: 1",
        "orness: 0.5",
    ]


def test_import_does_not_load_scipy():
    # Nor any other package but numpy: the top-level modules that
    # importing the CLI loads are the standard library's, numpy and owakit.
    proc = _fresh_python(
        "-c",
        "import sys; before = set(sys.modules); import owakit.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy', 'owakit']"


def test_closed_stdout_exits_4_without_traceback():
    # Like `owakit gen ... | head -1`: the JSON (about 200 kB) is larger
    # than a pipe buffer, and the reader goes away after one line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "owakit.cli", "gen", "--n", "2000", "--orness", "0.3",
         "--method", "all", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_fresh_env(),
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_IO
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


@pytest.mark.parametrize(
    "args", [["--version"], ["--help"], ["gen", "--help"], ["sweep", "--help"]], ids=" ".join
)
def test_help_into_closed_pipe_exits_4_without_traceback(args):
    # Like `owakit sweep --help | true` with stdout block-buffered: the
    # read end is closed before the child starts, so every write fails.
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "owakit.cli", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
            check=False,
        )
    finally:
        os.close(write_end)
    stderr = proc.stderr.decode()
    assert proc.returncode == EXIT_IO, stderr
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_sweep_csv_gets_the_mode_open_gives_a_new_file(tmp_path):
    # 0o666 less the umask, for a new file and for one the sweep replaces.
    # The umask is process-wide, so a child process sets it.
    script = (
        "import os, sys\n"
        "from owakit.cli import main\n"
        "def mode(name):\n"
        "    return oct(os.stat(os.path.join(sys.argv[1], name)).st_mode & 0o777)\n"
        "for umask in (0o022, 0o077):\n"
        "    os.umask(umask)\n"
        "    open(os.path.join(sys.argv[1], f'touched{umask:o}'), 'w').close()\n"
        "    for out in (f'new{umask:o}.csv', 'same.csv'):\n"
        "        args = ['sweep', '--n', '3', '--method', 'linear', '--steps', '3']\n"
        "        assert main(args + ['--out', os.path.join(sys.argv[1], out)]) == 0\n"
        "    print(mode(f'touched{umask:o}'), mode(f'new{umask:o}.csv'), mode('same.csv'))\n"
    )
    proc = _fresh_python("-c", script, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0o644 0o644 0o644", "0o600 0o600 0o600"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "new22.csv", "new77.csv", "same.csv", "touched22", "touched77",
    ]
