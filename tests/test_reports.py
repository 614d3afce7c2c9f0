import copy
import csv
import dataclasses
import io
import json
import math
import os
import pickle
import re
import stat
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, zip_longest

import numpy as np
import pytest

import owakit
from owakit import (
    OrnessTarget,
    WeightVector,
    dispersion,
    exponential_weights,
    exponential_weights_no_preset,
    linear_weights,
    maxent_weights,
    orness,
)
from owakit import _digits, cli, core, reports
from owakit.baselines import CalibrationError, MaxentInstabilityError, UnsupportedOrnessError
from owakit.core import DEFAULT_BETA
from owakit.cli import main
from owakit.reports import (
    ALL_METHODS,
    METHOD_EXPONENTIAL,
    METHOD_EXPONENTIAL_NO_PRESET,
    METHOD_LINEAR,
    METHODS,
    METHOD_MAXENT,
    STATUS_OK,
    STATUS_UNSTABLE,
    STATUS_UNSUPPORTED,
    MethodReport,
    bench,
    evaluate_method,
    read_sweep_csv,
    report_to_dict,
    sweep,
    write_sweep_csv,
)
from test_arrays import (
    LINEAR_ONLY_AT_1000,
    SWEEP_CSV_SHA256,
    _log_loop,
    _on_emulated_avx2_host,
)


class TestEvaluateMethod:
    def test_linear_ok(self):
        r = evaluate_method(METHOD_LINEAR, 0.6, 5, 1.5)
        assert r.status == STATUS_OK
        assert r.achieved_orness == pytest.approx(0.6, abs=1e-10)
        assert len(r.w) == 5

    def test_maxent_unsupported_endpoint(self):
        r = evaluate_method(METHOD_MAXENT, 0.0, 5)
        assert r.status == STATUS_UNSUPPORTED
        assert r.w is None

    @pytest.mark.filterwarnings("ignore:orness of a length-1")
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100])
    def test_matches_the_public_calls(self, n):
        # 0.99 and 0.999 are in the flagged maxent region at n = 100.
        grid = [k / 20 for k in range(21)] + [0.37, 0.99, 0.999]
        for m in METHODS:
            if n < m.min_n:
                continue
            for beta in (None, 1.0, 1.25, 1.5) if m.takes_beta else (None,):
                for a in grid:
                    expected = _public_report(m.name, a, n, beta)
                    assert evaluate_method(m.name, a, n, beta) == expected, (m.name, a, beta)

    @pytest.mark.filterwarnings("ignore:orness of a length-1")
    @pytest.mark.parametrize(
        "requested, n, beta",
        [(1.5, 5, None), (-0.1, 5, None), (float("nan"), 5, None)]
        + [(0.3, n, None) for n in (0, 1, 5.0, 5.5)]
        + [(0.3, 5, 2.0), (0.3, 0, 2.0)],
    )
    @pytest.mark.parametrize("m", METHODS, ids=lambda m: m.name)
    def test_errors_match_the_public_calls(self, m, requested, n, beta):
        try:
            _public_call(m.name, requested, n, beta)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                evaluate_method(m.name, requested, n, beta)
            assert str(info.value) == str(exc)
        else:
            assert evaluate_method(m.name, requested, n, beta).status == STATUS_OK

    @pytest.mark.parametrize("m", METHODS, ids=lambda m: m.name)
    def test_numpy_integer_n_is_a_plain_int(self, m):
        r = evaluate_method(m.name, 0.3, np.int64(5))
        assert type(r.n) is int
        d = report_to_dict(r)
        # ``gen --format json`` prints the keys in this order.
        assert list(d) == [
            "method", "beta", "n", "requested_orness", "achieved_orness", "dispersion",
            "status", "w",
        ]
        assert json.loads(json.dumps(d)) == dict(d, w=list(r.w))

    @pytest.mark.parametrize(
        "method, beta", [(METHOD_MAXENT, None), (METHOD_LINEAR, np.float32(1.25))]
    )
    def test_numpy_floats_are_plain_floats(self, method, beta):
        r = evaluate_method(method, np.float32(0.3), 5, beta)
        assert r.status == STATUS_OK
        assert type(r.requested_orness) is float
        assert r.beta is None or type(r.beta) is float
        json.dumps(report_to_dict(r))

    def test_integer_orness_is_a_float(self):
        r = evaluate_method(METHOD_LINEAR, 1, 5)
        assert type(r.requested_orness) is float and r.requested_orness == 1.0

    @pytest.mark.parametrize(
        "method, requested",
        [(m.name, 0.3) for m in METHODS] + [(METHOD_MAXENT, 0.0)],
        ids=[m.name for m in METHODS] + ["maxent-unsupported"],
    )
    def test_report_to_dict_is_asdict_with_w_a_list(self, method, requested):
        r = evaluate_method(method, requested, 5)
        expected = dataclasses.asdict(r)
        w = expected.pop("w")
        expected["w"] = None if w is None else list(w)
        d = report_to_dict(r)
        assert list(d.items()) == list(expected.items())  # [1.0] != (1.0,), so w is a list


def _public_call(method, requested, n, beta):
    """The public validated call for ``method``, returning a WeightVector."""
    if method == METHOD_LINEAR:
        return linear_weights(OrnessTarget(requested, DEFAULT_BETA if beta is None else beta), n)
    if method == METHOD_EXPONENTIAL:
        return exponential_weights(requested, n)[0]
    if method == METHOD_EXPONENTIAL_NO_PRESET:
        return exponential_weights_no_preset(requested, n)
    return maxent_weights(requested, n)


def _public_report(method, requested, n, beta):
    """The report for one request built from the public calls, their
    exceptions mapped to statuses: a reference that shares no code with
    the report rows."""
    beta = (DEFAULT_BETA if beta is None else beta) if method == METHOD_LINEAR else None
    try:
        vec = _public_call(method, requested, n, beta)
    except UnsupportedOrnessError:
        return MethodReport(method, beta, n, requested, None, None, None, STATUS_UNSUPPORTED)
    except (MaxentInstabilityError, CalibrationError):
        return MethodReport(method, beta, n, requested, None, None, None, STATUS_UNSTABLE)
    return MethodReport(
        method, beta, n, requested, orness(vec), dispersion(vec), tuple(vec.w.tolist()), STATUS_OK
    )


class TestSweep:
    def test_linear_three_betas(self):
        rows = sweep(5, [METHOD_LINEAR], betas=(1.0, 1.25, 1.5), steps=101)
        assert len(rows) == 303
        assert all(r.status == STATUS_OK for r in rows)
        # Dispersion symmetric about orness 0.5 per beta.
        for beta in (1.0, 1.25, 1.5):
            sub = [r for r in rows if r.beta == beta]
            disp = {round(r.requested_orness, 6): r.dispersion for r in sub}
            for a in np.linspace(0.0, 1.0, 101):
                key, mirror = round(a, 6), round(1.0 - a, 6)
                assert disp[key] == pytest.approx(disp[mirror], abs=1e-9)

    def test_rows_sorted(self):
        # Methods and betas given out of order; a missing beta sorts first.
        methods = [METHOD_MAXENT, METHOD_LINEAR, METHOD_EXPONENTIAL_NO_PRESET, METHOD_EXPONENTIAL]
        rows = sweep(4, methods, betas=[1.5, 1.0, 1.25], steps=11)
        keys = [(r.method, r.requested_orness, r.beta is not None, r.beta or 0.0) for r in rows]
        assert keys == sorted(set(keys))
        assert len(keys) == 11 * 6

    def test_ok_rows_meet_tolerance(self):
        rows = sweep(5, list(ALL_METHODS), steps=21)
        for r in rows:
            if r.status == STATUS_OK:
                assert abs(r.achieved_orness - r.requested_orness) <= 1e-6 or (
                    r.method == "exponential-no-preset"
                )

    def test_endpoints_only(self):
        rows = sweep(5, list(ALL_METHODS), steps=2)
        assert {r.requested_orness for r in rows} == {0.0, 1.0}
        assert all(
            r.status == STATUS_UNSUPPORTED for r in rows if r.method == METHOD_MAXENT
        )

    def test_maxent_instability_region_n100(self):
        # Restricted grid over [0.9, 1.0]; the first-weight equation breaks
        # down approaching 0.98 and the sweep must say so.
        rows = [
            evaluate_method(METHOD_MAXENT, a, 100)
            for a in np.linspace(0.9, 1.0, 101)
        ]
        statuses = {r.status for r in rows}
        assert STATUS_UNSTABLE in statuses
        near_098 = [r for r in rows if 0.96 <= r.requested_orness <= 1.0]
        assert any(r.status != STATUS_OK for r in near_098)
        for r in rows:
            if r.status == STATUS_OK:
                assert abs(r.achieved_orness - r.requested_orness) <= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(5, [], steps=11)
        with pytest.raises(ValueError):
            sweep(5, [METHOD_LINEAR], steps=1)

    @pytest.mark.parametrize("methods", [[METHOD_LINEAR], [METHOD_EXPONENTIAL]])
    def test_at_least_one_beta(self, methods):
        with pytest.raises(ValueError, match="^at least one beta is required$"):
            sweep(5, methods, betas=(), steps=11)

    @pytest.mark.parametrize("betas", [(0.9,), (1.0, 1.6)])
    def test_beta_out_of_range(self, betas):
        with pytest.raises(ValueError, match="^beta must be in"):
            sweep(5, [METHOD_LINEAR], betas=betas, steps=11)

    @pytest.mark.parametrize("method, n", [(METHOD_LINEAR, 0), (METHOD_EXPONENTIAL, 1)])
    def test_n_below_the_method_minimum(self, method, n):
        with pytest.raises(ValueError, match="^n must be >="):
            sweep(n, [method], steps=11)

    def test_methods_must_not_be_a_string(self):
        with pytest.raises(ValueError, match="^methods is a sequence of method names, not a string"):
            sweep(5, METHOD_LINEAR, steps=11)

    @pytest.mark.parametrize(
        "methods",
        [
            np.array(METHOD_LINEAR),
            (m for m in [METHOD_LINEAR]),
            5,
            None,
            [[METHOD_LINEAR]],
            [[METHOD_LINEAR], METHOD_MAXENT],
        ],
        ids=["0-d array", "generator", "int", "None", "2-d list", "ragged list"],
    )
    def test_methods_must_be_one_dimensional(self, methods):
        with pytest.raises(ValueError, match="^methods is a sequence of method names, not "):
            sweep(5, methods, steps=11)

    @pytest.mark.parametrize("betas", [1.0, 1, np.float64(1.25), "1.5"])
    def test_betas_must_not_be_a_single_number(self, betas):
        with pytest.raises(ValueError, match="^betas is a sequence of numbers"):
            sweep(5, [METHOD_LINEAR], betas=betas, steps=11)

    def test_betas_may_be_an_array(self):
        rows = sweep(5, [METHOD_LINEAR], betas=np.array([1.0, 1.25]), steps=3)
        assert rows == sweep(5, [METHOD_LINEAR], betas=[1.0, 1.25], steps=3)

    def test_methods_may_be_an_array(self):
        rows = sweep(5, np.array([METHOD_LINEAR, METHOD_EXPONENTIAL]), steps=3)
        assert rows == sweep(5, [METHOD_LINEAR, METHOD_EXPONENTIAL], steps=3)

    def test_empty_arrays_raise(self):
        with pytest.raises(ValueError, match="^at least one beta is required$"):
            sweep(5, [METHOD_LINEAR], betas=np.array([]), steps=3)
        with pytest.raises(ValueError, match="^at least one method is required$"):
            sweep(5, np.array([], dtype=str), steps=3)

    def test_ragged_betas_raise(self):
        with pytest.raises(ValueError, match="^betas is a sequence of numbers, not "):
            sweep(5, [METHOD_LINEAR], betas=[[1.0], 1.25], steps=3)

    @pytest.mark.parametrize(
        "n, methods, betas, message",
        [
            (1000, [METHOD_LINEAR, METHOD_EXPONENTIAL, "bogus"], (DEFAULT_BETA,), "^unknown method 'bogus'$"),
            (1000, [METHOD_EXPONENTIAL, METHOD_LINEAR], [2.0], "^beta must be in"),
            (1000, [METHOD_EXPONENTIAL, METHOD_LINEAR], [None], "^beta must be a number; got None$"),
            (1000, [METHOD_EXPONENTIAL, METHOD_LINEAR], [True], "^beta must be a number; got True$"),
            (1, [METHOD_LINEAR, METHOD_EXPONENTIAL], (DEFAULT_BETA,), "^n must be >= 2"),
            (1000, [METHOD_EXPONENTIAL, METHOD_LINEAR], [1.5, 1.5], "^betas repeats 1.5$"),
        ],
        ids=["unknown method", "beta", "None beta", "bool beta", "n", "repeated beta"],
    )
    def test_arguments_are_checked_before_any_kernel_runs(self, monkeypatch, n, methods, betas, message):
        runs = []
        monkeypatch.setattr(reports, "_rows", lambda *args: runs.append(args) or [])
        with pytest.raises(ValueError, match=message):
            sweep(n, methods, betas=betas)
        assert runs == []

    @pytest.mark.parametrize(
        "methods, betas, message",
        [
            ([METHOD_LINEAR, METHOD_LINEAR], (DEFAULT_BETA,), "^methods repeats 'linear'$"),
            (
                np.array([METHOD_MAXENT, METHOD_MAXENT]),
                (DEFAULT_BETA,),
                "^methods repeats 'maxent'$",
            ),
            ([METHOD_LINEAR], [1, 1.0], "^betas repeats 1.0$"),
        ],
        ids=["methods", "methods array", "beta as int and float"],
    )
    def test_repeats_raise(self, methods, betas, message):
        with pytest.raises(ValueError, match=message):
            sweep(5, methods, betas=betas, steps=3)

    def test_repeated_betas_are_kept_without_a_method_that_takes_them(self):
        # A repeat there duplicates no row.
        rows = sweep(5, [METHOD_MAXENT], betas=[1.0, 1.0], steps=3)
        assert rows == sweep(5, [METHOD_MAXENT], steps=3)

    def test_betas_are_unchecked_without_a_method_that_takes_them(self):
        assert sweep(5, [METHOD_MAXENT], betas=[2.0], steps=3) == sweep(5, [METHOD_MAXENT], steps=3)

    def test_steps_must_be_an_integer(self):
        with pytest.raises(ValueError, match="steps must be an integer"):
            sweep(5, [METHOD_LINEAR], steps=2.5)

    def test_bool_counts_are_not_integers(self):
        with pytest.raises(ValueError, match="^steps must be an integer; got True$"):
            sweep(5, [METHOD_LINEAR], steps=True)
        with pytest.raises(ValueError, match="^reps must be an integer; got True$"):
            bench([5], reps=True)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (method, beta) of each kernel call, in call order."""
    calls = []

    def counted(m):
        def kernel(a, n, beta):
            calls.append((m.name, beta))
            return m.kernel(a, n, beta)

        return dataclasses.replace(m, kernel=kernel)

    monkeypatch.setattr(reports, "METHODS", tuple(counted(m) for m in METHODS))
    return calls


class TestStreaming:
    # owakit sweep writes rows as they are made, from the iterator sweep lists.
    ARGS = ["sweep", "--n", "6", "--method", "all", "--steps", "11", "--beta", "1.5", "--beta", "1.0"]

    def test_first_row_runs_only_the_first_methods_kernels(self, kernel_calls):
        rows = reports._sweep_rows(5, [METHOD_MAXENT, METHOD_LINEAR], [1.5, 1.0, 1.25], 11)
        assert kernel_calls == []
        first = next(rows)
        assert (first.method, first.beta, first.requested_orness) == (METHOD_LINEAR, 1.0, 0.0)
        assert kernel_calls == [(METHOD_LINEAR, 1.0), (METHOD_LINEAR, 1.25), (METHOD_LINEAR, 1.5)]
        rest = list(rows)
        assert kernel_calls[3:] == [(METHOD_MAXENT, None)]
        assert [first] + rest == sweep(5, [METHOD_MAXENT, METHOD_LINEAR], [1.5, 1.0, 1.25], 11)

    def test_cli_hands_the_writer_an_iterator(self, monkeypatch, tmp_path, capsys):
        given = []

        def spy(rows, n, path, provenance):
            given.append((rows, provenance))
            write_sweep_csv(rows, n, path, provenance)

        monkeypatch.setattr(cli, "write_sweep_csv", spy)
        out = tmp_path / "cli.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        ((rows, provenance),) = given
        assert not isinstance(rows, (list, tuple)) and iter(rows) is rows
        ref = tmp_path / "ref.csv"
        write_sweep_csv(sweep(6, list(ALL_METHODS), [1.5, 1.0], 11), 6, str(ref), provenance)
        assert out.read_bytes() == ref.read_bytes()

    def test_unwritable_out_exits_4_before_any_kernel_runs(self, kernel_calls, tmp_path, capsys):
        assert main(self.ARGS + ["--out", str(tmp_path / "missing" / "s.csv")]) == 4
        assert "cannot write" in capsys.readouterr().err
        assert kernel_calls == []

    def test_missing_directory_is_named_as_given(self, tmp_path, capsys, monkeypatch):
        # The message names the path given, not the temp file beside it.
        monkeypatch.chdir(tmp_path)
        out = os.path.join("missing", "s.csv")
        assert main(self.ARGS + ["--out", out]) == 4
        err = capsys.readouterr().err
        assert err == f"cannot write {out}: [Errno 2] No such file or directory: {out!r}\n"
        assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_directory_out_exits_4_before_any_kernel_runs(self, kernel_calls, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        (out / "kept.txt").write_text("kept")
        assert main(self.ARGS + ["--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == f"cannot write {out}: [Errno 21] Is a directory: {str(out)!r}\n"
        assert kernel_calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
        assert [p.name for p in out.iterdir()] == ["kept.txt"]

    @pytest.mark.parametrize("out", ["", "newdir/", "file.csv/"], ids=repr)
    def test_out_without_a_file_name_fails_before_any_row(self, out, tmp_path, monkeypatch, capsys):
        # The error is open(out, "w")'s, naming out, raised before a row is drawn or a
        # temp file made: for "" that file would land in the working directory's parent.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(OSError) as want:
            open(out, "w")
        drawn = []

        def counted(*args):
            return (drawn.append(r) or r for r in reports._sweep_rows(*args))

        with pytest.raises(type(want.value)) as got:
            write_sweep_csv(counted(6, [METHOD_LINEAR], [1.0], 11), 6, out)
        assert (got.value.errno, got.value.filename) == (want.value.errno, out)
        monkeypatch.setattr(cli, "_sweep_rows", counted)
        assert main(self.ARGS + ["--out", out]) == 4
        assert capsys.readouterr().err == f"cannot write {out}: {want.value}\n"
        assert drawn == []
        assert [p.name for p in tmp_path.iterdir()] == ["work"]
        assert list(work.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_out_is_refused_and_kept(self, kernel_calls, tmp_path, monkeypatch, capsys):
        # Only a regular file (or a symlink to one) is replaced: a FIFO, a device or a
        # socket at --out is refused before a row is drawn or a temp file made.
        fifo = tmp_path / "s.csv"
        os.mkfifo(fifo)
        drawn = []

        def counted(*args):
            return (drawn.append(r) or r for r in reports._sweep_rows(*args))

        with pytest.raises(OSError) as got:
            write_sweep_csv(counted(6, [METHOD_LINEAR], [1.0], 11), 6, str(fifo))
        assert got.value.filename == str(fifo)
        monkeypatch.setattr(cli, "_sweep_rows", counted)
        assert main(self.ARGS + ["--out", str(fifo)]) == 4
        assert capsys.readouterr().err == f"cannot write {fifo}: {got.value}\n"
        assert (drawn, kernel_calls) == ([], [])
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_regular_file_and_symlink_to_one_are_replaced(self, tmp_path):
        rows = sweep(6, [METHOD_LINEAR], [1.0], 11)
        ref = tmp_path / "ref.csv"
        write_sweep_csv(rows, 6, str(ref))
        old = tmp_path / "old.csv"
        old.write_text("old")
        link = tmp_path / "link.csv"
        link.symlink_to(old)
        for out in (old, link):
            write_sweep_csv(rows, 6, str(out))
            assert out.read_bytes() == ref.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "old.csv", "ref.csv"]


class TestArrayStream:
    # owakit sweep streams rows of the kernel matrices to the writer, which keys them
    # by their bytes: no row becomes a tuple of floats.
    ARGS = ["sweep", "--n", "300", "--method", "all", "--beta", "1", "--beta", "1.5"]

    def test_cli_makes_no_tuple(self, monkeypatch, tmp_path):
        # The writer is given each ok row's weights as a Weights view of the kernel row.
        kinds = []

        def spy(rows, *args):
            write_sweep_csv((kinds.append(type(r.w)) or r for r in rows), *args)

        monkeypatch.setattr(cli, "write_sweep_csv", spy)
        assert main(self.ARGS + ["--steps", "21", "--out", str(tmp_path / "s.csv")]) == 0
        assert len(kinds) == 105 and set(kinds) == {reports.Weights, type(None)}

    def test_cli_writes_the_bytes_of_sweep(self, monkeypatch, tmp_path):
        runs, flips = [], []
        run_line, block_parts = reports._run_line, reports._block_parts

        def spied_run_line(key, most):
            runs.append(run_line(key, most))
            return runs[-1]

        def spied_block_parts(lines, *args):
            flips.extend(flip for _, _, flip in lines)
            return block_parts(lines, *args)

        monkeypatch.setattr(reports, "_run_line", spied_run_line)
        monkeypatch.setattr(reports, "_block_parts", spied_block_parts)
        out, ref = tmp_path / "cli.csv", tmp_path / "ref.csv"
        assert main(self.ARGS + ["--steps", "21", "--out", str(out)]) == 0
        # The file has run rows (the flat beta = 1 linear rows) and mirror flips.
        assert any(text is not None for text in runs) and any(flips)
        write_sweep_csv(sweep(300, ALL_METHODS, [1.0, 1.5], 21), 300, str(ref))
        assert out.read_bytes().split(b"\n", 1)[1] == ref.read_bytes().split(b"\n", 1)[1]


def _fixed_method(matrix):
    """A method whose kernel returns a copy of ``matrix`` for any grid, and which,
    its rows being at any orness, claims none."""
    return reports.Method(
        "fixed", "fixed", kernel=lambda a, n, beta: np.array(matrix, float), claims_orness=False
    )


class TestSharedFloats:
    # sweep() rows hold the kernel matrices: each ok row's weights are a Weights view of
    # its row, with the kernel's bits, and a row holds no float of its own per weight.
    @pytest.mark.filterwarnings("ignore:orness of a length-1 weight vector")
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000])
    def test_rows_are_the_kernel_rows_with_runs_shared(self, n):
        grid = reports._grid(101)
        pack = struct.Struct(f"{n}d").pack
        ms = sorted((m for m in METHODS if n >= m.min_n), key=lambda m: m.name)
        rows = iter(sweep(n, [m.name for m in ms], betas=(1.0, 1.25, 1.5)))
        for m in ms:
            bs = (1.0, 1.25, 1.5) if m.takes_beta else (None,)
            kernels = [m.kernel(np.array(grid), n, b) for b in bs]
            bases = [set() for _ in bs]  # the matrix under each beta's rows
            for k in range(len(grid)):
                for w, held in zip(kernels, bases):
                    r = next(rows)
                    if r.w is None:
                        continue
                    assert pack(*r.w) == w[k].tobytes()
                    held.add(id(np.asarray(r.w).base))
            assert all(len(held) == 1 for held in bases)  # one matrix per kernel call
        assert next(rows, None) is None

    @pytest.mark.parametrize("method", [METHOD_EXPONENTIAL, METHOD_EXPONENTIAL_NO_PRESET])
    def test_mirrored_row_holds_its_partners_floats(self, method):
        rows = sweep(10, [method])
        bits = [np.asarray(r.w).tobytes() for r in rows]
        mirrors = [np.asarray(r.w)[::-1].tobytes() for r in rows]
        shared = [k for k in range(50) if bits[k] == mirrors[100 - k]]
        assert len(shared) == {METHOD_EXPONENTIAL: 50, METHOD_EXPONENTIAL_NO_PRESET: 42}[method]
        for k in shared:
            assert rows[k].w == rows[100 - k].w[::-1]

    def test_mirror_that_differs_in_a_zeros_sign_is_not_shared(self):
        m = _fixed_method([[1.0, 0.0, 0.0], [0.25, 0.5, 0.25], [-0.0, 0.0, 1.0]])
        first, middle, last = reports._rows(m, [0.0, 0.5, 1.0], 3, None)
        assert first.w == last.w[::-1]  # equal as tuples are: 0.0 == -0.0
        assert np.asarray(first.w).tobytes() != np.asarray(last.w[::-1]).tobytes()
        assert math.copysign(1.0, last.w[0]) == -1.0

    def test_mirror_is_shared_within_one_grid(self):
        m = _fixed_method([[0.75, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.75]])
        first, middle, last = reports._rows(m, [0.0, 0.5, 1.0], 3, None)
        # Each row is its own read-only view of the one matrix.
        a, b = np.asarray(first.w), np.asarray(last.w)
        assert a.base is b.base and not b.flags.writeable and not b.base.flags.writeable
        assert a.tobytes() == b[::-1].tobytes()

    def test_each_run_of_equal_bits_is_one_float(self):
        row = [0.0, 0.0, 0.125, 0.125, 0.25, 0.25, 0.25, 0.0, -0.0]
        (r,) = reports._rows(_fixed_method([row]), [0.5], 9, None)
        assert struct.pack("9d", *r.w) == struct.pack("9d", *row)
        assert all(type(x) is float for x in r.w) and math.copysign(1.0, r.w[8]) == -1.0

    def test_flat_row_holds_two_floats(self):
        rows = sweep(1000, [METHOD_LINEAR], betas=[1.0])
        assert {len(set(r.w)) for r in rows} == {2}

    def test_stream_keeps_no_earlier_rows_weights(self):
        # owakit sweep's stream: every row of these is ok, and its w is a Weights view of
        # its row of the read-only kernel matrix.  zip keeps the tuple of one point's rows
        # of both betas for reuse, up to two points, so a row four places back is
        # referenced from here alone.
        grid, kernel = np.array(reports._grid(101)), reports._method(METHOD_LINEAR).kernel
        expected = {b: kernel(grid, 10, b) for b in (1.0, 1.25)}
        behind = []
        for k, r in enumerate(reports._sweep_rows(10, [METHOD_LINEAR], [1.0, 1.25], 101)):
            assert r.status == STATUS_OK and type(r.w) is reports.Weights
            base = np.asarray(r.w).base
            assert base.shape == (101, 10) and not base.flags.writeable
            assert np.asarray(r.w).tobytes() == expected[r.beta][k // 2].tobytes()
            behind.append(r.w)
            del r, base
            if len(behind) > 4:
                w = behind.pop(0)
                assert sys.getrefcount(w) == 2  # w and the argument
        assert len(behind) == 4


def _planted(rows, n, seed):
    """A random float64 matrix with runs of equal cells, rows that are an earlier row
    reversed, all-NaN rows, and a reversed row that differs from its partner only in the
    sign of a zero."""
    rng = np.random.default_rng(seed)
    w = rng.random((rows, n))
    for row in w:
        for _ in range(rng.integers(0, 3)):
            start = rng.integers(0, n)
            row[start : start + rng.integers(1, n + 1)] = rng.choice([0.0, -0.0, 0.5, row[start]])
    last = rows - 1
    for k in range(rows // 2):
        if rng.random() < 0.5:
            w[last - k] = w[k][::-1]
    if rows > 2:
        w[1] = w[last - 1] = np.nan
        w[0, 0], w[last] = 0.0, w[0][::-1]
        w[last, -1] = -0.0  # the mirror of row 0 but for the sign of one zero
    return w


class TestTuples:
    # A Weights over each row of a planted matrix shares the matrix's memory and is the
    # tuple of the row's floats: the same bits, equal as tuples are and of equal hash.
    SHAPES = [(1, 1), (1, 6), (2, 1), (5, 1), (7, 3), (11, 9), (40, 30), (101, 64)]

    @pytest.mark.parametrize("seed, shape", enumerate(SHAPES))
    def test_sharing_matches_the_reference(self, seed, shape):
        w = _planted(*shape, seed)
        w.flags.writeable = False
        pack = struct.Struct(f"{shape[1]}d").pack
        got = [reports.Weights(row) for row in w]
        for t, row in zip(got, w):
            reference = tuple(row.tolist())
            assert np.shares_memory(np.asarray(t), w) and pack(*t) == pack(*reference)
            clean = not np.isnan(row).any()  # a NaN equals no other float object
            assert (t == reference) == clean
            assert hash(t) == hash(reference) or not clean
        if len(w) > 2:  # the mirror of row 0 but for a zero's sign is equal, not the same bits
            assert got[0] == got[-1][::-1] and pack(*got[0]) != pack(*got[-1][::-1])

    def test_the_planted_cases_are_there(self):
        w = _planted(101, 64, 7)
        mirrors = [w[k].tobytes() == w[-1 - k][::-1].tobytes() for k in range(2, 50)]
        assert any(mirrors)  # a planted mirror
        assert np.isnan(w[1]).all() and np.isnan(w[99]).all()
        bits = w.view(np.uint64)
        assert any((row[1:] == row[:-1]).any() for row in bits[2:99])  # a run of equal bits


class TestWeights:
    # The contract of an ok row's weights.
    def test_equal_to_and_hashes_as_the_tuple_of_its_floats(self):
        for r in sweep(7, list(ALL_METHODS), steps=11):
            if r.w is not None:
                assert r.w == tuple(r.w) and tuple(r.w) == r.w and hash(r.w) == hash(tuple(r.w))
                assert r.w != tuple(r.w)[1:] and r.w != list(r.w)
        one = reports.Weights([1.0])
        assert one == (1.0,) and (1.0,) == one and hash(one) == hash((1.0,))
        assert one != (1.0, 0.0) and {one: "w"}[(1.0,)] == "w"

    def test_items_are_python_floats_and_keep_a_zeros_sign(self):
        w = reports.Weights([0.5, -0.0, 0.0, 0.5])
        assert len(w) == 4 and all(type(x) is float for x in (*w, w[1], w[-1]))
        assert [math.copysign(1.0, x) for x in w] == [1.0, -1.0, 1.0, 1.0]
        assert math.copysign(1.0, w[1]) == -1.0 and w[::-1][2] == -0.0
        with pytest.raises(IndexError):
            w[4]

    def test_array_is_the_read_only_kernel_row(self):
        m = reports._method(METHOD_LINEAR)
        made = []

        def kernel(a, n, beta):
            made.append(m.kernel(a, n, beta))
            return made[-1]

        rows = reports._rows(dataclasses.replace(m, kernel=kernel), reports._grid(11), 5, 1.25)
        rows = list(rows)
        (matrix,) = made
        for row, r in zip(matrix, rows):
            w = np.asarray(r.w)
            assert w is np.asarray(r.w, dtype=float) and np.shares_memory(w, matrix)
            assert not w.flags.writeable and w.tobytes() == row.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                w[0] = 0.5

    def test_pickle_and_deepcopy_keep_it_read_only(self):
        r = sweep(6, [METHOD_LINEAR], steps=3)[1]
        for w in (pickle.loads(pickle.dumps(r.w)), copy.deepcopy(r.w)):
            assert type(w) is reports.Weights and w == r.w
            assert not np.asarray(w).flags.writeable
        assert pickle.loads(pickle.dumps(r)) == r


class TestCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        rows = sweep(5, list(ALL_METHODS), betas=(1.25,), steps=21)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, 5, str(path), "test run")
        back = read_sweep_csv(str(path))
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.method == b.method
            assert a.status == b.status
            assert a.beta == b.beta
            assert a.requested_orness == b.requested_orness
            assert a.achieved_orness == b.achieved_orness
            assert a.dispersion == b.dispersion
            assert a.w == b.w

    def test_determinism_byte_identical(self, tmp_path):
        rows = sweep(4, [METHOD_LINEAR], steps=31)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(rows, 4, str(p1), "flags")
        write_sweep_csv(sweep(4, [METHOD_LINEAR], steps=31), 4, str(p2), "flags")
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_comment_and_columns(self, tmp_path):
        rows = sweep(3, [METHOD_LINEAR], steps=5)
        path = tmp_path / "s.csv"
        write_sweep_csv(rows, 3, str(path), "prov")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# owakit")
        assert lines[1] == (
            "method,beta,n,requested_orness,achieved_orness,dispersion,status,w1,w2,w3"
        )

    def test_row_disagreeing_with_header_raises(self, tmp_path):
        path = tmp_path / "s.csv"
        write_sweep_csv(sweep(3, [METHOD_LINEAR], steps=5), 3, str(path), "")
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace(",3,", ",4,", 1)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="n=3"):
            read_sweep_csv(str(path))

    def test_row_with_a_cell_missing_raises(self, tmp_path):
        path = tmp_path / "s.csv"
        write_sweep_csv(sweep(3, [METHOD_LINEAR], steps=5), 3, str(path), "")
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].rsplit(",", 1)[0] + "\r\n"
        path.write_text("".join(lines))
        message = f"{path} line 4: row does not match the header's n=3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_sweep_csv(str(path))

    def test_rows_of_another_n_raise(self, tmp_path):
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="n=10 but the header has n=5"):
            write_sweep_csv(sweep(10, [METHOD_LINEAR], steps=3), 5, str(path), "")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "header",
        [
            "method,beta,n,requested_orness,achieved_orness,dispersion,status",
            "a,b",
            "method,beta,n,requested_orness,achieved_orness,dispersion,status,x1",
        ],
    )
    def test_header_that_is_not_a_sweep_header_raises(self, tmp_path, header):
        path = tmp_path / "s.csv"
        path.write_text(header + "\r\n")
        with pytest.raises(ValueError, match="not a sweep header"):
            read_sweep_csv(str(path))

    @pytest.mark.parametrize("cells", [",0.5,0.5", "0.5,,0.5", "0.5,0.5,"])
    def test_partly_empty_weight_cells_raise(self, tmp_path, cells):
        path = tmp_path / "s.csv"
        write_sweep_csv(sweep(3, [METHOD_LINEAR], steps=3), 3, str(path), "")
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].split(",ok,")[0] + f",ok,{cells}\r\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 4: weight cells must be all empty or all numbers"):
            read_sweep_csv(str(path))

    # Columns: 1 beta, 2 n, 3 requested, 4 achieved, 5 dispersion, 7 and 8 weights.
    @pytest.mark.parametrize("column", [1, 2, 3, 4, 5, 7, 8])
    def test_cell_that_is_not_a_number_raises(self, tmp_path, column):
        path = tmp_path / "s.csv"
        write_sweep_csv(sweep(3, [METHOD_LINEAR], steps=3), 3, str(path), "")
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[3].split(",")
        cells[column] = "abc"
        lines[3] = ",".join(cells)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 4: a cell is not a number"):
            read_sweep_csv(str(path))

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("byte", [0xE9, 0xFF], ids=hex)
    def test_byte_that_is_not_utf8_raises(self, tmp_path, byte, k):
        # Line 1 is the "#" line, skipped once read; line 4 is a row.
        path = tmp_path / "s.csv"
        write_sweep_csv(sweep(3, [METHOD_LINEAR], steps=3), 3, str(path), "flags")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[k - 1] = lines[k - 1].replace(b"a", bytes([byte]), 1)
        path.write_bytes(b"".join(lines))
        message = f"{path} line {k}: byte {byte:#04x} is not UTF-8"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_sweep_csv(str(path))

    @pytest.mark.parametrize("n", [0, -1, True, 5.0, "5"], ids=repr)
    def test_n_must_be_an_integer_of_at_least_one(self, tmp_path, n):
        rows = sweep(5, [METHOD_LINEAR], steps=3)
        with pytest.raises(ValueError, match="^n must be "):
            list(reports.sweep_lines(rows, n))
        # In a missing directory, a check made after the temp file's open
        # would come too late: that open raises FileNotFoundError.
        for path in (tmp_path / "s.csv", tmp_path / "no_dir" / "s.csv"):
            with pytest.raises(ValueError, match="^n must be "):
                write_sweep_csv(rows, n, str(path), "")
        assert list(tmp_path.iterdir()) == []

    def test_quoted_cell_raises(self, tmp_path):
        # The writer quotes no cell, so a quote would otherwise be read back
        # as part of the method name.
        path = tmp_path / "s.csv"
        write_sweep_csv(sweep(3, [METHOD_LINEAR], steps=3), 3, str(path), "")
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace("linear", '"linear"', 1)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 4: a cell is quoted"):
            read_sweep_csv(str(path))

    def test_comment_between_rows_is_skipped_and_counted(self, tmp_path):
        rows = sweep(3, [METHOD_LINEAR], steps=3)
        path = tmp_path / "s.csv"
        write_sweep_csv(rows, 3, str(path), "")
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(3, "# a note\n")
        path.write_text("".join(lines))
        assert read_sweep_csv(str(path)) == rows
        lines[4] = lines[4].rsplit(",", 1)[0] + "\r\n"
        path.write_text("".join(lines))
        message = f"{path} line 5: row does not match the header's n=3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_sweep_csv(str(path))

    def test_read_keeps_no_copy_of_the_file(self, tmp_path):
        # Beyond the rows it returns, a read holds about one line at a time.
        rows = sweep(100, list(ALL_METHODS), betas=(1.0, 1.25, 1.5), steps=101)
        path = tmp_path / "s.csv"
        write_sweep_csv(rows, 100, str(path), "")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            back = read_sweep_csv(str(path))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == rows
        assert peak - kept < path.stat().st_size / 4

    @pytest.mark.parametrize("provenance", ["first\nsecond", "first\rsecond", "one\r\n"])
    def test_provenance_with_a_line_break_raises(self, tmp_path, provenance):
        rows = sweep(3, [METHOD_LINEAR], steps=3)
        with pytest.raises(ValueError, match="provenance must be one line"):
            write_sweep_csv(rows, 3, str(tmp_path / "s.csv"), provenance)
        assert list(tmp_path.iterdir()) == []

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# owakit comment only\n")
        with pytest.raises(ValueError, match="no header"):
            read_sweep_csv(str(path))

    def test_no_negative_zero_cell(self, tmp_path):
        # Linear at orness 0 and 1 is a single atom: dispersion 0, not -0.
        path = tmp_path / "s.csv"
        write_sweep_csv(sweep(5, ALL_METHODS, steps=3), 5, str(path), "")
        cells = [c for line in path.read_text().splitlines()[1:] for c in line.split(",")]
        assert "0" in cells and "-0" not in cells

    def test_unwritable_path_raises_oserror(self, tmp_path):
        rows = sweep(3, [METHOD_LINEAR], steps=5)
        with pytest.raises(OSError):
            write_sweep_csv(rows, 3, str(tmp_path / "no_dir" / "s.csv"), "")

    def test_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        path = tmp_path / "s.csv"
        script = (
            "import codecs, locale, sys; from owakit import reports as r; "
            "rows = r.sweep(3, ['linear'], steps=3); "
            "r.write_sweep_csv(rows, 3, sys.argv[1], 'caf\\u00e9'); "
            "assert r.read_sweep_csv(sys.argv[1]) == rows; "
            "print(codecs.lookup(locale.getpreferredencoding(False)).name)"
        )
        src = os.path.dirname(os.path.dirname(reports.__file__))
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-c", script, str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, LC_ALL="C", PYTHONPATH=src),
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ascii\n"  # the locale's encoding, which open() would use
        first = f"# owakit {owakit.__version__} café\n".encode("utf-8")
        assert path.read_bytes().startswith(first)


def _plain_parse(path):
    """The rows of a sweep file parsed with one new float per cell."""

    def opt(s):
        return None if s == "" else float(s)

    with open(path, encoding="utf-8", newline="") as fh:
        records = [line.rstrip("\r\n").split(",") for line in fh if not line.startswith("#")]
    return [
        MethodReport(
            rec[0], opt(rec[1]), int(rec[2]), float(rec[3]), opt(rec[4]), opt(rec[5]),
            None if rec[7] == "" else tuple(float(v) for v in rec[7:]), rec[6],
        )
        for rec in records[1:]
    ]


def _bits(r):
    """A report's fields, every float and weight row as its packed bytes."""
    floats = (r.beta, r.requested_orness, r.achieved_orness, r.dispersion)
    w = None if r.w is None else struct.pack(f"{len(r.w)}d", *r.w)
    floats = tuple(None if x is None else struct.pack("d", x) for x in floats)
    return (r.method, r.n, r.status, w) + floats


def _read_cells(tmp_path, rows):
    """``read_sweep_csv`` of a file of ``ok`` rows, each (method, beta cell, weight cells)."""
    n = rows[0][2].count(",") + 1
    lines = [",".join(reports.sweep_header(n))]
    lines += [f"{m},{beta},{n},0.5,0.5,0.5,ok,{cells}" for m, beta, cells in rows]
    path = tmp_path / "s.csv"
    path.write_text("".join(line + "\r\n" for line in lines))
    return read_sweep_csv(str(path))


class TestReadBackSharesFloats:
    # A row read back holds a Weights over one float64 array of its cells, each parsed
    # by float: its bits are those of a parse that makes one float per cell.
    @pytest.mark.filterwarnings("ignore:orness of a length-1 weight vector")
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000])
    def test_rows_are_the_plain_parse(self, tmp_path, n):
        methods = [m.name for m in METHODS if n >= m.min_n]
        rows = sweep(n, methods, betas=(1.0, 1.25, 1.5))
        path = tmp_path / "s.csv"
        write_sweep_csv(rows, n, str(path), "")
        back = read_sweep_csv(str(path))
        assert list(map(_bits, back)) == list(map(_bits, _plain_parse(path)))
        assert list(map(_bits, back)) == list(map(_bits, rows))

    def test_run_of_equal_text_is_one_float(self, tmp_path):
        (r,) = _read_cells(tmp_path, [("m", "", "0,0,0.125,0.125,0.25,0.25,0.25,0,-0")])
        row = [0.0, 0.0, 0.125, 0.125, 0.25, 0.25, 0.25, 0.0, -0.0]
        assert struct.pack("9d", *r.w) == struct.pack("9d", *row)
        assert math.copysign(1.0, r.w[8]) == -1.0

    def test_mirrored_and_repeated_rows_hold_their_partners_floats(self, tmp_path):
        first, mirror, repeat, mirror_again = _read_cells(
            tmp_path,
            [("m", "", "0.5,0.25,0.125"), ("m", "", "0.125,0.25,0.5")]
            + [("m", "", "0.5,0.25,0.125"), ("m", "", "0.125,0.25,0.5")],
        )
        assert repeat.w == first.w and hash(repeat.w) == hash(first.w)
        for r in (mirror, mirror_again):
            assert r.w == first.w[::-1] == (0.125, 0.25, 0.5)

    @pytest.mark.parametrize("method", [METHOD_EXPONENTIAL, METHOD_EXPONENTIAL_NO_PRESET])
    def test_sweep_mirrors_read_back_shared(self, tmp_path, method):
        path = tmp_path / "s.csv"
        write_sweep_csv(sweep(10, [method]), 10, str(path), "")
        rows = read_sweep_csv(str(path))
        bits = [np.asarray(r.w).tobytes() for r in rows]
        mirrors = [np.asarray(r.w)[::-1].tobytes() for r in rows]
        shared = [k for k in range(50) if bits[k] == mirrors[100 - k]]
        assert len(shared) == {METHOD_EXPONENTIAL: 50, METHOD_EXPONENTIAL_NO_PRESET: 42}[method]

    def test_mirror_that_differs_in_a_zeros_sign_is_not_shared(self, tmp_path):
        first, last = _read_cells(tmp_path, [("m", "", "1,0,0"), ("m", "", "-0,0,1")])
        assert first.w == last.w[::-1]
        assert np.asarray(first.w).tobytes() != np.asarray(last.w)[::-1].tobytes()
        assert math.copysign(1.0, last.w[0]) == -1.0

    @pytest.mark.parametrize("cells", ["0.5,0.375,0.125", "0.125,0.375,0.5"])
    def test_row_that_differs_in_its_middle_is_not_shared(self, tmp_path, cells):
        first, other = _read_cells(tmp_path, [("m", "", "0.5,0.25,0.125"), ("m", "", cells)])
        assert first.w not in (other.w, other.w[::-1])

    def test_rows_of_another_beta_or_method_are_not_shared(self, tmp_path):
        rows = _read_cells(
            tmp_path,
            [("a", "1", "0.5,0.25,0.125"), ("a", "1.25", "0.5,0.25,0.125")]
            + [("b", "1", "0.5,0.25,0.125"), ("b", "1", "0.125,0.25,0.5")],
        )
        assert [(r.method, r.beta) for r in rows] == [("a", 1.0), ("a", 1.25)] + [("b", 1.0)] * 2
        # Each row holds an array of its own.
        pairs = combinations([np.asarray(r.w) for r in rows], 2)
        assert not any(np.shares_memory(a, b) for a, b in pairs)
        assert rows[0].w == rows[1].w == rows[2].w == rows[3].w[::-1]

    def test_nan_cells_read_back_as_a_plain_parse(self, tmp_path):
        back = _read_cells(tmp_path, [("m", "", "nan,nan,nan"), ("m", "", "nan,0.5,nan")] * 2)
        assert list(map(_bits, back)) == list(map(_bits, _plain_parse(tmp_path / "s.csv")))
        assert all(math.isnan(r.w[0]) and math.isnan(r.w[2]) for r in back)

    def test_names_are_the_module_constants(self, tmp_path):
        path = tmp_path / "s.csv"
        write_sweep_csv(sweep(100, list(ALL_METHODS)), 100, str(path), "")
        rows = read_sweep_csv(str(path))
        methods = {m: m for m in ALL_METHODS}
        statuses = {s: s for s in (STATUS_OK, STATUS_UNSTABLE, STATUS_UNSUPPORTED)}
        assert {r.status for r in rows} == set(statuses)
        assert all(r.method is methods[r.method] for r in rows)
        assert all(r.status is statuses[r.status] for r in rows)

    def test_unknown_names_are_kept_as_read(self, tmp_path):
        path = tmp_path / "s.csv"
        lines = [",".join(reports.sweep_header(2)), "mine,,2,0.5,0.5,0.5,odd,0.5,0.5"]
        path.write_text("".join(line + "\n" for line in lines))
        (r,) = read_sweep_csv(str(path))
        assert (r.method, r.status) == ("mine", "odd")

    def test_read_holds_no_more_than_the_sweep(self, tmp_path):
        # The n = 1000 job of the sweep benchmark.  Its rows as sweep() holds them, views
        # of the kernel matrices, trace 4.0 MiB, and read back 4.1 MiB; as tuples that share
        # the floats of runs and mirrors they traced 9.6 and 9.7 MiB, and with one float per
        # cell about 15.5 MiB.
        job = (1000, [METHOD_LINEAR, METHOD_EXPONENTIAL, METHOD_EXPONENTIAL_NO_PRESET])
        path = tmp_path / "s.csv"
        tracemalloc.start()
        try:
            rows = sweep(*job, betas=(1.0, 1.25, 1.5))
            held, _ = tracemalloc.get_traced_memory()
            write_sweep_csv(rows, 1000, str(path), "")
            del rows
            before, _ = tracemalloc.get_traced_memory()
            back = read_sweep_csv(str(path))
            read, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == 505
        assert held < 5 * 2**20 and read - before < 5 * 2**20
        assert read - before <= 1.05 * held

    def test_write_holds_a_bounded_batch(self, tmp_path):
        # The same job's write, above the rows it is given.  Its traced peak read 6.04 MiB
        # with str lines through a text file, and 6.04 MiB with batches of bytes, each freed
        # before the next is made.  Holding the last batch while the next one was made read
        # 6.21 MiB, and holding batches of a whole formatting block (above orness 0.5, up to
        # half a grid of flipped rows) 6.69 MiB.  Such batches, each freed in time, read
        # 6.04 MiB: the batch count below refuses them.
        job = (1000, [METHOD_LINEAR, METHOD_EXPONENTIAL, METHOD_EXPONENTIAL_NO_PRESET])
        path = tmp_path / "s.csv"
        write_sweep_csv(sweep(*job, betas=(1.0, 1.25, 1.5)), 1000, str(path), "")  # lazy set-up
        tracemalloc.start()
        try:
            rows = sweep(*job, betas=(1.0, 1.25, 1.5))
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            write_sweep_csv(rows, 1000, str(path), "")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 6.15 * 2**20
        batches = [len(parts) // 3 for parts in reports._sweep_parts(rows, 1000, b"\r\n")]
        assert sum(batches) == 1 + len(rows) and max(batches) == reports._BLOCK_CELLS // 1000


def _reference_cell(value):
    return "" if value is None else format(value, ".17g")


def _reference_csv(rows, n, provenance, newline="\r\n"):
    """A sweep CSV written the plain way, as the reference for the
    library's writer: one ``format(v, ".17g")`` per cell, then
    ``csv.writer``, under the same ``#`` provenance line."""
    buf = io.StringIO(newline="")
    buf.write(f"# owakit {owakit.__version__} {provenance}".rstrip() + "\n")
    writer = csv.writer(buf, lineterminator=newline)
    writer.writerow(
        ["method", "beta", "n", "requested_orness", "achieved_orness", "dispersion", "status"]
        + [f"w{i}" for i in range(1, n + 1)]
    )
    for r in rows:
        weights = r.w if r.w is not None else [None] * n
        writer.writerow(
            [r.method, _reference_cell(r.beta), str(r.n)]
            + [_reference_cell(v) for v in (r.requested_orness, r.achieved_orness, r.dispersion)]
            + [r.status]
            + [_reference_cell(v) for v in weights]
        )
    return buf.getvalue()


def _text_rows(n):
    """A sweep at ``n``, then rows whose lines take every path of the writer: a
    kept row, its repeat and its flipped mirror, each with the spliced cell -0.0
    and a tie at the 17th digit, and a row with a non-ASCII method and status."""
    rows = sweep(n, [METHOD_LINEAR, METHOD_EXPONENTIAL], betas=(1.0, 1.5), steps=11)
    w = (10 ** np.random.default_rng(n).uniform(-11, 0, n)).tolist()
    w[0], w[-1] = -0.0, _EXACT_CASES["ties at the 17th digit"][0]
    w = tuple(w)
    return rows + [
        _row(METHOD_MAXENT, 0.2, w, n=n),
        _row(METHOD_MAXENT, 0.4, w, n=n),
        _row(METHOD_MAXENT, 0.8, w[::-1], n=n),
        _row(METHOD_MAXENT, 0.9, None, n=n),
        MethodReport("méthode-π", None, n, 0.3, 0.3, 0.5, w, "état-ü"),
    ]


class TestOneGenerator:
    """``sweep_lines`` and ``write_sweep_csv`` take their text from one generator
    of bytes: the lines are the file below its comment line, and the reference."""

    @pytest.mark.parametrize("n", [10, 63, 64, 100, 1000])
    def test_lines_are_the_file(self, tmp_path, n):
        rows = _text_rows(n)
        if n >= reports._RUN_ROW_CELLS:  # the flat beta = 1 linear rows are written from their runs
            flat = [r.w for r in rows if r.method == METHOD_LINEAR and r.beta == 1.0 and r.w]
            assert any(reports._run_line(struct.pack(f"{n}d", *w), n // 32) for w in flat)
        path = tmp_path / "s.csv"
        write_sweep_csv(rows, n, str(path), "π")
        data = path.read_bytes()
        assert data == _reference_csv(rows, n, "π").encode()
        comment, text = data.decode().split("\n", 1)
        assert "".join(reports.sweep_lines(rows, n)) == text
        assert "".join(reports.sweep_lines(rows, n, "\n")) == text.replace("\r\n", "\n")
        assert read_sweep_csv(str(path)) == rows
        head = "méthode-π,,{},0.29999999999999999,0.29999999999999999,0.5,état-ü,".format(n)
        assert data.split(b"\r\n")[-2].startswith(head.encode("utf-8"))


class TestCsvMatchesReference:
    @pytest.mark.parametrize(
        "n, methods",
        [(n, ALL_METHODS) for n in (2, 3, 5, 10, 100)]
        + [(1000, (METHOD_LINEAR, METHOD_EXPONENTIAL, METHOD_EXPONENTIAL_NO_PRESET))],
    )
    def test_sweep(self, tmp_path, n, methods):
        rows = sweep(n, methods, betas=(1.0, 1.25, 1.5), steps=101)
        path = tmp_path / "s.csv"
        write_sweep_csv(rows, n, str(path), f"sweep --n {n}")
        assert path.read_bytes() == _reference_csv(rows, n, f"sweep --n {n}").encode()

    @pytest.mark.parametrize("provenance", ["sweep --n 100 --method maxent", ""])
    def test_rows_without_weights(self, tmp_path, provenance):
        rows = [evaluate_method(METHOD_MAXENT, a, 100) for a in (0.0, 0.5, 0.99, 1.0)]
        assert [r.status for r in rows] == [
            STATUS_UNSUPPORTED, STATUS_OK, STATUS_UNSTABLE, STATUS_UNSUPPORTED
        ]
        path = tmp_path / "s.csv"
        write_sweep_csv(rows, 100, str(path), provenance)
        assert path.read_bytes() == _reference_csv(rows, 100, provenance).encode()

    def test_gen_csv_stdout(self, capsys):
        args = ["gen", "--n", "7", "--orness", "0.3", "--method", "all", "--format", "csv"]
        assert main(args) == 0
        rows = [evaluate_method(m.name, 0.3, 7) for m in METHODS]
        expected = _reference_csv(rows, 7, "", newline="\n").split("\n", 1)[1]
        assert capsys.readouterr().out == expected


def _row(method, requested, w, beta=None, n=3):
    status = STATUS_UNSTABLE if w is None else STATUS_OK
    return MethodReport(method, beta, n, requested, None, None, w, status)


_ONE_ULP = float(np.nextafter(0.3, 1.0))
# Each group: rows that may reuse the weight cells of an earlier row.
_REUSE_ROWS = {
    "exact mirror": [
        _row(METHOD_MAXENT, 0.2, (0.5, 0.3, 0.2)),
        _row(METHOD_MAXENT, 0.8, (0.2, 0.3, 0.5)),
    ],
    "repeat across betas": [
        _row(METHOD_LINEAR, 0.0, (0.0, 0.0, 1.0), beta=b) for b in (1.0, 1.25, 1.5)
    ] + [_row(METHOD_LINEAR, 1.0, (1.0, 0.0, 0.0), beta=b) for b in (1.0, 1.25, 1.5)],
    "near mirror": [
        _row(METHOD_MAXENT, 0.2, (0.5, 0.3, 0.2)),
        _row(METHOD_MAXENT, 0.8, (0.2, _ONE_ULP, 0.5)),
    ],
    "signed zeros": [
        _row(METHOD_EXPONENTIAL, 0.0, (0.0, 0.0, 1.0)),
        _row(METHOD_EXPONENTIAL, 0.0, (-0.0, 0.0, 1.0)),
        _row(METHOD_EXPONENTIAL, 1.0, (1.0, 0.0, -0.0)),
    ],
    "nan": [
        _row(METHOD_MAXENT, 0.3, (float("nan"), 0.5, 0.5)),
        _row(METHOD_MAXENT, 0.7, (0.5, 0.5, float("nan"))),
    ],
    "no weights": [
        _row(METHOD_MAXENT, 0.0, None),
        _row(METHOD_MAXENT, 0.3, (0.5, 0.3, 0.2)),
        _row(METHOD_MAXENT, 0.5, None),
        _row(METHOD_MAXENT, 0.7, (0.2, 0.3, 0.5)),
    ],
    "two methods": [
        _row(METHOD_EXPONENTIAL, 0.3, (0.5, 0.3, 0.2)),
        _row(METHOD_LINEAR, 0.3, (0.5, 0.3, 0.2), beta=1.0),
        _row(METHOD_LINEAR, 0.7, (0.2, 0.3, 0.5), beta=1.0),
        _row(METHOD_EXPONENTIAL, 0.7, (0.2, 0.3, 0.5)),
    ],
    "unsorted": [
        _row(METHOD_MAXENT, 0.8, (0.2, 0.3, 0.5)),
        _row(METHOD_MAXENT, 0.2, (0.5, 0.3, 0.2)),
        _row(METHOD_MAXENT, 0.9, (0.1, 0.1, 0.8)),
        _row(METHOD_MAXENT, 0.8, (0.2, 0.3, 0.5)),
        _row(METHOD_MAXENT, 0.1, (0.8, 0.1, 0.1)),
        _row(METHOD_MAXENT, 0.5, (0.1, 0.8, 0.1)),
        _row(METHOD_MAXENT, 0.45, (0.1, 0.8, 0.1)),
    ],
}


class TestWeightCellReuse:
    """The writer reuses the cells of repeated and mirrored rows; every
    line must still be the plain per-cell ``%.17g`` line."""

    @pytest.mark.parametrize("end", ["\r\n", "\n", ""])
    @pytest.mark.parametrize("case", sorted(_REUSE_ROWS))
    def test_lines_equal_the_reference(self, case, end):
        rows = _REUSE_ROWS[case]
        expected = _reference_csv(rows, 3, "", newline=end).split("\n", 1)[1]
        assert "".join(reports.sweep_lines(rows, 3, end)) == expected

    def test_signed_zero_mirror_keeps_its_sign(self):
        lines = list(reports.sweep_lines(_REUSE_ROWS["signed zeros"], 3))
        assert [line.split(",", 7)[7] for line in lines[1:]] == [
            "0,0,1\r\n", "-0,0,1\r\n", "1,0,-0\r\n"
        ]

    @pytest.mark.parametrize("w", [(0.5, 0.5), (0.5, 0.5, 0.5, 0.5), (0.5, None, 0.5)])
    def test_rows_that_are_not_n_numbers_raise(self, w):
        rows = [_row(METHOD_MAXENT, 0.3, (0.5, 0.5, 0.5)), _row(METHOD_MAXENT, 0.4, w)]
        with pytest.raises(TypeError):
            list(reports.sweep_lines(rows, 3))


# Values the exact cell path must format as "%.17g" does, byte for byte.
_TENTHS = [float(f"1e-{k}") for k in range(1, 12)]
_EXACT_CASES = {
    "powers of ten and their neighbours": sorted(
        float(np.nextafter(v, toward)) for v in _TENTHS for toward in (0.0, v, 1.0)
    ),
    # m / 2**q (odd m) has the decimal digits of m * 5**q, ending in 5: a
    # tie at the 17th digit when there are 18 of them.
    "ties at the 17th digit": [
        m / 2**q
        for q in range(1, 49)
        for m in range(1, min(4000, 2**q), 2)
        if m / 2**q >= 1e-11 and len(str(m * 5**q)) == 18
    ],
    "log-uniform": (10 ** np.random.default_rng(25).uniform(-11, 0, 20000)).tolist(),
    "ends": [0.0, 1.0],
    "powers of ten down to 1e-323 and their neighbours": [
        float(np.nextafter(v, toward))
        for v in (float(f"1e-{k}") for k in range(1, 324))
        for toward in (0.0, v, 1.0)
    ],
    "powers of two and their predecessors": [
        float(np.nextafter(2.0**b, toward)) for b in range(-1074, 0) for toward in (0.0, 1.0)
    ],
    # Every double in (0, 1) is a bit pattern in [1, 0x3FF0000000000000).
    "random bit patterns": np.random.default_rng(29)
    .integers(1, 0x3FF0000000000000, 20000, dtype=np.uint64)
    .view(np.float64)
    .tolist(),
    "three-digit decades": [1e-99, 1e-100],
}
# The cells a row could not hold when every cell of a row had to be +0, 1 or
# in (1e-11, 1).  The digits now cover the subnormal, the least normal and
# 1e-11; "%.17g" is spliced in for the others.
_FALLBACK_CELLS = [
    -0.0, 5e-324, 2.2250738585072014e-308, -1e-13, 1e-11, 1.5,
    float("nan"), float("inf"), float("-inf"),
]


def _exact_cell_mismatches():
    """Each cell of the exact path that is not its ``%.17g``, and each row
    mixing a ``_FALLBACK_CELLS`` value with other cells that is not its
    cells' ``%.17g`` joined, as (case, value, got)."""
    bad = []
    for case, values in _EXACT_CASES.items():
        for v, got in zip(values, _digits.cells(np.array(values)[:, None])):
            if got != b"%.17g" % v:
                bad.append((case, v, got))
    for v in _FALLBACK_CELLS:
        x = np.array(
            [[0.25, v, 0.5, 1e-300, 0.0], [0.25, 0.25, 0.5, 5e-324, 1.0], [v, 1e-11, v, 1e-100, 0.75]]
        )
        rows = _digits.cells(x)
        if rows != [b",".join(b"%.17g" % c for c in row) for row in x.tolist()]:
            bad.append(("fallback", v, rows))
    return bad


def _near_half_cells():
    """By size, the weight cells in (0, 1) of the sweeps behind
    ``SWEEP_CSV_SHA256`` (the ``perfbench`` sweep jobs among them) whose
    digits ``_digits.decimal`` leaves to ``%.17g``, and the cells below 1e-39,
    whose P_k is not 5**k."""
    counts = {}
    for n in sorted(SWEEP_CSV_SHA256):
        methods = LINEAR_ONLY_AT_1000 if n == 1000 else ALL_METHODS
        rows = sweep(n, methods, betas=(1.0, 1.25, 1.5), steps=101)
        v = np.array([c for r in rows if r.w is not None for c in r.w])
        v = v[(v > 0.0) & (v < 1.0)]
        counts[n] = [int(_digits.decimal(v)[2].sum()), int((v < 1e-39).sum())]
    return counts


class TestExactCells:
    def test_case_sizes(self):
        assert len(_EXACT_CASES["ties at the 17th digit"]) == 2656
        assert len(_EXACT_CASES["powers of ten and their neighbours"]) == 33
        assert len(_EXACT_CASES["powers of ten down to 1e-323 and their neighbours"]) == 969
        assert len(_EXACT_CASES["powers of two and their predecessors"]) == 2148

    def test_cells_are_their_percent_format(self):
        assert _exact_cell_mismatches() == []

    def test_rows_join_their_cells(self):
        x = np.array(_EXACT_CASES["log-uniform"]).reshape(-1, 10)
        x[::7, 3] = 0.0
        x[::5, 0] = 1.0
        expected = [b",".join(b"%.17g" % v for v in row) for row in x.tolist()]
        assert _digits.cells(x) == expected

    def test_decade_tables_are_exact(self):
        # The cells in (0, 1) lie in the binades [2**b, 2**(b+1)), b = -1074..-1.
        assert 2.0**-1074 == 5e-324 and len(_digits._NEXT_DECADE) == 1074
        floors = _digits._floor_log10(np.arange(-1074, 0))
        cells, above = [], []
        for b in range(-1074, 0):
            f, m = _digits._floor_log10(b), int(_digits._NEXT_DECADE[b])
            # The formula on Python integers and on the int64 exponents decimal() passes.
            assert f == floors[b]
            assert Fraction(10) ** f <= Fraction(2) ** b < Fraction(10) ** (f + 1)
            # The least m with m * 2**(b-52) at or above 10**(f+1) less half a
            # unit in its 17th digit.
            bound = Fraction(10) ** (f + 1) * (1 - Fraction(5, 10**18))
            assert Fraction(m - 1, 2 ** (52 - b)) < bound <= Fraction(m, 2 ** (52 - b))
            cells += [2.0**b, np.nextafter(2.0**b, 0.0)]
            if m < 2**53:  # the binade holds 10**(f+1)
                # The least m at or above 10**(f+1) is m's, but for ten decades
                # (10**-14, 10**-70, ...) a double lies between the bound and it.
                power = math.ceil(Fraction(10) ** (f + 1) * 2 ** (52 - b))
                above.append(power > m)
                # Below 2**-1022 the nearest doubles: m may need more bits than a subnormal has.
                cells += [math.ldexp(k, b - 52) for k in (m, m - 1, power, power - 1)]
        # Each binade but the ten-free ones holds one of 10**-1..10**-323.
        assert len(cells) == 2 * 1074 + 4 * 323 and sum(above) == 10
        assert _digits.cells(np.array(cells)[:, None]) == [b"%.17g" % v for v in cells]

    def test_cells_without_avx512(self):
        # No decade depends on log10 any more, but the digits still come from
        # numpy loops that dispatch on the SIMD target: check another target.
        if _log_loop() != "X86_V4":
            pytest.skip("numpy has no AVX-512 dispatch here")
        script = (
            "import json, test_arrays as a, test_reports as t; "
            "print(json.dumps([a._log_loop(), repr(t._exact_cell_mismatches())]))"
        )
        assert _on_emulated_avx2_host(script) == ["X86_V3", "[]"]

    def test_no_sweep_cell_is_near_a_half(self):
        # Sweep cells go down to subnormals, and none is left to "%.17g" by the
        # P_k bound, on either SIMD family.
        counts = _near_half_cells()
        assert [near for near, _ in counts.values()] == [0] * 6
        assert counts[1000][1] > 40000
        if _log_loop() != "X86_V4":
            return
        script = (
            "import json, test_arrays as a, test_reports as t; "
            "print(json.dumps([a._log_loop(), t._near_half_cells()]))"
        )
        dispatch, other = _on_emulated_avx2_host(script)
        assert dispatch == "X86_V3"
        assert [near for near, _ in other.values()] == [0] * 6
        assert other["1000"][1] > 40000


def _table_mismatches():
    """The entries of the formatter's tables that are not what ``%.17g`` writes,
    as (table, index).  ``_digits._FOUR`` holds f"{i:04d}" for each i < 10**4,
    then, at 10**4 + i, the same with its trailing zeros NUL.  By decade
    E = -324..-1 (a negative index), ``_digits._PREFIX`` holds the bytes before
    a cell's first digit and its point, ``_digits._SUFFIX`` the bytes after its
    last digit: the fixed layout (E >= -4) "0." and -E-1 zeros, then nothing;
    the scientific its point, then "e", the decade as ``%.17g`` writes it and
    the separator.  Rows 0 and 1 are the cells 0 and 1.  Each byte the
    layout does not write is NUL.  A decade's entries that are not so come as
    ("decade", E, entries)."""
    bad = [(t, len(a)) for t, a, size in [
        ("_FOUR", _digits._FOUR, 20000),
        ("_PREFIX", _digits._PREFIX, 326),
        ("_SUFFIX", _digits._SUFFIX, 326),
    ] if len(a) != size]
    four = _digits._FOUR.tobytes()
    for i in range(10000):
        text = f"{i:04d}".encode()
        if four[4 * i : 4 * i + 4] != text:
            bad.append(("_FOUR", i))
        if four[4 * (10000 + i) : 4 * (10001 + i)] != text.rstrip(b"0").ljust(4, b"\0"):
            bad.append(("_FOUR", 10000 + i))
    for E in range(-326, 0):
        got = (_digits._PREFIX[E].tobytes(), _digits._SUFFIX[E].tobytes())
        if E < -324:  # the cells 0 and 1
            want = (str(E + 326).encode().ljust(8, b"\0"), b"\0" * 7 + b",")
        elif E >= -4:
            want = (("0." + "0" * (-E - 1)).encode().ljust(8, b"\0"), b"\0" * 7 + b",")
        else:
            digits = ("%.17g" % float(f"5e{E}")).split("e-")[1].encode()
            want = (b"\0" * 6 + b".\0", b"\0\0e-" + digits.rjust(3, b"\0") + b",")
        if got != want:
            bad.append(("decade", E, got))
    return bad


def _digit_count_cells():
    """Doubles whose ``%.17g`` has 17 - k significant digits, four for each
    k = 0..16 in each layout: fixed (decades -1..-4) and scientific (-5 down
    to -307).  The 16 digits after the first are four chunks, each all zeros
    or drawn, then cut to 16 - k with a nonzero last one."""
    rng = np.random.default_rng(30)
    cells = []
    for k in range(17):
        for decades in ((-1, -4), (-5, -307)):
            found = 0
            for _ in range(5000):
                e = int(rng.integers(decades[1], decades[0] + 1))
                chunks = rng.integers(0, 10**4, 4) * (rng.random(4) < 0.7)
                digits = str(rng.integers(1, 10)) + "".join(f"{c:04d}" for c in chunks)
                digits = digits[: 17 - k] + "0" * k
                if digits[16 - k] == "0":
                    continue
                v = float(f"{digits[0]}.{digits[1:]}e{e}")
                if f"{v:.16e}" == f"{digits[0]}.{digits[1:]}e{e:+03d}":
                    cells.append(v)
                    found += 1
                    if found == 4:
                        break
            assert found == 4, (k, decades)
    return cells


def _digit_count_mismatches():
    """Each cell of :func:`_digit_count_cells` that ``_exact_cells`` does not
    format as ``%.17g``, as (value, got)."""
    cells = _digit_count_cells()
    got = _digits.cells(np.array(cells)[:, None])
    return [(v, g) for v, g in zip(cells, got) if g != b"%.17g" % v]


# Rows of the last two sizes take more than one column chunk of the row sums.
_DISPERSION_SIZES = (1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 1000, 20000, 2**17 + 1)


def _compressed_dispersion(row):
    """The dispersion formula the row sums replaced, kept as the reference:
    0.0 less the pairwise sum of w ln w over the cells > 0 alone.  It is
    taken per column chunk of ``core._SUM_COLUMNS``, the chunk sums added to
    +0.0 left to right, so a row of no more cells is the old formula exactly."""
    total = 0.0
    for k in range(0, row.size, core._SUM_COLUMNS):
        chunk = row[k : k + core._SUM_COLUMNS]
        pos = chunk[chunk > 0.0]
        total += float((pos * np.log(pos)).sum())
    return 0.0 - total


def _dispersion_mismatches():
    """(n, row, got, expected) for each row of a matrix of size ``n`` whose
    ``core._dispersion_rows`` value is not, bit for bit, its one-row call and,
    for a row of cells > 0, :func:`_compressed_dispersion`; a row with a cell
    of +-0.0 must lie within 1e-14 of it, a single atom give +0.0 and a row
    with a NaN give NaN.  Then
    each ok row of a sweep whose dispersion is not that of its weights."""
    rng = np.random.default_rng(30)
    bad = []
    for n in _DISPERSION_SIZES:
        cells = 10 ** rng.uniform(-12, 0, (10, n))
        w = cells / cells.sum(axis=1, keepdims=True)
        w[1] = 1.0 / n
        w[2, -1] = 5e-324
        w[5, rng.integers(n)] = 0.0
        w[6, rng.integers(n)] = -0.0
        w[7, :: max(2, n // 3)] = 0.0
        w[8] = np.where(np.arange(n) == n // 2, 1.0, -0.0)
        w[9, 0] = np.nan
        got = core._dispersion_rows(w)
        for k, row in enumerate(w):
            expected = _compressed_dispersion(row)
            one = core._dispersion_rows(row[np.newaxis])[0]
            if k in (8, 9):  # the single atom, and the row with a NaN
                ok = repr(got[k]) == repr(one) == ("0.0" if k == 8 else "nan")
            elif (row > 0.0).all():
                ok = repr(got[k]) == repr(one) == repr(expected)
            else:
                ok = repr(got[k]) == repr(one) and abs(got[k] - expected) <= 1e-14
            if not ok:
                bad.append((n, k, got[k], expected))
    for n in (7, 129):
        for r in sweep(n, ALL_METHODS, betas=(1.0, 1.5), steps=21):
            if r.w is not None and repr(r.dispersion) != repr(dispersion(WeightVector(r.w))):
                bad.append((n, r.method, r.requested_orness, r.dispersion))
    return bad


class TestChunksAndDispersions:
    """The formatter's four-digit chunks and decade tables, and the
    dispersion pass over a grid's weight matrix."""

    def test_tables_are_their_f_strings(self):
        assert _table_mismatches() == []

    def test_digit_counts(self):
        cells = _digit_count_cells()
        counts = [len(f"{v:.16e}".split("e")[0].replace(".", "").rstrip("0")) for v in cells]
        assert sorted(set(counts)) == list(range(1, 18))
        assert not _digits.decimal(np.array(cells))[2].any()
        assert _digit_count_mismatches() == []

    def test_dispersions_are_the_row_dispersions(self):
        assert core._SUM_COLUMNS < 20000 and 2 * core._SUM_COLUMNS < 2**17 + 1
        assert _dispersion_mismatches() == []

    def test_rows_yield_after_the_dispersion_scratch_is_freed(self):
        # At n = 4000 a 101-row scratch matrix is 3.2 MB; the first row comes
        # after it is freed, so the rows held no more than the kernel matrix.
        m = reports._method(METHOD_LINEAR)
        tracemalloc.start()
        try:
            rows = reports._rows(m, reports._grid(101), 4000, 1.0)
            next(rows)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 101 * 4000 * 8 * 1.5

    def test_without_avx512(self):
        # The log in the dispersion pass dispatches on the SIMD target: check
        # the other one, with the tables, the digit counts and the bisection.
        if _log_loop() != "X86_V4":
            pytest.skip("numpy has no AVX-512 dispatch here")
        script = (
            "import json, test_arrays as a, test_reports as t, test_baselines as b; "
            "print(json.dumps([a._log_loop(), repr(t._table_mismatches()), "
            "repr(t._digit_count_mismatches()), repr(t._dispersion_mismatches()), "
            "repr(b._bisection_mismatches())]))"
        )
        assert _on_emulated_avx2_host(script) == ["X86_V3", "[]", "[]", "[]", "[]"]


def _first_mismatch(rows, n, end="\r\n", given=None):
    """(index, line, reference line) for the first line that
    ``sweep_lines`` writes for ``given`` (default: ``rows``) and that is
    not the reference line for ``rows``, or None."""
    reference = _reference_csv(rows, n, "", newline=end).split("\n", 1)[1]
    lines = reports.sweep_lines(rows if given is None else given, n, end)
    lines = zip_longest(lines, reference.splitlines(keepends=True))
    return next(((k, a, b) for k, (a, b) in enumerate(lines) if a != b), None)


def _random_rows(count, n, seed):
    """``count`` rows of ``n`` log-uniform cells in (1e-11, 1), at orness
    0.1 so that each is kept for reuse."""
    cells = 10 ** np.random.default_rng(seed).uniform(-11, 0, (count, n))
    return [_row(METHOD_MAXENT, 0.1, tuple(w), n=n) for w in cells.tolist()]


@pytest.fixture
def exact_rows(monkeypatch):
    """A list that counts the rows the exact path formats."""
    counted = []

    def spy(x):
        rows = exact_cells(x)
        counted.extend(rows)
        return rows

    exact_cells = _digits.cells
    monkeypatch.setattr(_digits, "cells", spy)
    return counted


@pytest.fixture
def spliced_cells(monkeypatch):
    """A list with, for each block the exact path formats, its number of
    cells that have ``%.17g`` spliced in."""
    counts = []

    def spy(lines, x, splice):
        counts.append(int(splice.sum()))
        return splice_cells(lines, x, splice)

    splice_cells = _digits._splice
    monkeypatch.setattr(_digits, "_splice", spy)
    return counts


class TestBlocks:
    """``sweep_lines`` formats rows in blocks; every line must still be the
    plain per-cell ``%.17g`` line."""

    def test_rows_span_several_blocks(self, exact_rows):
        n = 100
        rows = _random_rows(3 * reports._BLOCK_CELLS // n + 5, n, 1)
        assert _first_mismatch(rows, n) is None
        assert len(exact_rows) == len(rows)

    def test_one_cell_rows(self, exact_rows):
        rows = _random_rows(reports._BLOCK_CELLS + 300, 1, 2)
        rows[7] = _row(METHOD_MAXENT, 0.1, (1.0,), n=1)
        rows[8] = _row(METHOD_MAXENT, 0.1, (0.0,), n=1)
        assert _first_mismatch(rows, 1, "\n") is None
        assert len(exact_rows) == len(rows)

    def test_rows_larger_than_a_block(self, exact_rows):
        n = reports._BLOCK_CELLS + 100
        rows = _random_rows(3, n, 3) + [_row(METHOD_MAXENT, 0.5, None, n=n)]
        assert _first_mismatch(rows, n) is None
        # Each long row is formatted in column chunks of at most _BLOCK_CELLS cells.
        assert len(exact_rows) == 3 * math.ceil(n / reports._BLOCK_CELLS) == 6

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 8191, 8192, 8193, 30000])
    def test_every_row_length_takes_one_path(self, monkeypatch, tmp_path, n):
        # -0.0, NaN and a tie at the 17th digit sit on both sides of each chunk
        # edge: a row's ends (a block ends with a row) and, inside a long row,
        # each multiple of _BLOCK_CELLS.  No call formats more than a block.
        sizes, cells = [], _digits.cells
        monkeypatch.setattr(_digits, "cells", lambda x: sizes.append(x.size) or cells(x))
        block = reports._BLOCK_CELLS
        x = 10 ** np.random.default_rng(n).uniform(-11, 0, (max(3, 2 * block // n + 1), n))
        edges = sorted({0, n - 1} | {c for k in range(block, n, block) for c in (k - 1, k)})
        specials = [-0.0, float("nan"), _EXACT_CASES["ties at the 17th digit"][0]]
        for i, row in enumerate(x):
            row[edges] = [specials[(i + j) % 3] for j in range(len(edges))]
        # At orness above 0.5 no row is kept for reuse, so each is formatted.
        rows = [_row(METHOD_MAXENT, 0.9, tuple(w), n=n) for w in x.tolist()]
        path = tmp_path / "s.csv"
        write_sweep_csv(rows, n, str(path), "")
        text = "".join(reports.sweep_lines(rows, n))
        assert path.read_bytes().decode() == f"# owakit {owakit.__version__}\n" + text
        percent = [",".join("%.17g" % v for v in w) for w in x.tolist()]
        assert [line.split(",", 7)[7] for line in text.split("\r\n")[1:-1]] == percent
        assert max(sizes) <= block and sum(sizes) == 2 * x.size  # the file, then the lines

    def test_a_long_row_is_formatted_in_bounded_memory(self):
        # The traced peak of one 10**6-cell row's line was 198.3 MiB when the
        # row was formatted as one block, 101.4 MiB in column chunks.
        n = 10**6
        w = tuple((10 ** np.random.default_rng(8).uniform(-11, 0, n)).tolist())
        rows = [_row(METHOD_MAXENT, 0.1, w, n=n)]
        tracemalloc.start()
        try:
            for line in reports.sweep_lines(rows, n):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(line) > 22 * n
        assert peak < 150 * 2**20

    @pytest.mark.parametrize("fallback", _FALLBACK_CELLS, ids=repr)
    def test_exact_and_fallback_rows_interleave(self, exact_rows, spliced_cells, fallback):
        n = 7
        rows = _random_rows(2 * reports._BLOCK_CELLS // n, n, 4)
        for k in range(0, len(rows), 3):
            w = list(rows[k].w)
            w[k % n] = fallback
            rows[k] = _row(METHOD_MAXENT, 0.1, tuple(w), n=n)
        assert _first_mismatch(rows, n) is None
        assert len(exact_rows) == len(rows)
        # Two blocks of 1170 rows, 390 of them with the fallback cell.  Only a
        # fallback outside (0, 1) (-0, NaN, +-inf, -1e-13, 1.5) is spliced in:
        # the subnormal, the least normal and 1e-11 take the digits.
        assert len(rows) == 2 * (reports._BLOCK_CELLS // n) == 2340
        assert spliced_cells == ([0, 0] if 0.0 < fallback < 1.0 else [390, 390])

    def test_mirror_of_a_row_in_an_earlier_block(self, exact_rows):
        n = 50
        rows = _random_rows(2 * (reports._BLOCK_CELLS // n), n, 5)
        rows += [_row(METHOD_MAXENT, 0.9, rows[0].w[::-1], n=n), rows[1], rows[-1]]
        assert _first_mismatch(rows, n) is None
        assert len(exact_rows) == len(rows) - 3

    def test_small_blocks_take_the_exact_path(self, monkeypatch, exact_rows):
        shapes, spy = [], _digits.cells
        monkeypatch.setattr(_digits, "cells", lambda x: shapes.append(x.shape) or spy(x))
        # One row of 7 cells, then 15 rows of 17: a block of 255 cells.
        for count, n in [(1, 7), (15, 17)]:
            assert _first_mismatch(_random_rows(count, n, 6), n) is None
        no_weights = [_row(METHOD_MAXENT, a, None) for a in (0.0, 0.5, 1.0)]
        assert _first_mismatch(no_weights, 3) is None
        assert shapes == [(1, 7), (15, 17)]
        assert len(exact_rows) == 16

    def test_sweep_rows_reuse_the_cells_of_kept_rows(self, monkeypatch):
        # The rows formatted are the ok rows whose bytes are no earlier kept row's
        # (one at orness <= 0.5) of their method, forward or reversed: the others
        # reuse its cells.
        formatted = []

        def spy(x):
            formatted.extend(row.tobytes() for row in x)
            return cells(x)

        cells = _digits.cells
        monkeypatch.setattr(_digits, "cells", spy)
        rows = sweep(10, ALL_METHODS, betas=(1.0, 1.25, 1.5))
        assert _first_mismatch(rows, 10) is None
        ok = [r for r in rows if r.status == STATUS_OK]
        expected, kept = [], set()
        for r in ok:
            w = np.array(r.w)
            if (r.method, w.tobytes()) not in kept:
                expected.append(w.tobytes())
                if r.requested_orness <= 0.5:
                    kept |= {(r.method, w.tobytes()), (r.method, w[::-1].tobytes())}
        assert formatted == expected
        assert len(ok) - len(expected) >= len(ok) / 4

    def test_only_rows_at_orness_at_most_a_half_are_kept(self, exact_rows):
        # A row at 0.7 is not kept, so its repeat at 0.8 is formatted again; a
        # row at 0.3 is kept, so its repeat after other rows is not.
        n = 5
        high, low, other = (r.w for r in _random_rows(3, n, 7))
        rows = [
            _row(METHOD_MAXENT, 0.7, high, n=n),
            _row(METHOD_MAXENT, 0.8, high, n=n),
            _row(METHOD_MAXENT, 0.3, low, n=n),
            _row(METHOD_MAXENT, 0.6, other, n=n),
            _row(METHOD_MAXENT, 0.9, low, n=n),
        ]
        assert _first_mismatch(rows, n) is None
        assert exact_rows == [b",".join(b"%.17g" % v for v in w) for w in (high, high, low, other)]

    def test_rows_may_be_a_generator(self, exact_rows):
        rows = sweep(1000, [METHOD_LINEAR, METHOD_EXPONENTIAL], steps=21)
        assert _first_mismatch(rows, 1000, given=iter(rows)) is None
        assert exact_rows


def _runs(*runs, n=reports._RUN_ROW_CELLS):
    """A row of ``n`` cells: each (value, length) of ``runs`` in turn, then
    the last value to the end."""
    w = [v for v, length in runs for _ in range(length)]
    return tuple(w + [runs[-1][0]] * (n - len(w)))


class TestRunRows:
    """A row of at least ``_RUN_ROW_CELLS`` cells with at most n // 32 runs
    of equal float64 bits is written from its run heads, not by
    ``_digits.cells``; every line must still be the per-cell ``%.17g`` line."""

    def test_signed_zeros_nan_and_ends(self, exact_rows):
        n = reports._RUN_ROW_CELLS
        nan = float("nan")
        w = _runs((0.0, 3), (-0.0, 1), (0.0, 2), (nan, 40), (5e-324, 1), (1.0, 9), (0.25, 1), n=n)
        assert len({struct.pack("<d", v) for v in w}) == 6  # 7 runs, 6 distinct bit patterns
        rows = [_row(METHOD_MAXENT, 0.1, w, n=n), _row(METHOD_MAXENT, 0.2, w[::-1], n=n)]
        assert _first_mismatch(rows, n) is None
        assert exact_rows == []

    def test_at_most_n_over_32_runs(self, exact_rows):
        n = 2 * reports._RUN_ROW_CELLS
        most = n // 32
        cells = np.random.default_rng(8).uniform(0.0, 1.0, most + 1).tolist()
        at_most = _runs(*((v, 5) for v in cells[:most]), n=n)
        one_more = _runs(*((v, 5) for v in cells), n=n)
        flat = _runs((cells[0], n), n=n)
        rows = [_row(METHOD_MAXENT, a, w, n=n) for a, w in [(0.1, at_most), (0.2, one_more), (0.3, flat)]]
        assert _first_mismatch(rows, n) is None
        assert exact_rows == [b",".join(b"%.17g" % v for v in one_more)]

    def test_short_rows_are_not_checked(self, exact_rows):
        n = reports._RUN_ROW_CELLS - 1
        w = _runs((0.5, n), n=n)
        assert _first_mismatch([_row(METHOD_MAXENT, 0.1, w, n=n)], n) is None
        assert exact_rows == [b",".join([b"0.5"] * n)]

    def test_kept_run_row_is_flipped_for_its_mirror(self, monkeypatch, exact_rows):
        n = reports._RUN_ROW_CELLS
        written, run_line = [], reports._run_line
        monkeypatch.setattr(
            reports, "_run_line", lambda key, most: written.append(key) or run_line(key, most)
        )
        w = _runs((0.125, 7), (-0.0, 1), (2.0**-1074, 30), (0.75, 1), n=n)
        rows = [
            _row(METHOD_LINEAR, 0.3, w, n=n),
            _row(METHOD_LINEAR, 0.5, _runs((1.0 / n, n), n=n), n=n),
            _row(METHOD_LINEAR, 0.7, w[::-1], n=n),
            _row(METHOD_LINEAR, 0.8, w, n=n),
        ]
        assert _first_mismatch(rows, n) is None
        # Only the rows at 0.3 and 0.5 are written; 0.7 flips 0.3's cells, 0.8 repeats them.
        assert written == [struct.pack(f"{n}d", *rows[k].w) for k in (0, 1)]
        assert exact_rows == []


class TestBench:
    def test_smoke_single_rep(self):
        reports = bench([3], reps=1)
        assert len(reports) == 6
        assert all(r.reps == 1 for r in reports)
        rels = [r.relative_time for r in reports]
        assert min(rels) == 1.0
        assert all(r >= 1.0 for r in rels)

    def test_warm_up_then_one_pass_of_each_per_rep(self, monkeypatch):
        calls = []

        def fake_pass(kernel, beta, n, grid):
            calls.append((kernel, beta, n, len(grid)))
            return 1.0

        monkeypatch.setattr(reports, "_timed_pass", fake_pass)
        bench([3, 5], reps=2)
        jobs = [
            (m.kernel, beta, 101 if m.endpoints else 99)
            for m in METHODS
            for beta in ((1.0, 1.25, 1.5) if m.takes_beta else (None,))
        ]
        # One warm-up round, then two timed rounds, per n.
        expected = [(k, b, n, p) for n in (3, 5) for _ in range(3) for k, b, p in jobs]
        assert calls == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            bench([3], reps=0)
        with pytest.raises(ValueError):
            bench([2], reps=1)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(n_list=[3.5]), "n"),
            (dict(n_list=[10], reps=2.5), "reps"),
        ],
    )
    def test_counts_must_be_integers_in_range(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            bench(**kwargs)

    @pytest.mark.parametrize(
        "n_list", [5, "55", (n for n in [5])], ids=["int", "string", "generator"]
    )
    def test_n_list_must_be_a_sequence(self, n_list):
        with pytest.raises(ValueError, match="^n_list is a sequence of sizes, not "):
            bench(n_list, reps=1)

    @pytest.mark.parametrize(
        "n_list, message",
        [([], "^at least one n is required$"), ([3, 3], "^n_list repeats 3$")],
        ids=["empty", "repeat"],
    )
    def test_n_list_holds_distinct_sizes(self, monkeypatch, n_list, message):
        passes = []
        monkeypatch.setattr(reports, "_timed_pass", lambda *args: passes.append(args) or 1.0)
        with pytest.raises(ValueError, match=message):
            bench(n_list, reps=1)
        assert passes == []


class TestMethodTable:
    def test_names_match_all_methods(self):
        assert tuple(m.name for m in METHODS) == ALL_METHODS

    @pytest.mark.parametrize("m", METHODS, ids=lambda m: m.name)
    def test_evaluate_ok(self, m):
        assert evaluate_method(m.name, 0.3, 5).status == STATUS_OK

    @pytest.mark.parametrize("m", METHODS, ids=lambda m: m.name)
    def test_sweep_rows_per_beta(self, m):
        rows = sweep(5, [m.name], betas=(1.0, 1.5), steps=3)
        assert len(rows) == 3 * (2 if m.takes_beta else 1)

    def test_bench_order(self):
        got = [(r.method, r.beta) for r in bench([5], reps=1)]
        assert got == [
            ("linear", 1.0),
            ("linear", 1.25),
            ("linear", 1.5),
            ("exponential", None),
            ("exponential-no-preset", None),
            ("maxent", None),
        ]

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(reports.Method)] == [
            "name", "flag", "kernel", "takes_beta", "endpoints", "min_n", "claims_orness",
        ]

    @pytest.mark.parametrize("n", [3, 10, 100, 150, 300])
    def test_maxent_rows_match_the_public_call(self, n):
        # 0.0 and 1.0 are unsupported; at n >= 100 the grid reaches the
        # flagged region near the ends.
        expected = [_public_report(METHOD_MAXENT, k / 99, n, None) for k in range(100)]
        assert sweep(n, [METHOD_MAXENT], steps=100) == expected

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="^unknown method 'nope'$"):
            evaluate_method("nope", 0.3, 5)

    @pytest.mark.parametrize(
        "m, n",
        [(m, n) for m in METHODS for n in (1, 2, 3, 5, 10, 100) if n >= m.min_n],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_kernel_rows_need_no_clipping(self, m, n):
        # Report rows skip WeightVector's clip, so every row that passes
        # the check must equal its own clip bit for bit: public calls and
        # report rows then give the same weights.
        grid = np.array([k / 100 for k in range(101)])
        for beta in (1.0, 1.25, 1.5) if m.takes_beta else (None,):
            w = m.kernel(grid, n, beta)
            for row, problem in zip(w, reports._simplex_rows(w)):
                if problem is None:
                    assert row.tobytes() == np.clip(row, 0.0, 1.0).tobytes()

    def test_kernel_row_off_the_simplex_is_unstable(self, monkeypatch):
        linear = reports._method(METHOD_LINEAR)

        def kernel(a, n, beta):
            w = linear.kernel(a, n, beta)
            w[1] *= 1.1
            return w

        expected = sweep(5, [METHOD_LINEAR], steps=3)
        broken = dataclasses.replace(linear, kernel=kernel)
        monkeypatch.setattr(reports, "METHODS", (broken,) + reports.METHODS[1:])
        rows = sweep(5, [METHOD_LINEAR], steps=3)
        assert rows[1] == MethodReport(
            METHOD_LINEAR, DEFAULT_BETA, 5, 0.5, None, None, None, STATUS_UNSTABLE
        )
        assert rows[::2] == expected[::2]

    def test_kernel_row_off_its_orness_is_unstable(self, monkeypatch):
        # The orness-0 row reversed is still on the simplex, but its orness is 1.
        linear = reports._method(METHOD_LINEAR)

        def kernel(a, n, beta):
            w = linear.kernel(a, n, beta)
            w[0] = w[0, ::-1].copy()
            return w

        expected = sweep(5, [METHOD_LINEAR], steps=3)
        broken = dataclasses.replace(linear, kernel=kernel)
        monkeypatch.setattr(reports, "METHODS", (broken,) + reports.METHODS[1:])
        rows = sweep(5, [METHOD_LINEAR], steps=3)
        assert rows[0] == MethodReport(
            METHOD_LINEAR, DEFAULT_BETA, 5, 0.0, None, None, None, STATUS_UNSTABLE
        )
        assert rows[1:] == expected[1:]

    def test_length_one_rows_are_exempt_from_the_orness_check(self):
        # At n = 1 orness is 0.5 by convention, whatever was requested.
        with pytest.warns(UserWarning, match="degenerate"):
            rows = sweep(1, [METHOD_LINEAR], steps=3)
        assert [(r.status, r.achieved_orness) for r in rows] == [(STATUS_OK, 0.5)] * 3
        with pytest.warns(UserWarning, match="degenerate"):
            r = evaluate_method(METHOD_LINEAR, 0.3, 1)
        assert (r.status, r.achieved_orness, r.w) == (STATUS_OK, 0.5, (1.0,))

    @pytest.mark.parametrize("n", [7, 999, 4096])
    def test_linear_rows_meet_their_orness(self, n):
        rows = sweep(n, [METHOD_LINEAR], betas=(1.0, 1.25, 1.5), steps=101)
        assert len(rows) == 303
        assert all(r.status == STATUS_OK for r in rows)
