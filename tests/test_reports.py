import csv
import dataclasses
import io
import json

import numpy as np
import pytest

import owakit
from owakit import (
    OrnessTarget,
    dispersion,
    exponential_weights,
    exponential_weights_no_preset,
    linear_weights,
    maxent_weights,
    orness,
)
from owakit import reports
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
        rows = sweep(4, list(ALL_METHODS), steps=11)
        keys = [(r.method, r.requested_orness) for r in rows]
        assert keys == sorted(keys)

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

    def test_steps_must_be_an_integer(self):
        with pytest.raises(ValueError, match="steps must be an integer"):
            sweep(5, [METHOD_LINEAR], steps=2.5)


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


class TestBench:
    def test_smoke_single_rep(self):
        reports = bench([3], reps=1, grid_points=11)
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
        bench([3, 5], reps=2, grid_points=5)
        jobs = [
            (m.kernel, beta, 5 if m.endpoints else 3)
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
            (dict(n_list=[10], grid_points=1), "grid_points"),
            (dict(n_list=[10], grid_points=0), "grid_points"),
            (dict(n_list=[10], grid_points=50.5), "grid_points"),
            (dict(n_list=[10], reps=2.5), "reps"),
        ],
    )
    def test_counts_must_be_integers_in_range(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            bench(**kwargs)


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
        got = [(r.method, r.beta) for r in bench([5], reps=1, grid_points=3)]
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
            "name", "flag", "kernel", "takes_beta", "endpoints", "min_n", "calibrated",
        ]

    @pytest.mark.parametrize("n", [3, 10, 100, 150, 300])
    def test_maxent_rows_match_the_public_call(self, n):
        # 0.0 and 1.0 are unsupported; at n >= 100 the grid reaches the
        # flagged region near the ends.
        expected = [_public_report(METHOD_MAXENT, k / 99, n, None) for k in range(100)]
        assert sweep(n, [METHOD_MAXENT], steps=100) == expected

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
