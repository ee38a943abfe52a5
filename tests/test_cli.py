"""Command-line interface tests.

Most tests drive ``main(argv)`` in-process and inspect captured stdout;
one subprocess test proves the installed console script and worker-count
byte-determinism end to end.
"""

import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mimo_slas import cli, montecarlo
from mimo_slas.detectors import DetectorKind
from mimo_slas.montecarlo import PointSpec, TraceAggregate
from mimo_slas.cli import PRESETS, _parse_number_list, main
from mimo_slas.slas import SlasBlock

BER_RE = re.compile(r"^\d\.\d{5}e[+-]\d{2,}$")

# a cell small enough that every CLI test finishes in well under a second
TINY = [
    "--nt", "4", "--nr", "4", "--snr-list", "0",
    "--detector", "mf", "--las", "on",
    "--trials", "40", "--min-errors", "1000000000", "--seed", "5",
]


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _parse_csv(text):
    lines = text.splitlines()
    assert lines[0] == "# schema_version=1"
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return list(reader)


class TestNumberLists:
    def test_comma_separated(self):
        assert _parse_number_list("1,2,3", int) == [1, 2, 3]
        assert _parse_number_list("0.5,1.5", float) == [0.5, 1.5]

    def test_inclusive_range(self):
        assert _parse_number_list("0:5:20", float) == [0.0, 5.0, 10.0, 15.0, 20.0]
        assert _parse_number_list("0.8:0.05:1.2", float)[-1] == 1.2
        assert len(_parse_number_list("0.8:0.05:1.2", float)) == 9

    def test_integer_lists_reject_fractions(self):
        assert _parse_number_list("1:1:3", int) == [1, 2, 3]
        assert _parse_number_list("2.0,4", int) == [2, 4]
        for text in ("1.7,2", "1:0.5:3", "0.5:1:2.5"):
            with pytest.raises(ValueError):
                _parse_number_list(text, int)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            _parse_number_list("1:2", int)
        with pytest.raises(ValueError):
            _parse_number_list("0:0:10", int)
        with pytest.raises(ValueError):
            _parse_number_list("0:-1:10", int)

    @pytest.mark.parametrize("text", ["0:1:inf", "nan:1:5", "0:nan:5", "-inf:1:0", "0:inf:5"])
    def test_range_bounds_must_be_finite(self, text):
        # an infinite or NaN stop once never ended the range loop
        with pytest.raises(ValueError, match="range bounds and step must be finite"):
            _parse_number_list(text, float)

    def test_range_longer_than_any_axis_is_rejected_unexpanded(self):
        assert len(_parse_number_list("1:1:10000", int)) == cli.MAX_GRID_POINTS
        for text in ("0:1:10000", "0:1e-9:1"):  # 10,001 and a billion values
            with pytest.raises(ValueError, match=f"range '{text}' has more than 10000 values"):
                _parse_number_list(text, float)

    @pytest.mark.parametrize("text", ["", " ", ",", "10:5:0"])
    def test_empty_lists_are_rejected(self, text):
        with pytest.raises(ValueError, match="expected at least one value"):
            _parse_number_list(text, float)


class TestBerCommands:
    def test_csv_schema_and_formats(self, capsys):
        code, out = _run(["ber-snr"] + TINY, capsys)
        assert code == 0
        rows = _parse_csv(out)
        assert list(rows[0].keys()) == [
            "experiment", "nt", "nr", "snr_db", "detector", "las", "rho", "n_f",
            "trials", "bit_errors", "ber", "flops_model", "flops_measured", "flagged",
        ]
        assert len(rows) == 1
        row = rows[0]
        assert row["experiment"] == "ber-snr"
        assert row["nt"] == "4" and row["nr"] == "4"
        assert row["las"] == "on"
        assert row["trials"] == "40"
        assert BER_RE.match(row["ber"]), row["ber"]
        assert row["flagged"] == "true"  # error floor deliberately unreachable
        assert int(row["flops_model"]) > 0
        assert int(row["flops_measured"]) > 0

    @pytest.mark.parametrize("argv", [
        ["ber-snr"] + TINY,
        ["trace", "--nt", "4", "--nr", "4", "--snr-list", "0,10", "--steps", "3",
         "--trials", "6", "--seed", "5"],
        ["flops", "--n-list", "2", "--steps-list", "4"],
    ], ids=["ber-snr", "trace", "flops"])
    def test_json_mirrors_csv_rows(self, argv, capsys):
        _, csv_out = _run(argv, capsys)
        _, json_out = _run(argv + ["--format", "json"], capsys)
        doc = json.loads(json_out)
        assert doc["schema_version"] == 1
        csv_rows = _parse_csv(csv_out)
        assert len(doc["rows"]) == len(csv_rows) > 0
        for json_row, csv_row in zip(doc["rows"], csv_rows):
            # the same fields in header order, each printed as the CSV prints it
            assert list(json_row) == list(csv_row)
            assert [str(v) for v in json_row.values()] == list(csv_row.values())

    def test_out_file_and_summary_line(self, tmp_path, capsys):
        target = tmp_path / "result.csv"
        code, out = _run(["ber-snr"] + TINY + ["--out", str(target)], capsys)
        assert code == 0
        assert "wrote 1 rows" in out
        assert target.read_text().startswith("# schema_version=1\n")

    def test_singular_zf_cell_is_flagged_not_fatal(self, tmp_path, capsys):
        # nt > nr: every Gram matrix is singular, trial 0's included
        target = tmp_path / "zf.csv"
        code = main(
            ["ber-snr", "--nt", "4", "--nr", "2", "--detector", "zf",
             "--snr-list", "10", "--las", "off", "--trials", "200",
             "--out", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        (row,) = _parse_csv(target.read_text())
        assert row["trials"] == "200"
        assert row["bit_errors"] == "0"
        assert row["ber"] == "nan"
        assert row["flops_measured"] == ""
        assert row["flagged"] == "true"

    def test_rho_column_empty_when_search_off(self, capsys):
        argv = [a if a != "on" else "off" for a in TINY]
        _, out = _run(["ber-snr"] + argv, capsys)
        row = _parse_csv(out)[0]
        assert row["las"] == "off"
        assert row["rho"] == ""
        assert row["n_f"] == ""

    def test_zero_steps_equals_search_off(self, capsys):
        _, out_zero = _run(["ber-snr"] + TINY + ["--steps", "0"], capsys)
        argv_off = [a if a != "on" else "off" for a in TINY]
        _, out_off = _run(["ber-snr"] + argv_off, capsys)
        assert _parse_csv(out_zero)[0]["ber"] == _parse_csv(out_off)[0]["ber"]

    def test_ber_antennas_pairs_counts(self, capsys):
        _, out = _run(
            ["ber-antennas", "--n-list", "2,4", "--snr", "0", "--detector", "mf",
             "--las", "off", "--trials", "20", "--min-errors", "1000000000",
             "--seed", "1"],
            capsys,
        )
        rows = _parse_csv(out)
        assert [(r["nt"], r["nr"]) for r in rows] == [("2", "2"), ("4", "4")]

    def test_ber_rho_forces_search_on(self, capsys):
        _, out = _run(
            ["ber-rho", "--n-list", "4", "--snr-list", "0", "--rho-list", "0.9,1.0",
             "--detector", "mf", "--steps", "8", "--trials", "20",
             "--min-errors", "1000000000", "--seed", "1"],
            capsys,
        )
        rows = _parse_csv(out)
        assert len(rows) == 2
        assert all(r["las"] == "on" for r in rows)
        assert [r["rho"] for r in rows] == ["0.9", "1"]

    # -0 is the cell 0, with 0's seed key: it once printed as -0
    @pytest.mark.parametrize("command,flag", [("ber-rho", "--rho-list"),
                                              ("trace", "--snr-list")])
    def test_negative_zero_writes_as_zero(self, command, flag, capsys):
        argv = [command, "--n-list" if command == "ber-rho" else "--nt", "2",
                "--steps", "4", "--trials", "5", "--seed", "3"]
        _, out = _run(argv + [f"{flag}=-0"], capsys)
        _, expected = _run(argv + [f"{flag}=0"], capsys)
        assert out == expected

    # a finite snr beyond about 1.8e305 dB has no milli-dB seed key; it once
    # died with an OverflowError (exit 1)
    @pytest.mark.parametrize("command", ["ber-snr", "trace"])
    def test_snr_without_a_seed_key_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--nt", "2", "--nr", "2", "--snr-list", "1e306", "--trials", "3"])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert "snr_db = 1e+306 is too large for a milli-dB seed key" in captured.err
        assert captured.out == ""

    # below about -3082 dB the noise power overflows a float: it once died with
    # an OverflowError (exit 1); 549755813.888 dB once took the noiseless key
    @pytest.mark.parametrize("command", ["ber-snr", "trace"])
    @pytest.mark.parametrize("snr,message", [
        ("-4000", "snr_db = -4000.0 has no finite noise power"),
        ("549755813.888", "snr_db = 549755813.888 is too large for a milli-dB seed key"),
    ], ids=["no-noise-power", "no-seed-key"])
    def test_snr_outside_the_range_exits_2(self, command, snr, message, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--nt", "2", "--nr", "2", f"--snr-list={snr}", "--trials", "2",
                  "--detector", "mf"])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    # a path that cannot be written once failed only after the whole sweep
    @pytest.mark.parametrize("command", ["ber-snr", "trace", "flops"])
    @pytest.mark.parametrize("target,message", [
        ("missing/x.csv", "directory '{tmp}/missing' does not exist"),
        (".", "it is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_2_before_any_trial(self, command, target, message,
                                                     tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a trial ran")

        for name in ("run_sweep", "run_trace", "draw"):
            monkeypatch.setattr(cli, name, no_run)
        path = os.path.normpath(tmp_path / target)
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--out", path])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot write --out {path!r}: " + message.format(tmp=tmp_path) in err


def test_cost_of_a_long_search_expands_no_row(capsys, monkeypatch):
    # trial 0's search is priced as a block of one row: its row's per-step
    # trace would take a flag per step (931 GiB at 10**12 steps)
    def expand(self, i):
        raise AssertionError(f"row {i} was expanded")

    monkeypatch.setattr(SlasBlock, "row", expand)
    _, out = _run(["ber-snr", "--nt", "2", "--nr", "2", "--las", "on", "--detector", "mf",
                   "--snr-list", "10", "--trials", "50", "--steps", str(10**12)], capsys)
    (row,) = _parse_csv(out)
    assert row["n_f"] == str(10**12)
    assert row["flops_measured"] == "133"  # as at 100 steps: trial 0 converges


class TestSeedPrecedence:
    ARGV = ["ber-snr", "--nt", "4", "--nr", "4", "--snr-list", "0",
            "--detector", "mf", "--las", "off", "--trials", "40",
            "--min-errors", "1000000000"]

    def _ber(self, capsys, extra=(), env=None, monkeypatch=None):
        if env:
            for k, v in env.items():
                monkeypatch.setenv(k, v)
        _, out = _run(self.ARGV + list(extra), capsys)
        return _parse_csv(out)[0]["ber"]

    def test_same_seed_same_output(self, capsys):
        a = self._ber(capsys, ["--seed", "9"])
        b = self._ber(capsys, ["--seed", "9"])
        assert a == b

    def test_flag_beats_environment(self, capsys, monkeypatch):
        flag_only = self._ber(capsys, ["--seed", "9"])
        env_only = self._ber(capsys, env={"MIMO_SLAS_SEED": "10"},
                             monkeypatch=monkeypatch)
        both = self._ber(capsys, ["--seed", "9"],
                         env={"MIMO_SLAS_SEED": "10"}, monkeypatch=monkeypatch)
        assert both == flag_only
        assert env_only != flag_only

    def test_environment_beats_config(self, capsys, monkeypatch, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"master_seed": 11}))
        config_only = self._ber(capsys, ["--config", str(cfg)])
        env_beats = self._ber(capsys, ["--config", str(cfg)],
                              env={"MIMO_SLAS_SEED": "12"}, monkeypatch=monkeypatch)
        seed11 = self._ber(capsys, ["--seed", "11"])
        seed12 = self._ber(capsys, ["--seed", "12"])
        assert config_only == seed11
        assert env_beats == seed12

    def test_invalid_environment_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MIMO_SLAS_SEED", "not-a-number")
        with pytest.raises(SystemExit) as exc_info:
            main(self.ARGV)
        assert exc_info.value.code == 2


class TestConfigFile:
    def test_config_supplies_experiment_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "nt": 4, "nr": 4, "snr_db": [0.0, 5.0], "detector": "mf",
            "las_enabled": False, "max_trials": 20, "min_bit_errors": 10**9,
        }))
        _, out = _run(["ber-snr", "--config", str(cfg)], capsys)
        rows = _parse_csv(out)
        assert len(rows) == 2
        assert {r["snr_db"] for r in rows} == {"0", "5"}
        assert all(r["las"] == "off" for r in rows)

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "nt": 8, "nr": 8, "snr_db": [0.0], "detector": "mf",
            "las_enabled": False, "max_trials": 20, "min_bit_errors": 10**9,
        }))
        _, out = _run(["ber-snr", "--config", str(cfg), "--nt", "4", "--nr", "4"],
                      capsys)
        assert _parse_csv(out)[0]["nt"] == "4"

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nt": 2, "nr": 2, "bogus": 1, "max_trials": 5}))
        with pytest.raises(SystemExit) as exc_info:
            main(["ber-snr", "--config", str(cfg), "--snr-list", "10",
                  "--detector", "mf", "--las", "off"])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err
        assert captured.out == ""

    def test_missing_config_file_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["ber-snr", "--config", "/nonexistent/cfg.json"])
        assert exc_info.value.code == 2

    # A config value of the wrong type exits 2 naming it, before any trial runs:
    # ["off"] once read as las=on, 2.5 died in the sweep with a TypeError (exit
    # 1), and 4.5 antennas or seed 2.5 were truncated to 4 and 2.
    @pytest.mark.parametrize("key,value,message", [
        ("las_enabled", ["off"], "las_enabled entries must be true or false, got 'off'"),
        ("n_f", 2.5, "n_f must be an integer, got 2.5"),
        ("nt", 4.5, "nt must be an integer, got 4.5"),
        ("nr", [4.5], "nr must be an integer, got 4.5"),
        ("max_trials", "20", "max_trials must be an integer, got '20'"),
        ("min_bit_errors", 1.5, "min_bit_errors must be an integer, got 1.5"),
        ("master_seed", 2.5, "master_seed must be an integer, got 2.5"),
        ("rho", [True], "rho entries must be real numbers (not NaN), got True"),
        ("snr_db", [], "snr_db must have at least one value"),
        ("las_enabled", "maybe", "las_enabled must be on, off, both or booleans, got 'maybe'"),
        ("detector", "MF", "detector entries must be mf, zf or mmse, got 'MF'"),
        ("detector", ["mf", 3], "detector entries must be mf, zf or mmse, got 3"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, key, value, message, capsys, tmp_path):
        config = {"nt": 4, "nr": 4, "snr_db": 0, "detector": "mf", "las_enabled": True,
                  "max_trials": 20}
        config[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc_info:
            main(["ber-snr", "--config", str(cfg)])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    # Each config axis may be a scalar or a list, for every command; ber-rho
    # pairs nr with the config's nt.
    @pytest.mark.parametrize("config,argv,column,expected", [
        ({"nt": 4, "nr": 4, "snr_db": 0, "detector": "mf", "las_enabled": [False, True],
          "max_trials": 20, "min_bit_errors": 10**9}, ["ber-snr"], "las", ["off", "on"]),
        ({"nt": 4, "nr": 4, "snr_db": 0, "detector": ["mf", "zf"], "las_enabled": False,
          "max_trials": 20, "min_bit_errors": 10**9}, ["ber-snr"], "detector", ["mf", "zf"]),
        ({"snr_db": 10, "rho": 0.9},
         ["trace", "--nt", "4", "--nr", "4", "--steps", "4", "--trials", "3"],
         "rho", ["0.9"] * 5),
        ({"snr_db": [10, 20]},
         ["ber-antennas", "--n-list", "2", "--detector", "mf", "--las", "off",
          "--trials", "20"], "snr_db", ["10", "20"]),
        ({"nt": [3, 5]},
         ["ber-rho", "--snr-list", "10", "--rho-list", "1", "--steps", "4",
          "--trials", "20"], "nr", ["3", "5"]),
    ])
    def test_config_axes_as_in_experiment_config(self, config, argv, column, expected,
                                                 capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = _run(argv + ["--config", str(cfg)], capsys)
        assert code == 0
        assert [r[column] for r in _parse_csv(out)] == expected


class TestTrace:
    def test_rows_and_monotone_likelihood(self, capsys):
        _, out = _run(
            ["trace", "--nt", "8", "--nr", "8", "--snr-list", "10",
             "--rho-list", "1.0", "--steps", "12", "--trials", "8",
             "--seed", "2"],
            capsys,
        )
        rows = _parse_csv(out)
        assert list(rows[0].keys()) == [
            "experiment", "nt", "nr", "snr_db", "detector", "rho", "n_f", "trials",
            "step", "mean_likelihood", "mean_ber",
        ]
        assert len(rows) == 13  # steps + initializer row
        assert [int(r["step"]) for r in rows] == list(range(13))
        lams = [float(r["mean_likelihood"]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))

    def test_settings_layering(self, capsys, monkeypatch, tmp_path):
        # flag > preset > MIMO_SLAS_SEED > config, each layer beating the next
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"master_seed": 11, "snr_db": [0.0], "detector": "zf",
                                   "n_f": 99, "max_trials": 7}))
        flags = ["--nt", "4", "--nr", "4", "--steps", "4", "--trials", "3"]
        explicit = ["trace", "--snr-list", "5,10,20", "--rho-list", "1",
                    "--detector", "mf"] + flags
        monkeypatch.setenv("MIMO_SLAS_SEED", "12")
        _, layered = _run(["trace", "--preset", "fig3", "--config", str(cfg)] + flags,
                          capsys)
        _, flag_seed = _run(["trace", "--preset", "fig3", "--config", str(cfg), "--seed",
                             "13"] + flags, capsys)
        monkeypatch.delenv("MIMO_SLAS_SEED")
        _, seed12 = _run(explicit + ["--seed", "12"], capsys)
        _, seed13 = _run(explicit + ["--seed", "13"], capsys)
        _, seed11 = _run(explicit + ["--seed", "11"], capsys)
        assert layered == seed12
        assert flag_seed == seed13
        assert seed11 != seed12 != seed13

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_singular_channel_fails_alike_at_any_jobs(self, jobs, monkeypatch, capsys):
        # nt > nr: every ZF Gram matrix is singular; 600 trials make two chunks
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(SystemExit) as exc_info:
            main(["trace", "--nt", "4", "--nr", "2", "--detector", "zf", "--trials", "600",
                  "--steps", "4", "--snr-list", "10", "--jobs", jobs])
        assert exc_info.value.code == 2
        assert capsys.readouterr().err == (
            "mimo-slas: error: matrix is numerically singular: pivot column 2 has "
            "magnitude 1.598e-16 < 1e-12 after partial pivoting\n"
        )


class TestFlops:
    def test_reconciliation_rows_and_verdicts(self, capsys):
        _, out = _run(["flops", "--n-list", "2,4", "--steps-list", "4"], capsys)
        rows = _parse_csv(out)
        assert list(rows[0].keys()) == [
            "nt", "nr", "n_f", "detector", "mode", "flops_model", "flops_measured",
            "relative_error", "verdict", "notes",
        ]
        # per antenna count: mf, zf, mmse, then one search row per steps value
        assert len(rows) == 2 * 4
        by_kind = {(r["nt"], r["detector"], r["mode"]): r for r in rows}
        for n in ("2", "4"):
            assert by_kind[(n, "mf", "")]["verdict"] == "EXACT"
            assert by_kind[(n, "zf", "")]["verdict"] == "EXACT"
            assert by_kind[(n, "mmse", "")]["verdict"] == "EXACT"
            incremental = by_kind[(n, "las", "incremental")]
            assert int(incremental["flops_model"]) == 8 * int(n) * int(n) * 4
            assert incremental["verdict"] == "DIVERGENT"
            assert "incremental" in incremental["notes"]

    @pytest.mark.parametrize("detector,las,flops_rows", [
        ("mf", "on", [("mf", ""), "precompute", ("las", "incremental")]),
        ("zf", "off", [("zf", "")]),
    ])
    def test_ber_cost_is_the_sum_of_flops_rows(self, detector, las, flops_rows, capsys):
        # both tables price trial 0 of the same seed key: its detection, then
        # with the search on the workspace precompute and the search
        _, out = _run(["ber-snr", "--nt", "4", "--nr", "4", "--snr-list", "10",
                       "--detector", detector, "--las", las, "--rho", "1", "--steps", "4",
                       "--trials", "10", "--seed", "3"], capsys)
        (ber_row,) = _parse_csv(out)
        _, out = _run(["flops", "--n-list", "4", "--steps-list", "4", "--seed", "3"], capsys)
        by_kind = {(r["detector"], r["mode"]): r for r in _parse_csv(out)}
        note = by_kind[("las", "incremental")]["notes"]
        parts = {"precompute": int(re.search(r"precompute \(counted separately\)=(\d+)",
                                             note).group(1))}
        parts.update((key, int(row["flops_measured"])) for key, row in by_kind.items())
        assert int(ber_row["flops_measured"]) == sum(parts[key] for key in flops_rows)

    @pytest.mark.parametrize("detector", list(DetectorKind))
    def test_cost_prices_the_workspace_the_sweep_searched(self, detector, monkeypatch):
        # ZF and MMSE search 2 Re(G) of the complex G their detection formed,
        # which differs by rounding from MF's real product 2 S^T S
        p = PointSpec(nt=8, nr=8, snr_db=10.0, detector=detector, las_enabled=True,
                      rho=0.9, n_f=16, max_trials=4, min_bit_errors=1, master_seed=4)
        searched = []

        def spy(real_run):
            def run(ws, b0, *args, **kwargs):
                searched.append((ws, b0))
                return real_run(ws, b0, *args, **kwargs)
            return run

        monkeypatch.setattr(cli, "run", spy(cli.run))
        monkeypatch.setattr(montecarlo, "run", spy(montecarlo.run))
        cli._trial_cost(p)
        montecarlo._block((p,), 0, p.max_trials)
        (priced, b_priced), (swept, b_swept) = searched
        assert b_priced.shape == (1, 8) and len(b_swept) == 4
        for got, want in [(priced.h_real, swept.h_real), (priced.y_eff, swept.y_eff),
                          (b_priced, b_swept)]:
            assert got[0].tobytes() == want[0].tobytes()

    # --benchmark and --reps fed a wall-clock timer that perfbench replaces
    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--config", "f.json"],
                                      ["--benchmark"], ["--reps", "5"]])
    def test_takes_no_jobs_or_config(self, flag, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["flops", "--n-list", "2", "--steps-list", "2"] + flag)
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("lists,message", [
        (["--n-list", "2,2", "--steps-list", "4"], "nt has the value 2 more than once"),
        (["--n-list", "2", "--steps-list", "4,4"], "n_f has the value 4 more than once"),
    ])
    def test_repeated_values_exit_2(self, lists, message, capsys):
        # a repeated value would write its rows twice
        with pytest.raises(SystemExit) as exc_info:
            main(["flops", *lists])
        assert exc_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("env", [False, True])
    def test_negative_seed_exits_2(self, env, capsys, monkeypatch):
        seed = ["--seed", "-1"]
        if env:
            monkeypatch.setenv("MIMO_SLAS_SEED", "-1")
            seed = []
        with pytest.raises(SystemExit) as exc_info:
            main(["flops", "--n-list", "2", "--steps-list", "2", *seed])
        assert exc_info.value.code == 2
        assert "master_seed must be >= 0, got -1" in capsys.readouterr().err


class TestSelfcheck:
    def test_passes_and_exits_zero(self, capsys):
        code, out = _run(["selfcheck", "--instances", "12", "--seed", "0"], capsys)
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("env", [False, True])
    def test_negative_seed_exits_2(self, env, capsys, monkeypatch):
        # numpy's bare "expected non-negative integer" once stood for the reason
        seed = ["--seed", "-1"]
        if env:
            monkeypatch.setenv("MIMO_SLAS_SEED", "-1")
            seed = []
        with pytest.raises(SystemExit) as exc_info:
            main(["selfcheck", "--instances", "3", *seed])
        assert exc_info.value.code == 2
        assert "master_seed must be >= 0, got -1" in capsys.readouterr().err

    def test_injected_fault_is_caught(self, capsys):
        code, out = _run(
            ["selfcheck", "--instances", "12", "--seed", "0",
             "--inject-fault", "grad-sign"],
            capsys,
        )
        assert code == 1
        assert "FAIL" in out


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["ber-snr", "--bogus"])
        assert exc_info.value.code == 2

    def test_preset_bound_to_other_command_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["ber-snr", "--preset", "fig3"])
        assert exc_info.value.code == 2
        # fig10, the timed flops table, is no preset any more
        with pytest.raises(SystemExit) as exc_info:
            main(["flops", "--preset", "fig10"])
        assert exc_info.value.code == 2
        assert "invalid choice: 'fig10'" in capsys.readouterr().err

    # the search counts steps in int64: n_f + 1 once overflowed there
    # (OverflowError, exit 1), or a trace's arrays refused a dimension
    # without naming the field
    @pytest.mark.parametrize("argv", [
        ["ber-snr", "--steps", str(10**30)],
        ["ber-snr", "--config", "n_f.json"],
        ["trace", "--steps", str(10**30)],
        ["flops", "--n-list", "2", "--steps-list", "1e30"],
    ])
    def test_step_count_beyond_int64_exits_2(self, argv, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "n_f.json").write_text(json.dumps({"n_f": 1e308}))
        cell = ["--nt", "2", "--nr", "2", "--snr-list", "10", "--trials", "2"]
        with pytest.raises(SystemExit) as exc_info:
            main(argv + (cell if argv[0] != "flops" else []))
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert "n_f must be >= 0 and below 2**62, got 1" in captured.err
        assert captured.out == ""

    def test_bad_list_syntax_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["ber-snr", "--snr-list", "0:5"])
        assert exc_info.value.code == 2

    def test_fractional_antenna_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["ber-antennas", "--n-list", "1.7,2"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "1.7,2" in err
        assert "expected integers, got 1.7" in err

    def test_rejected_range_names_its_reason(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["ber-snr", "--snr-list", "0:0:10"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "range step must be positive" in err
        assert "invalid" not in err

    @pytest.mark.parametrize("command", ["ber-snr", "trace"])
    def test_snr_values_sharing_a_seed_key_exit_2(self, command, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--nt", "2", "--nr", "2", "--snr-list", "10,10.0004"])
        assert exc_info.value.code == 2
        assert "share one seed key" in capsys.readouterr().err


    # each of these once wrote a header-only table, or a mislabelled row, and exited 0
    @pytest.mark.parametrize("argv,message", [
        (["ber-antennas", "--n-list", "", "--trials", "5"], "expected at least one value"),
        (["ber-snr", "--snr-list", "10:5:0", "--trials", "5"], "expected at least one value"),
        (["flops", "--n-list", ""], "expected at least one value"),
        (["ber-rho", "--n-list", "4", "--snr-list", "10", "--rho-list", "nan,1", "--trials", "5"],
         "rho entries must be real numbers (not NaN), got nan"),
        (["ber-rho", "--n-list", "4", "--snr-list", "10", "--rho-list", "inf", "--trials", "5"],
         "rho entries must be finite and >= 0, got inf"),
        (["ber-snr", "--snr-list", "nan", "--trials", "5"],
         "snr_db entries must be real numbers (not NaN), got nan"),
        (["trace", "--snr-list", "0:1:inf", "--trials", "5"],
         "range bounds and step must be finite"),
    ])
    def test_empty_or_non_finite_values_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--out", os.devnull])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    # each of these once ran the repeated cells again and wrote their rows twice
    @pytest.mark.parametrize("argv,message", [
        (["ber-rho", "--n-list", "8", "--snr-list", "5,5", "--rho-list", "1,0.9,1"],
         "snr_db has the value 5.0 more than once"),
        (["ber-rho", "--n-list", "8", "--snr-list", "5", "--rho-list", "1,0.9,1"],
         "rho has the value 1.0 more than once"),
        (["ber-antennas", "--n-list", "4,2,4"], "(nt, nr) has the value (4, 4) more than once"),
    ])
    def test_repeated_axis_values_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--trials", "5", "--out", os.devnull])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


NEGATIVE_SNR_COMMANDS = {
    "ber-snr": ["ber-snr", "--nt", "2", "--nr", "2", "--detector", "mf", "--las", "on",
                "--trials", "20", "--min-errors", "1000000000", "--seed", "3"],
    "ber-rho": ["ber-rho", "--n-list", "2", "--rho-list", "0.9,1", "--steps", "4",
                "--trials", "20", "--min-errors", "1000000000", "--seed", "3"],
    "trace": ["trace", "--nt", "2", "--nr", "2", "--steps", "4", "--trials", "4",
              "--seed", "3"],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_SNR_COMMANDS))
def test_negative_snr_list_works_as_written(command, capsys):
    argv = NEGATIVE_SNR_COMMANDS[command]
    _, joined = _run(argv + ["--snr-list=-10:5:0"], capsys)
    _, spaced = _run(argv + ["--snr-list", "-10:5:0"], capsys)
    assert spaced == joined
    assert {r["snr_db"] for r in _parse_csv(spaced)} == {"-10", "-5", "0"}


def test_negative_snr_in_exponent_form_works_as_written(capsys):
    # argparse reads "-10" as a number but "-1e1" as an option
    argv = ["ber-antennas", "--n-list", "2,3", "--detector", "mf", "--las", "on",
            "--steps", "4", "--trials", "20", "--min-errors", "1000000000", "--seed", "3"]
    _, joined = _run(argv + ["--snr=-1e1"], capsys)
    _, spaced = _run(argv + ["--snr", "-1e1"], capsys)
    assert spaced == joined
    assert {r["snr_db"] for r in _parse_csv(spaced)} == {"-10"}


# argparse once read these as options and exited 2 with "expected one argument"
@pytest.mark.parametrize("flag,argv", [
    ("--snr", ["ber-antennas", "--n-list", "2", "--trials", "5"]),
    ("--snr-list", ["ber-snr", "--nt", "2", "--nr", "2", "--trials", "5"]),
], ids=["snr", "snr-list"])
@pytest.mark.parametrize("value,message", [
    ("-inf", "snr_db = -inf is not a valid operating point"),
    ("-Infinity", "snr_db = -inf is not a valid operating point"),
    ("-INF", "snr_db = -inf is not a valid operating point"),
    ("-nan", "snr_db entries must be real numbers (not NaN), got nan"),
], ids=["-inf", "-Infinity", "-INF", "-nan"])
def test_negative_infinity_or_nan_snr_is_rejected_with_its_reason(flag, argv, value, message,
                                                                   capsys):
    for tokens in ([flag, value], [f"{flag}={value}"]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + tokens)
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err, tokens
        assert captured.out == ""


class TestJobs:
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_jobs_exit_2(self, value, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["ber-snr", *TINY, "--jobs", value])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err
        assert f"expected a positive integer, got '{value}'" in err

    def test_jobs_are_capped_at_the_cpu_count(self, monkeypatch, capsys):
        # the sweeps are replaced, so no worker process is started
        seen = []

        def sweep(cfg, n_jobs=1):
            seen.append(("sweep", n_jobs))
            return []

        def trace(point, n_jobs=1):
            seen.append(("trace", n_jobs))
            flat = np.zeros(point.n_f + 1)
            return TraceAggregate(point, point.max_trials, flat, flat)

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(cli, "run_sweep", sweep)
        monkeypatch.setattr(cli, "run_trace", trace)
        main(["ber-snr", *TINY, "--jobs", "5"])
        main(["ber-snr", *TINY, "--jobs", "2"])
        main(["trace", "--nt", "2", "--nr", "2", "--snr-list", "10", "--steps", "2",
              "--trials", "2", "--jobs", "8"])
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        main(["ber-snr", *TINY, "--jobs", "2"])
        assert seen == [("sweep", 3), ("sweep", 2), ("trace", 3), ("sweep", 1)]


def test_presets_cover_every_figure_family():
    assert set(PRESETS) == {f"fig{i}" for i in range(1, 10)}
    commands = {cmd for cmd, _ in PRESETS.values()}
    assert commands == {"ber-snr", "ber-antennas", "ber-rho", "trace", "flops"}


# a value of every setting that differs from each preset's own
_OTHER = {"nt": [3], "nr": 5, "snr_db": [7.0], "detector": "zf", "las_enabled": "off",
          "rho": [0.5], "n_f": 3, "max_trials": 11, "min_bit_errors": 2, "master_seed": 9}


@pytest.mark.parametrize("name", sorted(n for n, (cmd, _) in PRESETS.items() if cmd != "flops"))
def test_preset_pins_its_grid_against_a_config(name, monkeypatch, tmp_path):
    # a config sets only what a preset leaves free: the seed and, on a BER
    # sweep, the stop rule
    monkeypatch.delenv("MIMO_SLAS_SEED", raising=False)
    command = PRESETS[name][0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: _OTHER[key] for key in cli.DEFAULTS[command]}))
    parser = cli.build_parser()

    def resolve(*argv):
        return cli._settings(parser.parse_args([command, "--preset", name, *argv]), parser)

    own, configured = resolve(), resolve("--config", str(cfg))
    free = ["master_seed"] + (["max_trials", "min_bit_errors"] if command != "trace" else [])
    assert {key: configured.pop(key) for key in free} == {key: _OTHER[key] for key in free}
    assert configured == {key: value for key, value in own.items() if key not in free}


def test_console_script_is_byte_deterministic_across_jobs(package_env):
    argv = [
        "ber-snr", "--nt", "8", "--nr", "8", "--snr-list", "0,5",
        "--detector", "mf", "--las", "on", "--trials", "64",
        "--min-errors", "1000000000", "--seed", "7",
    ]
    runs = {}
    for jobs in ("1", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "mimo_slas.cli"] + argv + ["--jobs", jobs],
            capture_output=True,
            check=True,
            env=package_env,
        )
        runs[jobs] = proc.stdout
    assert runs["1"] == runs["4"]
    assert runs["1"].startswith(b"# schema_version=1\n")


@pytest.mark.parametrize("argv", [
    ["ber-rho", "--n-list", "8", "--snr-list", "10", "--rho-list", "0.9,1", "--steps", "8",
     "--trials", "1100", "--min-errors", "1000000000", "--seed", "2"],
    ["trace", "--nt", "4", "--nr", "4", "--snr-list", "10", "--rho-list", "1", "--steps", "8",
     "--trials", "1100", "--seed", "2"],
    ["ber-snr", "--nt", "8", "--nr", "8", "--detector", "all", "--las", "both", "--snr-list",
     "0,5,10", "--rho", "0.9", "--steps", "24", "--trials", "3000", "--min-errors", "60"],
    ["ber-snr", "--nt", "8", "--nr", "8", "--detector", "all", "--las", "both", "--snr-list",
     "10,5,0", "--rho", "0.9", "--steps", "24", "--trials", "3000", "--min-errors", "60"],
    ["ber-rho", "--n-list", "32", "--snr-list", "10", "--rho-list", "0.8,0.9,1,1.1,1.2",
     "--steps", "90", "--trials", "3000", "--min-errors", "5", "--seed", "2"],
], ids=["ber-rho", "trace", "ber-snr", "ber-snr-reversed", "ber-rho-stops"])
def test_pooled_commands_exit_cleanly(argv, tmp_path, package_env):
    # several chunks over two workers; the pool must shut down without a word
    # on stderr (the interpreter's exit hook once raced the pool's wakeup
    # pipe).  The 18 ber-snr cells, one group each, stop in chunks 0 to 5, so
    # groups stop with their next chunk still in flight.  ber-snr cells that
    # end at the trial cap keep the sweep reading to its last chunk, so the
    # sweep that ends with a chunk still running, which the pool must wait
    # for, is ber-rho-stops: its last cell stops in chunk 2, usually while
    # chunk 3 still runs
    pooled, alone = tmp_path / "pooled.csv", tmp_path / "alone.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mimo_slas.cli", *argv, "--jobs", "2", "--out", str(pooled)],
        capture_output=True, env=package_env, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert main([*argv, "--out", str(alone)]) == 0
    assert pooled.read_bytes() == alone.read_bytes()
