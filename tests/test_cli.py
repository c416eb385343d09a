"""End-to-end checks of the experiment runner."""

import io
import warnings
from dataclasses import fields

import numpy as np
import pytest

from ldpmean import (
    adaptive,
    cli,
    load_table,
    make_domain,
    save_table,
    solve_noise_table,
    verify_privacy,
)
from ldpmean.analysis import expected_variance
from ldpmean.cli import ExperimentConfig, load_config


def run_cli(argv, capsys=None):
    rc = cli.main(argv)
    if capsys is None:
        return rc
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# small, fast configuration: 2-bin domain, one eps, laplace needs no LP
FAST = [
    "--eps", "1.0",
    "--bins", "2",
    "--n", "200",
    "--runs", "2",
    "--seed", "11",
]


def read_rows(text):
    """Parse the CSV body, skipping the leading comment line."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("# ldpmean ")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


class TestConfig:
    def test_mechanism_order_fixes_stream_ids(self):
        # each mechanism's stream id is its index here, so this order is
        # part of the CLI's fixed-seed output
        assert cli.ALL_MECHANISMS == ("adaptive", "duchi", "piecewise", "hybrid", "laplace")

    def test_defaults_resolve(self):
        config = ExperimentConfig()
        assert config.m == 64
        assert config.shape.m == 64

    def test_noise_window_override(self):
        # an explicit window wins over the derived one (64 and 730 here)
        assert ExperimentConfig(noise_window=50).m == 50
        assert ExperimentConfig(noise_window=500, d=3, k=3, eps_grid=(0.1,)).m == 500

    @pytest.mark.parametrize(
        "fields, m",
        [
            ({"d": 3, "k": 2}, 106),
            ({"d": 3, "k": 3}, 154),
            ({"eps_grid": (0.2,)}, 130),
            ({"eps_grid": (0.1, 1.0)}, 250),
            ({"bins": 4, "eps_grid": (0.5,)}, 19),
            ({"bins": 8, "eps_grid": (0.5, 1.0, 4.0)}, 32),
            ({"bins": 32, "eps_grid": (0.5,)}, 128),
        ],
    )
    def test_default_window_fits_the_first_restricted_program(self, fields, m):
        # M = max(4 N, N + A0 + 2) at the smallest per-attribute budget
        config = ExperimentConfig(**fields)
        eps = min(config.eps_grid) / config.k
        a0 = cli._first_half_width(config.bins, eps)
        assert config.m == m == max(4 * config.bins, config.bins + a0 + 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            ExperimentConfig(mechanisms=("bogus",))
        with pytest.raises(ValueError, match="eps grid"):
            ExperimentConfig(eps_grid=())
        with pytest.raises(ValueError, match="split"):
            ExperimentConfig(split=1.0)
        with pytest.raises(ValueError, match="runs"):
            ExperimentConfig(runs=0)

    def test_describe_skips_output_path(self):
        text = ExperimentConfig(out="somewhere.csv").describe()
        assert "somewhere" not in text
        assert "seed=0" in text

    def test_load_config_file_and_aliases(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\neps = 0.5,2.0\nn = 123\nmechanisms = laplace\n"
        )
        config = load_config(str(path), {})
        assert config.eps_grid == (0.5, 2.0)
        assert config.n_samples == 123
        assert config.mechanisms == ("laplace",)

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nruns = 5\nseed = 3\n")
        config = load_config(str(path), {"runs": 9})
        assert config.runs == 9
        assert config.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nwibble = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(str(path), {})

    def test_tail_ratio_is_unknown(self, tmp_path, capsys):
        # noise tables carry no geometric tails, so there is no ratio to set
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\ntail_ratio = 0.5\n")
        with pytest.raises(ValueError, match="unknown config key 'tail_ratio'"):
            load_config(str(path), {})
        with pytest.raises(SystemExit):
            cli.main(["estimate", "--tail-ratio", "0.5"])
        assert "unrecognized arguments: --tail-ratio" in capsys.readouterr().err
        assert "tail_ratio" not in cli.SWEEP_PARAMETERS

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[other]\nruns = 1\n")
        with pytest.raises(ValueError, match="no \\[experiment\\] section"):
            load_config(str(path), {})

    def test_fields_take_the_dataclass_types(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nbeta = 2\nnoise_window = 13\nsplit = 0.25\n"
            "grid = 0.1, 0.2,\nmechanisms = laplace, duchi\ncsv = data.csv\n"
        )
        config = load_config(str(path), {"bins": "4", "n_samples": "300"})
        assert (config.beta, config.noise_window, config.split) == (2.0, 13, 0.25)
        assert type(config.beta) is float and type(config.noise_window) is int
        assert (config.bins, config.n_samples) == (4, 300)
        assert config.sweep_grid == (0.1, 0.2)
        assert config.mechanisms == ("laplace", "duchi")
        assert config.csv_path == "data.csv"
        assert load_config(None, {"eps_grid": [1, "2"]}).eps_grid == (1.0, 2.0)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read config file"):
            load_config(str(tmp_path / "nope.ini"), {})


# per field: its flag and config-file key, a value as text, the value it
# sets, and a malformed value for a numeric field
FIELD_INPUTS = {
    "mechanisms": ("mechanisms", "laplace, duchi", ("laplace", "duchi"), None),
    "eps_grid": ("eps", "0.5,3", (0.5, 3.0), "0.5,x"),
    "beta": ("beta", "2", 2.0, "two"),
    "bins": ("bins", "4", 4, "4.5"),
    "noise_window": ("noise-window", "48", 48, "x"),
    "split": ("split", "0.25", 0.25, "x"),
    "runs": ("runs", "3", 3, "x"),
    "seed": ("seed", "5", 5, "x"),
    "n_samples": ("n", "300", 300, "1e3"),
    "dataset": ("dataset", "uniform", "uniform", None),
    "csv_path": ("csv", "data.csv", "data.csv", None),
    "csv_column": ("column", "2", 2, "x"),
    "d": ("d", "3", 3, "x"),
    "k": ("k", "2", 2, "x"),
    "sweep_parameter": ("parameter", "split", "split", None),
    "sweep_grid": ("grid", "0.1,0.2", (0.1, 0.2), "0.1,,y"),
    "out": ("out", "x.csv", "x.csv", None),
}


class TestFlagsAndKeys:
    """Every ExperimentConfig field is a flag and a config-file key."""

    @pytest.fixture
    def configs(self, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "estimate", seen.append)
        return seen

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
    def test_set_by_flag_and_key(self, name, configs, tmp_path):
        key, text, value, _ = FIELD_INPUTS[name]
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\n{key} = {text}\n")
        assert cli.main(["estimate", f"--{key}", text]) == 0
        assert cli.main(["estimate", "--config", str(path)]) == 0
        assert getattr(configs[0], name) == value == getattr(configs[1], name)
        assert type(getattr(configs[0], name)) is type(value)
        # the field name is a config-file key too
        path.write_text(f"[experiment]\n{name} = {text}\n")
        assert load_config(str(path), {}) == configs[1]

    @pytest.mark.parametrize(
        "name", [name for name, inputs in FIELD_INPUTS.items() if inputs[3] is not None]
    )
    def test_malformed_value_names_its_flag(self, name, configs, tmp_path, capsys):
        key, _, _, bad = FIELD_INPUTS[name]
        assert cli.main(["estimate", f"--{key}", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{key}: ") and "Traceback" not in err
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\n{key} = {bad}\n")
        assert cli.main(["estimate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key!r} in {str(path)!r}: ")
        assert configs == []

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        for key, *_ in FIELD_INPUTS.values():
            assert f"--{key} " in out
        for text in ("INI file with an [experiment] section", "comma-separated privacy budgets",
                     "comma-separated mechanism names", "generator or distribution spec",
                     "sweep parameter: split, bin_size, noise_range",
                     "comma-separated sweep values", "output path, - for stdout"):
            assert text in " ".join(out.split())


class TestVarianceCommand:
    def test_closed_forms_and_lp_objective(self, tmp_path, capsys):
        out = tmp_path / "var.csv"
        rc = run_cli(
            ["variance", "--mechanisms", "adaptive,laplace",
             "--dataset", "uniform", "--out", str(out)] + FAST
        )
        assert rc == 0
        header, rows = read_rows(out.read_text())
        assert header == ["mechanism", "eps", "expected_variance"]
        values = {(r[0], r[1]): float(r[2]) for r in rows}
        # laplace closed form is pmf independent: 8 beta^2 / eps^2
        assert values[("laplace", "1.0")] == 8.0
        domain = make_domain(1.0, 2)
        pmf = cli._true_pmf(ExperimentConfig(dataset="uniform"), domain)
        table = solve_noise_table(pmf, 1.0, ExperimentConfig(bins=2).shape, domain)
        # the table's own variance, which here is the program's optimum
        assert values[("adaptive", "1.0")] == expected_variance(table, pmf)
        assert values[("adaptive", "1.0")] == pytest.approx(table.lp_objective, rel=1e-9)

    @pytest.mark.parametrize("eps", ["1", "20"])
    def test_adaptive_row_is_the_variance_of_the_table_optimize_writes(self, eps, tmp_path):
        # at eps 20 HiGHS does not hold the program's tube, and the table's
        # variance is 1.94 times the program's optimum (lp_objective)
        argv = ["--bins", "8", "--eps", eps]
        assert run_cli(["variance", "--mechanisms", "adaptive", "--out", str(tmp_path / "v")]
                       + argv) == 0
        assert run_cli(["optimize", "--out", str(tmp_path / "t")] + argv) == 0
        _, [[_, _, value]] = read_rows((tmp_path / "v").read_text())
        pmf = cli._true_pmf(ExperimentConfig(), make_domain(1.0, 8))
        assert float(value) == expected_variance(load_table(tmp_path / "t"), pmf)

    def test_default_eps_grid_at_four_bins(self, tmp_path):
        # every default eps solves at N=4, M=16, eps=4 included
        out = tmp_path / "var.csv"
        rc = run_cli(["variance", "--bins", "4", "--mechanisms", "adaptive",
                      "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out.read_text())
        assert [(r[0], r[1]) for r in rows] == [
            ("adaptive", eps) for eps in ("0.5", "1.0", "2.0", "4.0")
        ]
        assert float(rows[-1][2]) == pytest.approx(0.0563056750412457, rel=1e-9)

    def test_stdout_when_no_out_path(self, capsys):
        rc, out, err = run_cli(
            ["variance", "--mechanisms", "laplace", "--dataset", "uniform"]
            + FAST,
            capsys,
        )
        assert rc == 0
        assert "laplace,1.0,8.0" in out
        assert err == ""


class TestEstimateCommand:
    @pytest.mark.parametrize("command", [["estimate"], ["multidim", "--d", "2", "--k", "1"]])
    def test_rows_do_not_depend_on_the_other_mechanisms(self, command, capsys):
        # each mechanism draws from its own stream over the shared data and
        # split, so a row is the same whichever mechanisms run beside it
        args = command + ["--n", "2000", "--runs", "2", "--seed", "5", "--bins", "8",
                          "--out", "-"]
        _, some, _ = run_cli(args + ["--mechanisms", "adaptive,laplace,duchi"], capsys)
        _, every, _ = run_cli(args, capsys)
        some_rows = sorted(read_rows(some)[1])
        assert len(some_rows) == 3 * 4  # the default eps grid
        assert some_rows == sorted(row for row in read_rows(every)[1]
                                   if row[0] in ("adaptive", "laplace", "duchi"))

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = ["estimate", "--mechanisms", "adaptive,laplace"] + FAST
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_each_command_starts_with_no_stored_solves(self, capsys):
        # a command's bytes do not depend on the commands main ran before
        # it in the process: each starts by clearing the store of solves
        args = ["estimate", "--mechanisms", "adaptive", "--eps", "0.5,1",
                "--bins", "8", "--n", "4000", "--runs", "2", "--out", "-"]
        alone = run_cli(args + ["--seed", "4"], capsys)
        run_cli(args + ["--seed", "3"], capsys)
        assert run_cli(args + ["--seed", "4"], capsys) == alone
        adaptive._store[("stale",)] = None
        assert run_cli(["estimate", "--mechanisms", "laplace"] + FAST) == 0
        assert adaptive._store == {}

    def test_seed_changes_output(self, tmp_path):
        base = ["estimate", "--mechanisms", "laplace", "--eps", "1.0",
                "--bins", "2", "--n", "200", "--runs", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(base + ["--seed", "1", "--out", str(a)]) == 0
        assert run_cli(base + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_row_shape(self, tmp_path):
        out = tmp_path / "est.csv"
        rc = run_cli(
            ["estimate", "--mechanisms", "laplace,duchi", "--eps", "0.5,1.0",
             "--bins", "2", "--n", "100", "--runs", "1", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out.read_text())
        assert header == ["mechanism", "eps", "mse", "runs", "seed"]
        keys = [(r[0], r[1]) for r in rows]
        # mechanisms in configured order, eps ascending within each
        assert keys == [
            ("laplace", "0.5"), ("laplace", "1.0"),
            ("duchi", "0.5"), ("duchi", "1.0"),
        ]
        for r in rows:
            assert float(r[2]) >= 0.0

    def test_small_eps_widens_the_default_window(self, capsys):
        rc, out, err = run_cli(
            ["estimate", "--eps", "0.2", "--mechanisms", "adaptive",
             "--n", "3000", "--runs", "1", "--out", "-"],
            capsys,
        )
        assert rc == 0, err
        assert out.splitlines()[0].endswith(" m=130")

    def test_header_records_the_dimensions_it_runs_at(self, capsys):
        # estimate runs at d = k = 1 whatever --d and --k say, and its
        # window is derived at k = 1
        rc, out, _ = run_cli(
            ["estimate", "--d", "3", "--k", "2", "--mechanisms", "laplace"] + FAST,
            capsys,
        )
        assert rc == 0
        header = out.splitlines()[0]
        assert " d=1 k=1 " in header and header.endswith(" m=9")

    def test_csv_input_is_deterministic(self, tmp_path):
        data = tmp_path / "values.csv"
        rng = np.random.default_rng(5)
        data.write_text(
            "\n".join(repr(float(v)) for v in rng.normal(2.0, 1.0, 300))
        )
        args = ["estimate", "--mechanisms", "laplace", "--eps", "1.0",
                "--bins", "2", "--runs", "2", "--csv", str(data)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "csv_path=" in a.read_text().splitlines()[0]


class TestSweepCommand:
    def test_single_point_split_matches_estimate(self, tmp_path):
        # sweeping split over exactly the default value must reproduce the
        # estimate numbers: same streams, same partitions
        common = ["--mechanisms", "adaptive,laplace"] + FAST
        est, swp = tmp_path / "est.csv", tmp_path / "swp.csv"
        assert run_cli(["estimate", "--out", str(est)] + common) == 0
        assert run_cli(
            ["sweep", "--parameter", "split", "--grid", "0.1",
             "--out", str(swp)] + common
        ) == 0
        _, est_rows = read_rows(est.read_text())
        _, swp_rows = read_rows(swp.read_text())
        est_mse = {(r[0], r[1]): r[2] for r in est_rows}
        assert len(swp_rows) == len(est_rows)
        for param, value, mech, eps, mse, runs, seed in swp_rows:
            assert param == "split"
            assert value == "0.1"
            assert mse == est_mse[(mech, eps)]

    def test_sweep_orders_blocks_by_value(self, tmp_path):
        out = tmp_path / "swp.csv"
        rc = run_cli(
            ["sweep", "--parameter", "split", "--grid", "0.3,0.1",
             "--mechanisms", "laplace", "--out", str(out)] + FAST
        )
        assert rc == 0
        _, rows = read_rows(out.read_text())
        assert [r[1] for r in rows] == ["0.1", "0.3"]

    def test_sweep_requires_known_parameter(self, capsys):
        rc, out, err = run_cli(
            ["sweep", "--parameter", "bogus", "--grid", "1"] + FAST, capsys
        )
        assert rc == 2
        assert "sweep parameter" in err

    def test_sweep_requires_grid(self, capsys):
        rc, out, err = run_cli(
            ["sweep", "--parameter", "split"] + FAST, capsys
        )
        assert rc == 2
        assert "sweep grid is empty" in err


class TestMultidimCommand:
    def test_single_dimension_reduces_to_estimate(self, tmp_path):
        # d=1, k=1 multidim shares every stream with estimate, so sum_mse
        # equals mse mechanism by mechanism, digit for digit
        common = ["--mechanisms", "adaptive,laplace"] + FAST
        est, mdm = tmp_path / "est.csv", tmp_path / "mdm.csv"
        assert run_cli(["estimate", "--out", str(est)] + common) == 0
        assert run_cli(
            ["multidim", "--d", "1", "--k", "1", "--out", str(mdm)] + common
        ) == 0
        _, est_rows = read_rows(est.read_text())
        _, mdm_rows = read_rows(mdm.read_text())
        est_mse = {(r[0], r[1]): r[2] for r in est_rows}
        for mech, eps, sum_mse, d, k, runs, seed in mdm_rows:
            assert (d, k) == ("1", "1")
            assert sum_mse == est_mse[(mech, eps)]

    def test_csv_matrix_sets_dimension_count(self, tmp_path):
        data = tmp_path / "matrix.csv"
        rng = np.random.default_rng(6)
        rows = rng.uniform(-1.0, 1.0, (120, 2))
        data.write_text(
            "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in rows)
        )
        out = tmp_path / "mdm.csv"
        rc = run_cli(
            ["multidim", "--k", "1", "--csv", str(data),
             "--mechanisms", "laplace", "--eps", "1.0", "--bins", "2",
             "--runs", "1", "--seed", "11", "--out", str(out)]
        )
        assert rc == 0
        _, body = read_rows(out.read_text())
        assert body[0][3] == "2"  # d inferred from the file

    def test_default_window_follows_the_per_attribute_budget(self, capsys):
        # eps / k = 0.25 at bins 16 has no feasible table in 4 * bins = 64;
        # the derived window is 106
        rc, out, err = run_cli(
            ["multidim", "--d", "3", "--k", "2", "--mechanisms", "adaptive",
             "--eps", "0.5", "--n", "3000", "--runs", "1", "--out", "-"],
            capsys,
        )
        assert rc == 0, err
        assert out.splitlines()[0].endswith(" m=106")

    def test_k_exceeding_d_rejected(self, capsys):
        rc, out, err = run_cli(
            ["multidim", "--d", "2", "--k", "3",
             "--mechanisms", "laplace"] + FAST,
            capsys,
        )
        assert rc == 2
        assert "1 <= k <= d" in err

    def test_baseline_refuses_a_dimension_without_clients(self, capsys):
        # three clients over three dimensions at k = 1: dimension 1 draws none
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(
                ["multidim", "--d", "3", "--k", "1", "--n", "3", "--mechanisms", "laplace",
                 "--runs", "1", "--eps", "1", "--bins", "2", "--seed", "1"],
                capsys,
            )
        assert rc == 2
        assert out == ""
        assert "degenerate split: no phase-2 clients in dimension 1" in err

    def test_adaptive_refuses_a_starved_dimension(self, capsys):
        # the same draw: no dimension has a client for each of the two phases
        rc, out, err = run_cli(
            ["multidim", "--d", "3", "--k", "1", "--n", "3", "--mechanisms", "adaptive",
             "--runs", "1", "--eps", "1", "--bins", "2", "--seed", "1"],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert "degenerate split" in err


class TestOptimizeCommand:
    def test_round_trip_and_report(self, tmp_path, capsys):
        out = tmp_path / "table.txt"
        rc, stdout, err = run_cli(
            ["optimize", "--dataset", "uniform", "--out", str(out)] + FAST,
            capsys,
        )
        assert rc == 0
        assert f"table written to {out}" in stdout
        assert "passed True" in stdout
        table = load_table(str(out))
        assert table.domain.n_bins == 2
        assert table.eps == 1.0
        # it passes load_table's privacy gate and reads back bit for bit
        written = io.StringIO()
        save_table(table, written)
        assert written.getvalue() == out.read_text()
        # the dump stores the table itself, not the objective; the loaded
        # copy must still verify against its stated budget
        assert verify_privacy(table, 1.0).passed
        variance = next(
            line.split()[1] for line in stdout.splitlines()
            if line.startswith("expected_variance")
        )
        pmf = cli._true_pmf(ExperimentConfig(dataset="uniform"), table.domain)
        assert float(variance) == expected_variance(table, pmf) > 0.0

    def test_privacy_is_enumerated_once(self, tmp_path, monkeypatch, capsys):
        # the summary reads the verdict of the gate every solved table
        # passes (NoiseTable.privacy), not a second enumeration
        calls = []
        verify = adaptive.verify_privacy
        monkeypatch.setattr(adaptive, "verify_privacy", lambda *a: calls.append(a) or verify(*a))
        out = tmp_path / "table.txt"
        rc, stdout, _ = run_cli(["optimize", "--bins", "4", "--eps", "1", "--out", str(out)],
                                capsys)
        assert rc == 0 and len(calls) == 1
        report = verify(load_table(out), 1.0)
        assert (f"privacy max_ratio {report.max_ratio!r} bound {report.bound!r} passed True"
                in stdout)


    def test_stdout_by_default(self, tmp_path, monkeypatch, capsys):
        # --out - (the default) writes the table to stdout and the summary
        # to stderr, and leaves no file in the working directory
        monkeypatch.chdir(tmp_path)
        rc, stdout, err = run_cli(["optimize", "--dataset", "uniform"] + FAST, capsys)
        assert rc == 0
        assert list(tmp_path.iterdir()) == []
        assert err.startswith("table written to stdout\n") and "passed True" in err
        saved = tmp_path / "table.txt"
        saved.write_text(stdout)
        table = load_table(saved)
        assert (table.domain.n_bins, table.eps) == (2, 1.0)
        assert verify_privacy(table, 1.0).passed


def recording_tables(monkeypatch):
    """Route every solve_noise_table of the commands through a recorder;
    returns the list of the tables it solves."""
    tables = []
    solve = adaptive.solve_noise_table

    def record(*args):
        tables.append(solve(*args))
        return tables[-1]

    monkeypatch.setattr(adaptive, "solve_noise_table", record)
    monkeypatch.setattr(cli, "solve_noise_table", record)
    return tables


class TestBeta:
    """The design is solved in units of sigma = 2 beta / N, so beta only
    scales a table's variance, and no beta is too large or too small."""

    @staticmethod
    def adaptive_variances(beta, capsys):
        rc, out, _ = run_cli(["variance", "--dataset", "uniform", "--mechanisms", "adaptive",
                              "--beta", repr(beta)], capsys)
        assert rc == 0
        return np.array([float(r[2]) for r in read_rows(out)[1]])

    @pytest.mark.parametrize("beta", [2.0**-20, 1e-6, 1e6])
    def test_variance_scales_as_beta_squared(self, beta, capsys):
        # the uniform law on [-beta, beta] has no scale of its own
        unit = self.adaptive_variances(1.0, capsys)
        np.testing.assert_allclose(
            self.adaptive_variances(beta, capsys), beta**2 * unit, rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--bins", "33", "--eps", "0.5,12", "--beta", "1e6", "--runs", "1"],
            ["variance", "--bins", "16", "--eps", "1,40", "--noise-window", "200",
             "--beta", "1e6", "--dataset", "uniform"],
            ["optimize", "--bins", "5", "--eps", "20,0.001", "--beta", "1e-6",
             "--dataset", "beta:a=1e-3,b=1e-3", "--out", "-"],
        ],
        ids=["estimate-beta-1e6", "variance-beta-1e6", "optimize-beta-1e-6"],
    )
    def test_extreme_beta_solves(self, argv, monkeypatch, capsys):
        tables = recording_tables(monkeypatch)
        rc, _, err = run_cli(argv, capsys)
        assert rc == 0, err
        assert tables
        for table in tables:
            assert verify_privacy(table, table.eps).passed


class TestErrorPaths:
    def test_unknown_mechanism(self, capsys):
        rc, out, err = run_cli(
            ["estimate", "--mechanisms", "bogus"] + FAST, capsys
        )
        assert rc == 2
        assert "unknown mechanism" in err

    def test_unknown_dataset_generator(self, capsys):
        rc, out, err = run_cli(
            ["estimate", "--mechanisms", "laplace", "--dataset", "cauchy"]
            + FAST,
            capsys,
        )
        assert rc == 2
        assert "unknown sample generator" in err

    @pytest.mark.parametrize(
        "command, spec, accepted",
        [
            ("variance", "gaussian:sdd=0.3", "gaussian accepts mu, sd"),
            ("variance", "uniform:a=2", "uniform accepts no keys"),
            ("estimate", "gaussian:mu=0.5", "gaussian accepts mean, sd, clip_lo, clip_hi"),
            ("estimate", "bernoulli:q=0.2", "bernoulli accepts p"),
        ],
    )
    def test_unknown_spec_key(self, command, spec, accepted, capsys):
        # each family keeps its own key names; a key it does not list is
        # an error, not a silent default
        rc, out, err = run_cli(
            [command, "--mechanisms", "laplace", "--dataset", spec] + FAST, capsys
        )
        assert rc == 2
        assert out == ""
        key = spec.split(":")[1].split("=")[0]
        assert f"unknown key {key!r}" in err
        assert accepted in err

    def test_missing_csv(self, tmp_path, capsys):
        rc, out, err = run_cli(
            ["estimate", "--mechanisms", "laplace",
             "--csv", str(tmp_path / "nope.csv")] + FAST,
            capsys,
        )
        assert rc == 2
        assert "error:" in err

    def test_missing_config_file(self, tmp_path, capsys):
        rc, out, err = run_cli(
            ["estimate", "--config", str(tmp_path / "nope.ini")] + FAST, capsys
        )
        assert rc == 2
        assert "cannot read config file" in err

    def test_invalid_split_flag(self, capsys):
        rc, out, err = run_cli(
            ["estimate", "--mechanisms", "laplace", "--split", "1.5"] + FAST,
            capsys,
        )
        assert rc == 2
        assert "split must lie" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--eps", "nan", "eps grid (nan,): eps must be positive, got nan"),
            ("--beta", "inf", "beta must be positive and finite, got inf"),
            ("--noise-window", "0", "noise_window must be >= 4, the least with an eps-LDP "
             "table at bins=2, eps = min(eps_grid) / k = 1.0; got 0"),
            # rows are keyed by (mechanism, eps): a repeat would pool its
            # runs into one mean and print that row twice
            ("--eps", "1,1", "eps_grid lists 1.0 more than once"),
            ("--mechanisms", "adaptive,adaptive", "mechanisms lists 'adaptive' more than once"),
        ],
        ids=["eps", "beta", "noise_window", "eps-repeated", "mechanisms-repeated"],
    )
    def test_invalid_value_is_refused_by_name(self, flag, value, message, capsys):
        # refused while the configuration is read, before any table or data
        argv = ["estimate", "--mechanisms", "adaptive"] + FAST + [flag, value]
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.fixture
    def draws(self, monkeypatch):
        """The calls of the gaussian sample generator."""
        calls = []
        draw, defaults = cli._GENERATORS["gaussian"]
        monkeypatch.setitem(
            cli._GENERATORS, "gaussian", (lambda *args: calls.append(args) or draw(*args), defaults)
        )
        return calls

    @pytest.mark.parametrize(
        "argv, least",
        [
            (["estimate", "--mechanisms", "adaptive", "--bins", "8", "--noise-window", "9",
              "--eps", "0.5"], 21),
            (["sweep", "--mechanisms", "adaptive", "--parameter", "noise_range", "--grid", "0.1"],
             41),
        ],
        ids=["estimate", "sweep"],
    )
    def test_window_below_the_feasibility_bound_draws_nothing(self, argv, least, draws, capsys):
        # no window below N + ceil(N (coth(eps/2) - 1) / 2) has an eps-LDP
        # table; the configuration refuses it before any data or table
        rc, out, err = run_cli(argv + ["--runs", "1", "--n", "200"], capsys)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: noise_window must be >= {least}, ")
        assert draws == []

    @pytest.mark.parametrize(
        "parameter, value",
        [("bin_size", "0"), ("bin_size", "1e-320"), ("bin_size", "-0.5"), ("bin_size", "inf"),
         ("noise_range", "inf"), ("noise_range", "nan")],
    )
    def test_sweep_value_without_a_finite_domain_draws_nothing(
        self, parameter, value, draws, capsys
    ):
        # a bin width must be positive, finite and give a finite bin count
        # 2 beta / width; a window ratio must give a finite window
        argv = ["sweep", "--runs", "1", "--n", "100", "--eps", "1", "--parameter", parameter,
                "--grid", value]
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (2, "")
        message = {
            "bin_size": "is not a positive finite width with a finite bin count 2 beta / width",
            "noise_range": "does not give a finite window",
        }[parameter]
        assert err == f"error: sweep {parameter} {float(value)!r} {message}\n"
        assert draws == []

    @pytest.mark.parametrize(
        "grid, extra, message",
        [
            ("split 0.1,0.1", [], "split values 0.1 and 0.1 both run split = 0.1"),
            ("bin_size 0.5,0.51", [], "bin_size values 0.5 and 0.51 both run bins = 4"),
            ("noise_range 6,6.1", ["--bins", "8"],
             "noise_range values 6.0 and 6.1 both run noise_window = 24"),
            ("bin_size 10,1e300", [], "bin_size 10.0 gives 0 bins: a width must be below"
             " 4 beta = 4.0"),
        ],
        ids=["repeated", "bin_size-alias", "noise_range-alias", "bin_size-zero-bins"],
    )
    def test_sweep_values_of_one_run_draw_nothing(self, grid, extra, message, draws, capsys):
        # each block is a run of its own, under the value that labels it
        parameter, values = grid.split()
        argv = ["sweep", "--runs", "1", "--n", "100", "--eps", "1", "--mechanisms", "laplace",
                "--parameter", parameter, "--grid", values, *extra]
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (2, "")
        assert err == f"error: sweep {message}\n"
        assert draws == []

    @pytest.mark.parametrize("value", ["inf", "710"])
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_eps_above_the_bound_draws_nothing(self, command, value, draws, capsys):
        # every mechanism, the adaptive one too, spends a finite budget
        argv = [command, "--eps", f"1,{value}", "--runs", "1", "--n", "200"]
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (2, "")
        value = float(value)
        message = f"eps grid (1.0, {value!r}): eps must be at most 700.0, got {value!r}"
        assert err == f"error: {message}\n"
        assert draws == []

    @pytest.mark.parametrize("command", ["estimate", "variance", "multidim"])
    def test_infinite_eps_with_a_baseline_draws_nothing(self, command, draws, capsys):
        # the default mechanisms hold baselines; a lone inf is refused at the grid
        rc, out, err = run_cli([command, "--eps", "inf", "--runs", "1", "--n", "200"], capsys)
        assert (rc, out) == (2, "")
        assert err == "error: eps grid (inf,): eps must be at most 700.0, got inf\n"
        assert draws == []

    def test_adaptive_alone_refuses_infinite_eps(self, draws, capsys):
        # the adaptive arm has no eps = inf table: it refuses as the baselines do
        argv = ["estimate", "--mechanisms", "adaptive", "--eps", "inf", "--bins", "4",
                "--runs", "1", "--n", "200"]
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (2, "")
        assert err == "error: eps grid (inf,): eps must be at most 700.0, got inf\n"
        assert draws == []

    def test_window_is_checked_at_the_budget_spent(self, draws, capsys):
        # variance and optimize run one attribute at eps = 1, where the
        # window 9 has a table; multidim at k = 2 spends eps / 2 = 0.5 per
        # attribute, where the least window is 11
        flags = ["--bins", "4", "--eps", "1", "--k", "2", "--noise-window", "9",
                 "--mechanisms", "adaptive", "--runs", "1", "--n", "200"]
        rc, out, err = run_cli(["variance"] + flags, capsys)
        assert (rc, err) == (0, "")
        assert out.splitlines()[0].endswith(" d=1 k=1 sweep_parameter=None sweep_grid= m=9")
        rc, out, err = run_cli(["optimize", "--out", "-"] + flags, capsys)
        assert rc == 0 and out.splitlines()[0] == "1.0 4 9 1.0"
        rc, out, err = run_cli(["multidim"] + flags, capsys)
        assert (rc, out) == (2, "")
        assert err.startswith("error: noise_window must be >= 11, ")
        assert draws == []

    def test_eps_too_small_for_any_window_draws_nothing(self, draws, capsys):
        argv = ["estimate", "--eps", "1e-310", "--mechanisms", "adaptive", "--bins", "2",
                "--runs", "1", "--n", "100"]
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (2, "")
        assert err.startswith("error: eps = 1e-310 is too small: ")
        assert draws == []

    def test_unknown_command_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])
