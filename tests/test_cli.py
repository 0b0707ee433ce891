"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main

#: Defaults of the flags declared by the parser's shared helpers.
ENGINE = {"policy": "page_coloring", "cdpc": False, "fast": False}
CAMPAIGN = {
    "progress": False, "resume": False, "store": None, "workers": None,
    "timeout": None, "retries": 2, "strict": False,
}


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            pytest.param(["run", "swim"], {"cpus": 8, **ENGINE}, id="run"),
            pytest.param(
                ["sweep", "swim"], {"cpus": 8, **ENGINE, **CAMPAIGN}, id="sweep"
            ),
            pytest.param(["faults", "swim"], {"cpus": 8, **ENGINE}, id="faults"),
            pytest.param(["lint"], {"cpus": 16}, id="lint"),
            pytest.param(["predict"], {"cpus": 8}, id="predict"),
            pytest.param(
                ["scenario", "run"], {"cpus": 8, **CAMPAIGN}, id="scenario-run"
            ),
            pytest.param(
                ["scenario", "sweep"], {"cpus": 8, **CAMPAIGN}, id="scenario-sweep"
            ),
            pytest.param(
                ["runfile", "prog.workload"], {"cpus": 8, **ENGINE}, id="runfile"
            ),
        ],
    )
    def test_run_defaults(self, argv, expected):
        args = vars(build_parser().parse_args(argv))
        expected = {"machine": "sgi_base", "scale": 16, **expected}
        assert {name: args[name] for name in expected} == expected

    def test_bench_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "applu", "--cpus", "4", "--machine", "alpha", "--cdpc",
             "--prefetch", "--fast"]
        )
        assert args.cpus == 4
        assert args.machine == "alpha"
        assert args.cdpc and args.prefetch and args.fast

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gcc"])

    def test_sweep_policies_default(self):
        args = build_parser().parse_args(["sweep", "swim"])
        assert args.policies == "page_coloring,bin_hopping,cdpc"


class TestCommands:
    def test_list_prints_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for spec_id in ("101.tomcatv", "146.wave5"):
            assert spec_id in out

    def test_run_prints_result(self, capsys):
        code = main(["run", "fpppp", "--cpus", "2", "--fast"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fpppp@2cpu" in out
        assert "wall ms" in out

    def test_sweep_prints_each_policy(self, capsys):
        code = main(
            ["sweep", "fpppp", "--cpus", "2", "--fast",
             "--policies", "page_coloring,cdpc"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "page_coloring" in out
        assert "cdpc" in out
        assert "campaign:" in out

    def test_sweep_store_then_resume(self, tmp_path, capsys):
        store = str(tmp_path / "campaigns")
        argv = ["sweep", "fpppp", "--cpus", "2", "--fast",
                "--workers", "1", "--store", store]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "loaded from store" not in first
        # Same sweep again: every run is served from the durable store.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "3 loaded from store" in second

    def test_sweep_json_includes_campaign_report(self, tmp_path, capsys):
        import json as jsonlib

        store = str(tmp_path / "campaigns")
        code = main(
            ["sweep", "fpppp", "--cpus", "2", "--fast", "--json",
             "--workers", "1", "--store", store,
             "--policies", "page_coloring,cdpc"]
        )
        assert code == 0
        payload = jsonlib.loads(capsys.readouterr().out)
        assert payload["campaign"]["completed"] == 2
        assert payload["campaign"]["ok"] is True
        assert payload["page_coloring"]["policy"] == "page_coloring"

    def test_sweep_resume_flag_parses_with_default_store(self):
        args = build_parser().parse_args(["sweep", "swim", "--resume"])
        assert args.resume
        assert args.store is None  # filled with the default at run time


class TestRunfile:
    WORKLOAD_TEXT = (
        "program demo\n"
        "array a 2097152\n"
        "phase p occurrences 2\n"
        "  parallel loop l ipw 3.0\n"
        "    write a partitioned units 64\n"
    )

    def test_runfile_executes_text_workload(self, tmp_path, capsys):
        path = tmp_path / "demo.workload"
        path.write_text(self.WORKLOAD_TEXT)
        code = main(["runfile", str(path), "--cpus", "2", "--fast"])
        assert code == 0
        out = capsys.readouterr().out
        assert "demo@2cpu" in out

    def test_runfile_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "demo.workload"
        path.write_text(self.WORKLOAD_TEXT)
        code = main(["runfile", str(path), "--cpus", "2", "--fast", "--json",
                     "--cdpc"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "demo"
        assert payload["cdpc"] is True
        assert payload["wall_ns"] > 0

    def test_runfile_scales_sizes(self, tmp_path, capsys):
        import json

        path = tmp_path / "demo.workload"
        path.write_text(self.WORKLOAD_TEXT)
        main(["runfile", str(path), "--cpus", "2", "--fast", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["scale_factor"] == 16


class TestLint:
    RACY_TEXT = (
        "program racy\n"
        "array a 2097152\n"
        "phase p\n"
        "  parallel loop l ipw 3.0\n"
        "    write a boundary units 64 shift 0.5\n"
    )

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.workload == "all"
        assert args.cpus == 16
        assert args.scale == 16
        assert args.format == "text"
        assert not args.strict

    def test_lint_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--format", "xml"])

    def test_lint_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "gcc"])

    def test_lint_help_describes_the_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["lint", "--help"])
        assert excinfo.value.code == 0
        assert "lint" in capsys.readouterr().out

    def test_lint_single_workload_text(self, capsys):
        assert main(["lint", "tomcatv"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_reports_su2cor_strided(self, capsys):
        assert main(["lint", "su2cor"]) == 0
        assert "C003" in capsys.readouterr().out

    def test_lint_all_workloads_json(self, capsys):
        import json

        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cpus"] == 16
        assert payload["num_errors"] == 0
        names = [report["program"] for report in payload["reports"]]
        assert "tomcatv" in names and "applu" in names

    def test_lint_file_reports_error_but_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "racy.workload"
        path.write_text(self.RACY_TEXT)
        assert main(["lint", "--file", str(path)]) == 0
        assert "R001" in capsys.readouterr().out

    def test_lint_strict_fails_on_error_findings(self, tmp_path, capsys):
        path = tmp_path / "racy.workload"
        path.write_text(self.RACY_TEXT)
        assert main(["lint", "--file", str(path), "--strict"]) == 1
        assert "ERROR" in capsys.readouterr().out

    def test_lint_strict_passes_clean_workloads(self, capsys):
        assert main(["lint", "swim", "--strict"]) == 0
        capsys.readouterr()


class TestScenarioCommand:
    def test_parser_run_defaults(self):
        args = build_parser().parse_args(["scenario", "run"])
        assert args.scenario_command == "run"
        assert args.name == "smoke"
        assert args.spec is None
        assert args.width == 40
        assert args.cpus == 8 and args.scale == 16

    def test_parser_sweep_defaults(self):
        args = build_parser().parse_args(["scenario", "sweep"])
        assert args.scenarios == "smoke,churn"

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_list_prints_presets(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "churn" in out

    def test_run_prints_mode_table_and_figure(self, capsys):
        code = main(
            ["scenario", "run", "smoke", "--cpus", "2", "--scale", "4",
             "--fast", "--workers", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for mode in ("cdpc-adaptive", "dynamic-recolor", "bin-hopping"):
            assert mode in out
        assert "hint honor rate" in out
        assert "capacity timeline" in out

    def test_run_json_payload(self, capsys):
        import json as jsonlib

        code = main(
            ["scenario", "run", "smoke", "--cpus", "2", "--scale", "4",
             "--fast", "--workers", "1", "--json"]
        )
        assert code == 0
        payload = jsonlib.loads(capsys.readouterr().out)
        assert payload["scenario"]["name"] == "smoke"
        assert sorted(payload["honor_rates"]) == [
            "bin-hopping", "cdpc-adaptive", "dynamic-recolor"
        ]
        assert "degradation" in payload

    def test_run_spec_file(self, tmp_path, capsys):
        import json as jsonlib

        spec_path = tmp_path / "scenario.json"
        spec_path.write_text(jsonlib.dumps({
            "name": "from-file",
            "workload": "fpppp",
            "seed": 2,
            "capacity_events": [{"beat": 1, "delta_frames": -0.2}],
        }))
        code = main(
            ["scenario", "run", "--spec", str(spec_path), "--cpus", "2",
             "--scale", "4", "--fast", "--workers", "1"]
        )
        assert code == 0
        assert "from-file" in capsys.readouterr().out

    def test_run_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "run", "no-such-preset"])
