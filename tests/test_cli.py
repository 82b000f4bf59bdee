import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alphaspectra
from alphaspectra.cli import main
from alphaspectra.digraph import read_dgr1, to_dgr1, write_dgr1
from alphaspectra.families import FamilySpec, generate, parse_spec
from alphaspectra.spectral import spectral_radius


#: the directory holding the imported package, so the child interpreter
#: runs the same code whether or not the package is installed
PACKAGE_ROOT = str(Path(alphaspectra.__file__).resolve().parents[1])


def run_cli(args, **kwargs):
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "alphaspectra", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


class TestRadius:
    def test_cycle_text(self, capsys):
        assert main(["radius", "--spec", "cycle:7", "--alpha", "0.4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "radius 1.0"

    def test_json_matches_api(self, capsys):
        assert main(["radius", "--spec", "infty:1,2", "--alpha", "0.3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        api = spectral_radius(generate(parse_spec("infty:1,2")), 0.3)
        assert data["radius"] == api.radius
        assert data["enclosure"] == [api.enclosure.lo, api.enclosure.hi]
        assert data["perron"] == [float(v) for v in api.perron]

    def test_graph_file(self, tmp_path, capsys):
        path = tmp_path / "g.dgr"
        write_dgr1(generate(FamilySpec.cycle(4)), path)
        assert main(["radius", "--graph", str(path), "--alpha", "0.25"]) == 0
        assert "radius 1.0" in capsys.readouterr().out

    def test_not_strongly_connected_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.dgr"
        path.write_text("dgr1 3\n0 1\n1 2\n")
        assert main(["radius", "--graph", str(path), "--alpha", "0.0"]) == 1

    def test_error_json(self, tmp_path, capsys):
        path = tmp_path / "bad.dgr"
        path.write_text("dgr1 3\n0 1\n1 2\n")
        assert main(["radius", "--graph", str(path), "--alpha", "0.0", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["error"] == "NotStronglyConnectedError"


class TestFamily:
    def test_writes_dgr1(self, tmp_path):
        out = tmp_path / "t.dgr"
        assert main(["family", "--spec", "theta:0,1;2", "--out", str(out)]) == 0
        assert read_dgr1(out) == generate(FamilySpec.theta((0, 1), 2))

    def test_stdout(self, capsys):
        assert main(["family", "--spec", "cycle:3"]) == 0
        assert capsys.readouterr().out == to_dgr1(generate(FamilySpec.cycle(3)))

    def test_invalid_spec_parity(self, capsys):
        assert main(["family", "--spec", "bip1:8,2,2"]) == 1
        assert "odd" in capsys.readouterr().err


class TestCharRoot:
    def test_sqrt2(self, capsys):
        assert main(["char-root", "--spec", "infty:1,1", "--alpha", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert abs(float(lines[0].split()[1]) - 2**0.5) < 1e-9
        assert float(lines[1].split()[1]) < 1e-9

    def test_kpq_closed_form(self, capsys):
        assert main(["char-root", "--spec", "kpq:3,2", "--alpha", "0.5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["root"] - 2.5) < 1e-12

    def test_unsupported_family(self, capsys):
        assert main(["char-root", "--spec", "cycle:5", "--alpha", "0"]) == 1


class TestEnumerate:
    def test_writes_classes_and_manifest(self, tmp_path):
        outdir = tmp_path / "n3"
        assert main(["enumerate", "--n", "3", "--out", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["count"] == 5
        assert len(manifest["classes"]) == 5
        for entry in manifest["classes"]:
            d = read_dgr1(outdir / entry["file"])
            assert len(d.arcs) == entry["arcs"]

    def test_stdout_manifest(self, capsys):
        assert main(["enumerate", "--n", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 1


class TestVerify:
    def test_global_min_exit_zero(self, tmp_path, capsys):
        json_out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        rc = main(
            [
                "verify",
                "--campaign",
                "global-min",
                "--alpha-grid",
                "0,0.25,0.5",
                "--json-out",
                str(json_out),
                "--csv-out",
                str(csv_out),
            ]
        )
        assert rc == 0
        report = json.loads(json_out.read_text())
        assert report["campaign"] == "global-min"
        assert report["alpha_grid"] == [0.0, 0.25, 0.5]
        assert len(report["items"]) == 3 * 5048
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "spec,alpha,radius,lo,hi"
        assert len(lines) == 1 + 3 * 5048

    def test_family_extremes(self, capsys):
        rc = main(
            [
                "verify",
                "--campaign",
                "family-extremes",
                "--family",
                "infty",
                "--n",
                "8",
                "--s",
                "3",
                "--alpha-grid",
                "0,0.5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[pass]" in out

    def test_transform_lemmas(self, capsys):
        assert main(["verify", "--campaign", "transform-lemmas", "--trials", "10", "--seed", "3"]) == 0

    def test_bipartite(self, capsys):
        rc = main(
            ["verify", "--campaign", "bipartite-min", "--n", "8", "--p", "3", "--q", "2",
             "--alpha-grid", "0,0.5"]
        )
        assert rc == 0

    def test_missing_flags(self, capsys):
        assert main(["verify", "--campaign", "bipartite-min"]) == 2


class TestSweep:
    def test_csv_output(self, tmp_path, capsys):
        spec_list = tmp_path / "specs.txt"
        spec_list.write_text("cycle:5\ninfty:1,2\n# comment\n\n")
        rc = main(
            [
                "sweep",
                "--spec-list",
                str(spec_list),
                "--alpha-from",
                "0",
                "--alpha-to",
                "0.8",
                "--steps",
                "5",
            ]
        )
        assert rc == 0
        import csv
        import io

        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["spec", "alpha", "radius"]
        assert len(rows) == 1 + 2 * 5
        assert {r[0] for r in rows[1:]} == {"cycle:5", "infty:1,2"}
        assert all(abs(float(r[2]) - 1.0) < 1e-12 for r in rows[1:] if r[0] == "cycle:5")


class TestExitCodes:
    def test_missing_input_file_is_exit_1(self, capsys):
        assert main(["sweep", "--spec-list", "no-such-file.txt",
                     "--alpha-from", "0", "--alpha-to", "0.5", "--steps", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_is_2(self):
        out = run_cli(["radius", "--alpha", "0.5"])
        assert out.returncode == 2

    def test_nonpositive_tol_is_2(self, capsys):
        for verb, spec in (("radius", "cycle:3"), ("char-root", "infty:1,1")):
            for tol in ("0", "-1", "nan"):
                with pytest.raises(SystemExit) as exc:
                    main([verb, "--spec", spec, "--alpha", "0.5", "--tol", tol])
                assert exc.value.code == 2, (verb, tol)
        assert "--tol" in capsys.readouterr().err

    def test_empty_alpha_grid_is_2(self, capsys):
        for grid in ("", ",", " , "):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--campaign", "global-min", "--alpha-grid", grid])
            assert exc.value.code == 2, grid
        assert "empty alpha grid" in capsys.readouterr().err

    def test_nonpositive_trials_is_2(self, capsys):
        for trials in ("0", "-3", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--campaign", "transform-lemmas", "--trials", trials])
            assert exc.value.code == 2, trials
        assert "--trials" in capsys.readouterr().err

    def test_nonpositive_steps_is_2(self, capsys):
        for steps in ("0", "-3", "1.5"):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--spec-list", "no-such-file.txt",
                      "--alpha-from", "0", "--alpha-to", "0.5", "--steps", steps])
            assert exc.value.code == 2, steps
        assert "--steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["enumerate", "--n", "1"], "enumeration needs n >= 2"),
            (["radius", "--spec", "cycle:3", "--alpha", "1.5"], "alpha must be in [0, 1)"),
            (
                ["verify", "--campaign", "family-extremes", "--family", "infty", "--n", "3", "--s", "9",
                 "--alpha-grid", "0"],
                "no infty family at n=3, s=9",
            ),
            (["verify", "--campaign", "bipartite-min"], "campaign bipartite-min needs --n, --p, --q"),
            (["enumerate", "--n", "6"], "full enumeration capped at n=5"),
        ],
    )
    def test_rejected_value_is_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_rejected_value_json_is_2(self, capsys):
        assert main(["radius", "--spec", "cycle:3", "--alpha", "1.5", "--json"]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"error": "AlphaRangeError", "message": "alpha must be in [0, 1), got 1.5"}
        assert captured.err == "error: alpha must be in [0, 1), got 1.5\n"

    def test_unknown_verb_is_2(self):
        out = run_cli(["frobnicate"])
        assert out.returncode == 2

    def test_entrypoint_runs(self):
        out = run_cli(["radius", "--spec", "cycle:3", "--alpha", "0"])
        assert out.returncode == 0
        assert out.stdout.startswith("radius 1.0")
