import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import orbitlift
from orbitlift import catalog, invariants, regcheck
from orbitlift.cli import EXIT_DOMAIN, EXIT_INCONCLUSIVE, EXIT_OK, main
from orbitlift.curvedsl import read_samples_csv


def run(args):
    return main(args)


class TestRoots:
    def test_cubic(self, tmp_path, capsys):
        assert run(["roots", "--poly", "6,11,6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "root[0]: 1" in out and "root[2]: 3" in out

    def test_not_hyperbolic_exit_2(self, capsys):
        assert run(["roots", "--poly", "0,1"]) == EXIT_DOMAIN

    def test_overflow_gives_finite_roots_or_one_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["roots", "--poly", "1e300,1e300"]) == EXIT_OK
            out = capsys.readouterr()
            assert "inf" not in out.out and out.err == ""
            assert "root[0]: 1\n" in out.out
            # real roots near 1e-300, 1 and 1e300 whose recentring overflows
            assert run(["roots", "--poly", "1e300,1e300,1"]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and "complex root pair" not in err


class TestSelect:
    def test_crossing_lines_csv(self, tmp_path):
        out = tmp_path / "sel.csv"
        rep = tmp_path / "sel.txt"
        code = run([
            "select", "--curve", "0,-t^2", "--domain", "-1:1", "--level", "10",
            "--out", str(out), "--report", str(rep),
        ])
        assert code == EXIT_OK
        t, cols, names = read_samples_csv(out)
        assert names == ["branch0", "branch1"]
        best = min(
            max(np.max(np.abs(cols[:, 0] - t)), np.max(np.abs(cols[:, 1] + t))),
            max(np.max(np.abs(cols[:, 0] + t)), np.max(np.abs(cols[:, 1] - t))),
        )
        assert best < 1e-8
        text = rep.read_text()
        assert "swap-count: 1" in text
        assert "swap[0].perm: 1,0" in text

    def test_not_hyperbolic_curve_exit_2(self, tmp_path):
        code = run(["select", "--curve", "0,0.25-t^2", "--domain", "-1:1", "--level", "5"])
        assert code == EXIT_DOMAIN


class TestCertify:
    def test_sqrt_cusp_csv(self, tmp_path):
        from orbitlift.curvedsl import write_samples_csv

        t = np.linspace(-1, 1, 2**9 + 1)
        write_samples_csv(tmp_path / "sqrtabs.csv", t, np.abs(t)[:, None] ** 0.5, ["f"])
        rep = tmp_path / "cert.txt"
        code = run(["certify", "--csv", str(tmp_path / "sqrtabs.csv"), "--report", str(rep)])
        assert code == EXIT_OK
        assert f"column[f].verdict: {regcheck.UNBOUNDED}" in rep.read_text()

    def test_expression_source(self, tmp_path):
        rep = tmp_path / "cert.txt"
        code = run([
            "certify", "--curve", "powabs(t,1)", "--domain", "-1:1", "--level", "9",
            "--report", str(rep),
        ])
        assert code == EXIT_OK
        assert f"column[f].verdict: {regcheck.LIPSCHITZ}" in rep.read_text()

    def test_strict_inconclusive_exit_3(self, tmp_path):
        code = run([
            "certify", "--curve", "powabs(t,0.8)", "--domain", "-1:1", "--level", "9",
            "--strict", "--report", str(tmp_path / "r.txt"),
        ])
        assert code == EXIT_INCONCLUSIVE

    def test_round_trip_reproduces_select_verdicts(self, tmp_path):
        sel_csv = tmp_path / "sel.csv"
        sel_rep = tmp_path / "sel.txt"
        run([
            "select", "--curve", "0,-powabs(t,1)", "--domain", "-1:1", "--level", "10",
            "--out", str(sel_csv), "--report", str(sel_rep),
        ])
        cert_rep = tmp_path / "cert.txt"
        run(["certify", "--csv", str(sel_csv), "--report", str(cert_rep)])
        sel_lines = {
            line.split(".verdict: ")[1]
            for line in sel_rep.read_text().splitlines()
            if line.startswith("branch[") and ".verdict: " in line and ".report." not in line
        }
        cert_lines = {
            line.split(".verdict: ")[1]
            for line in cert_rep.read_text().splitlines()
            if line.startswith("column[") and ".verdict: " in line and ".report." not in line
        }
        assert sel_lines == cert_lines


class TestLift:
    def test_dihedral_circle(self, tmp_path):
        out = tmp_path / "lift.csv"
        rep = tmp_path / "lift.txt"
        code = run([
            "lift", "--group", "I2:4", "--curve", "1,cos(4*t)", "--domain", "-1:1",
            "--level", "8", "--out", str(out), "--report", str(rep),
        ])
        assert code == EXIT_OK
        t, cols, names = read_samples_csv(out)
        assert names == ["x1", "x2"]
        assert np.max(np.abs(cols[:, 0] ** 2 + cols[:, 1] ** 2 - 1.0)) < 1e-9
        assert "residual: 0" in rep.read_text() or "residual: " in rep.read_text()

    @pytest.mark.parametrize("group, curve, level, ok", [
        ("D:4", "t^2,0,0,0", 10, False),
        ("B:3", "t^2,0,0", 10, False),
        ("I2:4", "1,cos(4*t)", 8, True),  # the README lift
    ])
    def test_residual_ok_line_and_strict_exit(self, tmp_path, group, curve, level, ok):
        rep = tmp_path / "lift.txt"
        argv = ["lift", "--group", group, "--curve", curve, "--domain", "-1:1", "--level", str(level),
                "--report", str(rep)]
        assert run(argv) == EXIT_OK
        lines = rep.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("continuity-ok: "))
        assert lines[i + 1] == f"residual-ok: {str(ok).lower()}"
        inconclusive = any(line.endswith(".verdict: inconclusive") for line in lines)
        strict = run(argv + ["--strict"])
        assert strict == (EXIT_OK if ok and not inconclusive else EXIT_INCONCLUSIVE)
        if group == "D:4":
            # a residual 1,677 times its bound, and no certificate inconclusive:
            # --strict exits 3 for the residual alone
            assert not inconclusive

    def test_not_in_image_exit_2(self, tmp_path):
        code = run(["lift", "--group", "A:1", "--curve", "0,1", "--domain", "-1:1", "--level", "4"])
        assert code == EXIT_DOMAIN

    def test_overflowing_curve_exit_2(self, capsys):
        # y_3^2 overflows at every sample but t = 0: one error line naming t
        code = run(["lift", "--group", "D:3", "--curve", "3,3,1e200*t", "--level", "3"])
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("(at t=-1.0)\n")


class TestKdata:
    def test_a2(self, tmp_path):
        rep = tmp_path / "kd.txt"
        assert run(["kdata", "--group", "A:2", "--report", str(rep)]) == EXIT_OK
        text = rep.read_text()
        assert "d: 3" in text and "k: 3" in text

    def test_bad_group_exit_2(self):
        assert run(["kdata", "--group", "Z:9"]) == EXIT_DOMAIN

    @pytest.mark.parametrize("group,k", [("A:7", 8), ("B:6", 12), ("D:6", 12)])
    def test_group_too_large_to_enumerate(self, group, k, capsys):
        assert invariants.parse_group(group).order > invariants.ENUM_LIMIT
        assert run(["kdata", "--group", group]) == EXIT_OK
        assert f"\nk: {k}\n" in capsys.readouterr().out


class TestEvaluationErrors:
    """An expression that overflows or divides by zero ends in exit 2 and
    one error line naming the point; numpy warns nothing first."""

    @pytest.mark.parametrize("argv, where", [
        (["lift", "--group", "B:2", "--curve", "exp(1000*t),1", "--level", "4"], "t=0.75"),
        (["select", "--curve", "exp(1000*t),1", "--level", "4"], "t=0.75"),
        (["harness", "--group", "B:2", "--gmap", "1+exp(1000*u);2", "--box", "-1:1,-1:1",
          "--probes", "3", "--level", "4"], "u=0.7875, v=0.0"),
        (["harness", "--group", "B:2", "--gmap", "1+1/u;2", "--box", "-1:1,-1:1",
          "--probes", "3", "--level", "4"], "u=0.0, v=0.0"),
    ])
    def test_one_error_line_naming_the_point(self, argv, where, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"(at {where})\n")


class TestDomainErrors:
    """A domain of infinite length, or so short that its finest step
    squares to 0 or its difference quotients overflow, ends in exit 2 and
    one error line; numpy warns nothing."""

    @pytest.mark.parametrize("argv, says", [
        (["select", "--curve", "0,-t^2", "--domain", "0:inf"], "infinite length"),
        (["select", "--curve", "0,-t^2", "--domain", "-1e308:1e308"], "infinite length"),
        (["lift", "--group", "B:2", "--curve", "1+t,t", "--domain", "0:inf"], "infinite length"),
        (["certify", "--curve", "t", "--domain", "0:inf"], "infinite length"),
        (["harness", "--group", "B:2", "--gmap", "u;v", "--box", "0:inf,-1:1", "--probes", "3",
          "--level", "4"], "--box must be finite"),
        (["select", "--curve", "0,-t^2", "--domain", "0:1e-300", "--level", "4"], "squares to 0"),
        (["certify", "--curve", "t", "--domain", "0:1e-300"], "squares to 0"),
        (["certify", "--curve", "1e300*t", "--domain", "0:1e-100", "--level", "10"], "overflow"),
        (["certify", "--curve", "1e300*t", "--domain", "0:1e-158", "--level", "10"], "overflow"),
    ])
    def test_one_error_line(self, argv, says, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err

    def test_short_domain_still_certifies(self, capsys):
        # a step of 1e-153 squares to 1e-306, a normal float
        assert run(["certify", "--curve", "t", "--domain", "0:1e-150", "--level", "10"]) == EXIT_OK
        assert "column[f].verdict: twice-differentiable\n" in capsys.readouterr().out


class TestNegativeValues:
    """A negative option value in float syntax needs no '='."""

    @pytest.mark.parametrize("argv", [
        ["select", "--curve", "0,-t^2", "--level", "6", "--domain", "-1e-3:1"],
        ["roots", "--poly", "-6e0,11,-6"],
        ["harness", "--group", "B:2", "--gmap", "u;v", "--probes", "3", "--level", "4",
         "--box", "-1e-1:1,-1:1"],
    ], ids=["domain", "poly", "box"])
    def test_exponent_notation(self, argv, capsys):
        assert run(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == EXIT_OK
        with_equals = capsys.readouterr().out
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == with_equals


class TestHarness:
    def test_rejects_domain(self, capsys):
        # the probe grid always spans [-1, 1]; the flag would be ignored
        with pytest.raises(SystemExit) as exc:
            run(["harness", "--group", "B:2", "--gmap", "u;v", "--domain", "0:1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --domain" in capsys.readouterr().err


class TestExamples:
    def test_catalog_listing(self, capsys):
        assert run(["examples"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in catalog.names():
            assert name in out
        assert "sqrt-cusp" in out and "unbounded-derivative-detected" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["roots", "--poly", "6,11,6"],
            ["select", "--curve", "0,-t^2", "--domain", "-1:1", "--level", "8"],
            ["lift", "--group", "A:1", "--curve", "0,-t^2", "--domain", "-1:1", "--level", "8"],
            ["kdata", "--group", "B:2"],
            ["examples"],
            # roots {t, -t, 2}: batched certified roots away from the crossing
            ["select", "--curve", "2,-t^2,-2*t^2", "--domain", "-1:1", "--level", "8"],
        ],
    )
    def test_byte_identical_reruns(self, argv, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run(argv + ["--report", str(a)])
        run(argv + ["--report", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestCatalogModule:
    def test_all_entries_certify_as_expected(self):
        for entry in catalog.CATALOG:
            _, _, weakest = catalog.certify_entry(entry, level=10)
            assert catalog.verdict_matches(entry, weakest.verdict), (
                entry.name, weakest.verdict,
            )

    def test_flip_partners_are_symmetric(self):
        for entry in catalog.CATALOG:
            if entry.flip_partner:
                assert catalog.get(entry.flip_partner).flip_partner == entry.name


class TestMalformedInput:
    """Bad values from the command line end in `error: ...` and exit 2."""

    @staticmethod
    def fails_cleanly(argv, capsys):
        try:
            code = run(argv)
        except SystemExit as exc:  # rejected by the argument parser
            code = exc.code
        assert code == EXIT_DOMAIN
        assert "error: " in capsys.readouterr().err

    def test_poly_not_a_number(self, capsys):
        self.fails_cleanly(["roots", "--poly", "abc"], capsys)

    def test_poly_nan(self, capsys):
        self.fails_cleanly(["roots", "--poly", "nan"], capsys)

    def test_select_without_curve(self, capsys):
        self.fails_cleanly(["select", "--class", "smooth"], capsys)

    def test_unknown_class_label(self, capsys):
        self.fails_cleanly(["select", "--curve", "0,-t^2", "--class", "smooth"], capsys)

    def test_box_without_second_interval(self, capsys):
        self.fails_cleanly(["harness", "--group", "B:2", "--gmap", "u;v", "--box", "1"], capsys)

    def test_csv_with_one_row(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("t,a1\n0,1\n")
        self.fails_cleanly(["select", "--csv", str(path)], capsys)

    def test_csv_with_ragged_rows(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("t,a1\n0,1\n1,2,3\n")
        self.fails_cleanly(["select", "--csv", str(path)], capsys)

    def test_certify_csv_with_ragged_rows(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("t,a1\n0,1\n1,2,3\n")
        self.fails_cleanly(["certify", "--csv", str(path)], capsys)

    def test_missing_csv(self, tmp_path, capsys):
        self.fails_cleanly(["select", "--csv", str(tmp_path / "none.csv")], capsys)

    def test_negative_level(self, capsys):
        self.fails_cleanly(["select", "--curve", "0,-t^2", "--level", "-1"], capsys)

    def test_zero_probes(self, capsys):
        self.fails_cleanly(["harness", "--group", "B:2", "--gmap", "u;v", "--probes", "0"], capsys)

    def test_too_few_certifier_levels(self, capsys):
        self.fails_cleanly(["certify", "--curve", "t", "--levels", "2"], capsys)

    def test_zero_tol(self, capsys):
        self.fails_cleanly(["roots", "--poly", "1", "--tol", "0"], capsys)

    # each subcommand with its required arguments, and options it does not take
    REQUIRED = {
        "roots": ["--poly", "6,11,6"],
        "select": ["--curve", "0,-t^2"],
        "lift": ["--group", "A:1", "--curve", "0,-t^2"],
        "certify": ["--curve", "t"],
        "kdata": ["--group", "A:2"],
        "harness": ["--group", "B:2", "--gmap", "u;v"],
        "examples": [],
    }
    NOT_TAKEN = {
        "roots": ["--seed", "--levels", "--strict"],
        "select": ["--seed"],
        "lift": ["--seed", "--levels", "--class"],
        "certify": ["--seed", "--tol", "--out", "--class"],
        "kdata": ["--seed", "--tol", "--levels", "--strict", "--out"],
        "harness": ["--seed", "--levels", "--out"],
        "examples": ["--seed", "--tol", "--levels", "--strict", "--out"],
    }
    VALUES = {"--seed": ["7"], "--levels": ["6"], "--strict": [], "--tol": ["1e-9"],
              "--out": ["x.csv"], "--class": ["Cinf"]}

    @pytest.mark.parametrize(
        "command,option",
        [pytest.param(c, o, id=f"{c}:{o[2:]}") for c, opts in NOT_TAKEN.items() for o in opts],
    )
    def test_option_the_subcommand_does_not_read(self, command, option, capsys):
        given = [option] + self.VALUES[option]
        with pytest.raises(SystemExit) as exc:
            run([command] + self.REQUIRED[command] + given)
        assert exc.value.code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {' '.join(given)}" in err
        assert "Traceback" not in err


# roots c*t for c in -4..-1, 1..5, all crossing at t = 0 (as in test_rootflow's TestLargeCrossing)
NINE_LINES = "5*t,-30*t^2,-150*t^3,273*t^4,1365*t^5,-820*t^6,-4100*t^7,576*t^8,2880*t^9"


def fresh_interpreter(code: str) -> str:
    """The last line a fresh interpreter prints running code, with this
    checkout's orbitlift on its path."""
    src = str(Path(orbitlift.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.splitlines()[-1]


class TestStartup:
    @staticmethod
    def modules_after(argv) -> set[str]:
        """Modules loaded by a fresh interpreter that ran main(argv)."""
        code = (
            "import json, sys\n"
            "from orbitlift.cli import main\n"
            "try:\n"
            f"    code = main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "assert code == 0, code\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        return set(json.loads(fresh_interpreter(code)))

    @classmethod
    def scipy_modules_after(cls, argv):
        return sorted(m for m in cls.modules_after(argv) if m.split(".")[0] == "scipy")

    def test_cli_does_not_import_scipy(self):
        # scipy only serves CSV curves
        assert self.scipy_modules_after(["examples"]) == []

    def test_nine_line_selection_does_not_import_scipy(self, tmp_path):
        # pairing nine branches at one crossing needs no assignment solver
        report = tmp_path / "select.txt"
        argv = ["select", "--curve", NINE_LINES, "--level", "6", "--report", str(report)]
        assert self.scipy_modules_after(argv) == []
        assert "swap[0].perm: 8,7,6,5,4,3,2,1,0" in report.read_text()

    @staticmethod
    def readme_commands(tmp_path) -> dict:
        """The README's commands, each writing its report under tmp_path;
        certify reads a CSV of the branches of x^2 - t^2 written here."""
        t = np.linspace(-1.0, 1.0, 1025)
        rows = "".join(f"{x:.17g},{-abs(x):.17g},{abs(x):.17g}\n" for x in t)
        (tmp_path / "branches.csv").write_text("t,branch0,branch1\n" + rows)
        commands = {
            "--help": ["--help"],
            "examples": ["examples"],
            "roots": ["roots", "--poly", "6,11,6"],
            "select": ["select", "--curve", "0,-t^2", "--domain", "-1:1", "--level", "6"],
            "lift": ["lift", "--group", "I2:4", "--curve", "1,cos(4*t)", "--domain", "-1:1", "--level", "6"],
            "certify": ["certify", "--csv", str(tmp_path / "branches.csv")],
            "kdata": ["kdata", "--group", "A:2"],
            "harness": ["harness", "--group", "B:2", "--gmap", "1+0.2*sin(u);2+0.3*cos(v)",
                        "--box", "-1:1,-1:1", "--probes", "3", "--level", "5"],
        }
        return {name: argv if name == "--help" else argv + ["--report", str(tmp_path / f"{name}.txt")]
                for name, argv in commands.items()}

    # modules each README command must not load
    NOT_LOADED = {
        "--help": {"numpy", "orbitlift.catalog", "orbitlift.curvedsl"},
        "examples": {"numpy", "orbitlift.curvedsl", "orbitlift.regcheck", "orbitlift.rootflow"},
        "roots": {f"orbitlift.{m}" for m in ("invariants", "lifting", "rootflow", "windows", "regcheck", "catalog")},
        "select": {"orbitlift.invariants", "orbitlift.lifting", "orbitlift.catalog"},
        "lift": {"orbitlift.rootflow", "orbitlift.catalog"},
        "certify": {"orbitlift.invariants", "orbitlift.lifting", "orbitlift.rootflow", "orbitlift.hyperpoly"},
        "kdata": {"orbitlift.rootflow", "orbitlift.lifting", "orbitlift.regcheck", "orbitlift.catalog"},
        "harness": {"orbitlift.rootflow", "orbitlift.catalog"},
    }

    @pytest.mark.parametrize("name", sorted(NOT_LOADED))
    def test_each_command_imports_only_what_it_runs(self, name, tmp_path):
        loaded = self.modules_after(self.readme_commands(tmp_path)[name])
        assert "orbitlift.cli" in loaded
        assert loaded & self.NOT_LOADED[name] == set()
        if name not in ("--help", "examples"):
            assert "numpy" in loaded


class TestPackageSurface:
    SUBMODULES = ["catalog", "curvedsl", "errors", "hyperpoly", "invariants", "lifting", "regcheck", "rootflow"]

    def test_all_and_version(self):
        assert orbitlift.__all__ == self.SUBMODULES + ["__version__"]
        assert orbitlift.__version__ == "0.1.0"

    def test_import_loads_no_submodule(self):
        code = (
            "import sys\n"
            "import orbitlift\n"
            "print(sorted(m for m in sys.modules if m.startswith('orbitlift.') or m == 'numpy'))\n"
        )
        assert fresh_interpreter(code) == "[]"

    def test_each_name_resolves_to_its_submodule(self):
        code = (
            "import sys\n"
            "import orbitlift\n"
            "for name in orbitlift.__all__[:-1]:\n"
            "    assert getattr(orbitlift, name) is sys.modules['orbitlift.' + name], name\n"
            "print('ok')\n"
        )
        assert fresh_interpreter(code) == "ok"

    def test_star_import_binds_every_name(self):
        code = (
            "import types\n"
            "from orbitlift import *\n"
            "import orbitlift\n"
            "names = orbitlift.__all__\n"
            "assert all(isinstance(globals()[n], types.ModuleType) for n in names[:-1])\n"
            "assert __version__ == orbitlift.__version__\n"
            "print(len(names))\n"
        )
        assert fresh_interpreter(code) == str(len(self.SUBMODULES) + 1)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'nosuchmodule'"):
            orbitlift.nosuchmodule
        assert not hasattr(orbitlift, "windows_")
