import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cocyclelab
from cocyclelab import cli
from cocyclelab.cli import main
from cocyclelab.errors import ConfigParse, UnknownSuite
from cocyclelab.suites import list_suites, parse_config, run_suite


def test_suite_listing():
    suites = list_suites()
    names = [name for name, _ in suites]
    assert len(names) == 9
    assert "cs-pairing" in names
    assert all(desc for _, desc in suites)


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite")


def test_parse_config():
    cfg = parse_config("seed = 7\norder=10  # comment\nname=foo\n\n# x\n"
                       "rate = 6.5\n")
    # a value that is not an int stays a string
    assert cfg == {"seed": 7, "order": 10, "name": "foo", "rate": "6.5"}
    with pytest.raises(ConfigParse, match="takes an integer, got '6.5'"):
        run_suite("lemma44", {"order": "6.5"})
    with pytest.raises(ConfigParse):
        parse_config("not a key value line")


def test_transfer_report_shape_and_determinism():
    a = run_suite("transfer")
    b = run_suite("transfer")
    assert a.passed and b.passed
    da, db = a.as_dict(), b.as_dict()
    assert set(da) == {"suite", "checks", "pass"}
    for check in da["checks"]:
        assert set(check) == {"id", "expected", "computed", "tol", "pass",
                              "ms"}
    # reports are identical apart from the recorded runtimes

    def strip(d):
        return [{k: v for k, v in c.items() if k != "ms"}
                for c in d["checks"]]

    assert strip(da) == strip(db)
    assert da["pass"] == db["pass"]


def test_overall_pass_is_conjunction():
    report = run_suite("transfer")
    assert report.passed == all(c.passed for c in report.checks)


def test_cs_pairing_report_entries():
    report = run_suite("cs-pairing")
    ids = [c.id for c in report.checks]
    assert ids == [f"pairing-m{m}" for m in (3, 5, 6, 8)]
    for c, m in zip(report.checks, (3, 5, 6, 8)):
        assert c.expected == pytest.approx((4.0 / m) % 1.0)
        assert c.tol == 2e-3
        # a circle value is reported as its representative in [-1/2, 1/2)
        assert -0.5 <= c.computed < 0.5
    # the straight-volume pairing of these flat orbits is 0, not 4/m;
    # the suite reports that honestly
    assert not report.passed


def test_configured_homology_report_entries():
    report = run_suite("configured-homology")
    byid = {c.id: c for c in report.checks}
    assert byid["conf-z5-H0-rank"].computed == 1.0
    assert byid["conf-z5-H0-torsion-count"].computed == 0.0
    assert report.passed


@pytest.mark.parametrize("straight_value, ratio",
                         [(0.0, 0.0), (1e-3, float("inf"))])
def test_prism_ratio_at_a_zero_estimate(monkeypatch, straight_value, ratio):
    # with every error estimate 0, equal sides give ratio 0 and unequal
    # sides give inf, where the division would raise; both fail: equal
    # sides at 0 with estimate 0 are the vacuous identity
    from cocyclelab import suites
    from cocyclelab.quadrature import IntegralResult
    from cocyclelab.simplices import GeodesicSimplex

    def exact(form, maps, quad):
        return [IntegralResult(straight_value if isinstance(
            f, GeodesicSimplex) else 0.0, 0.0) for f in maps]

    monkeypatch.setattr(suites, "pullback_integral", exact)
    (check,) = run_suite("prism", {"prism_simplices": 1}).checks
    assert check.error is None
    assert check.computed == ratio
    assert not check.passed


@pytest.mark.parametrize("est, passed", [(1e-7, True), (1e-6, False)])
def test_prism_fails_where_its_sides_are_not_above_the_estimate(
        monkeypatch, est, passed):
    # the straightening and the first prism cell carry 1e-3, the rest 0,
    # so both sides are 1e-3 and the ratio is 0; the six terms' summed
    # estimate is 6 est, and the check passes only while 1e-3 > 1e3 * 6 est
    from cocyclelab import suites
    from cocyclelab.quadrature import IntegralResult

    def exact(form, maps, quad):
        return [IntegralResult(v, est)
                for v in (1e-3, 0.0, 1e-3, 0.0, 0.0, 0.0)]

    monkeypatch.setattr(suites, "pullback_integral", exact)
    (check,) = run_suite("prism", {"prism_simplices": 1}).checks
    assert check.error is None
    assert check.computed == 0.0
    assert check.passed == passed


def _run_python(*args):
    # the child imports the package this process imported, also when pytest
    # put ``src`` on sys.path instead of PYTHONPATH
    src = str(Path(cocyclelab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def _run_cli(*args):
    return _run_python("-m", "cocyclelab.cli", *args)


def test_import_loads_no_scipy():
    proc = _run_python("-c", "import sys, cocyclelab; "
                             "print(sorted({m.split('.')[0] "
                             "for m in sys.modules}))")
    assert proc.returncode == 0, proc.stderr
    assert "'numpy'" in proc.stdout
    assert "'scipy'" not in proc.stdout


def test_cli_list():
    proc = _run_cli("list")
    assert proc.returncode == 0
    assert "cs-pairing" in proc.stdout
    assert len(proc.stdout.strip().splitlines()) == 9


def test_cli_unknown_suite_exits_nonzero():
    proc = _run_cli("bogus")
    assert proc.returncode == 2
    assert "unknown suite" in proc.stderr


def test_cli_json_report_and_out(tmp_path):
    out = tmp_path / "report.json"
    proc = _run_cli("transfer", "--json", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "transfer"
    assert payload["pass"] is True
    assert payload["checks"]
    printed = json.loads(proc.stdout[proc.stdout.index("{"):])
    assert printed["suite"] == "transfer"


def test_cli_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("adinv_triples = 2\n")
    proc = _run_cli("symplectic", "--config", str(cfg), "--set", "order=6")
    assert proc.returncode == 0


def test_cli_failing_suite_exits_one():
    # the cs-pairing criterion is known-red: the cyclic orbits are
    # geodesically flat, so the computed pairing is 0 rather than 4/m
    proc = _run_cli("cs-pairing")
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_cli_bad_config_exits_two(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense without equals\n")
    proc = _run_cli("transfer", "--config", str(cfg))
    assert proc.returncode == 2


@pytest.mark.parametrize("suite, override", [
    ("transfer", "ordr=3"),         # unknown key
    ("cs-pairing", "seed=abc"),     # string for an int key
    ("lemma44", "order=6.5"),       # a number that is not an int
    ("lemma44", "order=1"),         # below the smallest rule order
    ("prism", "prism_simplices=0"),  # a count below 1
    ("cocycle-defect", "defect_tuples=-3"),
    ("symplectic", "adinv_triples=0"),
    ("contact", "contact_samples=0"),
    ("cs-pairing", "seed=-1"),      # a seed below 0
    ("gf-derivation", "derivation_step=0.05"),  # not a config key
    ("transfer", "file:missing"),   # --config files that cannot be read
    ("transfer", "file:directory"),
    ("transfer", "file:latin-1"),
])
def test_cli_invalid_config_exits_two(tmp_path, suite, override):
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("seed = 7  # caf\u00e9\n".encode("latin-1"))
    files = {"file:missing": tmp_path / "missing.cfg",
             "file:directory": tmp_path, "file:latin-1": latin1}
    proc = _run_cli(suite, *(("--config", str(files[override]))
                             if override in files else ("--set", override)))
    assert proc.returncode == 2
    assert proc.stderr.startswith("configuration error:")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("suite, override, failed, error", [
    ("lemma44", "order=3", "degree-c2", "QuadratureDiverged"),
])
def test_cli_check_that_raises_is_a_failed_check(suite, override, failed,
                                                  error):
    proc = _run_cli(suite, "--set", override, "--json")
    assert proc.returncode == 1
    assert proc.stderr == ""
    payload = json.loads(proc.stdout[proc.stdout.index("{"):])
    checks = {c["id"]: c for c in payload["checks"]}
    # the other checks still ran
    assert len(checks) == 2
    bad = checks.pop(failed)
    assert bad["pass"] is False and bad["computed"] is None
    assert bad["error"].startswith(f"{error}: ")
    for other in checks.values():
        assert "error" not in other and other["pass"] is True


def test_cli_check_that_raises_leaves_later_suites_running(monkeypatch,
                                                          capsys):
    monkeypatch.setattr(cli, "list_suites",
                        lambda: [("lemma44", ""), ("transfer", "")])
    code = main(["all", "--set", "order=3", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert code == 1
    assert [r["suite"] for r in payload["suites"]] == ["lemma44",
                                                       "transfer"]
    assert payload["suites"][1]["pass"] is True


def test_cli_internal_error_exits_three(monkeypatch, capsys):
    def broken(name, config):
        raise RuntimeError("not a package error")

    monkeypatch.setattr(cli, "run_suite", broken)
    assert main(["transfer"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert "RuntimeError: not a package error" in err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_unwritable_out_exits_two_before_any_suite(tmp_path, monkeypatch,
                                                       capsys, where):
    ran = []
    monkeypatch.setattr(cli, "run_suite",
                        lambda name, config: ran.append(name))
    out = {"missing-directory": tmp_path / "nonexistent" / "r.json",
           "directory": tmp_path}[where]
    assert main(["transfer", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert ran == []
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_failed_out_write_exits_two(tmp_path, capsys):
    out = tmp_path / ("r" * 300)  # a file name longer than NAME_MAX
    assert main(["transfer", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("suite transfer: PASS")
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert len(captured.err.strip().splitlines()) == 1
