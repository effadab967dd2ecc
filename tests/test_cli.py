"""Command-line interface: formats, determinism, exit codes, schemas."""

import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from nesthilb import cli, engine, fock, toric, verify
from nesthilb.toric import builtin_surface, chern_numbers

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "schemas"
GOLDEN = ROOT / "tests" / "golden"
CONFIG = str(ROOT / "configs" / "hirzebruch1.yaml")


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_integrate_both_routes_agree():
    code, text = run_cli(
        ["integrate", "--surface", "p2", "--bundle", "O",
         "--n1", "1", "--n2", "0", "--route", "both"]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["agreement"] is True
    assert {r["route"] for r in payload["records"]} == {"nested", "product"}
    assert all(r["value"] == {"num": "9", "den": "1"} for r in payload["records"])


def test_product_route_at_depth():
    """At (6, 3) on p1xp1 the product route, over all 22 960 product fixed
    points, gives the nested route's value."""
    code, text = run_cli(
        ["integrate", "--surface", "p1xp1", "--bundle", "O(1,1)",
         "--n1", "6", "--n2", "3", "--route", "both"]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["agreement"] is True
    assert [r["route"] for r in payload["records"]] == ["nested", "product"]
    assert all(r["value"] == {"num": "142660", "den": "1"} for r in payload["records"])


@pytest.mark.parametrize("golden, argv", [
    ("integrate-p2-O1-3-1-both.json",
     ["integrate", "--surface", "p2", "--bundle", "O(1)", "--n1", "3", "--n2", "1",
      "--route", "both"]),
    ("integrate-p1xp1-O11-5-2-both.json",
     ["integrate", "--surface", "p1xp1", "--bundle", "O(1,1)", "--n1", "5", "--n2", "2",
      "--route", "both"]),
    ("integrate-hirzebruch1-fiber-4-2.csv",
     ["integrate", "--surface", CONFIG, "--bundle", "fiber", "--n1", "4", "--n2", "2",
      "--format", "csv"]),
    ("series-hirzebruch1-fiber-6-closed-form.json",
     ["series", "--surface", CONFIG, "--bundle", "fiber", "--cap", "6",
      "--compare", "closed-form"]),
    ("series-p2-O1-4-product.json",
     ["series", "--surface", "p2", "--bundle", "O(1)", "--route", "product", "--cap", "4"]),
], ids=lambda value: value if isinstance(value, str) else None)
def test_output_matches_golden(golden, argv):
    """At --seed 3 the specializations, values and layout are pinned across
    versions, byte for byte."""
    code, text = run_cli(argv + ["--seed", "3"])
    assert code == 0
    assert text == (GOLDEN / golden).read_text()


def test_integrate_record_serialization():
    code, text = run_cli(["integrate", "--surface", "p2", "--n1", "1", "--n2", "0"])
    assert code == 0
    (record,) = json.loads(text)["records"]
    assert record["value"] == {"num": "9", "den": "1"}
    assert record["route"] == "nested"
    assert len(record["specializations"]) == 2


def test_integrate_trivial_case():
    code, text = run_cli(
        ["integrate", "--surface", "p2", "--n1", "0", "--n2", "0"]
    )
    assert code == 0
    assert json.loads(text)["records"][0]["value"] == {"num": "1", "den": "1"}


def test_integrate_output_validates_against_schema():
    _, text = run_cli(
        ["integrate", "--surface", "p1xp1", "--bundle", "K",
         "--n1", "1", "--n2", "1", "--route", "both"]
    )
    schema = json.loads((SCHEMAS / "integrate_output.schema.json").read_text())
    jsonschema.validate(json.loads(text), schema)


def test_series_output_validates_against_schema():
    _, text = run_cli(
        ["series", "--surface", "p2", "--cap", "2", "--compare", "closed-form"]
    )
    schema = json.loads((SCHEMAS / "series_output.schema.json").read_text())
    jsonschema.validate(json.loads(text), schema)


def test_series_cap_zero():
    code, text = run_cli(["series", "--surface", "p2", "--cap", "0"])
    assert code == 0
    rows = json.loads(text)["rows"]
    assert rows == [{"n1": 0, "n2": 0, "value": {"num": "1", "den": "1"}}]


def test_series_compare_all_match():
    code, text = run_cli(
        ["series", "--surface", "p2", "--bundle", "O", "--cap", "2",
         "--compare", "closed-form"]
    )
    assert code == 0
    assert all(row["match"] for row in json.loads(text)["rows"])


def test_csv_and_json_carry_identical_numbers():
    _, json_text = run_cli(["series", "--surface", "p2", "--cap", "2"])
    _, csv_text = run_cli(["series", "--surface", "p2", "--cap", "2",
                           "--format", "csv"])
    rows = json.loads(json_text)["rows"]
    lines = csv_text.strip().splitlines()[1:]
    assert len(lines) == len(rows)
    for row, line in zip(rows, lines):
        n1, n2, num, den = line.split(",")
        assert (int(n1), int(n2)) == (row["n1"], row["n2"])
        assert {"num": num, "den": den} == row["value"]


def test_fixed_seed_is_byte_identical():
    argv = ["integrate", "--surface", "p2", "--bundle", "O(1)",
            "--n1", "2", "--n2", "1", "--seed", "5"]
    assert run_cli(argv) == run_cli(argv)


def test_different_seeds_same_value():
    values = set()
    for seed in ("1", "2"):
        _, text = run_cli(
            ["integrate", "--surface", "p2", "--bundle", "O(1)",
             "--n1", "2", "--n2", "1", "--seed", seed]
        )
        record = json.loads(text)["records"][0]
        values.add((record["value"]["num"], record["value"]["den"]))
    assert len(values) == 1


def test_seed_env_var_is_ignored(monkeypatch):
    """The seed comes from --seed alone, so $NESTHILB_SEED changes no output."""
    argv = ["integrate", "--surface", "p2", "--n1", "1", "--n2", "0"]
    monkeypatch.delenv("NESTHILB_SEED", raising=False)
    unset = run_cli(argv)
    monkeypatch.setenv("NESTHILB_SEED", "9")
    assert run_cli(argv) == unset == run_cli(argv + ["--seed", "0"])


def test_config_file_surface(tmp_path):
    path = tmp_path / "surface.yaml"
    path.write_text(
        "name: quadric\nrays: [[1,0],[0,1],[-1,0],[0,-1]]\n"
        "bundles:\n  ruling: [1, 0, 0, 0]\n"
    )
    code, text = run_cli(
        ["integrate", "--surface", str(path), "--bundle", "ruling",
         "--n1", "1", "--n2", "0"]
    )
    assert code == 0
    assert json.loads(text)["records"][0]["surface"] == "quadric"


PLANE_RAYS = "rays: [[1,0],[0,1],[-1,-1]]\n"


@pytest.mark.parametrize("config", [
    "name: twice\nrays: [[1,0],[0,1],[-1,-1],[1,0],[0,1],[-1,-1]]\n",
    "rays: [[1,0], [0,1\n",  # YAML syntax error
    "rays: 5\n",
    PLANE_RAYS + "bundles: [1, 2]\n",
    "rays: [[1,0,5],[0,1],[-1,-1]]\n",  # a ray that is not a pair
    "rays: [[1.7,0],[0,1],[-1,-1]]\n",
    PLANE_RAYS + "bundles:\n  h: [1.9, 0, 0]\n",
    PLANE_RAYS + "bundles:\n  h: [true, 0, 0]\n",
    PLANE_RAYS + "bundles:\n  h: [1, 0, 0]\n  h: [0, 1, 0]\n",
    "name: [1, 2]\n" + PLANE_RAYS,
    PLANE_RAYS + "bundles:\n  1: [1, 0, 0]\n",
    PLANE_RAYS + "extra: 1\n",
    PLANE_RAYS + "bundles: []\n",
    PLANE_RAYS + "bundles: 0\n",
    PLANE_RAYS + "bundles: false\n",
    PLANE_RAYS + "bundles:\n",
    PLANE_RAYS + "bundles:\n  K: [0, 0, 0]\n",
    PLANE_RAYS + "bundles:\n  O(1): [0, 0, 0]\n",
    PLANE_RAYS + "bundles:\n  1,0,0: [0, 0, 0]\n",
    "rays: [[1,0],[0,1],[-1,-01]]\n",
    PLANE_RAYS + "bundles:\n  h: [1_0, 0, 0]\n",
    PLANE_RAYS + "bundles:\n  h: [1:30, 0, 0]\n",
    PLANE_RAYS + "bundles:\n  h: [0x1, 0, 0]\n",
    PLANE_RAYS + "bundles:\n  h: [+1, 0, 0]\n",
    PLANE_RAYS + "bundles:\n  h: [-0, 0, 0]\n",
    '{"rays": [[1,0],[0,1],[-1,-1]], "bundles": {"h": [1,0,0], "h": [0,1,0]}}',
    '{"rays": [[1,0],[0,1],[-1,-1]], "bundles": {"h": [-0,0,0]}}',
    '{"rays": [[1,0],[0,1],[-1,-1]], "bundles": {"h": [1.0,0,0]}}',
    '{"rays": [[1,0],[0,1],[-1,-1]], "bundles": {"h": [true,0,0]}}',
    '{"rays": [[1,0],[0,1],[-1,-1]], "bundles": {"h": [NaN,0,0]}}',
], ids=["wound-twice", "yaml-syntax", "rays-scalar", "bundles-list", "ray-triple",
        "ray-float", "bundle-float", "bundle-bool", "duplicate-label", "name-list",
        "label-int", "unknown-key", "bundles-empty-list", "bundles-zero", "bundles-false",
        "bundles-null", "label-K", "label-O(1)", "label-coefficients", "ray-octal",
        "bundle-underscore", "bundle-sexagesimal", "bundle-hex", "bundle-plus",
        "bundle-minus-zero", "json-duplicate-label", "json-minus-zero", "json-float",
        "json-bool", "json-nan"])
def test_twice_wound_config_is_usage_error(tmp_path, capsys, config):
    path = tmp_path / "surface.yaml"
    path.write_text(config)
    code, text = run_cli(
        ["series", "--surface", str(path), "--cap", "2", "--compare", "closed-form"]
    )
    assert (code, text) == (cli.EXIT_USAGE, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_builtin_surface_names_win_over_the_working_directory(tmp_path, monkeypatch):
    """A directory p2 and a config file p1xp1 with other rays in the working
    directory hide neither builtin; the config is still read as ./p1xp1."""
    (tmp_path / "p2").mkdir()
    (tmp_path / "p1xp1").write_text("name: p1xp1\nrays: [[1,0],[0,1],[-1,1],[0,-1]]\n")
    monkeypatch.chdir(tmp_path)

    def value(surface, bundle):
        code, text = run_cli(["integrate", "--surface", surface, "--bundle", bundle,
                              "--n1", "1", "--n2", "0"])
        assert code == 0
        return json.loads(text)["records"][0]["value"]["num"]

    assert value("p2", "O") == "9"
    assert value("p1xp1", "1,1,0,0") == "12"
    assert value("./p1xp1", "1,1,0,0") == "11"


def test_config_label_that_shadows_a_builtin_bundle_is_named(tmp_path, capsys):
    """A config label K would shadow the canonical bundle, so the config is
    rejected even when --bundle asks for another label."""
    path = tmp_path / "surface.yaml"
    path.write_text(PLANE_RAYS + "bundles:\n  h: [1, 0, 0]\n  K: [0, 0, 0]\n")
    code, text = run_cli(
        ["integrate", "--surface", str(path), "--bundle", "h", "--n1", "1", "--n2", "0"]
    )
    assert (code, text) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: config bundle label 'K' would shadow a built-in bundle\n"


def test_undecodable_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "surface.yaml"
    path.write_bytes(b"rays: \x80\x81\n")
    code, text = run_cli(["integrate", "--surface", str(path), "--n1", "1", "--n2", "0"])
    assert (code, text) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == (
        f"error: config {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0x80 "
        "in position 6: invalid start byte\n"
    )


def test_empty_nesting_range_is_usage_error():
    code, _ = run_cli(["integrate", "--surface", "p2", "--n1", "1", "--n2", "2"])
    assert code == 2


def test_unknown_surface_is_usage_error():
    code, _ = run_cli(["integrate", "--surface", "wat", "--n1", "0", "--n2", "0"])
    assert code == 2


@pytest.mark.parametrize("name", [
    "hirzebruch(x)", "hirzebruch()", "hirzebruch(1.5)",
    # int() reads these, but none is the canonical spelling str(a)
    "hirzebruch(01)", "hirzebruch(+1)", "hirzebruch(1_0)", "hirzebruch( 1 )",
    "hirzebruch(\u0661)",
])
def test_malformed_hirzebruch_is_unknown_surface(capsys, name):
    code, text = run_cli(["integrate", "--surface", name, "--n1", "0", "--n2", "0"])
    assert (code, text) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err.startswith(f"error: unknown surface {name!r}")


@pytest.mark.parametrize("name", ["hirzebruch(0)", "hirzebruch(-7)"])
def test_canonical_hirzebruch_name_is_the_surface_name(name):
    code, text = run_cli(["integrate", "--surface", name, "--n1", "1", "--n2", "0"])
    assert code == 0 and json.loads(text)["records"][0]["surface"] == name


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(engine, "invariant_record", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run_cli(["integrate", "--surface", "p2", "--n1", "1", "--n2", "0"])


@pytest.mark.parametrize("argv", [
    ["series", "--surface", "p2", "--cap", "1", "--jobs", "1"],
    ["verify", "oracle", "--jobs", "1"],
], ids=["series", "verify"])
def test_jobs_is_an_integrate_option_only(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv, out=io.StringIO())
    assert err.value.code == cli.EXIT_USAGE


def test_nonpositive_jobs_is_usage_error(capsys):
    code, text = run_cli(["integrate", "--surface", "p2", "--n1", "1", "--n2", "0",
                          "--jobs", "0"])
    assert (code, text) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: --jobs must be positive\n"


INTEGRATE = ["integrate", "--surface", "p2", "--n1", "1", "--n2", "0"]
SERIES = ["series", "--surface", "p2", "--cap", "1"]


@pytest.mark.parametrize("argv, option, text", [
    # int() reads each of these, but none is the canonical spelling str(a)
    (INTEGRATE + ["--seed", "1_0"], "--seed", "1_0"),
    (["series", "--surface", "p2", "--cap", " +01"], "--cap", " +01"),
    (["integrate", "--surface", "p2", "--n1", "01", "--n2", "0"], "--n1", "01"),
    (["integrate", "--surface", "p2", "--n1", "1", "--n2", "-0"], "--n2", "-0"),
    (INTEGRATE + ["--jobs", "\u0662"], "--jobs", "\u0662"),
    (["verify", "oracle", "--cap", "1 "], "--cap", "1 "),
    (SERIES + ["--seed", "x"], "--seed", "x"),
], ids=["seed", "cap", "n1", "n2", "jobs", "verify-cap", "not-an-int"])
def test_noncanonical_integer_options_are_usage_errors(capsys, argv, option, text):
    """The CLI's integer options follow the canonical-integer rule of config
    integers and bundle coefficients."""
    with pytest.raises(SystemExit) as err:
        cli.main(argv, out=io.StringIO())
    assert err.value.code == cli.EXIT_USAGE
    message = f"argument {option}: invalid int value: {text!r} (not an integer spelled canonically)"
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (SERIES[:-1] + ["-1"], "--cap must be nonnegative"),
    (["verify", "oracle", "--cap", "-2"], "--cap must be nonnegative"),
    (["integrate", "--surface", "p2", "--n1", "-1", "--n2", "0"], "n1 and n2 must be nonnegative"),
    (INTEGRATE + ["--jobs", "-3"], "--jobs must be positive"),
], ids=["cap", "verify-cap", "n1", "jobs"])
def test_negative_integer_options_keep_their_messages(capsys, argv, message):
    code, text = run_cli(argv)
    assert (code, text) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_canonical_integer_options_are_read():
    """A canonical negative seed is a seed like any other."""
    code, text = run_cli(INTEGRATE + ["--seed", "-12", "--jobs", "2"])
    assert code == 0 and json.loads(text)["records"][0]["value"] == {"num": "9", "den": "1"}


def test_bad_bundle_is_usage_error():
    code, _ = run_cli(
        ["integrate", "--surface", "p2", "--bundle", "nope", "--n1", "0", "--n2", "0"]
    )
    assert code == 2


@pytest.mark.parametrize("label", [
    # int() reads each coefficient, but none is the canonical spelling str(a)
    "O(1_0)", "O(\u0661)", "O(+1)", "O(01)", "O(1, 0)", "O(-0)", "1_0,0,0",
])
def test_noncanonical_bundle_coefficients_are_usage_errors(capsys, label):
    code, text = run_cli(
        ["integrate", "--surface", "p2", "--bundle", label, "--n1", "1", "--n2", "0"]
    )
    assert (code, text) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: cannot parse bundle {label!r}\n"


@pytest.mark.parametrize("label, value", [("O(1)", "12"), ("O(-1,0)", "6"), ("1,0,0", "12")])
def test_canonical_bundle_coefficients_are_read(label, value):
    code, text = run_cli(
        ["integrate", "--surface", "p2", "--bundle", label, "--n1", "1", "--n2", "0"]
    )
    (record,) = json.loads(text)["records"]
    assert (code, record["bundle"], record["value"]["num"]) == (0, label, value)


def test_localization_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(engine, "draw_specialization", lambda rng: (Fraction(1), Fraction(-1)))
    code, text = run_cli(["integrate", "--surface", "p2", "--n1", "1", "--n2", "0"])
    assert (code, text) == (cli.EXIT_INCONSISTENT, "")
    assert capsys.readouterr().err.startswith("localization failure: no fresh nondegenerate")


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "nonsense"], out=io.StringIO())
    assert err.value.code == 2


def test_fock_cap_zero_is_usage_error(capsys):
    code, text = run_cli(["verify", "fock", "--cap", "0"])
    assert (code, text) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_universality_cap_zero_passes():
    code, text = run_cli(["verify", "universality", "--cap", "0"])
    assert code == 0
    assert "universality: pass" in text


@pytest.mark.parametrize("cap", [1, 2])
def test_fock_heisenberg_label_names_the_checked_grading(cap):
    code, text = run_cli(["verify", "fock", "--cap", str(cap)])
    assert code == 0
    assert text.splitlines()[0] == f"PASS Heisenberg commutation relations up to grading {cap + 1}"


def test_fock_passes_at_cap_five():
    code, text = run_cli(["verify", "fock", "--cap", "5"])
    lines = text.splitlines()
    assert code == 0
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "fock: pass"


def test_verify_suite_passes():
    code, text = run_cli(["verify", "oracle", "--cap", "2"])
    assert code == 0
    assert "oracle: pass" in text
    assert "FAIL" not in text


def test_verify_failure_exits_one(monkeypatch):
    def broken(cap=None, seed=0):
        return [verify.Check("synthetic failure", False, "details here")]

    monkeypatch.setitem(verify._SUITE_FUNCS, "gottsche", broken)
    code, text = run_cli(["verify", "gottsche"])
    assert code == 1
    assert "FAIL synthetic failure: details here" in text


def test_failure_details_name_at_most_three_cells_with_both_values(monkeypatch):
    """With one kernel broken per suite, every failed check names at most
    three counterexamples, each as "cell: a != b" or "cell: x=a y=b"."""
    tangent, predicted, product = (
        verify.virtual_tangent_character, engine.predicted_series, fock.trace_product_series)
    monkeypatch.setattr(verify, "virtual_tangent_character",
                        lambda pair: tangent(pair) + tangent(pair))
    monkeypatch.setattr(engine, "predicted_series", lambda fit, cn: predicted(fit, cn) * 2)
    monkeypatch.setattr(fock, "trace_product_series", lambda *args: product(*args) * 2)
    counterexample = re.compile(r"[^:]+: (.+ != .+|\w+=.+ \w+=.+)")
    for suite in ("oracle", "universality", "fock"):
        failed = [c for c in verify.run_suite(suite) if not c.passed]
        assert failed, suite
        for check in failed:
            shown = check.detail.split("; ")
            assert len(shown) <= 3, (check.label, shown)
            assert all(counterexample.fullmatch(s) for s in shown), (check.label, shown)
        assert any(len(c.detail.split("; ")) == 3 for c in failed), suite


def test_console_script_entry_point():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "nesthilb.cli", "integrate", "--surface", "p2",
         "--n1", "1", "--n2", "0"],
        capture_output=True, text=True, env=env,
        cwd=str(Path(__file__).resolve().parent.parent),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["records"][0]["value"]["num"] == "9"


def test_cold_start_imports_no_dataclasses_inspect_or_csv():
    """The package's record types are namedtuples and the CSV writer loads
    only for --format csv, so a fresh interpreter pays for none of these."""
    code = ("import sys; before = set(sys.modules); from nesthilb import cli, engine, verify; "
            "print(sorted({'dataclasses', 'inspect', 'csv'} & (set(sys.modules) - before)))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_record_types_are_immutable_values():
    surface = builtin_surface("p2")
    chart = surface.charts[2]
    numbers = chern_numbers(surface, surface.line_bundle([1, 0, 0]))
    record = engine.InvariantRecord(2, 1, "nested", Fraction(-3, 2), [(1, 2)])
    check = verify.Check("a check", True)
    for value, field in ((chart, "u"), (numbers, "c2"), (record, "value"), (check, "passed")):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    assert repr(chart) == "Chart(index=2, rays=((-1, -1), (1, 0)), u=(0, -1), v=(1, -1))"
    assert repr(numbers) == "ChernNumbers(M_squared=1, M_dot_K=-3, K_squared=9, c2=3)"
    assert repr(check) == "Check(label='a check', passed=True, detail='')"
    assert record == engine.InvariantRecord(2, 1, "nested", Fraction(-3, 2), [(1, 2)])
    assert record != engine.InvariantRecord(2, 1, "nested", Fraction(3, 2), [(1, 2)])


def test_jobs_is_ignored_and_loads_no_pool():
    """The product sum runs serially: at (7, 3), 49 600 product fixed points,
    --jobs 2 prints the bytes of --jobs 1 and loads no pool module."""
    code = ("import sys, nesthilb.cli; "
            "nesthilb.cli.main(['integrate', '--surface', 'p1xp1', '--bundle', 'O(1,1)', "
            "'--n1', '7', '--n2', '3', '--route', 'product', '--jobs', sys.argv[1]]); "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules], file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [subprocess.run([sys.executable, "-c", code, jobs], capture_output=True, env=env)
            for jobs in ("1", "2")]
    assert [proc.returncode for proc in runs] == [0, 0], runs[1].stderr
    assert [proc.stderr.strip() for proc in runs] == [b"[]", b"[]"]
    assert runs[1].stdout == runs[0].stdout
    assert json.loads(runs[0].stdout)["records"][0]["value"] == {"num": "419694", "den": "1"}


def test_cli_import_loads_no_process_pool():
    """Importing the CLI loads no process-pool module."""
    code = ("import sys, nesthilb.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["series", "--surface", CONFIG, "--bundle", "fiber", "--cap", "2"],
    ["integrate", "--surface", CONFIG, "--bundle", "section", "--n1", "1", "--n2", "0"],
    ["integrate", "--surface", "hirzebruch1.json", "--bundle", "section", "--n1", "1",
     "--n2", "0"],
])
def test_shipped_config_loads_without_pyyaml(tmp_path, argv):
    """The shipped config is in the plain form, and its data in a JSON file is
    read by json, so a run on either never imports yaml."""
    data = toric._read_plain(Path(CONFIG).read_text())
    (tmp_path / "hirzebruch1.json").write_text(json.dumps(data))
    code = ("import sys, nesthilb.cli; code = nesthilb.cli.main(sys.argv[1:]); "
            "print('yaml' in sys.modules, file=sys.stderr); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "False\n")


def test_verify_has_no_format_option():
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "oracle", "--cap", "1", "--format", "csv"], out=io.StringIO())
    assert err.value.code == cli.EXIT_USAGE
