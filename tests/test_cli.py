"""CLI behavior: exit codes, deterministic JSON reports, golden files, CSV."""

import io
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darbouxlab._modp import PRIME
from darbouxlab.cli import main
from darbouxlab.darboux import DarbouxCert, ExpFactorCert
from darbouxlab.exactcore import parse_poly
from darbouxlab.field import lie_derivative, load_field

from conftest import cyclic_lotka_volterra

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run_cli(args):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(args)
    return code, buf.getvalue(), err.getvalue()


def run_module(args, timeout=None):
    return subprocess.run([sys.executable, "-m", "darbouxlab", *args],
                          capture_output=True, text=True, cwd=REPO,
                          timeout=timeout)


@pytest.fixture(autouse=True)
def repo_cwd(monkeypatch):
    monkeypatch.chdir(REPO)


def test_missing_file_exits_2():
    code, out, err = run_cli(["darboux", "corpus/no_such_field.vf"])
    assert code == 2
    assert "cannot read" in err


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.vf"
    bad.write_text("vars: x\nparam a = 0.5\ndx/dt = a*x\n")
    code, out, err = run_cli(["darboux", str(bad)])
    assert code == 2
    assert "NonRationalLiteral" in err


def test_param_named_like_a_variable_exits_2(tmp_path):
    field = tmp_path / "shadow.vf"
    field.write_text("vars: x y\nparam x = 3\ndx/dt = x*y\ndy/dt = y\n")
    proc = run_module(["darboux", str(field), "--degree", "1"])
    assert proc.returncode == 2
    assert "param 'x' is already a variable (line 2" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_failed_cofactor_balance_exits_1(monkeypatch):
    # a kernel vector off the kernel of the stacked cofactor matrix gives a
    # Darboux function whose cofactors do not cancel: a failed internal
    # check, not a usage error
    from darbouxlab.exactcore import RatMatrix

    nullspace = RatMatrix.nullspace

    def off_kernel(self):
        kernel = nullspace(self)
        if sys._getframe(1).f_code.co_name != "assemble_darboux_integrals":
            return kernel
        col = next(j for j in range(self.cols)
                   if any(row[j] for row in self.entries))
        return kernel + [[int(j == col) for j in range(self.cols)]]

    monkeypatch.setattr(RatMatrix, "nullspace", off_kernel)
    code, out, err = run_cli(["integrals", "corpus/lv3_a0_b0_c0.vf",
                              "--degree", "2", "--s-bound", "0"])
    assert code == 1
    assert err.startswith("internal error: cofactor balance is ")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("fixture, args", [
    ("darboux_restricted_y0_a0.json",
     ["darboux", "corpus/restricted_y0_a0.vf", "--degree", "2"]),
    ("expfactors_a0_b0_c2.json",
     ["expfactors", "corpus/lv3_a0_b0_c2.vf"]),
    ("integrals_a0_b0_c0.json",
     ["integrals", "corpus/lv3_a0_b0_c0.vf", "--degree", "2", "--s-bound", "0"]),
    ("formal_restricted_z0.json",
     ["formal", "corpus/restricted_z0_c2.vf", "--order", "8", "--margin", "2"]),
])
def test_golden_reports(fixture, args):
    code, out, _ = run_cli(args)
    assert code == 0
    assert out == (FIXTURES / fixture).read_text()


def _corpus_commands():
    """Every corpus field under darboux --degree 2, 3 and 4, darboux
    --degree 3 --lattice-bound 1, integrals --degree 3, analyze,
    expfactors and formal, as command lines."""
    for field in sorted((REPO / "corpus").glob("*.vf")):
        path = f"corpus/{field.name}"
        for command in (["darboux", path, "--degree", "2"],
                        ["darboux", path, "--degree", "3"],
                        ["darboux", path, "--degree", "4"],
                        ["darboux", path, "--degree", "3",
                         "--lattice-bound", "1"],
                        ["integrals", path, "--degree", "3"],
                        ["analyze", path], ["expfactors", path],
                        ["formal", path]):
            yield " ".join(command)


def test_corpus_reports_are_unchanged():
    # the exit code and the sha256 of stdout of every corpus command: a
    # refactor that changes any report byte shows here, named
    pinned = json.loads((FIXTURES / "corpus_report_digests.json").read_text())
    assert list(pinned) == list(_corpus_commands())
    mismatches = []
    for command, want in pinned.items():
        code, out, _ = run_cli(command.split())
        got = {"exit": code,
               "sha256": hashlib.sha256(out.encode()).hexdigest()}
        if got != want:
            mismatches.append(command)
    assert not mismatches


def test_json_output_byte_stable():
    args = ["darboux", "corpus/restricted_z0_c2.vf", "--degree", "2"]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second
    json.loads(first)  # well-formed


# sha256 of each report's "results" (sorted-key JSON) at --degree 3 on the
# corpus: a change to the search that alters any certificate, kernel or
# obstruction shows here
RESULT_DIGESTS = {
    ("darboux", "lv3_a0_b0_c0.vf"):
        "e3d161899f6d6af147fd8e1b38da1f5d8dc84a206a7cae60540139aa3d5e9599",
    ("integrals", "lv3_a0_b0_c0.vf"):
        "d2ce2c6f996740e1ad6622fd3d6c6f444fe7045f7662354c08ca135675d3872c",
    ("darboux", "lv3_a0_b0_c2.vf"):
        "12412a194c235e7a26866a3c0ecd4eb40f342ac6f4b018a70ca2b872d34a865f",
    ("integrals", "lv3_a0_b0_c2.vf"):
        "d6e1d1abeea024088a18d1214fc4ab36425e4cc0a1a4001205cd4e62144f1488",
    ("darboux", "lv3_a0_b3_c2.vf"):
        "6aad72581d1f88d9fb9974da75675a52e234d1d4c64c1c97d64e6f01acb0b52f",
    ("integrals", "lv3_a0_b3_c2.vf"):
        "22c3c3bfeb63d9d2e05e9683905f6c502e437660c06ea587072f61fa10053bc3",
    ("darboux", "lv3_a3_b3_c0.vf"):
        "9b86d4488dc7264a41f18ac6e747defcbf3f989eb69d1a4b69e28fa0e633eb83",
    ("integrals", "lv3_a3_b3_c0.vf"):
        "177477adcd22094ed286a4a80a52c91ef5d81be8618586cfd4cd5b5eac6e45d9",
    ("darboux", "lv3_a3_b3_c2.vf"):
        "58b719b06684eeb3df830d909977e1ded4b7ad93ea475867ad16c9307951b1e6",
    ("integrals", "lv3_a3_b3_c2.vf"):
        "a0a9e14a31076381d03b0d87a9b377a46b01f383f1ab8774e34a95f239f1387e",
    ("darboux", "restricted_y0_a0.vf"):
        "d775a669c8533daadb862077795979c6c92d46a774dbae019bcef3bb1c2ef7b3",
    ("integrals", "restricted_y0_a0.vf"):
        "f8bf8fb30068d2da52527ba1275750d364e5bdd51f3171ec7078152046c3d9bd",
    ("darboux", "restricted_z0_c2.vf"):
        "c0636317701299b4644e581768e962d65321fcf9aeeb19d7c86862049efbd486",
    ("integrals", "restricted_z0_c2.vf"):
        "1b2379556ec2c4ecc5039fe58543dbabe2da5c85fc3d7bbf4862dcab26296792",
    ("darboux", "samardzija_greller.vf"):
        "30c65bf2ea6b57c60e8b4d1ead0b5b54d321e34127a2e1a4948d11f4ef0efd84",
    ("integrals", "samardzija_greller.vf"):
        "c38699ddee1073b7ebcadefe569aae09ed9282d017e2fa1949031f814611235a",
}


@pytest.mark.parametrize("command, name", sorted(RESULT_DIGESTS))
def test_corpus_results_unchanged(command, name):
    code, out, _ = run_cli([command, f"corpus/{name}", "--degree", "3"])
    assert code == 0
    results = json.dumps(json.loads(out)["results"], sort_keys=True)
    assert hashlib.sha256(results.encode()).hexdigest() == RESULT_DIGESTS[
        command, name]


def test_darboux_reference_report():
    code, out, _ = run_cli(["darboux", "corpus/restricted_y0_a0.vf",
                            "--degree", "2"])
    report = json.loads(out)
    polys = {c["poly"] for c in report["results"]["certificates"]}
    assert polys == {"x", "z", "x + 1/2"}


def test_expfactors_regimes():
    code, out, _ = run_cli(["expfactors", "corpus/lv3_a0_b0_c2.vf"])
    assert json.loads(out)["results"]["factors"] == []
    code, out, _ = run_cli(["expfactors", "corpus/lv3_a3_b3_c0.vf"])
    gs = [f["g"] for f in json.loads(out)["results"]["factors"]]
    assert "x + z" in gs and "y" in gs
    assert any("x^2" in g for g in gs)


def test_formal_promote():
    code, out, _ = run_cli(["formal", "corpus/lv3_a3_b3_c2.vf",
                            "--order", "4", "--margin", "1", "--promote", "b"])
    assert code == 0
    record = json.loads(out)["results"]["series_space"]
    assert record["basis"] == ["1", "b", "b^2", "b^3", "b^4"]
    assert record["promoted_only"] is True


def test_simulate_emits_csv(tmp_path):
    out_csv = tmp_path / "run.csv"
    code, out, _ = run_cli([
        "simulate", "corpus/lv3_a0_b0_c0.vf", "--x0", "0.5,0.5,1.0",
        "--t-end", "5", "--emit", str(out_csv), "--observe", "z"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["drift"][0]["max_abs_drift"] == 0.0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x,y,z,z"
    assert len(lines) == report["results"]["n_points"] + 1


@pytest.mark.parametrize("target, reason", [
    ("missing/run.csv", "No such file or directory"), (".", "Is a directory")])
def test_unwritable_csv_exits_2(tmp_path, target, reason):
    path = tmp_path / target
    proc = run_module([
        "simulate", "corpus/lv3_a0_b0_c0.vf", "--x0", "0.5,0.5,1",
        "--t-end", "1", "--emit", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write {path}: ")
    assert reason in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_non_utf8_field_exits_2(tmp_path):
    field = tmp_path / "latin1.vf"
    field.write_bytes(b"vars: x\ndx/dt = x\xff\n")
    proc = run_module(["darboux", str(field)])
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: cannot read {field}: 'utf-8' codec can't decode byte 0xff "
        "in position 17: invalid start byte\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_exits_2(fmt):
    # the reader is gone before the report is written: one error line, and
    # no traceback or "Exception ignored" from the flush at exit
    proc = subprocess.Popen(
        [sys.executable, "-m", "darbouxlab", "darboux",
         "corpus/samardzija_greller.vf", "--degree", "2", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: stdout was closed before the report was written\n"


def test_simulate_compiles_each_observable_once(monkeypatch, tmp_path):
    # the stepper and one evaluator per --observe polynomial, shared by the
    # drift and the CSV; report (emit path normalised) and CSV bytes as they
    # were when each polynomial was compiled twice
    import darbouxlab.numerics as numerics

    compiled = []
    original = numerics._compile

    def counted(source):
        compiled.append(source)
        return original(source)

    monkeypatch.setattr(numerics, "_compile", counted)
    out_csv = tmp_path / "t.csv"
    code, out, _ = run_cli([
        "simulate", "corpus/lv3_a0_b0_c0.vf", "--x0", "0.5,0.5,1.0",
        "--t-end", "5", "--emit", str(out_csv), "--observe", "z",
        "--observe", "x*y"])
    assert code == 0
    assert len(compiled) == 3
    assert hashlib.sha256(out.replace(str(out_csv), "t.csv").encode()
                          ).hexdigest() == (
        "bbfd8e9868cc30db2a1a557201824715b9539d22aefe86b2167c2c5e49e5ec0c")
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
        "8777187af32ac52cc58ea8a825aa85c18a7b582bb0f95b9436a04bd6accb1293")


def test_corrupt_certificate_exits_1(monkeypatch):
    import darbouxlab.cli as cli
    from darbouxlab.darboux import DarbouxCert
    from darbouxlab.exactcore import parse_poly

    def forged(X, d, lattice=None):
        wrong = DarbouxCert(parse_poly("x", X.variables),
                            parse_poly("x + 1", X.variables))
        return [wrong]

    monkeypatch.setattr(cli, "search_darboux", forged)
    code, out, err = run_cli(["darboux", "corpus/restricted_z0_c2.vf"])
    assert code == 1
    assert "re-check" in err


def test_text_format():
    code, out, _ = run_cli(["darboux", "corpus/restricted_z0_c2.vf",
                            "--degree", "2", "--format", "text"])
    assert code == 0
    assert out.startswith("darbouxlab")
    assert "certificates" in out


def test_darboux_reference_file_full_run():
    # the flagship run: degree-4 search over the default lattice
    code, out, _ = run_cli(["darboux", "corpus/samardzija_greller.vf",
                            "--degree", "4"])
    assert code == 0
    report = json.loads(out)
    assert [c["poly"] for c in report["results"]["certificates"]] == \
        ["z", "y", "x"]
    assert report["results"]["note"] == "complete relative to the lattice"


def test_integrals_positive_regime():
    code, out, _ = run_cli(["integrals", "corpus/lv3_a3_b3_c2.vf",
                            "--degree", "4"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["darboux_first_integrals"] == []
    assert results["rational_obstruction"]["holds"] is True


def test_lyapunov_command():
    code, out, _ = run_cli(["lyapunov", "corpus/lv3_a0_b0_c0.vf",
                            "--x0", "0.5,0.5,1.0", "--t-end", "50",
                            "--renorm-dt", "0.5"])
    assert code == 0
    value = json.loads(out)["results"]["lyapunov_max"]
    assert abs(value) < 0.2


def test_lyapunov_horizon_is_t_end():
    # the last renormalisation interval ends at --t-end, so horizons that
    # are no multiple of --renorm-dt give their own estimate
    values = []
    for t_end in ("2.6", "3", "3.4"):
        code, out, _ = run_cli(["lyapunov", "corpus/samardzija_greller.vf",
                                "--x0", "0.5,1,2", "--t-end", t_end,
                                "--renorm-dt", "1"])
        assert code == 0
        values.append(json.loads(out)["results"]["lyapunov_max"])
    assert len(set(values)) == 3
    assert values[1] == -0.24160659571073917


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "darbouxlab", "--version"],
        capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0
    assert "darbouxlab" in proc.stdout


# Runs cli.main in a fresh interpreter; prints its exit code, whether
# importing the CLI loaded the mod-p layer, numpy, dataclasses and inspect,
# and whether the last three were loaded once the command had run.
_MODULES_AFTER_MAIN = """
import contextlib, io, sys
import darbouxlab.cli
heavy = ("numpy", "dataclasses", "inspect")
imported = [name in sys.modules for name in ("darbouxlab._modp", *heavy)]
with contextlib.redirect_stdout(io.StringIO()):
    code = darbouxlab.cli.main(sys.argv[1:])
print(code, *imported, *(name in sys.modules for name in heavy))
"""


@pytest.mark.parametrize("args, numpy_loaded", [
    (["simulate", "corpus/lv3_a0_b0_c0.vf", "--x0", "0.5,0.5,1.0",
      "--t-end", "1", "--observe", "z"], False),
    (["lyapunov", "corpus/samardzija_greller.vf", "--x0", "0.5,1.0,2.0",
      "--t-end", "2", "--renorm-dt", "0.5"], False),
    (["formal", "corpus/restricted_z0_c2.vf", "--order", "4"], False),
    (["expfactors", "corpus/lv3_a0_b0_c2.vf"], False),
    (["darboux", "corpus/restricted_y0_a0.vf", "--degree", "2"], True),
])
def test_numpy_loaded_only_by_rank_screens(args, numpy_loaded):
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER_MAIN, *args],
                          capture_output=True, text=True, cwd=REPO,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    # no record class generates code, so dataclasses never loads, and
    # inspect comes only with numpy
    assert proc.stdout.split() == [
        "0", "True", "False", "False", "False",
        str(numpy_loaded), "False", str(numpy_loaded)]


# Runs cli.main in a fresh interpreter; prints its exit code, the process's
# thread count and the OpenBLAS thread setting it leaves.
_THREADS_AFTER_MAIN = """
import contextlib, io, os, sys
import darbouxlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = darbouxlab.cli.main(sys.argv[1:])
print(code, len(os.listdir("/proc/self/task")),
      os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc to count threads")
@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_rank_screens_start_no_blas_threads(preset, expected):
    # numpy's OpenBLAS pool is never used (every product is int64), so the
    # CLI asks for none; a value set by the caller is left as it is
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_AFTER_MAIN, "darboux",
         "corpus/restricted_y0_a0.vf", "--degree", "2"],
        capture_output=True, text=True, cwd=REPO, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, threads, setting = proc.stdout.split()
    assert (code, setting) == ("0", expected)
    if preset is None:
        assert threads == "1"


def test_analyze_shares_integrals_pass():
    # analyze derives certificates and the obstruction from the same single
    # pass that integrals runs
    common = ["corpus/restricted_z0_c2.vf", "--degree", "2",
              "--lattice-bound", "2", "--s-bound", "0"]
    _, analyzed, _ = run_cli(["analyze", *common, "--order", "4",
                              "--margin", "1"])
    _, integrals, _ = run_cli(["integrals", *common])
    analyzed = json.loads(analyzed)["results"]
    integrals = json.loads(integrals)["results"]
    for key in ("certificates", "rational_obstruction"):
        assert analyzed[key] == integrals[key]


@pytest.mark.parametrize("bound", ["1", "3"])
@pytest.mark.parametrize("param", [
    "98765432123/1000003", "4294967294/3", "-123456789012345678901/7",
    "1/2147483647"])
def test_large_rational_parameter_sieve(tmp_path, param, bound):
    # scaled lattice coefficients beyond int64 must be reduced mod p
    # exactly, and a denominator divisible by 2^31 - 1 selects the next
    # prime below it for the screens
    text = (REPO / "corpus" / "samardzija_greller.vf").read_text()
    field = tmp_path / "bignum.vf"
    field.write_text("".join(
        f"param a = {param}\n" if line.startswith("param a =") else line
        for line in text.splitlines(keepends=True)))
    proc = subprocess.run(
        [sys.executable, "-m", "darbouxlab", "darboux", str(field),
         "--degree", "2", "--lattice-bound", bound],
        capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    polys = sorted(c["poly"] for c in
                   json.loads(proc.stdout)["results"]["certificates"])
    assert polys == ["x", "y", "z"]


def run_capped(args, timeout=300):
    """The CLI in a child whose address space is capped at 500,000 KiB."""
    resource = pytest.importorskip("resource")
    cap = 500_000 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, "-m", "darbouxlab", *args],
                          capture_output=True, text=True, cwd=REPO,
                          preexec_fn=limit, timeout=timeout)


TABLE_LIMIT_LINE = (
    "error: the sieve's degree-1 table may outgrow 2000000000 mask bits; "
    "lower --degree or --lattice-bound\n")
OUT_OF_MEMORY_LINE = "error: out of memory; lower --degree or --lattice-bound\n"


@pytest.mark.parametrize("field, degree, code", [
    ("cyclic_lv5", "4", 2), ("corpus/samardzija_greller.vf", "4", 0)])
def test_out_of_memory_exits_2(tmp_path, field, degree, code):
    # in 500,000 KiB of address space the degree-4 reference search runs,
    # while the 5-D cyclic Lotka-Volterra field's degree-1 sieve table
    # would not fit: its first shift may reach 236,529 entries with a mask
    # of up to 26,281 bases each (6.2e9 bits), so it is refused before
    # that shift is built.  One error line, no traceback.
    if field == "cyclic_lv5":
        field = tmp_path / "cyclic_lv5.vf"
        field.write_text(cyclic_lotka_volterra("uvwxy"))
    proc = run_capped(["darboux", str(field), "--degree", degree])
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == TABLE_LIMIT_LINE
    else:
        assert "Traceback" not in proc.stderr
        assert sorted(c["poly"] for c in json.loads(
            proc.stdout)["results"]["certificates"]) == ["x", "y", "z"]


@pytest.mark.parametrize("error", [
    MemoryError(), SystemError("error return without exception set")])
def test_out_of_memory_is_one_error_line(monkeypatch, error):
    # a command that runs out of memory, including the SystemError that
    # CPython raises when unwinding a MemoryError needs memory, ends with
    # one error line, naming that command's own size flags, and exit 2
    import darbouxlab.cli as cli

    def exhausted(X, args):
        raise error

    for command, line in [
            ("darboux", OUT_OF_MEMORY_LINE),
            ("formal", "error: out of memory; lower --order or --margin\n"),
            ("expfactors",
             "error: out of memory; lower --g-degree or --s-bound\n"),
            ("integrals", "error: out of memory; lower --degree, "
             "--lattice-bound, --g-degree or --s-bound\n"),
            ("analyze", "error: out of memory; lower --degree, "
             "--lattice-bound, --g-degree, --s-bound, --order or --margin\n")]:
        monkeypatch.setitem(cli._COMMANDS, command, exhausted)
        assert run_cli([command, "corpus/restricted_z0_c2.vf"]) == (
            2, "", line)


def test_other_system_error_is_raised(monkeypatch):
    import darbouxlab.cli as cli

    def broken(X, args):
        raise SystemError("bad argument to internal function")

    monkeypatch.setitem(cli._COMMANDS, "darboux", broken)
    with pytest.raises(SystemError, match="bad argument"):
        run_cli(["darboux", "corpus/restricted_z0_c2.vf"])


def test_reachable_table_limit_exits_2(tmp_path):
    # the 6-D cyclic field's degree-1 table would reach 1.7 million entries
    # of 3,721-bit masks (1.4 GB); it is refused at the shift whose bound
    # passes the limit (3.9e9 bits), before memory runs out, and in seconds
    # rather than minutes
    field = tmp_path / "cyclic_lv6.vf"
    field.write_text(cyclic_lotka_volterra("uvwxyz"))
    proc = run_capped(["darboux", str(field), "--degree", "2"], timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == TABLE_LIMIT_LINE


@pytest.mark.parametrize("text, args", [
    ("vars: x\ndx/dt = x^2\n",
     ["simulate", "--x0", "1", "--t-end", "5"]),
    ("vars: x y z\ndx/dt = x^3\ndy/dt = y\ndz/dt = z\n",
     ["lyapunov", "--x0", "1,1,1", "--t-end", "5", "--renorm-dt", "0.5"]),
])
def test_blow_up_exits_2(tmp_path, text, args):
    # finite-time blow-up: float overflow inside a step is a rejected step,
    # and the step-size floor ends the run with a usage-class error
    field = tmp_path / "blowup.vf"
    field.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "darbouxlab", args[0], str(field), *args[1:]],
        capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 2
    assert "error: state became non-finite" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["darboux", "--degree", "-2", "--lattice-bound", "1"],
    ["darboux", "--degree", "-1", "--lattice-bound", "1"],
    ["integrals", "--degree", "-3", "--lattice-bound", "0"],
    ["analyze", "--degree", "-3", "--lattice-bound", "0"],
    ["expfactors", "--g-degree", "-1"],
    ["expfactors", "--s-bound", "-1"],
])
def test_negative_degree_exits_2(args):
    # a negative degree bound is a usage error, never a traceback or an
    # empty report; --degree 0 stays valid
    proc = run_module([args[0], "corpus/restricted_z0_c2.vf", *args[1:]])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_negative_lattice_bound_exits_2():
    proc = run_module(["darboux", "corpus/restricted_z0_c2.vf",
                       "--lattice-bound", "-1"])
    assert proc.returncode == 2
    assert proc.stderr == "error: bound must be non-negative\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ["--s-bound", "1000000000"],
    ["--g-degree", "1000000"],
])
def test_oversized_expfactors_request_exits_2(args):
    # the exponential-factor search is refused by its size limit before any
    # matrix is built; the timeout guards against a search that runs anyway
    proc = run_module(["expfactors", "corpus/lv3_a3_b3_c2.vf", *args],
                      timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "exponential-factor search limit" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_expfactors_bound_counts_only_admissible_denominators(tmp_path):
    # Lorenz-63 has no invariant coordinate plane, so a large --s-bound
    # still solves s = 0 alone and reports what --s-bound 0 reports
    field = tmp_path / "lorenz63.vf"
    field.write_text("vars: x y z\nparam s = 10\nparam r = 28\n"
                     "param b = 8/3\ndx/dt = s*(y - x)\n"
                     "dy/dt = x*(r - z) - y\ndz/dt = x*y - b*z\n")
    reports = []
    for bound in ("8", "0"):
        code, out, err = run_cli(["expfactors", str(field),
                                  "--s-bound", bound])
        assert code == 0 and err == ""
        reports.append(json.loads(out)["results"]["factors"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("args, line", [
    (["darboux", "--degree", "60", "--lattice-bound", "0"],
     "error: 19080341280 residues of the sieve's tables exceed its limit "
     "(20000000); lower --degree\n"),
    (["formal", "--order", "60"],
     "error: 1734532800 matrix cells exceed the formal-series limit "
     "(5000000); lower --order or --margin\n"),
])
def test_oversized_exact_tables_are_refused(args, line):
    # with no memory cap: the sieve's image table and the formal-series
    # matrix would have 1.7e9 cells each; both are refused before anything
    # is built, with one error line, well within the timeout
    proc = run_module([args[0], "corpus/samardzija_greller.vf", *args[1:]],
                      timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line)


@pytest.mark.parametrize("degree, order, admitted", [(17, 20, True),
                                                      (18, 21, False)])
def test_size_limits_admit_the_largest_requests(monkeypatch, degree, order,
                                                admitted):
    # the limits admit the reference search up to degree 17 (the degree-12
    # search at --lattice-bound 1 runs in about 11 s) and its formal series
    # up to order 20; only the checks run here, as building stops right
    # after them
    import darbouxlab.darboux as dbx
    import darbouxlab.series as series

    def past_the_check(*args):
        raise RuntimeError("admitted")

    monkeypatch.setattr(dbx._modp, "screening_prime", past_the_check)
    monkeypatch.setattr(series, "operator_kernel", past_the_check)
    X = load_field("corpus/samardzija_greller.vf")
    raised = RuntimeError if admitted else ValueError
    with pytest.raises(raised):
        dbx._GradedSieve(X, degree, dbx.default_lattice(X, 0))
    with pytest.raises(raised):
        series.formal_integral_space(X, order)


@pytest.mark.parametrize("command", ["integrals", "analyze"])
def test_oversized_expfactors_request_skips_the_search(monkeypatch, command):
    # integrals and analyze refuse an oversized exponential-factor request
    # before the Darboux search runs
    import darbouxlab.cli as cli

    def search(*args):
        raise AssertionError("the Darboux search ran")

    monkeypatch.setattr(cli, "cofactor_kernels", search)
    code, out, err = run_cli([command, "corpus/lv3_a3_b3_c2.vf",
                              "--s-bound", "1000000000"])
    assert code == 2
    assert err.startswith("error: ")
    assert "exponential-factor search limit" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("args, cert_class", [
    (["darboux", "corpus/restricted_y0_a0.vf", "--degree", "2"], DarbouxCert),
    (["expfactors", "corpus/lv3_a0_b3_c2.vf"], ExpFactorCert),
])
def test_failed_certificate_check_exits_1(monkeypatch, args, cert_class):
    # a certificate failing its exact re-check is an internal error: exit 1
    # with a message, never a traceback
    monkeypatch.setattr(cert_class, "check", lambda self, X: False)
    code, out, err = run_cli(args)
    assert code == 1
    assert err.startswith("internal error: ")
    assert "Traceback" not in err
    assert out == ""


def test_lyapunov_zero_tolerance_exits_2():
    # the error norm divides by tol + tol*|y|, so tol must be positive
    code, _, err = run_cli(["lyapunov", "corpus/samardzija_greller.vf",
                            "--x0", "0.5,1,2", "--t-end", "5", "--tol", "0"])
    assert code == 2
    assert "tolerances must be positive" in err


@pytest.mark.parametrize("args, message", [
    (["simulate", "--t-end", "inf"], "t_end must be positive and finite"),
    (["simulate", "--t-end", "nan"], "t_end must be positive and finite"),
    (["simulate", "--t-end", "5", "--tol", "nan"],
     "tolerances must be positive"),
    (["simulate", "--t-end", "5", "--tol", "inf"],
     "tolerances must be positive"),
    (["simulate", "--t-end", "5", "--dt", "0"], "dt must be positive and finite"),
    (["simulate", "--t-end", "5", "--dt", "-1"],
     "dt must be positive and finite"),
    (["simulate", "--t-end", "5", "--dt", "inf"],
     "dt must be positive and finite"),
    (["lyapunov", "--t-end", "5", "--tol", "nan"],
     "tolerances must be positive"),
    (["lyapunov", "--t-end", "inf"], "t_end must be positive and finite"),
    (["lyapunov", "--t-end", "5", "--renorm-dt", "nan"],
     "renorm_dt must be positive and finite"),
    (["lyapunov", "--t-end", "1e300", "--renorm-dt", "1e-300"],
     "t_end / renorm_dt must be finite"),
    (["simulate", "--t-end", "1e12"],
     "t_end needs more than 2000000 integrator steps"),
    (["simulate", "--t-end", "1e12", "--dt", "0.01"],
     "t_end / dt exceeds 2000000 RK4 steps"),
    (["lyapunov", "--t-end", "1e300", "--renorm-dt", "1e-5"],
     "t_end / renorm_dt exceeds 2000000 intervals"),
])
def test_nonfinite_integrator_inputs_exit_2(args, message):
    # in a child process under a timeout: an infinite or unreachable t_end
    # must be refused, not integrated until memory or time runs out
    proc = run_module([args[0], "corpus/samardzija_greller.vf",
                       "--x0", "0.5,1,2", *args[1:]], timeout=30)
    assert proc.returncode == 2
    assert f"error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


RATIONAL_PARTS = st.one_of(st.integers(1, 10**20),
                           st.integers(1, 10**11).map(lambda k: k * PRIME))


@settings(max_examples=20, deadline=None)
@given(num=RATIONAL_PARTS, negative=st.booleans(), den=RATIONAL_PARTS,
       bound=st.sampled_from(["1", "3"]))
@example(num=3 * PRIME, negative=True, den=10**20 - 11, bound="3")
@example(num=10**20 - 1, negative=False, den=7 * PRIME, bound="3")
def test_large_rational_exit_contract(num, negative, den, bound):
    # exit 0 with re-checked certificates, or exit 2 without a traceback
    text = (REPO / "corpus" / "samardzija_greller.vf").read_text()
    param = f"{'-' if negative else ''}{num}/{den}"
    with tempfile.TemporaryDirectory() as tmp:
        field = Path(tmp) / "fuzz.vf"
        field.write_text("".join(
            f"param a = {param}\n" if line.startswith("param a =") else line
            for line in text.splitlines(keepends=True)))
        code, out, err = run_cli(["darboux", str(field), "--degree", "2",
                                  "--lattice-bound", bound])
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 0:
            X = load_field(field)
            for cert in json.loads(out)["results"]["certificates"]:
                f = parse_poly(cert["poly"], X.variables)
                K = parse_poly(cert["cofactor"], X.variables)
                assert lie_derivative(X, f) == K * f


def test_observable_overflow_exits_2():
    # the state stays finite; float ** overflows in the observed polynomial
    proc = run_module(["simulate", "corpus/lv3_a0_b0_c0.vf", "--x0", "5,0.5,1",
                       "--t-end", "1", "--observe", "x^500"])
    assert proc.returncode == 2
    assert "error: x^500 non-finite along the trajectory" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["simulate", "--x0", "1", "--t-end", "1"],
    ["lyapunov", "--x0", "1", "--t-end", "1", "--renorm-dt", "0.5"],
])
def test_coefficient_beyond_float64_exits_2(tmp_path, args):
    big = "9" * 400
    field = tmp_path / "big.vf"
    field.write_text(f"vars: x\nparam a = {big}\ndx/dt = a*x\n")
    proc = run_module([args[0], str(field), *args[1:]])
    assert proc.returncode == 2
    assert f"error: coefficient {big} is too large for a float64" in proc.stderr
    assert "Traceback" not in proc.stderr
