"""CLI behavior: exit codes, deterministic JSON reports, golden files, CSV."""

import io
import contextlib
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


def test_json_output_byte_stable():
    args = ["darboux", "corpus/restricted_z0_c2.vf", "--degree", "2"]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second
    json.loads(first)  # well-formed


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "darbouxlab", "--version"],
        capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0
    assert "darbouxlab" in proc.stdout


# Runs cli.main in a fresh interpreter; prints its exit code, whether
# importing the CLI loaded the mod-p layer, and whether numpy got loaded.
_MODULES_AFTER_MAIN = """
import contextlib, io, sys
import darbouxlab.cli
modp = "darbouxlab._modp" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = darbouxlab.cli.main(sys.argv[1:])
print(code, modp, "numpy" in sys.modules)
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
    assert proc.stdout.split() == ["0", "True", str(numpy_loaded)]


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
