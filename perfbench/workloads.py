"""The benchmark's workloads: which darbouxlab CLI jobs run, and how each
job's output is checked.

Every job runs from the checkout root with a relative field path, so the
`config.file` recorded in each report is stable and the exact reports can be
compared byte for byte.  The seed only moves the `flow` initial states inside
a small box around the corpus points; the exact workloads are the paper's
fixed corpus inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

# The reference model with a large-numerator parameter.  The graded sieve
# builds int64 arrays before reducing mod p and overflows on it (exit 1 with
# a traceback); the job is kept so that the defect stays counted.
BIGNUM_PARAM = "98765432123/1000003"

# Half-width of the seeded box around the flow initial states, relative to
# each coordinate.  Small enough that the accepted-step count moves by well
# under 0.1 %, so run-to-run spread stays host noise, not input size.
FLOW_BOX = 0.002

H1_RTOL = 1e-6   # criterion 4: drift of x*y*exp(-x-y) at t_end


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: str            # "fixture", "digest", "reference", "defect",
                          # "simulate", "simulate_h1" or "lyapunov"
    fixture: str | None = None

    @property
    def field_path(self) -> str:
        return self.argv[1]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]


def _x0(rng: random.Random, point: tuple[float, ...]) -> str:
    return ",".join(repr(v * (1.0 + rng.uniform(-FLOW_BOX, FLOW_BOX)))
                    for v in point)


def bignum_field_path(outdir: Path) -> str:
    """Write the large-numerator field into the benchmark's output directory."""
    text = (ROOT / "corpus" / "samardzija_greller.vf").read_text()
    lines = [f"param a = {BIGNUM_PARAM}" if line.startswith("param a =")
             else line for line in text.splitlines()]
    path = outdir / "samardzija_greller_bignum.vf"
    path.write_text("\n".join(lines) + "\n")
    return path.relative_to(ROOT).as_posix()


def build(name: str, seed: int, outdir: Path) -> Workload:
    if name == "sieve_large":
        return Workload(name, WHY[name], (
            Job("reference_search", ("darboux", "corpus/samardzija_greller.vf",
                                     "--degree", "4"), "reference"),
            Job("analyze", ("analyze", "corpus/lv3_a3_b3_c2.vf"), "digest"),
        ))
    if name == "lattice_small":
        return Workload(name, WHY[name], (
            Job("golden_darboux", ("darboux", "corpus/restricted_y0_a0.vf",
                                   "--degree", "2"),
                "fixture", "darboux_restricted_y0_a0.json"),
            Job("golden_expfactors", ("expfactors", "corpus/lv3_a0_b0_c2.vf"),
                "fixture", "expfactors_a0_b0_c2.json"),
            Job("golden_formal", ("formal", "corpus/restricted_z0_c2.vf",
                                  "--order", "8"),
                "fixture", "formal_restricted_z0.json"),
            Job("golden_integrals", ("integrals", "corpus/lv3_a0_b0_c0.vf",
                                     "--degree", "2", "--s-bound", "0"),
                "fixture", "integrals_a0_b0_c0.json"),
            Job("direct_d3_b1", ("darboux", "corpus/lv3_a3_b3_c2.vf",
                                 "--degree", "3", "--lattice-bound", "1"),
                "digest"),
            Job("integrals_c2", ("integrals", "corpus/lv3_a0_b0_c2.vf",
                                 "--degree", "2"), "digest"),
            Job("restricted_d3", ("darboux", "corpus/restricted_z0_c2.vf",
                                  "--degree", "3"), "digest"),
            Job("formal_promote", ("formal", "corpus/lv3_a3_b3_c2.vf",
                                   "--order", "4", "--margin", "1",
                                   "--promote", "b"), "digest"),
            Job("bignum", ("darboux", bignum_field_path(outdir),
                           "--degree", "2", "--lattice-bound", "3"), "defect"),
        ))
    if name == "flow":
        rng = random.Random(seed)
        sg = _x0(rng, (0.5, 1.0, 2.0))
        lv = _x0(rng, (0.5, 0.5, 1.0))
        return Workload(name, WHY[name], (
            Job("simulate_reference", ("simulate", "corpus/samardzija_greller.vf",
                                       "--x0", sg, "--t-end", "2000"),
                "simulate"),
            Job("simulate_integrable", ("simulate", "corpus/lv3_a0_b0_c0.vf",
                                        "--x0", lv, "--t-end", "2000",
                                        "--observe", "z"), "simulate_h1"),
            Job("lyapunov", ("lyapunov", "corpus/samardzija_greller.vf",
                             "--x0", sg, "--t-end", "2000",
                             "--renorm-dt", "0.5"), "lyapunov"),
        ))
    raise KeyError(name)


WHY = {
    "sieve_large": "graded sieve and Fraction elimination: the degree-4 "
                   "reference search, and analyze, which repeats the search "
                   "in its rational obstruction",
    "lattice_small": "many short commands on the direct materialise-and-"
                     "screen path (mod-p rank screens), with the golden "
                     "fixtures and the int64-overflow job",
    "flow": "Dormand-Prince loop, compiled RHS and Jacobian only; the "
            "bypass workload for every exact-layer change",
}
NAMES = tuple(WHY)


# -- output checks ------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """failed: the job did not pass.  incorrect: it exited 0 with a wrong report."""

    failed: bool
    incorrect: bool
    reason: str


OK = Verdict(False, False, "ok")


def _crash(reason: str) -> Verdict:
    return Verdict(True, False, reason)


def _wrong(reason: str) -> Verdict:
    return Verdict(True, True, reason)


def _verify_certificates(job: Job, report: dict) -> str | None:
    """Re-check every reported Darboux certificate: X(f) == K*f exactly."""
    from darbouxlab.exactcore import parse_poly
    from darbouxlab.field import lie_derivative, load_field

    X = load_field(ROOT / job.field_path)
    for cert in report["results"].get("certificates", []):
        f = parse_poly(cert["poly"], X.variables)
        K = parse_poly(cert["cofactor"], X.variables)
        if not (lie_derivative(X, f) - K * f).is_zero():
            return f"certificate {cert['poly']} fails X(f) = K*f"
    return None


def _h1(state: list[float]) -> float:
    x, y = state[0], state[1]
    return x * y * math.exp(-x - y)


def _check_flow(job: Job, report: dict) -> str | None:
    res = report["results"]
    if job.check == "lyapunov":
        return None if math.isfinite(res["lyapunov_max"]) else "lambda not finite"
    final = list(res["final_state"].values())
    if not all(math.isfinite(v) and v > 0.0 for v in final):
        return f"final state {final} leaves the open positive orthant"
    if res["t_final"] != float(job.argv[job.argv.index("--t-end") + 1]):
        return f"t_final {res['t_final']} != t_end"
    if res["integrator"]["n_accepted"] < 1:
        return "no accepted steps"
    if job.check == "simulate_h1":
        x0 = [float(v) for v in job.argv[job.argv.index("--x0") + 1].split(",")]
        drift = abs(_h1(final) - _h1(x0)) / abs(_h1(x0))
        if not drift <= H1_RTOL:
            return f"H1 relative drift {drift:.3g} > {H1_RTOL:g}"
        (z,) = res["drift"]
        if z["max_abs_drift"] != 0.0:
            return f"z drifted by {z['max_abs_drift']!r}"
    return None


def check(job: Job, code: int, stdout: bytes, stderr: bytes) -> Verdict:
    """Judge one job run.  A crash is a failure; a wrong report is also incorrect."""
    if b"Traceback" in stderr:
        return _crash(f"exit {code} with a traceback")
    if code not in (0, 2):
        return _crash(f"exit {code}")
    if code == 2:
        # a usage/domain error honours the exit-code contract, but only the
        # large-numerator job may legitimately refuse its input
        return OK if job.check == "defect" else _crash("exit 2")
    if job.check == "fixture":
        fixture = (ROOT / "tests" / "fixtures" / job.fixture).read_bytes()
        return OK if stdout == fixture else _wrong(f"differs from {job.fixture}")
    if job.check in ("digest", "reference"):
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != EXPECTED["sha256"][job.name]:
            return _wrong(f"report digest {digest[:12]} differs from the "
                          f"one captured at {EXPECTED['captured_at']}")
    try:
        report = json.loads(stdout)
        problem = (_check_flow(job, report) if job.argv[0] in ("simulate", "lyapunov")
                   else _verify_certificates(job, report))
        if problem is None and job.check == "reference":
            polys = sorted(c["poly"] for c in report["results"]["certificates"])
            if polys != ["x", "y", "z"]:
                problem = f"reference search found {polys}, not x, y, z"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"malformed report: {exc!r}"
    return OK if problem is None else _wrong(problem)
