"""Fast self-test of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Uses shortened flow jobs (t_end of a few time units) so that it runs in
seconds; the benchmark's own workloads are not timed here.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Workload, check  # noqa: E402


def _short(job: Job, t_end: str) -> Job:
    argv = list(job.argv)
    argv[argv.index("--t-end") + 1] = t_end
    return dataclasses.replace(job, argv=tuple(argv))


def short_flow(extra=()) -> Workload:
    flow = workloads.build("flow", 7, BENCH)
    jobs = tuple(_short(j, "4") for j in flow.jobs) + tuple(extra)
    return dataclasses.replace(flow, jobs=jobs)


@pytest.fixture
def harness(monkeypatch, tmp_path):
    """run.main on a given workload, writing into a temporary directory."""
    monkeypatch.setattr(run, "OUT", tmp_path)

    def invoke(workload, trace, capsys):
        monkeypatch.setattr(workloads, "build", lambda *a: workload)
        code = run.main(["--workload", "flow", "--seed", "7", "--seconds",
                         "0", "--trace", str(trace)])
        lines = capsys.readouterr().out.strip().splitlines()
        return code, lines, json.loads(lines[-1])
    return invoke


def _printed(lines):
    return {line.split()[1]: line.split()[3] for line in lines
            if line.startswith("metric ")}


def test_prints_every_end_to_end_metric_with_unit(harness, capsys):
    code, lines, result = harness(short_flow(), 0, capsys)
    assert code == 0
    expected = dict(run.END_TO_END)
    assert _printed(lines) == expected
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result == {**result, "correct": True, "failed": 0, "attempted": 3}


def test_prints_every_per_layer_metric_with_unit(harness, capsys):
    code, lines, result = harness(short_flow(), 1, capsys)
    assert code == 0
    expected = dict(spans.PER_LAYER)
    assert _printed(lines) == expected
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "traced reports byte-identical to untraced: yes" in lines
    assert any(line.startswith("tracing overhead ") for line in lines)
    assert (result["correct"], result["attempted"]) == (True, 6)
    assert result["metrics"]["numerics.steps_accepted"]["value"] > 0


def test_nonzero_exit_counts_as_failure(harness, capsys):
    missing = Job("missing", ("darboux", "corpus/no_such_field.vf"), "digest")
    code, lines, result = harness(short_flow([missing]), 0, capsys)
    assert code == 0
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["correct"]  # a refused job failed; no report was wrong
    assert result["metrics"]["pass_rate"]["value"] == pytest.approx(0.75)
    assert "fail_rate 0.2500 (1 failed / 4 attempted jobs)" in lines


def test_check_verdicts():
    (BENCH / "out").mkdir(exist_ok=True)
    lattice = workloads.build("lattice_small", 0, BENCH / "out")
    golden = next(j for j in lattice.jobs if j.check == "fixture")
    good = (ROOT / "tests" / "fixtures" / golden.fixture).read_bytes()
    assert check(golden, 0, good, b"") == workloads.OK
    corrupted = check(golden, 0, good.replace(b"x", b"y", 1), b"")
    assert corrupted.failed and corrupted.incorrect
    crash = check(golden, 1, b"", b"Traceback (most recent call last):\n")
    assert crash.failed and not crash.incorrect
    assert check(golden, 2, b"", b"error: x\n").failed
    bignum = next(j for j in lattice.jobs if j.check == "defect")
    assert check(bignum, 2, b"", b"error: too large\n") == workloads.OK

    digest_job = next(j for j in lattice.jobs if j.name == "formal_promote")
    assert check(digest_job, 0, b"{}\n", b"").incorrect


def test_wrong_certificate_is_incorrect():
    job = Job("c", ("darboux", "corpus/restricted_y0_a0.vf"), "defect")
    report = {"results": {"certificates": [{"poly": "x", "cofactor": "2*x"}]}}
    assert check(job, 0, json.dumps(report).encode(), b"").incorrect
    report["results"]["certificates"][0]["cofactor"] = "2*x + 1"
    assert check(job, 0, json.dumps(report).encode(), b"") == workloads.OK


def _attributes():
    """Every attribute a tracer may replace, by owner and name."""
    import darbouxlab.cli  # noqa: F401  (imports every layer)
    snapshot = {}
    for name, mod in sys.modules.items():
        if name == "darbouxlab" or name.startswith("darbouxlab."):
            snapshot.update({(name, k): v for k, v in vars(mod).items()
                             if callable(v)})
    from darbouxlab import darboux, exactcore, numerics
    for cls in (darboux._LatticeBoxes, exactcore.RatMatrix,
                numerics._DormandPrince):
        snapshot.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snapshot


def test_wrappers_restore_originals():
    from darbouxlab import cli, darboux
    before = _attributes()
    tracer = spans.Tracer("t").install()
    try:
        assert tracer.absent == []
        assert cli.search_darboux is darboux.search_darboux
        assert cli.search_darboux is not before[("darbouxlab.cli",
                                                 "search_darboux")]
        assert darboux.lie_derivative.__wrapped__ is before[
            ("darbouxlab.field", "lie_derivative")]
    finally:
        tracer.restore()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_seam_is_reported_absent(monkeypatch):
    from darbouxlab import darboux
    monkeypatch.delattr(darboux, "enumerate_cofactors")
    tracer = spans.Tracer("t").install()
    tracer.restore()
    assert tracer.absent == ["darbouxlab.darboux.enumerate_cofactors"]


def test_self_time_subtracts_children():
    # root [0, 10] > child [1, 4] > aggregate of two calls busy 1.5
    trace = [["cli.main", 0.0, 10.0, -1, "j", 1, 10.0, {}],
             ["darboux.screen", 1.0, 4.0, 0, "j", 1, 3.0, {"candidates": 5}],
             ["exactcore.rref", 1.5, 3.5, 1, "j", 2, 1.5, {"cells": 12}]]
    assert spans.self_times(trace) == [7.0, 1.5, 1.5]
    metrics = spans.layer_metrics([trace])
    assert metrics["cli.self_s"] == 7.0
    assert metrics["darboux.screen_self_s"] == 1.5
    assert (metrics["exactcore.rref_calls"], metrics["exactcore.rref_cells"],
            metrics["darboux.candidates"]) == (2, 12, 5)


@pytest.mark.parametrize("argv", [
    ("formal", "corpus/restricted_z0_c2.vf", "--order", "8"),
    ("simulate", "corpus/lv3_a0_b0_c0.vf", "--x0", "0.5,0.5,1.0",
     "--t-end", "3", "--observe", "z"),
])
def test_traced_report_is_byte_identical(tmp_path, argv):
    def child(*opts):
        cmd = [sys.executable, str(BENCH / "child.py"),
               str(tmp_path / "times.json"), *opts, "--", *argv]
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, check=True,
                              timeout=120).stdout

    direct = subprocess.run([sys.executable, "-m", "darbouxlab", *argv],
                            cwd=ROOT, capture_output=True, check=True,
                            timeout=120, env={"PYTHONPATH": str(ROOT / "src")}
                            ).stdout
    untraced = child()
    traced = child("--spans", str(tmp_path / "spans.json"))
    assert direct == untraced == traced
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "flow", "--seed", "1", "--seconds", "1", "--trace",
                           "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
