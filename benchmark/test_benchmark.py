"""Tests of the benchmark itself: its pins, its checks and its tracer.

    python3 -m pytest benchmark -q

The pinned strict-regime counts are checked against the independent
breadth-first oracle in tests/naive_bfs.py (about 35 s together).
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ackirby.cli
import kernel_micro
import speed
import workloads
from naive_bfs import naive_search
from ackirby.family import presentation_Ln1
from run import Runner
from tracer import TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["found-n1", "exhaust-n3"])
def test_strict_pins_match_naive_oracle(name):
    wl = workloads.SEARCHES[name]
    argv = dict(zip(wl.argv[1::2], wl.argv[2::2]))
    start = presentation_Ln1(wl.n)
    status, visited = naive_search(start.rank, [r.letters for r in start.relators],
                                   int(argv["--max-len"]), int(argv["--max-depth"]))
    assert (status, visited) == (wl.status, wl.visited)


def test_check_search_reports_bad_output():
    wl = workloads.SEARCHES["found-n1"]
    problems, outcome = workloads.check_search(wl, 3, "not json")
    assert outcome is None
    assert any("exit code" in p for p in problems)
    assert any("unreadable" in p for p in problems)


def test_argv_at_replaces_worker_count():
    wl = workloads.SEARCHES["exhaust-n3"]
    assert wl.argv_at(1)[-2:] == ("--workers", "1")
    assert wl.argv_at(1).count("--workers") == 1


def test_calculus_inputs_are_seeded():
    assert workloads.calculus_inputs(5, 0) == workloads.calculus_inputs(5, 0)
    assert workloads.calculus_inputs(5, 0) != workloads.calculus_inputs(6, 0)
    assert workloads.calculus_inputs(5, 0) != workloads.calculus_inputs(5, 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_calculus_round_holds(seed):
    assert workloads.calculus_round(workloads.calculus_inputs(seed, 0)) == []


def test_calculus_round_detects_a_wrong_enumeration(monkeypatch):
    import ackirby.curves
    real = ackirby.curves.enumerate_candidates
    monkeypatch.setattr(ackirby.curves, "enumerate_candidates",
                        lambda h, lab=None: real(h, lab)[:-1])
    problems = workloads.calculus_round(workloads.calculus_inputs(0, 0))
    assert any("enumerate_candidates" in p for p in problems)


def test_calculus_round_detects_a_wrong_determinant(monkeypatch):
    import ackirby.kirby
    monkeypatch.setattr(ackirby.kirby.FramedLinkMatrix, "determinant", lambda self: 7)
    inputs = workloads.calculus_inputs(0, 0)
    if inputs.determinant == 7:
        pytest.skip("seed gives determinant 7")
    assert any("determinant" in p for p in workloads.calculus_round(inputs))


def _small_search():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ackirby.cli.main(["search", "--pres", "2; xY; y",
                                 "--max-len", "8", "--max-depth", "4"])
    return code, out.getvalue()


def test_tracer_records_layers_and_restores_attributes():
    originals = {(mod, attr): getattr(sys.modules[mod], attr)
                 for mod, attr in (("ackirby.search", "search"), ("ackirby.cli", "search"),
                                   ("ackirby._kernel", "expand_multiply"),
                                   ("ackirby.search", "apply_move"))}
    tracer = Tracer().install()
    try:
        assert ackirby.cli.search is not originals[("ackirby.cli", "search")]
        tracer.iteration = 0
        code, _ = _small_search()
        tracer.iteration = None
    finally:
        tracer.uninstall()
    assert code == 0
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn
    assert tracer.missing == []
    metrics = tracer.layer_metrics([0])
    assert metrics["search.search.calls"] == 1
    assert metrics["kernel.expand_multiply.calls"] > 0
    assert metrics["search.successors.edges"] >= metrics["search.dedup.inserts"] > 0
    assert metrics["cli.overhead_s"] > 0
    assert tracer.levels and tracer.levels[0][:2] == (0, 1)


def test_tracer_reports_a_missing_target_instead_of_crashing():
    targets = TARGETS + (("kernel.expand_state", "ackirby._kernel", "expand_state", None),
                         ("gone.module", "ackirby.no_such_module", "f", None),
                         ("gone.method", "ackirby.kirby", "NoSuchClass.f", None))
    tracer = Tracer().install(targets)
    try:
        tracer.iteration = 0
        code, _ = _small_search()
        tracer.iteration = None
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.missing == ["kernel.expand_state", "gone.module", "gone.method"]
    assert tracer.layer_metrics([0])["search.search.calls"] == 1


def test_checking_a_traced_search_is_not_recorded():
    # found-n1 at a smaller length bound: found, 22 moves, about a second
    wl = workloads.SEARCHES["found-n1"]
    argv = wl.argv[:4] + ("11",) + wl.argv[5:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ackirby.cli.main(list(argv))
    outcome = json.loads(out.getvalue())["outcome"]
    stats = outcome["stats"]
    small = dataclasses.replace(
        wl, argv=argv, exit_code=code, visited=stats["visited"],
        frontier_peak=stats["frontier_peak"], depth_reached=stats["depth_reached"],
        outcome_sha256=workloads.outcome_digest(outcome))
    tracer = Tracer()
    runner = Runner("found-n1", 0, tracer)
    runner.search = small
    tracer.install()
    try:
        for k in range(2):
            tracer.iteration = k
            runner.iteration()
        tracer.iteration = None
    finally:
        tracer.uninstall()
    assert (runner.attempted, runner.failed) == (2, 0)
    for k in range(2):
        names = [s[0] for s in tracer.spans if s[4] == k]
        assert names.count("search.verify") == 1
        assert names.count("cli.main") == 1
        assert names.count("search.search") == 1


def test_untraced_calls_pass_through():
    tracer = Tracer().install()
    try:
        code, _ = _small_search()
    finally:
        tracer.uninstall()
    assert code == 0 and tracer.spans == [] and not tracer.counts


def test_kernel_micro_inputs_are_seeded_and_python_backend_imports():
    assert "python" in kernel_micro.available_backends()
    assert kernel_micro.make_inputs(3) == kernel_micro.make_inputs(3)
    assert kernel_micro.make_inputs(3) != kernel_micro.make_inputs(4)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "found-n1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_kernel_micro_reports_disagreeing_backends(monkeypatch):
    import types
    from ackirby import _kernel_py
    broken = types.SimpleNamespace(
        reduce_word=lambda w: (), canonical_relator=_kernel_py.canonical_relator,
        expand_multiply=_kernel_py.expand_multiply)
    monkeypatch.setattr(kernel_micro, "available_backends",
                        lambda: {"python": _kernel_py, "c": broken})
    monkeypatch.setattr(kernel_micro, "WORDS", 20)
    monkeypatch.setattr(kernel_micro, "PAIRS", 20)
    monkeypatch.setattr(kernel_micro, "REPEAT", 1)
    times, problems = kernel_micro.run(0)
    assert set(times["reduce_word"]) == {"python", "c"}
    assert problems == ["reduce_word: backend c disagrees"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_listed_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "calculus",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec[section]} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


def test_speed_factor_scales_to_the_reference_near_an_interval():
    sampler = speed.SpeedSampler()
    sampler.starts = [0.0, 0.2, 0.4, 0.6, 0.8, 10.0, 10.2, 10.4, 10.6, 10.8]
    sampler.times = [speed.REFERENCE_S] * 5 + [2 * speed.REFERENCE_S] * 5
    assert sampler.factor([(0.0, 0.5)]) == 1.0
    assert sampler.factor([(10.0, 10.5)]) == 0.5    # the machine ran at half speed
    assert sampler.factor([(5.0, 5.1)]) == 1.0      # nearest samples: the first five
    # pooled over intervals: five samples at one speed, two at the other
    assert sampler.factor([(0.0, 0.8), (10.0, 10.2)], near_s=0) == 1.0
    assert sampler.factor([(0.0, 0.2), (10.0, 10.8)], near_s=0) == 0.5
    assert sampler.taken(0.1, 0.7) == pytest.approx(3 * speed.REFERENCE_S)
    assert speed.SpeedSampler().factor([(0.0, 1.0)]) == 1.0


def test_speed_sampler_samples_while_entered_and_restores_the_timer():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        end = time.perf_counter() + 3 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.times) >= 2 and all(t > 0 for t in sampler.times)
    assert sampler.starts == sorted(sampler.starts)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert speed.reference() == speed.reference()
