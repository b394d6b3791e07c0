"""The benchmark's own tests (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _corrupt_after(calls: int):
    """An echo handler that flips one byte of the ``calls``-th reply."""
    seen = []

    def handler(payload: bytes) -> bytes:
        seen.append(payload)
        if len(seen) == calls:
            return payload[:-1] + bytes([payload[-1] ^ 1])
        return payload

    return handler


@pytest.mark.parametrize("workload", ["bulk", "interactive"])
def test_a_corrupted_echo_fails_the_run(workload, capsys):
    code = run.execute(workload, 1, 2.0, trace=True,
                       handler=_corrupt_after(10))
    out, err = capsys.readouterr()
    assert code == 1
    assert "wrong output" in err
    assert '"metrics"' not in out


@pytest.mark.parametrize("workload, trace, section", [
    ("interactive", 0, "end_to_end"),
    ("relay-churn", 1, "per_layer"),
])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_relay_churn_exercises_every_layer():
    """One traced relay-churn run: the books close (``layer_metrics``
    raises otherwise) and kex, relay and obs all show work."""
    import tracing

    untraced = workloads.run_relay_churn(5, workloads.Clock(1.0, None, None))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, workloads.engine_classes("relay-churn")):
        traced = workloads.run_relay_churn(
            5, workloads.Clock(60.0, untraced.steps, tracer))
    assert traced.ops == untraced.ops and not tracer.missing
    metrics = tracing.layer_metrics(tracer, traced.wall_s, untraced.wall_s,
                                    traced.ops, traced.payloads, traced.shed,
                                    traced.series)
    for name in ("kex.x25519_share", "relay.self_share", "obs.self_share",
                 "obs.scrapes", "kex.handshakes_ecdh",
                 "kex.handshakes_resume"):
        assert metrics[name][0] > 0, name
    assert metrics["relay.receivers_per_payload"][0] == \
        workloads.RELAY_GROUP - 1


@pytest.mark.parametrize("second, problem", [
    ((0.0, 1.5, 2.5), "not inside its parent"),
    ((-1.0, 1.5, 2.5), "overlaps an earlier sibling"),
    ((-1.0, 3.0, 2.5), "ends before it starts"),
])
def test_spans_that_do_not_nest_fail_the_books(second, problem):
    import tracing

    tracer = tracing.Tracer()
    name = float(tracer.name_id("core.engines", "embed_bytes"))
    parent, begun, finished = second
    tracer.spans.extend((name, -1.0, 0.0, 1.0, 2.0))
    tracer.spans.extend((name, parent, 0.0, begun, finished))
    with pytest.raises(AssertionError, match=problem):
        tracer.self_times()


def test_relay_churn_outlasts_one_hub(monkeypatch):
    """The plan is cycled on fresh hubs, so a run is never cut short by
    the replay cache filling up."""
    monkeypatch.setattr(workloads, "RELAY_HUB_GROUPS", 3)
    run_ = workloads.run_relay_churn(7, workloads.Clock(60.0, 10, None))
    assert run_.steps == 10 and run_.failed == 0
    assert run_.ops == 10 * workloads.RELAY_GROUP * workloads.RELAY_SENDS


def test_runs_fail_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
