"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's default test run: the
smoke runs start benchmark processes and take about half a minute.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import rmpsc.channel  # noqa: E402
from rmpsc.codes import CodeSpec  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFS = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    result = _bench(workload, trace)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrappers_install_record_and_restore():
    tracer = spans.Tracer()
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr, _, _ in spans.TARGETS}
    code = CodeSpec.from_i_min((19,), 6)
    bits = np.zeros((4, code.K), dtype=np.uint8)
    tracer.install()
    try:
        assert sorted(tracer.unrestored()) == sorted(f"{m}.{a}" for m, a in originals)
        rmpsc.channel.encode_batch(bits, code)  # outside a root span: not recorded
        assert tracer.spans == []
        with tracer.root("op"):
            rmpsc.channel.encode_batch(bits, code)
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[mod], attr) is original
    names = [(s[0], s[1]) for s in tracer.spans]
    assert names == [("op", -1), ("scdec.encode", 0), ("kernels.transform", 1)]


def test_summarize_self_time():
    # root 0..10 with children encode 1..4 (holding transform 2..3) and sc 5..9
    recorded = [["op", -1, 0.0, 10.0, 0], ["scdec.encode", 0, 1.0, 4.0, 0],
                ["kernels.transform", 1, 2.0, 3.0, 0], ["scdec.sc", 0, 5.0, 9.0, 0],
                ["other", -1, 20.0, 30.0, 0]]
    summary = spans.summarize(recorded, "op")
    assert summary["self"]["op"] == 3.0
    assert summary["self"]["scdec.encode"] == 2.0
    assert summary["incl"]["scdec.sc"] == 4.0
    assert "other" not in summary["calls"]


def test_wrong_expected_value_fails_the_op(capsys):
    wl = WORKLOADS["analysis"]
    state = wl.setup(None)
    good = child.run_op(wl, state, REFS["analysis"], 3, 0)
    bad_ref = dict(REFS["analysis"], absorption_1024=[3, 7])
    bad = child.run_op(wl, state, bad_ref, 3, 0)
    assert good["failure"] is None
    assert "absorption_1024" in bad["failure"]


def test_fer_outside_tolerance_fails():
    ops = [{"errors": 212}] * 10  # 2120 errors in 10240 frames
    _, _, ok, _ = run.fer_check("fer-sc-64", ops, 10, 1024, REFS)
    assert ok
    wrong = {**REFS, "fer": {"fer-sc-64": {"fer": 0.25, "frames": 307200}}}
    _, _, ok, _ = run.fer_check("fer-sc-64", ops, 10, 1024, wrong)
    assert not ok
