"""Pricing, tuning and the sharded DES load no experiment harness.

``repro.harness`` imports every figure and extension module; a cold
``tune`` that imports it spends a third of its time compiling modules
that price nothing.  The process pool and its cost threshold live in
:mod:`repro.util.procpool`, so a fresh interpreter that tunes, streams a
batch and runs a 2-worker sharded DES never loads ``repro.harness``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"

_SCRIPT = """
import json, sys
from repro.apps import get_app
from repro.des.shard import ShardedSpec, run_sharded
from repro.ir.batch import BatchJob, shared_batch_backend
from repro.machine import cte_arm
from repro.tune import TuneSpec, tune

frontier = tune(TuneSpec("gromacs", "cte-arm", 2, scenarios=1), workers=0)
cluster = cte_arm(4)
app = get_app("gromacs")
mapping = app.mapping(cluster, 2)
program = app.program(mapping, steps=1)
binary = app.build(cluster)
jobs = [BatchJob(program, cluster, 2, mapping=mapping, binary=binary,
                 overrides={"comm_scale": s}) for s in (1.0, 0.5, 2.0)]
streamed = list(shared_batch_backend().run_batch_stream(
    jobs, chunk_points=1, workers=2))
spec = ShardedSpec(program=program, mapping=mapping, n_shards=2,
                   binary=binary, world_kwargs={"trace": "off"})
result, stats = run_sharded(spec, workers=2)
print(json.dumps({
    "points": frontier.n_points, "streamed": len(streamed),
    "events": stats.events,
    "harness": sorted(m for m in sys.modules
                      if m == "repro.harness"
                      or m.startswith("repro.harness.")),
}))
"""


def test_tune_stream_and_sharded_des_load_no_harness():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["points"] > 0
    assert report["streamed"] == 3
    assert report["events"] > 0
    assert report["harness"] == []


def test_pool_lives_only_in_util():
    assert importlib.util.find_spec("repro.util.procpool") is not None
    assert importlib.util.find_spec("repro.harness.procpool") is None
    import repro.harness.parallel as parallel

    for name in ("PersistentPool", "POOL_MIN_ENV", "POOL_MIN_SECONDS"):
        assert not hasattr(parallel, name)
