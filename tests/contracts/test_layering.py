"""Pricing paths load only what they price.

``repro.harness`` imports every figure and extension module, the
numerical kernels import ``scipy.sparse``, and a cold process pays for
each library it imports whether it calls it or not.  The process pool
and its cost threshold live in :mod:`repro.util.procpool`, the mini-apps
are not re-exported by :mod:`repro.apps`, and :mod:`repro.kernels`
imports no kernel, so a fresh interpreter that tunes, streams a batch,
prices through ``BatchAnalyticBackend.run``, serves queries and runs a
2-worker sharded DES loads none of ``scipy``, ``networkx``,
``repro.kernels`` or ``repro.harness``.

numpy loads ``numpy.random`` and ``numpy.ma`` lazily; the modules that
use them import them with themselves, so a cold experiment pass after
``import repro.harness`` imports no numpy submodule inside its timing.

Every process cache is a registered :class:`repro.util.memo.Memo`, so
no module memoizes with ``functools.lru_cache``; and every digest is
:func:`repro.util.memo.content_key`, so ``hashlib`` appears only there,
in the two seed draws and in the source-tree fingerprint.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"

_PRICING_SCRIPT = """
import json, sys
from repro.apps import get_app
from repro.des.shard import ShardedSpec, run_sharded
from repro.ir.batch import BatchJob, shared_batch_backend
from repro.machine import cte_arm
from repro.service.core import CapacityService, ServiceConfig
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
single = shared_batch_backend().run(program, cluster, 2, mapping=mapping,
                                    binary=binary)
with CapacityService(ServiceConfig(quota_rate=1e6, quota_burst=1e6)) as svc:
    served = [svc.handle({"workload": w, "n_nodes": 2})[0]
              for w in ("stream", "hpcg", "gromacs")]
spec = ShardedSpec(program=program, mapping=mapping, n_shards=2,
                   binary=binary, world_kwargs={"trace": "off"})
result, stats = run_sharded(spec, workers=2)
heavy = ("scipy", "networkx", "repro.kernels", "repro.harness")
print(json.dumps({
    "points": frontier.n_points, "streamed": len(streamed),
    "elapsed": single.elapsed, "served": served, "events": stats.events,
    "heavy": sorted(m for m in sys.modules
                    if any(m == h or m.startswith(h + ".") for h in heavy)),
}))
"""

_SUITE_SCRIPT = """
import json, sys
import repro.harness
from repro.harness.experiment import list_experiments
from repro.harness.parallel import run_experiments

before = set(sys.modules)
payloads = run_experiments(sorted(list_experiments()), jobs=1)
print(json.dumps({
    "experiments": len(payloads),
    "numpy": sorted(m for m in set(sys.modules) - before
                    if m.startswith("numpy.")),
}))
"""


def _fresh(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


def test_tune_stream_and_sharded_des_load_no_harness():
    """Every pricing path (tune, stream, ``run``, served queries, a
    sharded DES) loads no harness, kernels, scipy or networkx."""
    report = _fresh(_PRICING_SCRIPT)
    assert report["points"] > 0
    assert report["streamed"] == 3
    assert report["elapsed"] > 0
    assert report["served"] == [200, 200, 200]
    assert report["events"] > 0
    assert report["heavy"] == []


def test_cold_suite_pass_imports_no_numpy_submodule():
    report = _fresh(_SUITE_SCRIPT)
    assert report["experiments"] > 0
    assert report["numpy"] == []


def test_pool_lives_only_in_util():
    assert importlib.util.find_spec("repro.util.procpool") is not None
    assert importlib.util.find_spec("repro.harness.procpool") is None
    import repro.harness.parallel as parallel

    for name in ("PersistentPool", "POOL_MIN_ENV", "POOL_MIN_SECONDS"):
        assert not hasattr(parallel, name)


#: the modules that may import ``hashlib``: the content key, the seed
#: draws (number generators, not keys) and ``source_fingerprint``.
_HASHLIB_MODULES = {"util/memo.py", "util/rng.py", "network/linkmodel.py",
                    "harness/parallel.py"}


def test_one_cache_type_and_one_key_function():
    root = _SRC / "repro"
    sources = {path.relative_to(root).as_posix(): path.read_text()
               for path in sorted(root.rglob("*.py"))}
    assert len(sources) > 100
    assert [name for name, text in sources.items()
            if "lru_cache" in text] == []
    assert {name for name, text in sources.items()
            if "hashlib" in text} == _HASHLIB_MODULES
