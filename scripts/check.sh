#!/usr/bin/env bash
# Repository gate: lint, type check, tier-1 tests.
#
#     scripts/check.sh            # run everything available
#     scripts/check.sh --fast     # skip the test suite
#
# ruff and mypy read their configuration from pyproject.toml.  Either tool
# being absent from the environment is reported and skipped, not fatal —
# the offline test container ships only the runtime toolchain — but when a
# tool IS present, its findings fail the gate.
set -u
cd "$(dirname "$0")/.."

fast=0
[ "${1:-}" = "--fast" ] && fast=1

status=0
skipped=""

run_tool() {
    local name="$1"; shift
    if command -v "$name" >/dev/null 2>&1; then
        echo "== $name =="
        if ! "$name" "$@"; then
            status=1
        fi
    else
        skipped="$skipped $name"
    fi
}

run_tool ruff check src tests examples
run_tool mypy

if [ "$fast" -eq 0 ]; then
    # Coverage gate: only when pytest-cov is importable (the offline test
    # container ships without it); floor overridable via REPRO_COV_MIN.
    cov_args=""
    if python -c "import pytest_cov" >/dev/null 2>&1; then
        cov_args="--cov=repro --cov-report=term --cov-fail-under=${REPRO_COV_MIN:-80}"
        echo "== pytest (tier 1, coverage >= ${REPRO_COV_MIN:-80}%) =="
    else
        skipped="$skipped pytest-cov"
        echo "== pytest (tier 1) =="
    fi
    # shellcheck disable=SC2086
    if ! PYTHONPATH=src python -m pytest -x -q $cov_args; then
        status=1
    fi
    # perfbench drives the entry points the benchmark calls and patches
    # (clear_caches, tape_cache_stats, compile_tape, run_experiments,
    # tune, last_run_stats); its own tests pin that contract.
    echo "== perfbench tests =="
    if ! python -m pytest -q perfbench/tests; then
        status=1
    fi
    echo "== IR round-trip smoke =="
    if ! PYTHONPATH=src python - <<'EOF'
from repro.apps import get_app
from repro.ir import AnalyticBackend, from_json, to_json
from repro.machine import cte_arm

cluster = cte_arm(16)
app = get_app("nemo")
program = app.program(app.mapping(cluster, 16))
parsed = from_json(to_json(program))
assert parsed == program, "IR JSON round-trip must be lossless"
backend = AnalyticBackend()
binary = app.build(cluster)
before = backend.run(program, cluster, 16, binary=binary)
after = backend.run(parsed, cluster, 16, binary=binary)
assert after.elapsed == before.elapsed, "round-trip changed the cost"
assert after.phase_seconds == before.phase_seconds
print(f"round-trip OK: {program.name}, elapsed {before.elapsed:.6g}s")
EOF
    then
        status=1
    fi
    echo "== backend matrix smoke =="
    if ! PYTHONPATH=src python - <<'EOF'
from repro.apps import get_app
from repro.ir import get_backend
from repro.machine import cte_arm
from repro.simmpi import RankMapping

cluster = cte_arm(4)
app = get_app("gromacs")
mapping = RankMapping(cluster, n_nodes=2, ranks_per_node=2)
program = app.program(mapping)
binary = app.build(cluster)
results = {
    name: get_backend(name).run(program, cluster, 2, mapping=mapping,
                                binary=binary, check_memory=False)
    for name in ("analytic", "fastcoll", "des")
}
des, fast = results["des"].elapsed, results["fastcoll"].elapsed
assert abs(fast - des) <= 1e-9 * des, "fastcoll must reproduce the DES"
ratio = results["analytic"].elapsed / des
assert 0.5 < ratio < 2.0, f"analytic/DES ratio {ratio:.3f} out of range"
print("backend matrix OK: " + ", ".join(
    f"{name} {r.elapsed:.6g}s" for name, r in results.items()))
EOF
    then
        status=1
    fi
    echo "== sharded-DES differential smoke =="
    if ! PYTHONPATH=src python - <<'EOF'
from repro.apps import get_app
from repro.des.shard import ShardedSpec, run_sharded
from repro.ir import DESBackend
from repro.machine import cte_arm
from repro.simmpi import RankMapping

cluster = cte_arm(4)
app = get_app("nemo")
mapping = RankMapping(cluster, n_nodes=4, ranks_per_node=8)
program = app.program(mapping, steps=2)
binary = app.build(cluster)

single = DESBackend().run(program, cluster, 4, mapping=mapping,
                          binary=binary, check_memory=False)
spec = ShardedSpec(program=program, mapping=mapping, n_shards=2,
                   binary=binary)
sharded, stats = run_sharded(spec)
assert sharded.elapsed == single.elapsed, (
    f"sharded merge must be byte-identical: "
    f"{sharded.elapsed!r} != {single.elapsed!r}")
assert stats.cross_messages > 0, "smoke must exercise the cross-shard seam"
print(f"sharded DES OK: 2 shards == 1 engine bit-exact "
      f"(elapsed {single.elapsed:.6g}s, {stats.windows} windows, "
      f"{stats.cross_messages} cross-shard messages)")
EOF
    then
        status=1
    fi
    echo "== DES calendar audit (768-rank NEMO, 1 engine vs 2 shards) =="
    if ! PYTHONPATH=src python - <<'EOF'
"""Pin the event calendar of the one-step 768-rank NEMO program: the same
event count and bit-identical elapsed time and rank results on one engine
and on 2 in-process shards (the figures the DES benchmark reports)."""
from repro.apps import get_app
from repro.des.shard import ShardedSpec, run_sharded
from repro.machine import cte_arm

cluster = cte_arm(16)
app = get_app("nemo")
mapping = app.mapping(cluster, 16)
program = app.program(mapping, steps=1)
binary = app.build(cluster)
runs = {}
for n_shards in (1, 2):
    spec = ShardedSpec(program=program, mapping=mapping, n_shards=n_shards,
                       binary=binary, world_kwargs={"trace": "off"})
    result, stats = run_sharded(spec)
    runs[n_shards] = (stats.events, repr(result.elapsed), result.rank_results)
for n_shards, (events, elapsed, _) in runs.items():
    assert events == 157063, f"{n_shards} shard(s): {events} events"
    assert elapsed == "0.8046910547218572", f"{n_shards} shard(s): {elapsed}"
assert runs[1] == runs[2], "2 shards must reproduce one engine exactly"
print(f"DES calendar OK: {runs[1][0]} events, elapsed {runs[1][1]} s "
      f"on 1 engine and on 2 shards")
EOF
    then
        status=1
    fi
    echo "== batched-vs-scalar differential smoke =="
    if ! PYTHONPATH=src python - <<'EOF'
from repro.apps import ALL_APPS, get_app
from repro.machine import cte_arm, marenostrum4
from repro.util.errors import OutOfMemoryError
from tests.oracles import analytic_oracle


def oracle_sweep(app, cluster, nodes):
    """The sweep priced point by point with the scalar oracle walk."""
    binary = app.build(cluster)
    out = {}
    for n in nodes:
        if n > cluster.n_nodes:
            continue
        try:
            app.check_feasible(cluster, n)
        except OutOfMemoryError:
            out[n] = None
            continue
        mapping = app.mapping(cluster, n)
        out[n] = analytic_oracle(app.program(mapping, steps=1), cluster, n,
                                 mapping=mapping, binary=binary,
                                 check_memory=False)
    return out


clusters = [cte_arm(192), marenostrum4(192)]
nodes = [32, 64, 128]
checks = 0
for name in sorted(ALL_APPS):
    for cluster in clusters:
        app = get_app(name)
        batched = app.sweep_timings(cluster, nodes)
        scalar = oracle_sweep(get_app(name), cluster, nodes)
        assert set(batched) == set(scalar)
        for n in batched:
            b, s = batched[n], scalar[n]
            assert (b is None) == (s is None), (name, cluster.name, n)
            if b is None:
                continue
            assert b.phase_seconds == s.phase_seconds, (name, cluster.name, n)
            assert b.total == s.elapsed, (name, cluster.name, n)
            checks += 1
print(f"batched == scalar oracle bit-for-bit on {checks} app points "
      f"({len(ALL_APPS)} apps x {len(clusters)} clusters x {len(nodes)} node counts)")
EOF
    then
        status=1
    fi
    echo "== numpy version floor =="
    if ! PYTHONPATH=src python - <<'EOF'
import re
import tomllib
from pathlib import Path

import numpy

deps = tomllib.loads(Path("pyproject.toml").read_text())["project"]["dependencies"]
spec = next(d for d in deps if d.startswith("numpy"))
floor = re.search(r">=\s*([\d.]+)", spec).group(1)
def vtuple(v):
    return tuple(int(x) for x in re.findall(r"\d+", v)[:3])
assert vtuple(numpy.__version__) >= vtuple(floor), (
    f"numpy {numpy.__version__} below the pyproject floor {floor}")
print(f"numpy {numpy.__version__} >= {floor} (pyproject floor) OK")
EOF
    then
        status=1
    fi
    echo "== bench smoke =="
    if ! python scripts/bench.py --quick --out "$(mktemp -d)/BENCH_substrate.json" 2>/dev/null; then
        status=1
    fi
    echo "== static analyzer gate (all bundled programs x both presets) =="
    for cluster in cte-arm mn4; do
        if ! PYTHONPATH=src python -m repro.harness.cli analyze all \
                --cluster "$cluster" --nodes 48 --strict >/dev/null; then
            echo "static analysis found new diagnostics on $cluster" >&2
            status=1
        fi
    done
    echo "== ECM figure-suite smoke (batch backend, cold == warm) =="
    if ! PYTHONPATH=src python - <<'EOF'
"""Run a figure-suite slice under the batch backend with ECM pricing
twice against a fresh cache: the warm pass must be served entirely from
cache and byte-identical, and the cache keys must differ from the
roofline keys — the model-identity-in-cache-key acceptance check."""
import tempfile
from repro.harness.parallel import cache_key, last_run_stats, run_experiments

exp_ids = ["fig6_linpack", "fig11_nemo", "ext_ecm_kernels"]
for exp_id in exp_ids:
    assert cache_key(exp_id, "batch", "ecm") != cache_key(exp_id, "batch", "roofline"), \
        f"pricing model must be part of the cache key ({exp_id})"
with tempfile.TemporaryDirectory() as cache:
    cold = run_experiments(exp_ids, cache_dir=cache,
                           backend="batch", pricing="ecm")
    warm = run_experiments(exp_ids, cache_dir=cache,
                           backend="batch", pricing="ecm")
    sources = {exp: src for exp, _, src in last_run_stats()}
    assert all(src == "cache" for src in sources.values()), sources
assert warm == cold, "warm ECM batch pass must be byte-identical to cold"
print(f"ECM batch suite OK: {len(exp_ids)} experiments, cold == warm, "
      "pricing in cache key")
EOF
    then
        status=1
    fi
    echo "== vector-vs-scalar network audit (Figs. 4-5, ext_faults) =="
    if ! PYTHONPATH=src python - <<'EOF'
"""The all-pairs sweeps price pair arrays through NetworkModel.p2p_times;
each full-size sweep must equal, bit for bit, the same sweep priced one
pair at a time through the scalar NetworkModel.p2p_time."""
import numpy as np
from repro.bench.osu import (FIG4_SIZE, FIG5_SIZES, fig4_data, fig5_data,
                             pairwise_bandwidth_map)
from repro.machine import cte_arm
from repro.network import network_for
from repro.network.faults import random_faults
from repro.util.rng import make_rng


def scalar_map(net, size):
    n = net.n_nodes
    return np.array([[np.nan if a == b else size / net.p2p_time(a, b, size)
                      for b in range(n)] for a in range(n)])


checks = 0
for healthy in (False, True):
    net = network_for(cte_arm(192), n_nodes=192, healthy=healthy)
    assert np.array_equal(fig4_data(healthy=healthy),
                          scalar_map(net, FIG4_SIZE), equal_nan=True), healthy
    checks += 1

net = network_for(cte_arm(192), n_nodes=192)
pairs = [(a, b) for a in range(192) for b in range(192) if a != b]
idx = make_rng(7, "osu-pairs", 192, 1500).choice(len(pairs), size=1500,
                                                 replace=False)
sample = [pairs[i] for i in np.sort(idx)]
dists = fig5_data(max_pairs=1500)
assert sorted(dists) == FIG5_SIZES
for size in FIG5_SIZES:
    want = [size / net.p2p_time(a, b, size) for a, b in sample]
    assert np.array_equal(dists[size], want), size
    checks += 1

for n_faults, direction in [(1, "recv"), (3, "recv"), (2, "send"),
                            (2, "both")]:
    faults = random_faults(48, n_faults, directions=direction, seed=n_faults)
    net = network_for(cte_arm(48), n_nodes=48, faults=faults)
    assert np.array_equal(pairwise_bandwidth_map(net, size=256),
                          scalar_map(net, 256), equal_nan=True), direction
    checks += 1
print(f"vector == scalar bit-for-bit on {checks} full-size network sweeps "
      "(2 Fig. 4 maps, 25 Fig. 5 sizes, 4 ext_faults maps)")
EOF
    then
        status=1
    fi
    echo "== EXPERIMENTS.md byte-identity audit =="
    if ! PYTHONPATH=src python - <<'EOF'
"""The committed EXPERIMENTS.md must be byte-identical to a fresh render
under the default (roofline) pricing — the historical-output guarantee
the pluggable pricing layer is required to preserve."""
from pathlib import Path
from repro.harness.cli import _render_experiments_md

committed = Path("EXPERIMENTS.md").read_text()
fresh = _render_experiments_md() + "\n"  # the CLI prints a trailing newline
assert fresh == committed, (
    "EXPERIMENTS.md drifted from a fresh default-pricing render; "
    "regenerate with: PYTHONPATH=src python -m repro.harness.cli "
    "experiments-md > EXPERIMENTS.md")
print(f"EXPERIMENTS.md byte-identical under default pricing "
      f"({len(committed)} bytes)")
EOF
    then
        status=1
    fi
    echo "== service smoke (HTTP + bit-exactness) =="
    if ! PYTHONPATH=src python - <<'EOF'
"""Boot a real HTTP server, drive ~50 seeded mixed queries through the
open-loop generator, and hold the SERVICE.md guarantees: accounting
sanity and byte-identity with a direct run_batch pass."""
from repro.service import (
    CapacityService, ServiceConfig, ServiceServer, TrafficConfig,
    run_loadtest, verify_bit_exactness,
)

config = TrafficConfig(stages=((0.5, 100.0),), seed=3)
service_config = ServiceConfig(quota_rate=1e6, quota_burst=1e6)
with ServiceServer(CapacityService(service_config)) as server:
    report, samples = run_loadtest(
        config, url=server.url, keep_bodies=True, time_compression=10.0)
assert report.offered >= 30, f"schedule too small: {report.offered}"
assert report.offered == report.completed + report.rejected + report.errors
assert report.errors == 0, f"unexpected errors: {report.per_status}"
assert report.rejected == 0, "quota should be wide open in the smoke"
assert report.latency_ms["p50"] <= report.latency_ms["p99"]
with CapacityService(service_config) as reference:
    audit = verify_bit_exactness(samples, reference)
assert audit["checked"] >= 30 and audit["identical"], audit
print(f"served {report.offered} queries over HTTP; "
      f"{audit['checked']} bodies bit-identical to direct run_batch")
EOF
    then
        status=1
    fi
    echo "== resilience smoke =="
    if ! PYTHONPATH=src python -m repro.harness.cli resilience \
            --nodes 4 --intensity 1 --steps 5 --json >/dev/null; then
        status=1
    fi
    echo "== streaming run_batch bit-identity smoke (50k points) =="
    if ! PYTHONPATH=src python - <<'EOF'
"""Price 50k override points through run_override_columns (the streaming
column path the tuner rides) and through plain run_batch on a scalar-job
sample of the same points, asserting bit-identity lane by lane — the
ISSUE 10 tentpole guarantee at smoke scale.  A second arm does the same
for a 57,600-point broadcast grid with three stacked jobs."""
import numpy as np
from repro.apps import get_app
from repro.ir.batch import BatchJob, clear_caches, shared_batch_backend
from repro.machine.presets import cte_arm

cluster = cte_arm(64)
app = get_app("nemo")
mapping = app.mapping(cluster, 16)
program = app.program(mapping)
binary = app.build(cluster)
base = BatchJob(program, cluster, 16, mapping=mapping, binary=binary,
                check_memory=False)
n = 50_000
grid = 1.0 + 0.4 * np.arange(n, dtype=np.float64) / (n - 1) - 0.2
columns = {"comm_scale": grid, "bandwidth_scale": grid[::-1].copy(),
           "rate_scale": np.roll(grid, n // 3)}
backend = shared_batch_backend()
elapsed = np.concatenate([
    chunk.elapsed for chunk in backend.run_override_columns(
        base, columns, memory_budget_bytes=1 << 22)
])
assert elapsed.shape == (n,)
sample = range(0, n, n // 199)
jobs = [BatchJob(program, cluster, 16, mapping=mapping, binary=binary,
                 check_memory=False,
                 overrides={k: float(v[i]) for k, v in columns.items()})
        for i in sample]
clear_caches()
scalar = backend.run_batch(jobs)
for i, result in zip(sample, scalar):
    assert elapsed[i] == result.elapsed, (i, elapsed[i], result.elapsed)
print(f"streaming OK: {n:,} points, {len(jobs)} scalar probes bit-identical")

# second arm: a broadcast grid (the tuner's shape) with three stacked
# jobs on the last axis, each knob spanning only its own axes
stacked = []
for nodes in (8, 16, 32):
    m = app.mapping(cluster, nodes)
    stacked.append(BatchJob(app.program(m), cluster, nodes, mapping=m,
                            binary=binary, check_memory=False))
rates = np.linspace(0.85, 1.1, 8)
comms = np.linspace(0.8, 1.2, 40)
bws = np.linspace(0.6, 1.4, 60 * 3).reshape(60, 3)
grid_cols = {"rate_scale": rates[:, None, None, None],
             "comm_scale": comms[None, :, None, None],
             "bandwidth_scale": bws[None, None, :, :]}
shape = (8, 40, 60, 3)
clear_caches()
elapsed = np.concatenate([
    chunk.elapsed.ravel() for chunk in backend.run_override_columns(
        stacked, grid_cols, memory_budget_bytes=1 << 22)
])
n = int(np.prod(shape))
assert n >= 50_000 and elapsed.shape == (n,)
sample = range(0, n, n // 199)
probes = []
for i in sample:
    f, c, b, j = np.unravel_index(i, shape)
    job = stacked[j]
    probes.append(BatchJob(job.program, cluster, job.n_nodes,
                           mapping=job.mapping, binary=binary,
                           check_memory=False,
                           overrides={"rate_scale": float(rates[f]),
                                      "comm_scale": float(comms[c]),
                                      "bandwidth_scale": float(bws[b, j])}))
clear_caches()
for i, result in zip(sample, backend.run_batch(probes)):
    assert elapsed[i] == result.elapsed, (i, elapsed[i], result.elapsed)
print(f"grid streaming OK: {n:,} points over {len(stacked)} stacked jobs, "
      f"{len(probes)} scalar probes bit-identical")
EOF
    then
        status=1
    fi
    echo "== tune smoke (repro-lab tune nemo --cluster cte-arm) =="
    if ! PYTHONPATH=src python - <<'EOF'
"""Fast end-to-end pass over the tuner CLI: a scenarios=1 sweep must
exit 0 and print per-pricing Pareto frontiers with verify explanations."""
import contextlib
import io
from repro.harness.cli import main

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["tune", "nemo", "--cluster", "cte-arm", "--nodes", "16",
                 "--scenarios", "1", "--top", "3"])
text = out.getvalue()
assert code == 0, f"tune exited {code}"
assert "Pareto frontier [roofline]" in text, text[:400]
assert "Pareto frontier [ecm]" in text, text[:400]
assert "repro.verify" in text, "verify explanations missing"
print("tune smoke OK: " + text.splitlines()[0])
EOF
    then
        status=1
    fi
    echo "== pareto audit (2,000 seeded arrays vs brute-force dominance) =="
    if ! PYTHONPATH=src python - <<'EOF'
"""Check pareto_indices against the definition in repro.tune.dominates,
evaluated all-pairs: a point is on the frontier iff no other point
dominates it.  Small value pools force ties and exact duplicates; +-inf
appears in both coordinates."""
import numpy as np
from repro.tune import dominates, pareto_indices

rng = np.random.default_rng(2021)
pool = np.asarray([-np.inf, 0.0, 1.0, 1.5, 2.0, 3.0, 5.0, np.inf])
points = 0
for _ in range(2000):
    n = int(rng.integers(0, 64))
    t = rng.choice(pool[: int(rng.integers(2, pool.size + 1))], n)
    e = rng.choice(pool, n)
    # dom[j, i] == dominates((t[j], e[j]), (t[i], e[i]))
    dom = ((t[:, None] <= t) & (e[:, None] <= e)
           & ((t[:, None] < t) | (e[:, None] < e)))
    if n:
        j, i = rng.integers(0, n, 2)
        assert dom[j, i] == dominates((t[j], e[j]), (t[i], e[i]))
    want = np.flatnonzero(~dom.any(axis=0))
    got = pareto_indices(t, e)
    assert got.tolist() == want.tolist(), (t.tolist(), e.tolist(),
                                           got.tolist(), want.tolist())
    points += n
print(f"pareto audit OK: 2000 arrays, {points:,} points, every frontier "
      f"equals the brute-force dominance definition")
EOF
    then
        status=1
    fi
fi

[ -n "$skipped" ] && echo "skipped (not installed):$skipped"
if [ "$status" -eq 0 ]; then
    echo "check.sh: OK"
else
    echo "check.sh: FAILED"
fi
exit "$status"
