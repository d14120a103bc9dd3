"""sharded ≡ single: the one-step 768-rank NEMO event calendar, pinned to
its event count and elapsed time, on one engine and on 2 in-process
shards (the figures the DES benchmark reports)."""

from repro.apps import get_app
from repro.des.shard import ShardedSpec, run_sharded
from repro.machine import cte_arm


def test_nemo768_calendar_on_one_engine_and_two_shards():
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
        runs[n_shards] = (stats.events, repr(result.elapsed),
                          result.rank_results)
    for events, elapsed, _ in runs.values():
        assert events == 157063
        assert elapsed == "0.8046910547218572"
    assert runs[1] == runs[2]
