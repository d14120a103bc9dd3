"""batch ≡ scalar: every app's batched node sweep equals the scalar
oracle walk, point by point, on both paper clusters."""

import pytest

from repro.apps import ALL_APPS, get_app
from repro.machine import cte_arm, marenostrum4
from repro.util.errors import OutOfMemoryError
from tests.oracles import analytic_oracle

NODES = [32, 64, 128]


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


@pytest.mark.parametrize("make_cluster", [cte_arm, marenostrum4])
@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_sweep_timings_match_scalar_oracle(name, make_cluster):
    cluster = make_cluster(192)
    batched = get_app(name).sweep_timings(cluster, NODES)
    scalar = oracle_sweep(get_app(name), cluster, NODES)
    assert set(batched) == set(scalar)
    for n in batched:
        b, s = batched[n], scalar[n]
        assert (b is None) == (s is None), n
        if b is not None:
            assert b.phase_seconds == s.phase_seconds, n
            assert b.total == s.elapsed, n
