"""DES execution of the workload models vs the analytic evaluator.

The 192-node figures rest on the analytic layer; these tests re-run the
same phase descriptions as real simulated-MPI programs and require
agreement — the strongest internal-consistency check in the suite.
"""

import pytest

from repro.apps import GromacsModel, NemoModel, WRFModel
from repro.ir import DESBackend
from repro.util.errors import OutOfMemoryError


def _des(app, cluster, n_nodes, **kwargs):
    """Seconds per step of the DES run, and the run's world result."""
    result = app.run(cluster, n_nodes, backend=DESBackend(), **kwargs)
    return result.seconds_per_step, result.world


def _ratio(app, cluster, n_nodes):
    analytic = app.time_step(cluster, n_nodes).total
    des, _ = _des(app, cluster, n_nodes)
    return {"analytic": analytic, "des": des, "ratio": des / analytic}


class TestDESvsAnalytic:
    @pytest.mark.parametrize("app_cls,n_nodes", [
        (WRFModel, 1), (WRFModel, 2), (GromacsModel, 2), (NemoModel, 8),
    ])
    def test_agreement_on_arm(self, arm, app_cls, n_nodes):
        r = _ratio(app_cls(), arm, n_nodes)
        assert 0.85 < r["ratio"] < 1.20, r

    @pytest.mark.parametrize("app_cls,n_nodes", [
        (WRFModel, 2), (GromacsModel, 2),
    ])
    def test_agreement_on_mn4(self, mn4, app_cls, n_nodes):
        r = _ratio(app_cls(), mn4, n_nodes)
        assert 0.85 < r["ratio"] < 1.20, r

    def test_slowdown_ratio_preserved_in_des(self, arm, mn4):
        """The paper's WRF gap must appear in the DES path too."""
        app = WRFModel()
        des_arm, _ = _des(app, arm, 2)
        des_mn4, _ = _des(app, mn4, 2)
        assert 1.9 < des_arm / des_mn4 < 2.5

    def test_memory_gate_enforced(self, arm):
        with pytest.raises(OutOfMemoryError):
            _des(NemoModel(), arm, 4)

    def test_multi_step_consistency(self, arm):
        """Per-step time is step-count independent (no warm-up artifacts)."""
        one, _ = _des(WRFModel(io_enabled=False), arm, 2, steps=1)
        three, _ = _des(WRFModel(io_enabled=False), arm, 2, steps=3)
        assert three == pytest.approx(one, rel=0.02)

    def test_trace_contains_all_phases(self, arm):
        _, result = _des(WRFModel(), arm, 2)
        phases = {r.phase.split(":")[0] for r in result.trace}
        assert {"dynamics", "physics", "io"} <= phases

    def test_nic_contention_never_faster(self, arm):
        app = GromacsModel()
        free, _ = _des(app, arm, 2)
        shared, _ = _des(app, arm, 2, nic_contention=True)
        assert shared >= free * 0.999
