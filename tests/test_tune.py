"""The auto-tuner: space enumeration, Pareto exactness, determinism.

Regenerate the pinned frontier after an intentional model change with::

    PYTHONPATH=src python -m pytest tests/test_tune.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.presets import cte_arm
from repro.tune import (
    FLAG_CHOICES,
    TuneSpec,
    build_space,
    dominates,
    pareto_indices,
    placement_grid,
    tune,
)
from repro.apps import ALL_APPS
from repro.ir.batch import DEFAULT_STREAM_BUDGET
from repro.tune.engine import _TuneState, decode_point
from repro.tune.space import (
    PAGE_POLICIES,
    VEC_MODES,
    _page_factors,
    scenario_grid,
)
from repro.util.errors import ConfigurationError

from .oracles import tune_oracle

GOLDEN = Path(__file__).parent / "golden" / "tune_frontier.json"

_ARM = cte_arm(64)


# -- Pareto frontier ----------------------------------------------------------


@st.composite
def _cost_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    # a small value pool forces coordinate ties and exact duplicates,
    # the frontier's edge cases
    pool = st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0])
    times = draw(st.lists(pool, min_size=n, max_size=n))
    energies = draw(st.lists(pool, min_size=n, max_size=n))
    return np.asarray(times), np.asarray(energies)


def _pareto_loop_oracle(times, energies):
    """The original per-point sweep: walk equal-time groups of the
    (time, energy) lexsort, keeping a group's minimum-energy members
    when they beat the best energy seen at strictly smaller time.  The
    first group is always kept (``i == 0``): nothing precedes it, so not
    even an all-``+inf``-energy first group is dominated."""
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(energies, dtype=np.float64)
    n = t.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((e, t))
    keep: list[int] = []
    best_e = np.inf
    i = 0
    while i < n:
        j = i
        while j < n and t[order[j]] == t[order[i]]:
            j += 1
        group = order[i:j]
        group_min_e = e[group[0]]
        if i == 0 or group_min_e < best_e:
            keep.extend(int(g) for g in group if e[g] == group_min_e)
            best_e = group_min_e
        i = j
    return np.sort(np.asarray(keep, dtype=np.int64))


@st.composite
def _edge_arrays(draw):
    """NaN-free arrays, n in [0, 200], from small pools that force ties
    and duplicates, with +-inf in both coordinates."""
    n = draw(st.integers(min_value=0, max_value=200))
    pool = st.sampled_from([-np.inf, -1.0, 0.0, 1.0, 2.0, 3.0, np.inf])
    times = draw(st.lists(pool, min_size=n, max_size=n))
    energies = draw(st.lists(pool, min_size=n, max_size=n))
    return np.asarray(times), np.asarray(energies)


def _chunk_merged(times, energies, chunk):
    """Per-chunk frontiers merged by one final pass (the tuner's path)."""
    cand = []
    for lo in range(0, len(times), chunk):
        hi = lo + chunk
        cand.extend(
            (pareto_indices(times[lo:hi], energies[lo:hi]) + lo).tolist())
    cand = np.asarray(sorted(cand), dtype=np.int64)
    return cand[pareto_indices(times[cand], energies[cand])].tolist()


class TestPareto:
    @given(_edge_arrays())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, arrays):
        times, energies = arrays
        got = pareto_indices(times, energies)
        want = _pareto_loop_oracle(times, energies)
        assert got.tolist() == want.tolist()

    @given(_edge_arrays(), st.integers(min_value=1, max_value=64))
    @settings(max_examples=150, deadline=None)
    def test_merge_property_holds_for_any_chunking(self, arrays, chunk):
        times, energies = arrays
        whole = pareto_indices(times, energies).tolist()
        assert _chunk_merged(times, energies, chunk) == whole

    @pytest.mark.parametrize("times, energies, first", [
        ([1.0, 2.0, np.nan, np.nan], [4.0, 3.0, 2.0, 1.0], 2),
        ([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, np.nan, np.nan], 2),
        ([1.0, 2.0, np.nan], [3.0, np.nan, 1.0], 1),
    ])
    def test_nan_rejected_with_first_index(self, times, energies, first):
        with pytest.raises(ValueError, match=f"NaN at index {first}"):
            pareto_indices(np.asarray(times), np.asarray(energies))

    def test_infinite_energy_first_group_kept(self):
        # nothing has smaller time, so nothing dominates these points
        inf = np.inf
        assert pareto_indices(np.asarray([1.0, 1.0]),
                              np.asarray([inf, inf])).tolist() == [0, 1]
        assert pareto_indices(np.asarray([-inf, 0.0, 2.0]),
                              np.asarray([inf, 1.0, inf])).tolist() == [0, 1]

    @given(_cost_arrays())
    @settings(max_examples=200, deadline=None)
    def test_no_returned_point_dominated_no_dominated_included(self, arrays):
        times, energies = arrays
        front = set(pareto_indices(times, energies).tolist())
        pairs = [(float(t), float(e)) for t, e in zip(times, energies)]
        for i, p in enumerate(pairs):
            strictly_dominated = any(
                dominates(q, p) and q != p for q in pairs
            )
            if i in front:
                assert not strictly_dominated, (i, p, pairs)
            else:
                assert strictly_dominated, (i, p, pairs)

    def test_duplicates_of_frontier_coordinate_all_kept(self):
        times = np.asarray([1.0, 1.0, 2.0])
        energies = np.asarray([3.0, 3.0, 5.0])
        assert pareto_indices(times, energies).tolist() == [0, 1]

    def test_single_point(self):
        assert pareto_indices(np.asarray([4.0]),
                              np.asarray([2.0])).tolist() == [0]

    def test_empty(self):
        assert pareto_indices(np.empty(0), np.empty(0)).tolist() == []

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            pareto_indices(np.ones(3), np.ones(4))

    def test_merge_property_chunked(self):
        rng = np.random.default_rng(7)
        times = rng.uniform(1, 10, 200)
        energies = rng.uniform(1, 10, 200)
        whole = pareto_indices(times, energies).tolist()
        assert _chunk_merged(times, energies, 33) == whole


# -- space enumeration --------------------------------------------------------


class TestSpace:
    def test_placement_grid_tiles_node(self):
        grid = placement_grid(48)
        assert len(grid) == 45
        assert all(48 % rpn == 0 and rpn * tpr <= 48 for rpn, tpr in grid)
        assert (48, 1) in grid and (1, 48) in grid and (4, 12) in grid

    def test_scenario_grid(self):
        assert scenario_grid(1, 0.15) == (1.0,)
        grid = scenario_grid(3, 0.2)
        assert grid == pytest.approx((0.8, 1.0, 1.2))
        with pytest.raises(ValueError, match="scenario count"):
            scenario_grid(0, 0.1)
        with pytest.raises(ValueError, match="spread"):
            scenario_grid(2, 1.5)

    def test_nemo_space_excludes_documented_failures(self):
        space = build_space("nemo", _ARM, 16, scenarios=2)
        labels = {t.compiler for t in space.templates}
        # Fujitsu errors out on NEMO (Table III); AVX-512 toolchains do
        # not target the A64FX ISA at all
        assert labels == {"GNU/8.3.1-sve", "GNU/11.0.0"}
        reasons = {e.compiler: e.reason for e in space.excluded}
        assert "errors building NEMO" in reasons["Fujitsu/1.2.26b"]
        assert "targets AVX512" in reasons["Intel/2017.4"]
        # 2 compilers x 2 vectorization modes x 45 placements
        assert len(space.templates) == 180
        # x 3 flags x 4 page policies x 2x2 scenarios x 2 pricing models
        assert space.points_per_template == 3 * 4 * 4
        assert space.n_points == 180 * 2 * 48

    def test_decode_point_round_trips(self):
        space = build_space("nemo", _ARM, 16, scenarios=2)
        per = space.points_per_template
        for point_id in (0, 1, per - 1, per, 3 * per + 17,
                         space.n_points - 1):
            info = decode_point(space, point_id)
            template = space.templates[info["template_index"]]
            assert info["compiler"] == template.compiler
            assert info["flags"] in {f.name for f in FLAG_CHOICES}
            assert info["pricing"] in ("roofline", "ecm")

    @pytest.mark.parametrize("point_id", [-1, -10**6, "end", "past"])
    def test_decode_point_rejects_out_of_range(self, point_id):
        space = build_space("nemo", _ARM, 16, scenarios=1)
        point_id = {"end": space.n_points,
                    "past": space.n_points + 7}.get(point_id, point_id)
        with pytest.raises(ConfigurationError, match="outside"):
            decode_point(space, point_id)

    def test_page_factors_bounded(self):
        space = build_space("nemo", _ARM, 16, scenarios=1)
        for template in space.templates:
            assert all(0.0 < f <= 1.0 for f in template.page_factors)

    def test_page_factors_priced_once_per_placement(self, monkeypatch):
        import repro.tune.space as space_mod

        calls = []
        real = space_mod.node_stream_bandwidth

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(space_mod, "node_stream_bandwidth", counting)
        space = build_space("nemo", _ARM, 16, scenarios=1)
        placements = {(t.ranks_per_node, t.threads_per_rank)
                      for t in space.templates}
        assert len(calls) <= (len(PAGE_POLICIES) + 1) * len(placements)
        monkeypatch.undo()
        for template in space.templates:
            assert template.page_factors == _page_factors(
                _ARM, template.ranks_per_node, template.threads_per_rank)
        # exclusions keep their enumeration order: compilers sorted by
        # label, vectorization modes in order within each
        fujitsu = [(label, vec) for label in ("Fujitsu/1.1.18",
                                              "Fujitsu/1.2.26b")
                   for vec in VEC_MODES]
        avx = [(label, "*") for label in ("GNU/8.4.2", "Intel/19.1.1.217",
                                          "Intel/2017.4", "Intel/2018.4")]
        assert [(e.compiler, e.vectorization)
                for e in space.excluded] == fujitsu + avx
        assert all("errors building NEMO" in e.reason
                   for e in space.excluded[:4])
        assert all("targets AVX512" in e.reason for e in space.excluded[4:])
        assert [(t.compiler, t.vectorization, t.ranks_per_node,
                 t.threads_per_rank) for t in space.templates] == [
            (label, vec, rpn, tpr)
            for label in ("GNU/11.0.0", "GNU/8.3.1-sve")
            for vec in VEC_MODES for rpn, tpr in placement_grid(48)]


# -- the engine ---------------------------------------------------------------


def _small_spec(**kw):
    defaults = dict(app="nemo", cluster="cte-arm", n_nodes=16, scenarios=1)
    defaults.update(kw)
    return TuneSpec(**defaults)


class TestEngine:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError, match="n_nodes"):
            TuneSpec(app="nemo", cluster="cte-arm", n_nodes=0)
        with pytest.raises(ConfigurationError, match="pricing"):
            TuneSpec(app="nemo", cluster="cte-arm", pricing=())

    def test_tune_smoke(self):
        result = tune(_small_spec())
        assert result.n_points == 180 * 2 * 12
        assert set(result.frontiers) == {"roofline", "ecm"}
        for points in result.frontiers.values():
            assert points
            # frontier sorted by time; energy non-increasing along it
            times = [p.time_s for p in points]
            assert times == sorted(times)
        assert result.best_time.time_s <= result.baseline["roofline"][0]
        rendered = result.render()
        assert "Pareto frontier [roofline]" in rendered
        assert "repro.verify" in rendered
        json.dumps(result.to_dict())  # JSON-safe

    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_MIN_SECONDS", "0")
        spec = _small_spec(scenarios=2)
        serial = tune(spec, workers=0)
        pooled = tune(spec, workers=3)
        assert pooled.used_pool
        assert serial.frontier == pooled.frontier
        assert serial.frontiers == pooled.frontiers
        assert serial.n_points == pooled.n_points

    def test_pool_probe_excludes_space_building(self, monkeypatch):
        """The probe times the first task alone: a slow ``build_space``
        must not be multiplied by the remaining task count into a pool
        for a tune that prices in milliseconds."""
        import time

        import repro.tune.engine as engine

        real = engine.build_space

        def slow_build_space(*args, **kwargs):
            time.sleep(0.3)
            return real(*args, **kwargs)

        monkeypatch.delenv("REPRO_POOL_MIN_SECONDS", raising=False)
        monkeypatch.setattr(engine, "build_space", slow_build_space)
        result = tune(TuneSpec("nemo", "cte-arm", 16, scenarios=1),
                      workers=2)
        assert result.used_pool is False

    @pytest.mark.parametrize("budget", [1 << 12, 1 << 16,
                                        DEFAULT_STREAM_BUDGET])
    def test_budget_and_worker_invariance(self, budget, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_MIN_SECONDS", "0")
        reference = tune(_small_spec(), workers=0)
        for workers in (0, 3):
            got = tune(_small_spec(memory_budget_bytes=budget),
                       workers=workers)
            assert got.used_pool == (workers > 1)
            assert got.frontier == reference.frontier
            assert got.frontiers == reference.frontiers
            assert got.n_points == reference.n_points

    def test_small_budget_tune_stays_under_budget(self):
        import tracemalloc

        budget = 1 << 16
        # 3,072 points per task: unchunked, a task's pass needs ~3x budget
        state = _TuneState(_small_spec(scenarios=8,
                                       memory_budget_bytes=budget))
        tasks = state.tasks()
        state.price_task(tasks[0])  # warm tapes, networks, binaries
        tracemalloc.start()
        try:
            for task in tasks[::9]:  # both pricing models, 10 placements
                tracemalloc.reset_peak()
                base, _ = tracemalloc.get_traced_memory()
                state.price_task(task)
                _, peak = tracemalloc.get_traced_memory()
                assert peak - base < budget, (task, peak - base)
        finally:
            tracemalloc.stop()

    def test_explanations_cover_leading_points(self):
        result = tune(_small_spec(), explain_top=2)
        assert result.explanations
        head = result.explanations[0]
        assert result.frontier[0].compiler in head

    def test_unknown_cluster_and_app(self):
        with pytest.raises((ConfigurationError, KeyError)):
            tune(_small_spec(cluster="deep-thought"))
        with pytest.raises((ConfigurationError, KeyError)):
            tune(_small_spec(app="skynet"))


def _oracle_cases():
    """Every app x cluster pair; pricing, scenario count and spread
    rotate so each value is covered on several apps."""
    pricings = (("roofline", "ecm"), ("roofline",), ("ecm",))
    cases = []
    for i, (app, cluster) in enumerate(
            (a, c) for a in sorted(ALL_APPS)
            for c in ("cte-arm", "marenostrum4")):
        cases.append(pytest.param(
            dict(app=app, cluster=cluster, pricing=pricings[i % 3],
                 scenarios=1 + (i // 2) % 3,
                 scenario_spread=(0.15, 0.07)[(i // 3) % 2]),
            id=f"{app}-{cluster}"))
    return cases


class TestPerTemplateOracle:
    """The placement-grid engine equals the historical per-template
    path (``tests/oracles.py:tune_oracle``) bit for bit: every task's
    candidates are the Pareto merge of its templates' candidates, and
    every frontier has the same ids, times and energies."""

    @pytest.mark.parametrize("kw", _oracle_cases())
    def test_candidates_and_frontiers_match(self, kw):
        spec = TuneSpec(n_nodes=16, **kw)
        want_cands, want_fronts = tune_oracle(spec)
        state = _TuneState(spec)
        for g_idx, p_idx in state.tasks():
            _, ids, times, energies = state.price_task((g_idx, p_idx))
            parts = [want_cands[t, p_idx] for t in state.placements[g_idx]]
            o_ids, o_t, o_e = (np.concatenate(x) for x in zip(*parts))
            keep = pareto_indices(o_t, o_e)
            got, want = np.argsort(ids), np.argsort(o_ids[keep])
            assert ids[got].tolist() == o_ids[keep][want].tolist()
            assert times[got].tolist() == o_t[keep][want].tolist()
            assert energies[got].tolist() == o_e[keep][want].tolist()
        result = tune(spec, explain_top=0)
        fronts = dict(result.frontiers)
        fronts[None] = result.frontier
        assert set(fronts) == set(want_fronts)
        for name, points in fronts.items():
            points = sorted(points, key=lambda p: p.point_id)
            w_ids, w_t, w_e = want_fronts[name]
            assert [p.point_id for p in points] == w_ids.tolist()
            assert [p.time_s for p in points] == w_t.tolist()
            assert [p.energy_j for p in points] == w_e.tolist()


class TestGoldenFrontier:
    def test_pinned_frontier(self, request):
        result = tune(_small_spec())
        payload = {
            "spec": {"app": "nemo", "cluster": "cte-arm", "n_nodes": 16,
                     "scenarios": 1},
            "frontiers": {
                name: [
                    {"config": p.config, "time_s": p.time_s,
                     "energy_j": p.energy_j}
                    for p in points
                ]
                for name, points in result.frontiers.items()
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if request.config.getoption("--update-golden"):
            GOLDEN.write_text(text)
            pytest.skip("golden frontier rewritten")
        assert GOLDEN.is_file(), (
            f"missing {GOLDEN}; run with --update-golden")
        assert text == GOLDEN.read_text(), (
            "tuner frontier drifted from tune_frontier.json; if the "
            "change is intentional, regenerate with --update-golden "
            "and review the diff")


class TestCLI:
    def test_tune_command(self, capsys):
        from repro.harness.cli import main

        assert main(["tune", "nemo", "--cluster", "cte-arm",
                     "--nodes", "16", "--scenarios", "1",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier [roofline]" in out
        assert "Pareto frontier [ecm]" in out
        assert "repro.verify" in out
        assert "priced" in out

    def test_tune_json(self, capsys):
        from repro.harness.cli import main

        assert main(["tune", "nemo", "--cluster", "cte-arm",
                     "--scenarios", "1", "--pricing", "roofline",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "nemo"
        assert list(payload["frontiers"]) == ["roofline"]

    def test_tune_bad_cluster_is_error(self, capsys):
        from repro.harness.cli import main

        assert main(["tune", "nemo", "--cluster", "nonesuch"]) == 2
