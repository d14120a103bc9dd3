"""The static IR analyzer (``repro.ir.analyze``).

Unit tests pin every diagnostic family with a hand-seeded defect; the
golden fixture locks the bundled bench/app matrix to a clean dogfood run;
the golden *negative* reconstructs the historical constant-collective-tag
scheme and asserts the overtaking analyzer finds the bug class that
property testing once needed a dynamic search to hit; the hypothesis
property at the bottom seeds random defects into random clean programs
(flagged) and checks the unmutated programs stay clean (zero false
positives).
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.ir import (
    Barrier,
    BatchAnalyticBackend,
    CommOp,
    ComputeOp,
    DESBackend,
    Loop,
    Phase,
    Program,
    certified_optimize,
    certify,
    static_clean,
)
from repro.ir.analyze import (
    ANALYZE_VERSION,
    CollEv,
    RecvEv,
    SendEv,
    Traces,
    analyze_program,
    bundled_targets,
    check_resources,
    check_traces,
    effect_summary,
    target,
    unroll,
)
from repro.machine import PartitionCapacity
from repro.machine.presets import cte_arm, marenostrum4
from repro.util.errors import ConfigurationError
from repro.verify.diagnostics import Severity

from .strategies import defect_cases, ir_programs

GOLDEN = Path(__file__).parent / "golden" / "analyze_clean.json"

_CHAN = ("user", 0)


def _rules(diags):
    return sorted(d.rule_id for d in diags)


def _flagged(diags):
    return [d for d in diags
            if d.severity in (Severity.ERROR, Severity.WARNING)]


def _coll_program(*ops):
    return Program(name="t", body=(Phase(name="p", ops=tuple(ops)),),
                   steps=1)


# -- trace unrolling ----------------------------------------------------------


def test_unroll_structure_and_truncation():
    prog = Program(name="t", body=(
        Loop(10, (Phase(name="p", ops=(
            CommOp(kind="allreduce", size=64), Barrier())),)),), steps=10)
    tr = unroll(prog, 4, max_unroll=2)
    assert tr.truncated
    assert tr.n_ranks == 4
    # 2 unrolled trips x (allreduce + barrier) per rank, instance channels
    for r in range(4):
        evs = tr.per_rank[r]
        assert [e.kind for e in evs] == ["allreduce", "barrier"] * 2
        assert len({e.channel for e in evs}) == 4
    # constant scheme collapses the channels per kind
    tc = unroll(prog, 4, max_unroll=2, tag_scheme="constant")
    assert len({e.channel for e in tc.per_rank[0]}) == 2


def test_unroll_rejects_bad_inputs():
    prog = _coll_program(Barrier())
    with pytest.raises(ConfigurationError):
        unroll(prog, 2, tag_scheme="bogus")
    with pytest.raises(ConfigurationError):
        unroll(prog, 0)


# -- matching walk: one seeded defect per rule --------------------------------


def test_walk_clean_symmetric_exchanges():
    prog = _coll_program(
        CommOp(kind="halo", size=4096, neighbors=4),
        CommOp(kind="ring", size=4096),
        CommOp(kind="allreduce", size=64),
        Barrier(),
    )
    assert check_traces(unroll(prog, 8)) == []


def test_walk_deadlock_cycle_sta001():
    t0 = (RecvEv(src=1, channel=_CHAN, size=8, op_id=0, phase="p"),
          SendEv(dst=1, channel=_CHAN, size=8, op_id=1, phase="p"))
    t1 = (RecvEv(src=0, channel=_CHAN, size=8, op_id=2, phase="p"),
          SendEv(dst=0, channel=_CHAN, size=8, op_id=3, phase="p"))
    tr = Traces(n_ranks=2, per_rank=[list(t0), list(t1)])
    assert _rules(check_traces(tr)) == ["STA001"]


def test_walk_missing_sender_sta003():
    t0 = [RecvEv(src=1, channel=_CHAN, size=8, op_id=0, phase="p")]
    tr = Traces(n_ranks=2, per_rank=[t0, []])
    assert _rules(check_traces(tr)) == ["STA003"]


def test_walk_unmatched_send_sta002():
    t0 = [SendEv(dst=1, channel=_CHAN, size=8, op_id=0, phase="p")]
    tr = Traces(n_ranks=2, per_rank=[t0, []])
    diags = check_traces(tr)
    assert _rules(diags) == ["STA002"]
    assert diags[0].details["count"] == 1


def test_walk_dropped_collective_sta004():
    prog = _coll_program(Barrier(), CommOp(kind="allreduce", size=64))
    tr = unroll(prog, 4)
    victim = [e for e in tr.per_rank[2] if e.kind != "barrier"]
    per_rank = list(tr.per_rank)
    per_rank[2] = victim
    mutated = Traces(n_ranks=4, per_rank=per_rank, op_labels=tr.op_labels)
    assert _rules(check_traces(mutated)) == ["STA004"]


def test_walk_root_disagreement_sta005():
    prog = _coll_program(CommOp(kind="bcast", size=64, root=0))
    tr = unroll(prog, 4)
    tr.per_rank[3][0] = tr.per_rank[3][0]._replace(root=1)
    assert _rules(check_traces(tr)) == ["STA005"]


def test_walk_size_mismatch_sta006():
    prog = _coll_program(CommOp(kind="allgather", size=64))
    tr = unroll(prog, 4)
    tr.per_rank[1][0] = tr.per_rank[1][0]._replace(size=128)
    diags = check_traces(tr)
    assert _rules(diags) == ["STA006"]
    assert diags[0].severity is Severity.WARNING


# -- the golden negative: the historical constant-tag scheme ------------------


PR3_GOLDEN = Program(
    name="pr3-golden",
    body=(Loop(2, (Phase(name="step", ops=(
        CommOp(kind="allreduce", size=256 * 1024),   # rendezvous payload
        CommOp(kind="allreduce", size=64),           # eager payload
    )),)),),
    steps=2,
)


def test_constant_tag_scheme_overtaking_sta007():
    """Adjacent same-kind collectives on one shared channel: the exact bug
    class of the historical constant collective tag bases."""
    tr = unroll(PR3_GOLDEN, 4, tag_scheme="constant")
    diags = check_traces(tr)
    assert "STA007" in _rules(diags)
    hazard = next(d for d in diags if d.rule_id == "STA007")
    assert hazard.details["rendezvous_bytes"] == 256 * 1024
    assert hazard.details["eager_bytes"] == 64


def test_instance_tag_scheme_is_clean():
    assert check_traces(unroll(PR3_GOLDEN, 4)) == []
    assert static_clean(PR3_GOLDEN, 4)


def test_user_channel_overtaking_needs_no_collectives():
    prog = _coll_program(
        CommOp(kind="p2p", size=1 << 20),
        CommOp(kind="p2p", size=64),
    )
    assert "STA007" in _rules(check_traces(unroll(prog, 2)))
    # a synchronizing collective strictly between the two ops protects
    protected = _coll_program(
        CommOp(kind="p2p", size=1 << 20),
        Barrier(),
        CommOp(kind="p2p", size=64),
    )
    assert check_traces(unroll(protected, 2)) == []


def test_rooted_collective_does_not_protect():
    unprotected = _coll_program(
        CommOp(kind="p2p", size=1 << 20),
        CommOp(kind="bcast", size=64, root=0),
        CommOp(kind="p2p", size=64),
    )
    assert "STA007" in _rules(check_traces(unroll(unprotected, 2)))


# -- resource bounds ----------------------------------------------------------


def test_capacity_facts():
    cap = PartitionCapacity.of(cte_arm(4), 4)
    assert cap.cores_per_node == 48 and cap.n_domains == 4
    assert cap.memory_bytes_per_node == 32e9  # A64FX: 32 GB HBM2
    assert cap.footprint_per_node(1.0, 8.0) == 3.0


def test_footprint_exceeds_memory_sta008():
    cap = PartitionCapacity.of(cte_arm(4), 4)
    prog = replace(
        _coll_program(ComputeOp(seconds=1e-3)),
        ranks_per_node=4,
        replicated_bytes_per_rank=2e9,   # 8 GB/node replicated
        distributed_bytes_total=800e9,   # 24 GB headroom -> 34 nodes
    )
    diags = check_resources(prog, cap)
    assert _rules(diags) == ["STA008"]
    assert diags[0].details["min_feasible_nodes"] == 34


def test_footprint_near_limit_sta009_and_fit_sta017():
    cap = PartitionCapacity.of(cte_arm(4), 4)
    near = replace(_coll_program(ComputeOp(seconds=1e-3)),
                   replicated_bytes_per_rank=30e9)  # 93.75% of the node
    assert _rules(check_resources(near, cap)) == ["STA009"]
    fits = replace(_coll_program(ComputeOp(seconds=1e-3)),
                   replicated_bytes_per_rank=1e9)
    assert check_resources(fits, cap) == []
    assert _rules(check_resources(fits, cap, include_ok=True)) == ["STA017"]


def test_oversubscription_sta010_and_misalignment_sta011():
    cap = PartitionCapacity.of(cte_arm(2), 2)
    over = replace(_coll_program(ComputeOp(seconds=1e-3)),
                   ranks_per_node=49)
    assert _rules(check_resources(over, cap)) == ["STA010"]
    skewed = replace(_coll_program(ComputeOp(seconds=1e-3)),
                     ranks_per_node=5)
    assert "STA011" in _rules(check_resources(skewed, cap))


def test_dead_op_sta016_is_advice():
    prog = _coll_program(ComputeOp(seconds=0.0),
                         ComputeOp(seconds=1e-3))
    cap = PartitionCapacity.of(cte_arm(2), 2)
    diags = check_resources(prog, cap)
    assert _rules(diags) == ["STA016"]
    assert all(d.severity is Severity.ADVICE for d in diags)


def test_osu_nic_floor_sta012_is_advice():
    cluster = cte_arm(48)
    t = target("osu", cluster, 48)
    report = analyze_program(t.program, cluster, 48)
    assert _rules(report) == ["STA012"]
    assert report.clean  # advice is not a finding


# -- pass soundness -----------------------------------------------------------


def test_certificates_on_bundled_programs():
    cluster = cte_arm(8)
    for t in bundled_targets(cluster, 8):
        _, cert = certified_optimize(t.program)
        assert cert.ok, (t.name, cert.mismatches)


_CONCURRENT_TARGETS = """
import sys, threading
sys.setswitchinterval(1e-6)
from repro.ir.analyze.catalog import BENCH_NAMES, target
from repro.machine import cte_arm
cluster = cte_arm(8)
barrier = threading.Barrier(2 * len(BENCH_NAMES))
errors = []
def build(name):
    barrier.wait()
    try:
        target(name, cluster, 2)
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=build, args=(name,))
           for name in 2 * BENCH_NAMES]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
assert not any(t.is_alive() for t in threads), "thread hung"
assert not errors, errors[0]
"""


def test_concurrent_first_bench_targets_do_not_deadlock():
    """Request threads that build bench targets while ``repro.bench`` is
    first imported must not trip the import-lock deadlock detector (each
    run is a fresh interpreter, where the package is not yet imported)."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", _CONCURRENT_TARGETS],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]


def test_broken_pass_is_caught():
    before = _coll_program(
        ComputeOp(seconds=1e-3),
        CommOp(kind="allreduce", size=64),
    )
    after = _coll_program(ComputeOp(seconds=1e-3))
    cert = certify(before, after)
    assert not cert.ok
    assert any("comm" in m for m in cert.mismatches)
    assert "FAILED" in cert.render()


def test_effect_summary_is_order_insensitive():
    a = _coll_program(ComputeOp(seconds=1e-3), ComputeOp(seconds=2e-3))
    b = _coll_program(ComputeOp(seconds=2e-3), ComputeOp(seconds=1e-3))
    assert effect_summary(a) == effect_summary(b)


def test_analyze_program_reports_sta013(monkeypatch):
    import repro.ir.analyze.framework as fw
    from repro.ir.analyze.effects import PassCertificate

    monkeypatch.setattr(
        fw, "certified_optimize",
        lambda p: (p, PassCertificate(False, ("phase 'p': broken",), "x")))
    report = analyze_program(_coll_program(Barrier()), cte_arm(2), 2,
                             checks=("soundness",))
    assert _rules(report) == ["STA013"]


# -- driver, dogfood golden, and backend integration --------------------------


def test_analyze_program_rejects_unknown_check():
    with pytest.raises(ConfigurationError):
        analyze_program(_coll_program(Barrier()), cte_arm(2), 2,
                        checks=("comm", "nope"))


def test_dogfood_matrix_matches_golden(request):
    nodes = 48
    got = {"analyze_version": ANALYZE_VERSION, "nodes": nodes,
           "clusters": {}}
    for key, cluster in (("cte-arm", cte_arm(nodes)),
                         ("mn4", marenostrum4(nodes))):
        got["clusters"][key] = {
            t.name: sorted(d.rule_id for d in
                           analyze_program(t.program, cluster, t.n_nodes))
            for t in bundled_targets(cluster, nodes)
        }
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
    assert got == json.loads(GOLDEN.read_text())


def test_des_backend_auto_verify_skips_recorder():
    cluster = cte_arm(2)
    prog = replace(_coll_program(CommOp(kind="allreduce", size=64),
                                 Barrier()),
                   ranks_per_node=2)
    result = DESBackend().run(prog, cluster, 2, verify="auto")
    assert result.world is not None
    assert result.world.diagnostics is None  # proven clean, not recorded


def test_batch_backend_analyze_gate():
    cluster = cte_arm(2)
    clean = replace(_coll_program(ComputeOp(seconds=1e-3), Barrier()),
                    ranks_per_node=2)
    backend = BatchAnalyticBackend()
    assert backend.run(clean, cluster, 2, analyze=True).elapsed > 0
    hazard = replace(_coll_program(CommOp(kind="p2p", size=1 << 20),
                                   CommOp(kind="p2p", size=64)),
                     ranks_per_node=2)
    with pytest.raises(ConfigurationError, match="static"):
        backend.run(hazard, cluster, 2, analyze=True)


def test_cli_analyze_text_json_and_errors(capsys):
    from repro.harness.cli import main

    assert main(["analyze", "hpcg", "--nodes", "8"]) == 0
    assert main(["analyze", "osu", "--nodes", "48", "--strict"]) == 0
    assert "STA012" in capsys.readouterr().out
    assert main(["analyze", "nope"]) == 2
    assert main(["analyze", "hpcg", "--checks", "bogus"]) == 2


def test_cli_analyze_json_payload(capsys):
    from repro.harness.cli import main

    assert main(["analyze", "osu", "--nodes", "48", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert [d["rule"] for d in payload["diagnostics"]] == ["STA012"]
    assert payload["diagnostics"][0]["location"].startswith("osu")


def test_verify_app_carries_sta_stream():
    from repro.verify import verify_app

    report = verify_app("gromacs", cluster="cte-arm", n_nodes=2,
                        dynamic=False, include_ok=True)
    assert report.by_rule("STA015")
    assert report.by_rule("STA014")


# -- hypothesis: seeded defects are found, clean programs stay clean ----------


@settings(max_examples=40, deadline=None)
@given(case=defect_cases())
def test_defect_injection_property(case):
    traces = unroll(case.program, case.n_ranks)
    assert _flagged(check_traces(traces)) == [], "false positive"
    if case.defect == "oversize_footprint":
        cap = PartitionCapacity.of(cte_arm(2), 2)
        mutated = case.mutated_program(cap.memory_bytes_per_node)
        diags = check_resources(mutated, cap)
        assert any(d.rule_id == "STA008" for d in diags)
    else:
        diags = check_traces(case.mutate_traces(traces))
        assert _flagged(diags), case.defect


@settings(max_examples=40, deadline=None)
@given(program=ir_programs(rich=True))
def test_passes_certified_on_random_programs(program):
    _, cert = certified_optimize(program)
    assert cert.ok, cert.mismatches
