"""Completeness audit: every quantitative paper claim is covered by a
passing expectation in the harness."""

from repro.harness import paper_claims
from repro.harness.experiment import Expectation, ExperimentResult
from repro.harness.paper_claims import CLAIMS, PaperClaim, verify_coverage


def test_registry_is_substantial():
    assert len(CLAIMS) >= 45
    sections = {c.section.split("/")[0] for c in CLAIMS}
    # every evaluation section of the paper is represented
    assert {"II", "III-A", "III-B", "III-C", "IV-A", "IV-B",
            "V-A", "V-B", "V-C", "V-D", "V-E", "VI"} <= sections


def test_every_claim_covered():
    coverage = verify_coverage()
    missing_experiment = [c.claim.claim_id for c in coverage
                          if not c.experiment_exists]
    untagged = [c.claim.claim_id for c in coverage
                if c.experiment_exists and not c.tagged]
    failing = [c.claim.claim_id for c in coverage
               if c.tagged and not c.holds]
    assert not missing_experiment, missing_experiment
    assert not untagged, untagged
    assert not failing, failing
    assert all(c.covered for c in coverage)


def test_every_claim_tag_names_a_claim_of_its_experiment():
    results = {}
    verify_coverage(cache=results)
    known = {(c.experiment, c.claim_id) for c in CLAIMS}
    for exp_id, result in results.items():
        for e in result.expectations:
            assert not e.claim or (exp_id, e.claim) in known, (exp_id, e)


def _result(*expectations):
    return {"fig2_stream_openmp": ExperimentResult(
        "fig2_stream_openmp", "synthetic", expectations=list(expectations))}


_CLAIM = PaperClaim("c-1", "III-B", "synthetic claim", "fig2_stream_openmp")


def test_claim_on_no_expectation_is_uncovered(monkeypatch):
    # a metric that spells out the claim text does not count: only the id
    monkeypatch.setattr(paper_claims, "CLAIMS", [_CLAIM])
    cache = _result(Expectation("synthetic claim", "1", "1", claim="other"))
    [coverage] = verify_coverage(cache=cache)
    assert coverage.experiment_exists and coverage.tagged == 0
    assert not coverage.covered


def test_claim_with_one_failing_tagged_expectation_is_uncovered(monkeypatch):
    monkeypatch.setattr(paper_claims, "CLAIMS", [_CLAIM])
    cache = _result(Expectation("a", "1", "1", claim="c-1"),
                    Expectation("b", "1", "2", holds=False, claim="c-1"))
    [coverage] = verify_coverage(cache=cache)
    assert coverage.tagged == 2 and not coverage.holds
    assert not coverage.covered


def test_claim_ids_unique():
    ids = [c.claim_id for c in CLAIMS]
    assert len(ids) == len(set(ids))
