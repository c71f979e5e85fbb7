"""docs/FIGURES.md matches a fresh run of every figure (tests/make_figures.py),
byte for byte, so a verdict that flips or a number that moves fails here; and a
claim that does not hold renders as FAIL."""

from repro.experiments import calibration
from repro.experiments.report import Claim
from repro.experiments.run import run_one
from tests.make_figures import OUT, render, run_all, section


class TestFiguresDoc:
    def test_committed_file_matches_a_fresh_run(self):
        assert render(run_all()) == OUT.read_text(), (
            "docs/FIGURES.md is stale: rerun `PYTHONPATH=src python tests/make_figures.py`"
        )

    def test_false_claim_renders_fail(self, monkeypatch):
        never = Claim("a claim that never holds", lambda r: False)
        monkeypatch.setattr(calibration.CalibrationResult, "claims", (never,))
        rendered, result = run_one("fig6", paper_scale=False)
        assert "\nFAIL  a claim that never holds\n" in rendered
        assert "\nFAIL  a claim that never holds\n" in section("fig6", result, {})
