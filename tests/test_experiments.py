"""Report formatting, and each driver run end to end at a tiny scale.

tests/test_figures.py runs every driver at its default config and judges the
paper's claims; these tests only check that each driver also runs at a tiny,
non-default config and produces well-formed results, so a refactor that
breaks a driver fails fast in the unit suite.
"""

from repro.engine import format_cdf, format_table
from repro.experiments import (
    agreement,
    calibration,
    creation_latency,
    loss_rates,
    notification_latency,
    steady_state,
    svtree_stats,
)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [("a", 1.5), ("bb", 200.0)], title="T")
        lines = text.split("\n")
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_number_rendering(self):
        text = format_table(["v"], [(0.123456,), (12.3,), (1234.5,)])
        assert "0.123" in text
        assert "12.3" in text
        assert "1235" in text or "1234" in text

    def test_format_cdf(self):
        text = format_cdf("x", [(1.0, 0.5), (2.0, 1.0)])
        assert text.startswith("x:")
        assert "2@100%" in text

    def test_format_cdf_empty(self):
        assert "(empty)" in format_cdf("x", [])


class TestDriversSmoke:
    def test_calibration(self):
        result = calibration.run(calibration.CalibrationConfig(n_hosts=20, n_pairs=10))
        assert len(result.first) == 10
        assert "Fig 6" in result.format_table()

    def test_creation(self):
        result = creation_latency.run(
            creation_latency.CreationConfig(n_nodes=20, group_sizes=(2, 4), groups_per_size=2)
        )
        assert result.failures == 0
        assert set(result.by_size) == {2, 4}
        assert "Fig 7" in result.format_table()

    def test_notification(self):
        result = notification_latency.run(
            notification_latency.NotificationConfig(
                n_nodes=20, group_sizes=(2, 4), groups_per_size=2
            )
        )
        assert max(h.max() for h in result.group_latency.values()) > 0
        assert "Fig 8" in result.format_table()

    def test_loss_rates(self):
        result = loss_rates.run(loss_rates.LossRatesConfig(n_hosts=50, n_pairs=40))
        assert len(result.route_loss) == 3
        assert "Fig 11" in result.format_table()

    def test_steady_state(self):
        result = steady_state.run(
            steady_state.SteadyStateConfig(n_nodes=20, n_groups=5, group_size=4, window_minutes=3)
        )
        assert result.groups_created == 5
        assert result.msgs_per_sec_without > 0
        assert "337" in result.format_table()  # paper reference embedded

    def test_svtree_stats(self):
        result = svtree_stats.run(
            svtree_stats.SvtreeStatsConfig(n_nodes=25, n_topics=1, subscribers_per_topic=6)
        )
        assert result.subscriptions == 6
        assert "§4" in result.format_table()

    def test_agreement(self):
        result = agreement.run(
            agreement.AgreementConfig(n_nodes=20, n_groups=5, n_faults=3, observe_minutes=12)
        )
        assert result.missed == [] and result.duplicates == []
        assert "§3" in result.format_table()

    def test_paper_scale_presets_exist(self):
        assert calibration.CalibrationConfig.paper_scale().n_hosts == 400
        assert creation_latency.CreationConfig.paper_scale().n_nodes == 400
        assert svtree_stats.SvtreeStatsConfig.paper_scale().n_nodes == 16_000
