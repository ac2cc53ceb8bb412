// Tournament runner tests: WIDS metrics JSON round-trip, the evasion
// acceptance matrix, re-derivability of the per-pair aggregates from the
// serialized per-run records, and the stock rosters. Byte-determinism
// across worker counts is test_jobs_determinism.cpp.
#include <gtest/gtest.h>

#include "runner/metrics.hpp"
#include "runner/tournament.hpp"
#include "util/stats.hpp"

namespace rogue::runner {
namespace {

// Small, fast matrix shared by the heavier tests: two attackers (one
// evasive, one control) against two detectors, short windows.
TournamentConfig small_config() {
  TournamentConfig cfg;
  cfg.scenario = "corp";
  cfg.attackers = {"none", "cloner"};
  cfg.detectors = {"seqnum", "composite"};
  cfg.runs = 2;
  cfg.baseline_window = 4 * sim::kSecond;
  cfg.attack_window = 10 * sim::kSecond;
  return cfg;
}

TEST(WidsMetrics, JsonRoundTripCarriesWidsBlock) {
  RunMetrics run;
  run.scenario = "corp";
  run.variant = "cloner|composite";
  run.seed = 7;
  run.metrics.wids_enabled = true;
  run.metrics.wids_attack_start_s = 11.0;
  run.metrics.wids_alerts = 3;
  run.metrics.wids_false_alerts = 1;
  run.metrics.wids_time_to_detect_s = 0.25;
  run.metrics.wids_alert_timeline.push_back(
      {10.5, "seqnum", "seq-anomaly", true});
  run.metrics.wids_alert_timeline.push_back(
      {11.25, "composite", "fingerprint-mismatch", false});

  const util::Json j = to_json(run, /*include_wall=*/false);
  const auto parsed = run_metrics_from_json(j);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->metrics.wids_enabled);
  EXPECT_DOUBLE_EQ(parsed->metrics.wids_attack_start_s, 11.0);
  EXPECT_EQ(parsed->metrics.wids_alerts, 3u);
  EXPECT_EQ(parsed->metrics.wids_false_alerts, 1u);
  EXPECT_DOUBLE_EQ(parsed->metrics.wids_time_to_detect_s, 0.25);
  ASSERT_EQ(parsed->metrics.wids_alert_timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->metrics.wids_alert_timeline[0].t_s, 10.5);
  EXPECT_EQ(parsed->metrics.wids_alert_timeline[0].detector, "seqnum");
  EXPECT_EQ(parsed->metrics.wids_alert_timeline[0].kind, "seq-anomaly");
  EXPECT_TRUE(parsed->metrics.wids_alert_timeline[0].false_alert);
  EXPECT_EQ(parsed->metrics.wids_alert_timeline[1].detector, "composite");
  EXPECT_FALSE(parsed->metrics.wids_alert_timeline[1].false_alert);
}

TEST(WidsMetrics, LegacyRecordsHaveNoWidsBlock) {
  RunMetrics run;
  run.scenario = "corp";
  run.variant = "baseline";
  run.seed = 1;
  const util::Json j = to_json(run, /*include_wall=*/false);
  const util::Json* metrics = j.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("wids"), nullptr)
      << "wids block must not leak into legacy reports";
  const auto parsed = run_metrics_from_json(j);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->metrics.wids_enabled);
}

TEST(Tournament, EvasionMatrixAcceptance) {
  TournamentConfig cfg;
  cfg.scenario = "corp";
  cfg.attackers = {"cloner"};
  cfg.detectors = {"seqnum", "rssi", "composite"};
  cfg.runs = 3;
  const TournamentReport report = run_tournament(cfg);
  ASSERT_EQ(report.pairs.size(), 3u);
  EXPECT_EQ(report.failed_count(), 0u);

  const PairSummary& vs_seqnum = report.pairs[0];
  EXPECT_EQ(vs_seqnum.detector, "seqnum");
  EXPECT_DOUBLE_EQ(vs_seqnum.detection_rate, 0.0)
      << "the cloner's sequence mimicry must defeat seqnum-only detection";

  const PairSummary& vs_rssi = report.pairs[1];
  EXPECT_DOUBLE_EQ(vs_rssi.detection_rate, 1.0);

  const PairSummary& vs_composite = report.pairs[2];
  EXPECT_DOUBLE_EQ(vs_composite.detection_rate, 1.0)
      << "the composite panel must catch what seqnum misses";
  EXPECT_DOUBLE_EQ(vs_composite.fp_rate, 0.0);
  EXPECT_EQ(vs_composite.ttd_s.count(), 3u);
}

TEST(Tournament, AggregatesRederivableFromSerializedRuns) {
  const TournamentReport report = run_tournament(small_config());
  const util::Json j = report.to_json();
  const util::Json* pairs = j.find("pairs");
  ASSERT_NE(pairs, nullptr);
  ASSERT_EQ(pairs->size(), report.pairs.size());

  for (std::size_t p = 0; p < report.pairs.size(); ++p) {
    const PairSummary& expect = report.pairs[p];
    const util::Json& entry = pairs->items()[p];
    EXPECT_EQ(entry.find("attacker")->as_string(), expect.attacker);
    EXPECT_EQ(entry.find("detector")->as_string(), expect.detector);

    // Re-derive detection rate / FP rate / TTD from the per-run records.
    const util::Json* runs = entry.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), report.config.runs);
    std::size_t detected = 0, false_positive = 0;
    util::Summary ttd;
    for (const util::Json& record : runs->items()) {
      const auto parsed = run_metrics_from_json(record);
      ASSERT_TRUE(parsed.has_value());
      ASSERT_TRUE(parsed->metrics.wids_enabled);
      if (parsed->metrics.wids_time_to_detect_s >= 0.0) {
        ++detected;
        ttd.add(parsed->metrics.wids_time_to_detect_s);
      }
      if (parsed->metrics.wids_false_alerts > 0) ++false_positive;
    }
    const double n = static_cast<double>(report.config.runs);
    EXPECT_DOUBLE_EQ(expect.detection_rate,
                     static_cast<double>(detected) / n);
    EXPECT_DOUBLE_EQ(expect.fp_rate, static_cast<double>(false_positive) / n);
    ASSERT_EQ(expect.ttd_s.count(), ttd.count());
    if (ttd.count() > 0) {
      EXPECT_DOUBLE_EQ(expect.ttd_s.percentile(0.5), ttd.percentile(0.5));
      EXPECT_DOUBLE_EQ(expect.ttd_s.percentile(0.95), ttd.percentile(0.95));
    }
  }
}

TEST(Tournament, UnknownRosterNameFailsReplicaNotPool) {
  TournamentConfig cfg;
  cfg.scenario = "corp";
  cfg.attackers = {"none"};
  cfg.detectors = {"no-such-detector"};
  cfg.runs = 1;
  cfg.baseline_window = sim::kSecond;
  cfg.attack_window = sim::kSecond;
  const TournamentReport report = run_tournament(cfg);
  EXPECT_EQ(report.failed_count(), 1u);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_NE(report.runs[0].error.find("no-such-detector"), std::string::npos);
}

TEST(Tournament, StockRostersCoverTheMatrix) {
  TournamentConfig corp;
  corp.scenario = "corp";
  corp = with_stock_rosters(corp);
  EXPECT_GE(corp.attackers.size(), 4u);
  EXPECT_GE(corp.detectors.size(), 4u);
  // The hotspot roster drops the rogue-gateway stack but keeps the rest.
  TournamentConfig hotspot;
  hotspot.scenario = "hotspot";
  hotspot = with_stock_rosters(hotspot);
  EXPECT_EQ(hotspot.attackers.size(), corp.attackers.size() - 1);
  for (const std::string& a : hotspot.attackers) EXPECT_NE(a, "rogue-gateway");
  // Given rosters are kept as they are.
  TournamentConfig given;
  given.attackers = {"cloner"};
  given = with_stock_rosters(given);
  EXPECT_EQ(given.attackers, std::vector<std::string>{"cloner"});
  EXPECT_EQ(given.detectors, corp.detectors);
}

}  // namespace
}  // namespace rogue::runner
