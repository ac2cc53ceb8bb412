#include "runner/tournament.hpp"

#include <stdexcept>
#include <utility>

#include "runner/scenarios.hpp"
#include "util/assert.hpp"

namespace rogue::runner {

TournamentConfig with_stock_rosters(TournamentConfig config) {
  if (config.attackers.empty()) {
    config.attackers = {"none", "deauth-flood", "low-slow-deauth"};
    // No rogue-gateway stack in the hotspot world — the infrastructure
    // itself is the adversary, so only over-the-air attackers apply.
    if (config.scenario != "hotspot") {
      config.attackers.push_back("rogue-gateway");
    }
    config.attackers.push_back("cloner");
  }
  if (config.detectors.empty()) {
    config.detectors = {"seqnum", "fingerprint", "rssi", "probe-timing",
                        "composite"};
  }
  return config;
}

namespace {

PairSummary summarize_pair(std::string attacker, std::string detector,
                           const RunMetrics* runs, std::size_t count) {
  PairSummary s;
  s.attacker = std::move(attacker);
  s.detector = std::move(detector);
  s.runs = count;
  std::size_t false_positive = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (runs[i].failed) {
      ++s.failed;
      continue;
    }
    const scenario::Metrics& m = runs[i].metrics;
    s.alerts.add(static_cast<double>(m.wids_alerts));
    s.false_alerts.add(static_cast<double>(m.wids_false_alerts));
    if (m.wids_false_alerts > 0) ++false_positive;
    if (m.wids_time_to_detect_s >= 0.0) {
      ++s.detected;
      s.ttd_s.add(m.wids_time_to_detect_s);
    }
  }
  const double n = count > 0 ? static_cast<double>(count) : 1.0;
  s.detection_rate = static_cast<double>(s.detected) / n;
  s.fp_rate = static_cast<double>(false_positive) / n;
  return s;
}

std::string fmt_or_dash(const util::Summary& s, double q) {
  return s.count() > 0 ? util::fmt_double(s.percentile(q)) : "-";
}

util::Json string_array(const std::vector<std::string>& items) {
  util::Json j = util::Json::array();
  for (const std::string& item : items) j.push_back(item);
  return j;
}

}  // namespace

TournamentReport::TournamentReport(SweepReport sweep, TournamentConfig tc)
    : SweepReport(std::move(sweep)), tournament(std::move(tc)) {
  ROGUE_ASSERT_MSG(runs.size() == tournament.attackers.size() *
                                      tournament.detectors.size() *
                                      tournament.runs,
                   "the sweep did not run this tournament's pairs");
  pairs.reserve(tournament.attackers.size() * tournament.detectors.size());
  const RunMetrics* pair_runs = runs.data();
  for (const std::string& a : tournament.attackers) {
    for (const std::string& d : tournament.detectors) {
      pairs.push_back(summarize_pair(a, d, pair_runs, tournament.runs));
      pair_runs += tournament.runs;
    }
  }
}

TournamentReport run_tournament(const TournamentConfig& config) {
  TournamentConfig tc = with_stock_rosters(config);
  std::vector<Variant> variants = tournament_variants(tc);
  if (variants.empty()) {
    throw std::invalid_argument("unknown tournament scenario: " + tc.scenario);
  }
  ExperimentRunner runner(tc);
  for (Variant& v : variants) {
    runner.add_variant(std::move(v.name), std::move(v.make));
  }
  return TournamentReport(runner.run(), std::move(tc));
}

util::Json TournamentReport::to_json() const {
  util::Json j = util::Json::object();
  j.set("scenario", config.scenario);
  j.set("seed_base", config.seed_base);
  j.set("runs_per_pair", static_cast<std::uint64_t>(config.runs));
  j.set("baseline_window_s",
        static_cast<double>(tournament.baseline_window) / 1e6);
  j.set("attack_window_s",
        static_cast<double>(tournament.attack_window) / 1e6);
  j.set("attackers", string_array(tournament.attackers));
  j.set("detectors", string_array(tournament.detectors));

  util::Json pairs_json = util::Json::array();
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const PairSummary& s = pairs[p];
    util::Json agg = util::Json::object();
    agg.set("runs", static_cast<std::uint64_t>(s.runs));
    agg.set("failed", static_cast<std::uint64_t>(s.failed));
    agg.set("detected", static_cast<std::uint64_t>(s.detected));
    agg.set("detection_rate", s.detection_rate);
    agg.set("fp_rate", s.fp_rate);
    agg.set("ttd_s", summary_json(s.ttd_s));
    agg.set("alerts", summary_json(s.alerts));
    agg.set("false_alerts", summary_json(s.false_alerts));

    util::Json entry = util::Json::object();
    entry.set("attacker", s.attacker);
    entry.set("detector", s.detector);
    entry.set("aggregate", std::move(agg));
    entry.set("runs", runs_json(p));
    pairs_json.push_back(std::move(entry));
  }
  j.set("pairs", std::move(pairs_json));
  j.set("failures", failures_json());
  return j;
}

std::string TournamentReport::table() const {
  util::Table t({"attacker", "detector", "runs", "failed", "detected",
                 "fp rate", "ttd p50(s)", "ttd p95(s)", "alerts mean",
                 "false mean"});
  for (const PairSummary& s : pairs) {
    t.add_row({
        s.attacker,
        s.detector,
        std::to_string(s.runs),
        std::to_string(s.failed),
        util::fmt_percent(s.detection_rate),
        util::fmt_percent(s.fp_rate),
        fmt_or_dash(s.ttd_s, 0.5),
        fmt_or_dash(s.ttd_s, 0.95),
        s.alerts.count() > 0 ? util::fmt_double(s.alerts.mean(), 1) : "-",
        s.false_alerts.count() > 0
            ? util::fmt_double(s.false_alerts.mean(), 1)
            : "-",
    });
  }
  return matrix() + "\n" + t.to_string();
}

std::string TournamentReport::matrix() const {
  std::vector<std::string> header{"detection rate"};
  for (const std::string& d : tournament.detectors) header.push_back(d);
  util::Table t(std::move(header));
  std::size_t p = 0;
  for (const std::string& a : tournament.attackers) {
    std::vector<std::string> row{a};
    for (std::size_t d = 0; d < tournament.detectors.size(); ++d, ++p) {
      row.push_back(util::fmt_percent(pairs[p].detection_rate));
    }
    t.add_row(std::move(row));
  }
  return t.to_string();
}

}  // namespace rogue::runner
