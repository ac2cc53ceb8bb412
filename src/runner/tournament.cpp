#include "runner/tournament.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "scenario/corp_world.hpp"
#include "scenario/hotspot.hpp"
#include "util/assert.hpp"

namespace rogue::runner {

std::vector<std::string> stock_tournament_attackers(std::string_view scenario) {
  if (scenario == "hotspot") {
    // No rogue-gateway stack in the hotspot world — the infrastructure
    // itself is the adversary, so only over-the-air attackers apply.
    return {"none", "deauth-flood", "low-slow-deauth", "cloner"};
  }
  return {"none", "deauth-flood", "low-slow-deauth", "rogue-gateway",
          "cloner"};
}

std::vector<std::string> stock_tournament_detectors() {
  return {"seqnum", "fingerprint", "rssi", "probe-timing", "composite"};
}

namespace {

/// One pair's replica: the world with the pair's roster and windows,
/// traffic from chatter rather than the download.
template <typename World, typename Config>
WorldFactory pair_world(Config c, const TournamentConfig& tc,
                        const std::string& attacker,
                        const std::string& detector) {
  c.do_download = false;
  c.wids_detectors = {detector};
  c.wids_attacker = attacker;
  c.wids_baseline_window = tc.baseline_window;
  c.wids_attack_window = tc.attack_window;
  return [c](std::uint64_t) -> std::unique_ptr<scenario::World> {
    return std::make_unique<World>(c);
  };
}

WorldFactory pair_factory(const TournamentConfig& tc,
                          const std::string& attacker,
                          const std::string& detector) {
  if (tc.scenario == "hotspot") {
    return pair_world<scenario::HotspotWorld>(scenario::HotspotConfig{}, tc,
                                              attacker, detector);
  }
  if (tc.scenario != "corp") {
    const std::string scenario = tc.scenario;
    return [scenario](std::uint64_t) -> std::unique_ptr<scenario::World> {
      throw std::runtime_error("unknown tournament scenario: " + scenario);
    };
  }
  // Tournament geometry: the attacker sits close to the victim (strong
  // signal, distinct RSSI signature vs the distant legit AP) and the
  // monitor halfway to the AP hears both.
  scenario::CorpConfig c;
  c.victim_to_legit_m = 20.0;
  c.victim_to_rogue_m = 4.0;
  return pair_world<scenario::CorpWorld>(c, tc, attacker, detector);
}

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

util::Json summary_json(const util::Summary& s) {
  const bool any = s.count() > 0;
  util::Json j = util::Json::object();
  j.set("count", static_cast<std::uint64_t>(s.count()));
  j.set("mean", any ? s.mean() : 0.0);
  j.set("p50", any ? s.percentile(0.5) : 0.0);
  j.set("p95", any ? s.percentile(0.95) : 0.0);
  return j;
}

std::string fmt_or_dash(const util::Summary& s, double q) {
  return s.count() > 0 ? util::fmt_double(s.percentile(q)) : "-";
}

}  // namespace

TournamentReport run_tournament(const TournamentConfig& config) {
  TournamentConfig tc = config;
  if (tc.attackers.empty()) {
    tc.attackers = stock_tournament_attackers(tc.scenario);
  }
  if (tc.detectors.empty()) tc.detectors = stock_tournament_detectors();
  ROGUE_ASSERT_MSG(tc.runs > 0, "tournament needs runs > 0");

  SweepConfig sweep;
  sweep.scenario = tc.scenario;
  sweep.seed_base = tc.seed_base;
  sweep.runs = tc.runs;
  sweep.jobs = tc.jobs;
  sweep.pool = tc.pool;

  ExperimentRunner runner(sweep);
  for (const std::string& a : tc.attackers) {
    for (const std::string& d : tc.detectors) {
      runner.add_variant(a + "|" + d, pair_factory(tc, a, d));
    }
  }
  SweepReport sweep_report = runner.run();

  TournamentReport report;
  report.config = tc;
  report.wall_ms = sweep_report.wall_ms;
  report.runs = std::move(sweep_report.runs);
  report.pairs.reserve(tc.attackers.size() * tc.detectors.size());
  std::size_t pair = 0;
  for (const std::string& a : tc.attackers) {
    for (const std::string& d : tc.detectors) {
      report.pairs.push_back(summarize_pair(
          a, d, report.runs.data() + pair * tc.runs, tc.runs));
      ++pair;
    }
  }
  return report;
}

util::Json TournamentReport::to_json() const {
  util::Json j = util::Json::object();
  j.set("scenario", config.scenario);
  j.set("seed_base", config.seed_base);
  j.set("runs_per_pair", static_cast<std::uint64_t>(config.runs));
  j.set("baseline_window_s",
        static_cast<double>(config.baseline_window) / 1e6);
  j.set("attack_window_s", static_cast<double>(config.attack_window) / 1e6);
  util::Json attackers = util::Json::array();
  for (const std::string& a : config.attackers) attackers.push_back(a);
  j.set("attackers", std::move(attackers));
  util::Json detectors = util::Json::array();
  for (const std::string& d : config.detectors) detectors.push_back(d);
  j.set("detectors", std::move(detectors));

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

    util::Json replicas = util::Json::array();
    for (std::size_t i = p * config.runs;
         i < (p + 1) * config.runs && i < runs.size(); ++i) {
      replicas.push_back(runner::to_json(runs[i], /*include_wall=*/false));
    }

    util::Json entry = util::Json::object();
    entry.set("attacker", s.attacker);
    entry.set("detector", s.detector);
    entry.set("aggregate", std::move(agg));
    entry.set("runs", std::move(replicas));
    pairs_json.push_back(std::move(entry));
  }
  j.set("pairs", std::move(pairs_json));

  util::Json failures = util::Json::array();
  for (const RunMetrics& run : runs) {
    if (!run.failed) continue;
    util::Json f = util::Json::object();
    f.set("variant", run.variant);
    f.set("seed", run.seed);
    f.set("error", run.error);
    failures.push_back(std::move(f));
  }
  j.set("failures", std::move(failures));
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
  return t.to_string();
}

std::string TournamentReport::matrix() const {
  std::vector<std::string> header{"detection rate"};
  for (const std::string& d : config.detectors) header.push_back(d);
  util::Table t(std::move(header));
  std::size_t p = 0;
  for (const std::string& a : config.attackers) {
    std::vector<std::string> row{a};
    for (std::size_t d = 0; d < config.detectors.size(); ++d, ++p) {
      row.push_back(util::fmt_percent(pairs[p].detection_rate));
    }
    t.add_row(std::move(row));
  }
  return t.to_string();
}

std::size_t TournamentReport::failed_count() const {
  std::size_t n = 0;
  for (const RunMetrics& run : runs) {
    if (run.failed) ++n;
  }
  return n;
}

}  // namespace rogue::runner
