// The determinism contract end to end: a replica is a pure function of
// (variant, seed), so every file a sweep writes is byte-identical at any
// worker count. Every stock ladder except metro-city (minutes of CPU per
// replica) and the corp and hotspot WIDS tournaments run at jobs 1 and 4
// with tracing and a 5 s timeseries on, as `sweep --trace-out
// --timeseries-out --timeseries-dt 5` runs them, and the report, stats,
// Chrome trace and timeseries bytes must match. Its own executable, so a
// parallel ctest runs it beside test_runner.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/tracer.hpp"
#include "runner/scenarios.hpp"
#include "runner/sweep.hpp"
#include "runner/tournament.hpp"
#include "util/json.hpp"

namespace rogue::runner {
namespace {

struct Case {
  std::string scenario;
  bool tournament = false;
  double faults = 0.0;  ///< stock_variants() fault intensity
  /// Run jobs 4 a second time: no hidden global state between sweeps.
  bool rerun = false;
  /// A block the report must carry, where the ladder has one of its own.
  std::string block;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const std::string_view name : known_scenarios()) {
    if (name == "metro-city") continue;
    Case c;
    c.scenario = name;
    if (name == "corp-transport") c.block = "\"transport\"";
    if (name == "metro") c.block = "\"metro\"";
    out.push_back(c);
  }
  // Twice the stock fault rate, so the fault schedules themselves (and
  // everything downstream of them) are held to the contract.
  out.push_back({"corp-chaos", false, 2.0, true, ""});
  out.push_back({"corp", true, 0.0, false, "\"wids\""});
  out.push_back({"hotspot", true, 0.0, false, "\"wids\""});
  return out;
}

std::string case_name(const testing::TestParamInfo<Case>& info) {
  std::string name = info.param.tournament ? "tournament_" : "";
  for (const char ch : info.param.scenario) name += ch == '-' ? '_' : ch;
  if (info.param.faults > 0.0) name += "_faults2";
  return name;
}

/// The four files `sweep` writes for a case, plus what they came from.
struct Files {
  std::string report, stats, trace, timeseries;
  std::size_t replicas = 0;
  std::size_t failed = 0;
};

Files run_case(const Case& c, std::size_t jobs) {
  TournamentConfig cfg;
  cfg.scenario = c.scenario;
  cfg.runs = 2;
  cfg.jobs = jobs;
  cfg.trace = true;
  cfg.timeseries_dt_s = 5.0;
  const auto files = [](const SweepReport& r, const util::Json& report) {
    std::ostringstream trace;  // streamed, as `sweep --trace-out` writes it
    obs::ChromeTraceWriter writer(trace);
    r.write_chrome_trace(writer);
    writer.finish();
    return Files{report.dump(2), r.stats_json().dump(2), trace.str(),
                 r.timeseries_jsonl(), r.runs.size(), r.failed_count()};
  };
  if (c.tournament) {
    cfg.attackers = {"none", "low-slow-deauth", "cloner"};
    cfg.detectors = {"seqnum", "rssi", "composite"};
    const TournamentReport r = run_tournament(cfg);
    return files(r, r.to_json());
  }
  ExperimentRunner exp(cfg);
  for (Variant& v : stock_variants(c.scenario, c.faults)) {
    exp.add_variant(std::move(v.name), std::move(v.make));
  }
  const SweepReport r = exp.run();
  return files(r, r.to_json());
}

class JobsDeterminism : public testing::TestWithParam<Case> {};

TEST_P(JobsDeterminism, FilesAreByteIdenticalAtJobs1And4) {
  const Case& c = GetParam();
  const Files one = run_case(c, 1);
  ASSERT_EQ(one.failed, 0u);
  ASSERT_GT(one.replicas, 0u);
  EXPECT_NE(one.report.find(c.block), std::string::npos) << c.block;
  EXPECT_GT(one.trace.size(), 1000u) << "traced episodes look empty";

  // Every replica sampled its stats more than once, and every sample line
  // parses back.
  std::map<std::string, std::size_t> samples;
  std::size_t start = 0;
  while (start < one.timeseries.size()) {
    const std::size_t end = one.timeseries.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated timeseries line";
    const auto line = util::Json::parse(
        std::string_view(one.timeseries).substr(start, end - start));
    ASSERT_TRUE(line.has_value()) << "unparsable timeseries line";
    ASSERT_NE(line->find("stats"), nullptr);
    ++samples[line->find("variant")->as_string() + " seed " +
              std::to_string(line->find("seed")->as_int())];
    start = end + 1;
  }
  EXPECT_EQ(samples.size(), one.replicas);
  for (const auto& [replica, n] : samples) EXPECT_GE(n, 2u) << replica;

  for (int pass = 0; pass < (c.rerun ? 2 : 1); ++pass) {
    const Files four = run_case(c, 4);
    EXPECT_EQ(four.failed, 0u);
    EXPECT_EQ(four.report, one.report) << "report bytes changed at jobs 4";
    EXPECT_EQ(four.stats, one.stats) << "stats bytes changed at jobs 4";
    EXPECT_EQ(four.trace, one.trace) << "trace bytes changed at jobs 4";
    EXPECT_EQ(four.timeseries, one.timeseries)
        << "timeseries bytes changed at jobs 4";
  }
}

INSTANTIATE_TEST_SUITE_P(StockLaddersAndTournaments, JobsDeterminism,
                         testing::ValuesIn(cases()), case_name);

}  // namespace
}  // namespace rogue::runner
