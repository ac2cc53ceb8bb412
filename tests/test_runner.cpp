// Experiment-runner tests: report shape and aggregates, failure isolation,
// RunMetrics JSON round-trip, the stock variant registry, and the pinned
// report and frame digests. Determinism across worker counts, the API's
// core guarantee, is test_jobs_determinism.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "runner/metrics.hpp"
#include "runner/scenarios.hpp"
#include "runner/sweep.hpp"
#include "runner/tournament.hpp"
#include "scenario/corp_world.hpp"
#include "scenario/hotspot.hpp"
#include "util/bytes.hpp"

namespace rogue::runner {
namespace {

/// Short-episode corp variants so the determinism matrix stays fast: the
/// rogue-capture physics needs only a few simulated seconds per phase.
scenario::CorpConfig quick_corp_attack() {
  scenario::CorpConfig cfg;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.deploy_rogue = true;
  cfg.deauth_forcing = true;
  cfg.settle_time = 2 * sim::kSecond;
  cfg.capture_window = 8 * sim::kSecond;
  cfg.download_window = 30 * sim::kSecond;
  return cfg;
}

ExperimentRunner quick_runner(std::size_t jobs, std::size_t runs) {
  SweepConfig cfg;
  cfg.scenario = "corp";
  cfg.seed_base = 100;
  cfg.runs = runs;
  cfg.jobs = jobs;
  ExperimentRunner exp(cfg);
  exp.add_variant("baseline", [](std::uint64_t) {
    scenario::CorpConfig c;
    c.download_window = 30 * sim::kSecond;
    return std::make_unique<scenario::CorpWorld>(c);
  });
  exp.add_variant("rogue+deauth", [](std::uint64_t) {
    return std::make_unique<scenario::CorpWorld>(quick_corp_attack());
  });
  return exp;
}

TEST(Sweep, ReportShapeAndAggregates) {
  ExperimentRunner exp = quick_runner(2, 2);
  const SweepReport report = exp.run();

  ASSERT_EQ(report.runs.size(), 4u);  // 2 variants x 2 seeds
  ASSERT_EQ(report.summaries.size(), 2u);
  // Replica order is variant-major, seed-minor regardless of scheduling.
  EXPECT_EQ(report.runs[0].variant, "baseline");
  EXPECT_EQ(report.runs[0].seed, 100u);
  EXPECT_EQ(report.runs[1].seed, 101u);
  EXPECT_EQ(report.runs[2].variant, "rogue+deauth");

  const VariantSummary& baseline = report.summaries[0];
  EXPECT_EQ(baseline.runs, 2u);
  EXPECT_EQ(baseline.capture_rate, 0.0);
  EXPECT_EQ(baseline.download_rate, 1.0);
  EXPECT_EQ(baseline.events_fired.count(), 2u);

  const VariantSummary& attack = report.summaries[1];
  EXPECT_EQ(attack.capture_rate, 1.0);
  EXPECT_EQ(attack.deception_rate, 1.0);
  EXPECT_EQ(attack.time_to_capture_s.count(), 2u);
  EXPECT_GE(attack.time_to_capture_s.percentile(0.95),
            attack.time_to_capture_s.percentile(0.5));

  // Per-replica wall clock is measured, but kept out of the report bytes.
  EXPECT_GT(report.runs[0].wall_ms, 0.0);
  const std::string text = report.to_json().dump();
  EXPECT_EQ(text.find("wall_ms"), std::string::npos);
}

TEST(RunMetrics, JsonRoundTrip) {
  RunMetrics run;
  run.scenario = "corp";
  run.variant = "rogue+deauth";
  run.seed = 4242;
  run.wall_ms = 12.5;
  run.metrics.victim_captured = true;
  run.metrics.time_to_capture_s = 0.291;
  run.metrics.download_completed = true;
  run.metrics.trojaned = true;
  run.metrics.md5_verified = true;
  run.metrics.victim_deceived = true;
  run.metrics.rogue_detected = true;
  run.metrics.detection_latency_s = 0.05;
  run.metrics.seq_anomalies = 17;
  run.metrics.vpn_established = true;
  run.metrics.vpn_goodput_kbps = 123.456;
  run.metrics.vpn_overhead_ratio = 1.0625;
  run.metrics.vpn_records_out = 99;
  run.metrics.vpn_records_in = 88;
  run.metrics.events_fired = 123456789;
  run.metrics.trace_records = 4321;
  run.metrics.trace_warnings = 7;
  run.metrics.sim_time_s = 86.0;
  run.metrics.transport_enabled = true;
  run.metrics.vpn_replay_drops = 31;
  run.metrics.vpn_auth_fail_drops = 2;
  run.metrics.vpn_stale_epoch_drops = 1;
  run.metrics.vpn_rekeys = 9;
  run.metrics.vpn_roams = 3;
  run.metrics.vpn_sessions_reaped = 5;

  const std::string text = to_json(run).dump(2);
  const auto parsed = util::Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  const auto back = run_metrics_from_json(*parsed);
  ASSERT_TRUE(back.has_value());

  EXPECT_EQ(back->scenario, run.scenario);
  EXPECT_EQ(back->variant, run.variant);
  EXPECT_EQ(back->seed, run.seed);
  EXPECT_DOUBLE_EQ(back->wall_ms, run.wall_ms);
  EXPECT_EQ(back->metrics.victim_captured, run.metrics.victim_captured);
  EXPECT_DOUBLE_EQ(back->metrics.time_to_capture_s, run.metrics.time_to_capture_s);
  EXPECT_EQ(back->metrics.trojaned, run.metrics.trojaned);
  EXPECT_EQ(back->metrics.seq_anomalies, run.metrics.seq_anomalies);
  EXPECT_DOUBLE_EQ(back->metrics.vpn_goodput_kbps, run.metrics.vpn_goodput_kbps);
  EXPECT_DOUBLE_EQ(back->metrics.vpn_overhead_ratio,
                   run.metrics.vpn_overhead_ratio);
  EXPECT_EQ(back->metrics.events_fired, run.metrics.events_fired);
  EXPECT_EQ(back->metrics.trace_warnings, run.metrics.trace_warnings);
  EXPECT_DOUBLE_EQ(back->metrics.sim_time_s, run.metrics.sim_time_s);
  EXPECT_TRUE(back->metrics.transport_enabled);
  EXPECT_EQ(back->metrics.vpn_replay_drops, run.metrics.vpn_replay_drops);
  EXPECT_EQ(back->metrics.vpn_auth_fail_drops, run.metrics.vpn_auth_fail_drops);
  EXPECT_EQ(back->metrics.vpn_stale_epoch_drops,
            run.metrics.vpn_stale_epoch_drops);
  EXPECT_EQ(back->metrics.vpn_rekeys, run.metrics.vpn_rekeys);
  EXPECT_EQ(back->metrics.vpn_roams, run.metrics.vpn_roams);
  EXPECT_EQ(back->metrics.vpn_sessions_reaped,
            run.metrics.vpn_sessions_reaped);
}

TEST(RunMetrics, FromJsonRejectsMissingFields) {
  const auto missing_seed = util::Json::parse(
      R"({"scenario":"corp","variant":"x","metrics":{}})");
  ASSERT_TRUE(missing_seed.has_value());
  EXPECT_FALSE(run_metrics_from_json(*missing_seed).has_value());
  EXPECT_FALSE(run_metrics_from_json(util::Json("not an object")).has_value());
}

TEST(RunMetrics, ReportRunsRoundTripThroughReportJson) {
  ExperimentRunner exp = quick_runner(2, 1);
  const SweepReport report = exp.run();
  const auto parsed = util::Json::parse(report.to_json().dump(2));
  ASSERT_TRUE(parsed.has_value());

  const util::Json* variants = parsed->find("variants");
  ASSERT_NE(variants, nullptr);
  std::size_t i = 0;
  for (const util::Json& entry : variants->items()) {
    const util::Json* replicas = entry.find("runs");
    ASSERT_NE(replicas, nullptr);
    for (const util::Json& replica : replicas->items()) {
      const auto back = run_metrics_from_json(replica);
      ASSERT_TRUE(back.has_value());
      ASSERT_LT(i, report.runs.size());
      EXPECT_EQ(back->seed, report.runs[i].seed);
      EXPECT_EQ(back->variant, report.runs[i].variant);
      EXPECT_EQ(back->metrics.events_fired, report.runs[i].metrics.events_fired);
      EXPECT_EQ(back->metrics.victim_captured,
                report.runs[i].metrics.victim_captured);
      ++i;
    }
  }
  EXPECT_EQ(i, report.runs.size());
}

TEST(Scenarios, StockRegistryKnowsAllLadders) {
  EXPECT_EQ(stock_variants("corp").size(), 4u);
  EXPECT_EQ(stock_variants("hotspot").size(), 3u);
  EXPECT_EQ(stock_variants("corp-chaos").size(), 2u);
  EXPECT_EQ(stock_variants("hotspot-chaos").size(), 2u);
  EXPECT_EQ(stock_variants("corp-transport").size(), 8u);
  EXPECT_EQ(stock_variants("metro").size(), 2u);
  EXPECT_EQ(stock_variants("metro-city").size(), 1u);
  EXPECT_TRUE(stock_variants("nope").empty());
  const auto names = known_scenarios();
  ASSERT_EQ(names.size(), 7u);
  for (const auto name : names) {
    std::vector<Variant> variants = stock_variants(name);
    ASSERT_FALSE(variants.empty());
    // Every stock factory builds a world whose scenario id prefixes the
    // registry name (the chaos ladders reuse the base worlds).
    auto world = variants.front().make(1);
    EXPECT_EQ(name.substr(0, world->name().size()), world->name());
  }
}

TEST(Scenarios, FaultIntensityOverlaysThePlainLadders) {
  // stock_variants(name, intensity) must produce *configured* fault
  // injection, visible as injected faults in a replica's metrics.
  std::vector<Variant> variants = stock_variants("corp", 4.0);
  ASSERT_FALSE(variants.empty());
  auto world = variants.front().make(1);
  world->configure(42);
  world->run_episode();
  EXPECT_GT(world->collect_metrics().faults_injected, 0u);
}

/// A variant whose replicas always throw: exercises the runner's
/// per-replica failure isolation.
class ExplodingWorld final : public scenario::World {
 public:
  explicit ExplodingWorld(std::uint64_t seed) : sim_(seed) {}
  [[nodiscard]] std::string_view name() const override { return "exploding"; }
  void configure(std::uint64_t seed) override { sim_.reseed(seed); }
  void start() override {}
  void run_for(sim::Time) override {}
  void run_episode() override {
    throw std::runtime_error("scripted replica failure");
  }
  [[nodiscard]] sim::Simulator& simulator() override { return sim_; }
  [[nodiscard]] sim::Trace& trace() override { return trace_; }
  [[nodiscard]] scenario::Metrics collect_metrics() const override {
    return {};
  }

 private:
  sim::Simulator sim_;
  sim::Trace trace_;
};

TEST(Sweep, FailedReplicasAreIsolatedAndReported) {
  SweepConfig cfg;
  cfg.scenario = "corp";
  cfg.seed_base = 100;
  cfg.runs = 2;
  cfg.jobs = 2;
  ExperimentRunner exp(cfg);
  exp.add_variant("healthy", [](std::uint64_t) {
    scenario::CorpConfig c;
    c.download_window = 10 * sim::kSecond;
    return std::make_unique<scenario::CorpWorld>(c);
  });
  exp.add_variant("exploding", [](std::uint64_t seed) {
    return std::make_unique<ExplodingWorld>(seed);
  });

  const SweepReport report = exp.run();
  ASSERT_EQ(report.runs.size(), 4u);
  EXPECT_EQ(report.failed_count(), 2u);
  EXPECT_EQ(report.summaries[0].failed, 0u);
  EXPECT_EQ(report.summaries[1].failed, 2u);
  // Failed replicas stay out of the healthy aggregates.
  EXPECT_EQ(report.summaries[1].events_fired.count(), 0u);

  // The JSON surfaces (variant, seed, error) for every failure, and the
  // per-replica records round-trip the failed flag.
  const auto parsed = util::Json::parse(report.to_json().dump(2));
  ASSERT_TRUE(parsed.has_value());
  const util::Json* failures = parsed->find("failures");
  ASSERT_NE(failures, nullptr);
  std::size_t listed = 0;
  for (const util::Json& f : failures->items()) {
    const util::Json* variant = f.find("variant");
    const util::Json* error = f.find("error");
    ASSERT_NE(variant, nullptr);
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(variant->as_string(), "exploding");
    EXPECT_EQ(error->as_string(), "scripted replica failure");
    ++listed;
  }
  EXPECT_EQ(listed, 2u);

  for (const RunMetrics& run : report.runs) {
    const auto back = run_metrics_from_json(to_json(run));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->failed, run.failed);
    EXPECT_EQ(back->error, run.error);
  }
}

TEST(Sweep, ReportBytesPinnedAcrossJobsAndArenaPool) {
  // Determinism smoke for the perf work: the serialized sweep report must
  // be byte-identical at --jobs 1/4/8, with and without the per-replica
  // arena pool (poisoning on, so any use-after-release of a pooled frame
  // buffer would corrupt metrics loudly), and must match the pinned
  // pre-optimization golden digest. If an intentional scenario change
  // shifts the bytes, regenerate the digest below from a trusted build.
  const auto run_report = [](std::size_t jobs, std::size_t slab_buffers) {
    SweepConfig cfg;
    cfg.scenario = "corp";
    cfg.seed_base = 100;
    cfg.runs = 2;
    cfg.jobs = jobs;
    cfg.pool.slab_buffers = slab_buffers;
    cfg.pool.poison_on_release = slab_buffers > 0;
    ExperimentRunner exp(cfg);
    exp.add_variant("baseline", [](std::uint64_t) {
      scenario::CorpConfig c;
      c.download_window = 30 * sim::kSecond;
      return std::make_unique<scenario::CorpWorld>(c);
    });
    exp.add_variant("rogue+deauth", [](std::uint64_t) {
      return std::make_unique<scenario::CorpWorld>(quick_corp_attack());
    });
    return exp.run().to_json().dump(2);
  };

  // Deep-copy a report value with every sim.pool.* stat removed: the pool
  // telemetry legitimately differs between heap and arena modes (slab
  // pre-warm changes freelist depth; arena mode adds high_water/spills),
  // but nothing else in the report may.
  const auto strip_pool_stats = [](const util::Json& j) {
    const auto strip = [](const auto& self, const util::Json& node) -> util::Json {
      switch (node.type()) {
        case util::Json::Type::kObject: {
          util::Json out = util::Json::object();
          for (const auto& [key, value] : node.members()) {
            if (key.rfind("sim.pool.", 0) == 0) continue;
            out.set(key, self(self, value));
          }
          return out;
        }
        case util::Json::Type::kArray: {
          util::Json out = util::Json::array();
          for (const util::Json& item : node.items()) {
            out.push_back(self(self, item));
          }
          return out;
        }
        default:
          return node;
      }
    };
    return strip(strip, j).dump(2);
  };

  const std::string baseline = run_report(1, 0);
  ASSERT_FALSE(baseline.empty());
  for (const std::size_t jobs : {4u, 8u}) {
    EXPECT_EQ(run_report(jobs, 0), baseline) << "bytes changed at jobs=" << jobs;
  }

  // Arena runs are byte-identical to each other at any job count, and
  // identical to the heap-mode report outside the pool telemetry.
  const std::string arena = run_report(1, 64);
  for (const std::size_t jobs : {4u, 8u}) {
    EXPECT_EQ(run_report(jobs, 64), arena)
        << "arena report bytes changed at jobs=" << jobs;
  }
  const auto parsed_baseline = util::Json::parse(baseline);
  const auto parsed_arena = util::Json::parse(arena);
  ASSERT_TRUE(parsed_baseline.has_value());
  ASSERT_TRUE(parsed_arena.has_value());
  EXPECT_EQ(strip_pool_stats(*parsed_arena), strip_pool_stats(*parsed_baseline))
      << "arena pool changed simulation results, not just pool telemetry";

  const std::string digest = crypto::sha256_hex(util::to_bytes(baseline));
  EXPECT_EQ(digest,
            "1ec5dd66eb4dfb64d90616eaa9a9b247eec9c9689a12325ebdc3005112849f73")
      << "sweep report bytes diverged from the pinned golden";
}

// Report digests of the paths that CorpWorld and HotspotWorld share — the
// fault plan and chatter, the VPN tunnel with its health and fail-open
// meter, and the WIDS detector/attacker environments — on the ladders no
// other pin covers. The digests were captured before that plumbing was
// factored into scenario::ClientKit, so any byte move is a behaviour
// change in it.
std::string stock_digest(std::string_view scenario, double faults,
                         const std::vector<std::string>& only = {}) {
  SweepConfig cfg;
  cfg.scenario = std::string(scenario);
  cfg.seed_base = 7;
  cfg.runs = 1;
  cfg.jobs = 2;
  ExperimentRunner exp(cfg);
  for (Variant& v : stock_variants(scenario, faults)) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), v.name) == only.end()) {
      continue;
    }
    exp.add_variant(v.name, std::move(v.make));
  }
  const SweepReport report = exp.run();
  EXPECT_EQ(report.failed_count(), 0u) << scenario;
  return crypto::sha256_hex(util::to_bytes(report.to_json().dump(2)));
}

std::string tournament_digest(std::string scenario,
                              std::vector<std::string> attackers,
                              std::vector<std::string> detectors) {
  TournamentConfig tc;
  tc.scenario = std::move(scenario);
  tc.attackers = std::move(attackers);
  tc.detectors = std::move(detectors);
  tc.seed_base = 7;
  tc.runs = 1;
  tc.jobs = 2;
  const TournamentReport report = run_tournament(tc);
  EXPECT_EQ(report.failed_count(), 0u) << tc.scenario;
  return crypto::sha256_hex(util::to_bytes(report.to_json().dump(2)));
}

TEST(Sweep, WorldPlumbingReportBytesPinned) {
  EXPECT_EQ(stock_digest("hotspot-chaos", 0.0),
            "ebd677381c0a09a46ac96b3ff736262a20ccf162ed551f0761d5605c65475a7a");
  EXPECT_EQ(stock_digest("hotspot", 3.0),
            "0b0fdbc59817c43364a7448f40e5773d7a1c6613bc1a6a6cd287f0ced4385640");
  EXPECT_EQ(stock_digest("corp-chaos", 0.0),
            "c819197f8674917db2e356ec4046de4f1b5e3546991ac78d6c06c0ecbfc67152");
  EXPECT_EQ(stock_digest("corp-transport", 0.0, {"tcp-chaos", "udp-chaos"}),
            "4a8262c91ab1bb9281fce121aac4b2ccd2c5c163f240d22ff62fa24eb7a4a3e0");
  EXPECT_EQ(tournament_digest("hotspot",
                              {"none", "deauth-flood", "low-slow-deauth",
                               "cloner"},
                              {"rssi", "composite"}),
            "8198f96d0e6e667e979e22c4f3dfaff78c9f179748d8128438047a9ee6275324");
  // rogue-gateway drives CorpWorld::deploy_rogue through the attacker env.
  EXPECT_EQ(tournament_digest("corp", {"none", "rogue-gateway", "cloner"},
                              {"seqnum", "composite"}),
            "b02cab6aa33866d1ec2a27986c3572584667a331e4845e1fd96ad5ea83beb811");
}

// SHA-256 over every frame a world put on the air: per frame, its capture
// time, its length and its bytes. Report digests pin outcomes; this pins
// each header field and body byte of every transmitted frame.
std::string frame_digest(std::unique_ptr<scenario::World> world,
                         std::uint64_t seed) {
  world->enable_frame_capture();
  world->configure(seed);
  world->run_episode();
  crypto::Sha256 hash;
  util::Bytes record;
  for (const sim::CapturedFrame& f : world->trace().frames()) {
    record.clear();
    util::ByteWriter w(record);
    w.u64be(f.time);
    w.u32be(static_cast<std::uint32_t>(f.bytes.size()));
    w.raw(f.bytes);
    hash.update(record);
  }
  return util::hex_encode(hash.finish());
}

std::unique_ptr<scenario::World> stock_world(std::string_view scenario,
                                             std::string_view name,
                                             std::uint64_t seed) {
  for (Variant& v : stock_variants(scenario)) {
    if (v.name == name) return v.make(seed);
  }
  throw std::invalid_argument("no stock variant " + std::string(name));
}

/// One corp tournament pair's world.
std::unique_ptr<scenario::World> wids_world(std::string attacker,
                                            std::string detector) {
  TournamentConfig tc;
  tc.attackers = {std::move(attacker)};
  tc.detectors = {std::move(detector)};
  return tournament_variants(tc).front().make(7);
}

// Between them these worlds send every kind of management frame the
// simulator writes: AP beacons, probe responses, auth and assoc responses;
// station auth and assoc requests; metro joins and roaming deauths; forged
// deauths (flood and low-and-slow); cloned beacons and probe responses;
// and the probe-timing detector's probe requests.
TEST(Sweep, TransmittedFrameBytesPinned) {
  EXPECT_EQ(frame_digest(stock_world("corp", "rogue+deauth", 7), 7),
            "97ec55257cb38fcc9c6d44c8b726da5124ed4414568220a7b65b3d676a6b90c7");
  EXPECT_EQ(frame_digest(wids_world("cloner", "probe-timing"), 7),
            "c2733dfe179bd29b39b4de2205c061ada32f87b8312a44c6a21a1364b63a5e9e");
  EXPECT_EQ(frame_digest(wids_world("low-slow-deauth", "seqnum"), 7),
            "8d307103aa3456d3286ee1edb1788204289b8c3bf03f5fccaaae0dd6bbb2d410");
  EXPECT_EQ(frame_digest(stock_world("hotspot", "hostile", 7), 7),
            "c511c933635663335c799945bc9923104449d407301d8a7443b22f1a182a56a9");
  EXPECT_EQ(frame_digest(stock_world("metro", "evil-twin", 1), 1),
            "c5bd716548dd4590ad2bc0fc973b5c0dcf7a1e0c6308c9638f79b714eee90406");
}

TEST(StockScenarios, MetroLaddersTakeNoFaults) {
  // `sweep --faults` is rejected where a ladder would drop it silently.
  EXPECT_TRUE(takes_faults("corp"));
  EXPECT_TRUE(takes_faults("corp-chaos"));
  EXPECT_TRUE(takes_faults("corp-transport"));
  EXPECT_FALSE(takes_faults("metro"));
  EXPECT_FALSE(takes_faults("metro-city"));
  EXPECT_FALSE(takes_faults("no-such-ladder"));
}

}  // namespace
}  // namespace rogue::runner
