// Observability-layer tests: StatsRegistry semantics (tallies summed over
// instances and kept past their owners, lazy names, sampled gauges,
// histogram bucketing), snapshot JSON round-trip, profiler scoping,
// pcap serialize/parse round-trip — including the acceptance-criterion
// round-trip over a real corp-world radio capture — and stats determinism
// across sweep worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "obs/pcap.hpp"
#include "obs/profiler.hpp"
#include "obs/stats.hpp"
#include "runner/scenarios.hpp"
#include "runner/sweep.hpp"
#include "scenario/corp_world.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace rogue::obs {
namespace {

/// A component with plain tallies, registered the way every simulator
/// component registers its own.
struct Component {
  explicit Component(StatsRegistry& registry) : publication(registry, *this) {}
  void publish(Tallies& out) const {
    out.counter("test.events", events);
    out.lazy_counter("test.rare", rare);
    out.gauge("test.level", level);
  }
  std::uint64_t events = 0;
  std::uint64_t rare = 0;
  std::uint64_t level = 0;
  Publication publication;
};

TEST(StatsRegistry, SameNameTalliesSumAcrossInstances) {
  // Every STA publishes dot11.sta.scans: the snapshot holds their sum.
  StatsRegistry reg;
  Component a(reg);
  Component b(reg);
  a.events = 3;
  b.events = 4;
  const StatsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("test.events"), 7u);
  ASSERT_EQ(snap.entries.size(), 1u);  // the zero lazy names stay out
  EXPECT_EQ(snap.entries[0].kind, MetricKind::kCounter);
}

TEST(StatsRegistry, DestroyedComponentCountsStayInTheTotal) {
  // A closed TCP connection's segments still count.
  StatsRegistry reg;
  Component kept(reg);
  kept.events = 2;
  {
    Component gone(reg);
    gone.events = 5;
    gone.rare = 1;
    gone.level = 9;
  }
  StatsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("test.events"), 7u);
  EXPECT_EQ(snap.value("test.rare"), 1u);
  EXPECT_EQ(snap.find("test.level"), nullptr) << "a level dies with its owner";
  kept.events = 3;
  EXPECT_EQ(reg.snapshot().value("test.events"), 8u);
  // A name registered and destroyed before any snapshot is still listed.
  StatsRegistry unread;
  { Component brief(unread); }
  snap = unread.snapshot();
  ASSERT_NE(snap.find("test.events"), nullptr);
  EXPECT_EQ(snap.value("test.events"), 0u);
}

TEST(StatsRegistry, LazyNameJoinsAtFirstNonZeroSnapshotAndStays) {
  StatsRegistry reg;
  auto c = std::make_unique<Component>(reg);
  StatsSnapshot snap = reg.snapshot();
  EXPECT_NE(snap.find("test.events"), nullptr) << "eager names list at 0";
  EXPECT_EQ(snap.find("test.rare"), nullptr);
  c->rare = 2;
  EXPECT_EQ(reg.snapshot().value("test.rare"), 2u);
  c.reset();  // its only publisher is gone; the name and its count stay
  snap = reg.snapshot();
  ASSERT_NE(snap.find("test.rare"), nullptr);
  EXPECT_EQ(snap.value("test.rare"), 2u);
}

TEST(StatsRegistry, GaugeTracksHighWater) {
  // A gauge's level is read at snapshot instants only: its high-water mark
  // is the largest level a snapshot saw, not the largest level it had.
  StatsRegistry reg;
  Component c(reg);
  EXPECT_EQ(reg.snapshot().find("test.level"), nullptr);
  c.level = 10;
  StatsSnapshot snap = reg.snapshot();
  const StatsSnapshot::Entry* e = snap.find("test.level");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, MetricKind::kGauge);
  EXPECT_EQ(e->value, 10u);
  EXPECT_EQ(e->high_water, 10u);
  c.level = 25;  // never sampled
  c.level = 7;
  snap = reg.snapshot();
  EXPECT_EQ(snap.find("test.level")->value, 7u);
  EXPECT_EQ(snap.find("test.level")->high_water, 10u);
  c.level = 0;  // listed from its first non-zero snapshot on
  snap = reg.snapshot();
  ASSERT_NE(snap.find("test.level"), nullptr);
  EXPECT_EQ(snap.find("test.level")->value, 0u);
  EXPECT_EQ(snap.find("test.level")->high_water, 10u);
}

TEST(StatsRegistry, DefaultHandleHitsScrapSlotHarmlessly) {
  // An un-interned histogram handle must observe without faulting and
  // without polluting any named metric.
  StatsRegistry reg;
  const HistogramId named = reg.histogram("phy.frame_bytes", {64});
  HistogramId inert;
  reg.observe(inert, 5);
  const StatsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.find("phy.frame_bytes")->hist.count, 0u);
  reg.observe(named, 5);
  EXPECT_EQ(reg.snapshot().find("phy.frame_bytes")->hist.count, 1u);
}

TEST(StatsRegistry, HistogramBucketsOnInclusiveUpperBounds) {
  StatsRegistry reg;
  HistogramId h = reg.histogram("phy.frame_bytes", {64, 256, 1024});
  reg.observe(h, 64);    // first bucket (inclusive bound)
  reg.observe(h, 65);    // second
  reg.observe(h, 256);   // second
  reg.observe(h, 1000);  // third
  reg.observe(h, 4000);  // +inf overflow bucket
  StatsSnapshot snap = reg.snapshot();
  const StatsSnapshot::Entry* e = snap.find("phy.frame_bytes");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, MetricKind::kHistogram);
  ASSERT_EQ(e->hist.buckets.size(), 4u);
  EXPECT_EQ(e->hist.buckets[0], 1u);
  EXPECT_EQ(e->hist.buckets[1], 2u);
  EXPECT_EQ(e->hist.buckets[2], 1u);
  EXPECT_EQ(e->hist.buckets[3], 1u);
  EXPECT_EQ(e->hist.count, 5u);
  EXPECT_EQ(e->hist.sum, 64u + 65 + 256 + 1000 + 4000);
}

/// Publishes fixed totals under the given names.
struct Fixed {
  Fixed(StatsRegistry& registry,
        std::vector<std::pair<std::string, std::uint64_t>> fixed)
      : totals(std::move(fixed)), publication(registry, *this) {}
  void publish(Tallies& out) const {
    for (const auto& [name, total] : totals) out.counter(name, total);
  }
  std::vector<std::pair<std::string, std::uint64_t>> totals;
  Publication publication;
};

TEST(StatsSnapshot, SortedLookupAndValue) {
  StatsRegistry reg;
  const Fixed f(reg, {{"z.last", 3}, {"a.first", 1}});
  StatsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].name, "a.first");
  EXPECT_EQ(snap.entries[1].name, "z.last");
  EXPECT_EQ(snap.value("z.last"), 3u);
  EXPECT_EQ(snap.value("missing"), 0u);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(StatsSnapshot, FlatRowsFollowOneNamingRule) {
  StatsRegistry reg;
  const Fixed f(reg, {{"net.tcp.segments_sent", 123}});
  Component c(reg);
  c.level = 4;
  reg.observe(reg.histogram("phy.frame_bytes", {128}), 100);
  std::vector<std::pair<std::string, std::uint64_t>> rows;
  reg.snapshot().for_each_row([&](const std::string& name, std::uint64_t v) {
    rows.emplace_back(name, v);
  });
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"net.tcp.segments_sent", 123}, {"phy.frame_bytes.count", 1},
      {"phy.frame_bytes.sum", 100},   {"test.events", 0},
      {"test.level", 4},              {"test.level.high_water", 4}};
  EXPECT_EQ(rows, expected);
}

TEST(StatsSnapshot, JsonRoundTrip) {
  StatsRegistry reg;
  const Fixed f(reg, {{"net.tcp.segments_sent", 123}});
  Component c(reg);
  c.level = 40;
  (void)reg.snapshot();
  c.level = 12;
  HistogramId h = reg.histogram("phy.frame_bytes", {128, 512});
  reg.observe(h, 100);
  reg.observe(h, 600);

  StatsSnapshot snap = reg.snapshot();
  const std::string text = snap.to_json().dump(2);
  const auto parsed = util::Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  StatsSnapshot back = StatsSnapshot::from_json(*parsed);

  ASSERT_EQ(back.entries.size(), snap.entries.size());
  EXPECT_EQ(back.value("net.tcp.segments_sent"), 123u);
  const StatsSnapshot::Entry* gauge = back.find("test.level");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 12u);
  EXPECT_EQ(gauge->high_water, 40u);
  const StatsSnapshot::Entry* hist = back.find("phy.frame_bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 2u);
  EXPECT_EQ(hist->hist.sum, 700u);
  ASSERT_EQ(hist->hist.bounds.size(), 2u);
  EXPECT_EQ(hist->hist.bounds[1], 512u);
  // Serializing the parsed-back snapshot reproduces the bytes.
  EXPECT_EQ(back.to_json().dump(2), text);
}

TEST(Profiler, DisabledScopeRecordsNothing) {
  // Scopes on a disabled profiler are inert; zero-call scopes stay out of
  // the report entirely.
  Profiler prof;
  Profiler::ScopeId id = prof.intern("phy.deliver");
  { Profiler::Scope s(prof, id); }
  EXPECT_TRUE(prof.report().rows.empty());
}

TEST(Profiler, NestedScopesSplitSelfAndTotal) {
  Profiler prof;
  Profiler::ScopeId outer = prof.intern("sim.dispatch");
  Profiler::ScopeId inner = prof.intern("phy.deliver");
  prof.set_enabled(true);
  for (int i = 0; i < 100; ++i) {
    Profiler::Scope so(prof, outer);
    Profiler::Scope si(prof, inner);
  }
  Profiler::Report rep = prof.report();
  ASSERT_EQ(rep.rows.size(), 2u);
  std::uint64_t outer_total = 0, outer_self = 0, inner_total = 0;
  for (const Profiler::Row& r : rep.rows) {
    EXPECT_EQ(r.calls, 100u);
    if (r.name == "sim.dispatch") {
      outer_total = r.total_ns;
      outer_self = r.self_ns;
    } else {
      EXPECT_EQ(r.name, "phy.deliver");
      inner_total = r.total_ns;
    }
  }
  // The parent's total includes the child; its self time does not.
  EXPECT_GE(outer_total, inner_total);
  EXPECT_LE(outer_self, outer_total);
}

TEST(Profiler, ResetClearsTalliesKeepsNames) {
  Profiler prof;
  Profiler::ScopeId id = prof.intern("vpn.client.data");
  prof.set_enabled(true);
  { Profiler::Scope s(prof, id); }
  ASSERT_EQ(prof.report().rows.size(), 1u);
  prof.reset();
  EXPECT_TRUE(prof.report().rows.empty());
  // Interned handles survive the reset and keep tallying.
  EXPECT_EQ(prof.intern("vpn.client.data").index, id.index);
  { Profiler::Scope s(prof, id); }
  Profiler::Report rep = prof.report();
  ASSERT_EQ(rep.rows.size(), 1u);
  EXPECT_EQ(rep.rows[0].calls, 1u);
  EXPECT_EQ(rep.rows[0].name, "vpn.client.data");
}

TEST(Pcap, RoundTripSynthetic) {
  PcapWriter writer;
  const util::Bytes f1 = {0x80, 0x00, 0x00, 0x00};  // beacon-ish header
  const util::Bytes f2(1536, 0xAB);
  writer.add_frame(1'000'000, f1);
  writer.add_frame(2'500'123, f2);
  EXPECT_EQ(writer.frames(), 2u);

  const auto parsed = pcap_parse(writer.data());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->link_type, PcapWriter::kLinkTypeIeee80211);
  ASSERT_EQ(parsed->records.size(), 2u);
  EXPECT_EQ(parsed->records[0].timestamp_us, 1'000'000u);
  EXPECT_EQ(parsed->records[0].frame, f1);
  EXPECT_EQ(parsed->records[1].timestamp_us, 2'500'123u);
  EXPECT_EQ(parsed->records[1].frame, f2);
}

TEST(Pcap, RejectsMalformedImages) {
  EXPECT_FALSE(pcap_parse(util::Bytes{}).has_value());
  util::Bytes bad_magic(24, 0x00);
  EXPECT_FALSE(pcap_parse(bad_magic).has_value());
  // Truncated record header after a valid global header.
  PcapWriter writer;
  writer.add_frame(1, util::Bytes{0x01});
  util::Bytes truncated(writer.data().begin(), writer.data().end() - 1);
  EXPECT_FALSE(pcap_parse(truncated).has_value());
}

scenario::CorpConfig quick_corp() {
  scenario::CorpConfig cfg;
  cfg.settle_time = 2 * sim::kSecond;
  cfg.capture_window = 5 * sim::kSecond;
  cfg.download_window = 10 * sim::kSecond;
  return cfg;
}

TEST(Pcap, CorpWorldCaptureRoundTrips) {
  // Acceptance criterion: a .pcap generated from a corp-world capture
  // parses back with matching frame count and bytes.
  scenario::CorpWorld world(quick_corp());
  world.enable_frame_capture();
  world.configure(7);
  world.run_episode();
  const auto& frames = world.trace().frames();
  ASSERT_GT(frames.size(), 0u);

  PcapWriter writer;
  for (const sim::CapturedFrame& f : frames) writer.add_frame(f.time, f.bytes);
  const auto parsed = pcap_parse(writer.data());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->link_type, PcapWriter::kLinkTypeIeee80211);
  ASSERT_EQ(parsed->records.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(parsed->records[i].timestamp_us, frames[i].time);
    EXPECT_EQ(parsed->records[i].frame, frames[i].bytes);
  }
}

TEST(Stats, CorpWorldPopulatesLayerCounters) {
  scenario::CorpWorld world(quick_corp());
  world.configure(7);
  world.run_episode();
  StatsSnapshot snap = world.simulator().stats_snapshot();
  // Every layer contributes: phy traffic, 802.11 management, ARP/IP/TCP,
  // and the kernel merges its own event counters into the snapshot.
  EXPECT_GT(snap.value("phy.tx_frames"), 0u);
  EXPECT_GT(snap.value("dot11.ap.beacons_tx"), 0u);
  EXPECT_GT(snap.value("net.arp.requests"), 0u);
  EXPECT_GT(snap.value("net.ip.sent"), 0u);
  EXPECT_GT(snap.value("net.tcp.segments_sent"), 0u);
  EXPECT_GT(snap.value("sim.events_fired"), 0u);
  const StatsSnapshot::Entry* hist = snap.find("phy.frame_bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, snap.value("phy.tx_frames"));
  // The kernel's own sim.* entries join stats_snapshot() only: timeseries
  // samples read the registry and leave them out.
  for (const StatsSnapshot::Entry& e :
       world.simulator().stats().snapshot().entries) {
    EXPECT_FALSE(e.name.starts_with("sim.")) << e.name;
  }
}

TEST(Stats, SameSeedSameSnapshot) {
  // A replica's stats are a pure function of (config, seed) — the property
  // that lets them join the byte-identical sweep report.
  std::string first;
  for (int rep = 0; rep < 2; ++rep) {
    scenario::CorpWorld world(quick_corp());
    world.configure(21);
    world.run_episode();
    const std::string text =
        world.simulator().stats_snapshot().to_json().dump(2);
    if (first.empty()) {
      first = text;
    } else {
      EXPECT_EQ(text, first);
    }
  }
}

TEST(Stats, SweepStatsJsonIdenticalAcrossThreadCounts) {
  std::string baseline;
  for (const std::size_t jobs : {1u, 4u}) {
    runner::SweepConfig cfg;
    cfg.scenario = "corp";
    cfg.seed_base = 50;
    cfg.runs = 2;
    cfg.jobs = jobs;
    runner::ExperimentRunner exp(cfg);
    exp.add_variant("baseline", [](std::uint64_t) {
      return std::make_unique<scenario::CorpWorld>(quick_corp());
    });
    const runner::SweepReport report = exp.run();
    const std::string text = report.stats_json().dump(2);
    ASSERT_NE(text.find("phy.tx_frames"), std::string::npos);
    if (baseline.empty()) {
      baseline = text;
    } else {
      EXPECT_EQ(text, baseline) << "stats diverged at jobs=" << jobs;
    }
  }
}

/// SHA-256 of the stats file and of the 5 s timeseries of a sweep over
/// the stock `scenario` variants named in `only`, two replicas each.
struct StatsDigests {
  std::string stats, timeseries;
};
StatsDigests stats_digests(std::string_view scenario,
                           const std::vector<std::string>& only) {
  runner::SweepConfig cfg;
  cfg.scenario = std::string(scenario);
  cfg.seed_base = 7;
  cfg.runs = 2;
  cfg.jobs = 4;
  cfg.timeseries_dt_s = 5.0;
  runner::ExperimentRunner exp(cfg);
  for (runner::Variant& v : runner::stock_variants(scenario)) {
    if (std::find(only.begin(), only.end(), v.name) == only.end()) continue;
    exp.add_variant(v.name, std::move(v.make));
  }
  EXPECT_EQ(exp.variant_count(), only.size()) << scenario;
  const runner::SweepReport report = exp.run();
  EXPECT_EQ(report.failed_count(), 0u) << scenario;
  const auto hex = [](const std::string& text) {
    return crypto::sha256_hex(util::to_bytes(text));
  };
  return {hex(report.stats_json().dump(2)), hex(report.timeseries_jsonl())};
}

TEST(Stats, SnapshotAndTimeseriesBytesPinned) {
  // Which names a snapshot holds, and each value, pinned where the rules
  // differ: the VPN resilience names and the phy.chaos_* pair appear only
  // once non-zero, vpn.endpoint.sessions_active joins at its first UDP
  // session with a high-water mark over the sampling instants, and the
  // detectors publish detect.<name>.alerts.
  const StatsDigests udp =
      stats_digests("corp-transport", {"udp-clean", "udp-chaos"});
  EXPECT_EQ(udp.stats,
            "02c00fe93714d3b8de3bc383cbaff70fda866fb79ddf017c7223a1e3c356c48f");
  EXPECT_EQ(udp.timeseries,
            "2d2d6885b6ccd94e755f77ad9f5d71b2912f63db5a31101fb313d1edbaf1f29e");
  const StatsDigests chaos = stats_digests("corp-chaos", {"chaos-defended"});
  EXPECT_EQ(chaos.stats,
            "16be1eb7819c345423a9bc6090c5b9b2a90f385c3d54f52bb32fa6866439923c");
  EXPECT_EQ(chaos.timeseries,
            "2e9bb6ed9b219e8712683073dc04c9f0b1b812b7ea343c34c3f3c3171efc1e1f");
  const StatsDigests wids = stats_digests("corp", {"rogue+deauth"});
  EXPECT_EQ(wids.stats,
            "2d4f49f30f53964f9c0d5620f1b79a9f4d628705b66317ceae92f0b816c5989c");
  EXPECT_EQ(wids.timeseries,
            "01e591727eee66ea129115ee6f250fd2eb6721ec8561d5ea576f802af2384df9");
  const StatsDigests metro = stats_digests("metro", {"evil-twin"});
  EXPECT_EQ(metro.stats,
            "87ff2d1b51820506ca7689e5f4cdd65001c1018235dc611444a18bcc0f4335b7");
  EXPECT_EQ(metro.timeseries,
            "36874c1bf5e33776c9a16a36b1f92da5274cfbef441e73c6d589c167b1b475ed");
}

}  // namespace
}  // namespace rogue::obs
