// Causal tracer / flight recorder tests: seed-deterministic id derivation,
// ring wraparound against a reference model, span-forest reconstruction,
// Chrome trace-event schema round-trip, a scripted WPA handshake asserted
// node-by-node, stats counters against their instant counts, and the
// failed-replica flight-recorder tail. Byte determinism of the trace and
// timeseries exports across worker counts is test_jobs_determinism.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dot11/ap.hpp"
#include "dot11/sta.hpp"
#include "obs/tracer.hpp"
#include "phy/medium.hpp"
#include "runner/scenarios.hpp"
#include "runner/sweep.hpp"
#include "scenario/corp_world.hpp"
#include "sim/simulator.hpp"

namespace rogue {
namespace {

using net::MacAddr;
using util::to_bytes;

// ---- Tracer core ----------------------------------------------------------

TEST(Tracer, IdsAreSeedDeterministicAndNeverZero) {
  obs::Tracer a;
  obs::Tracer b;
  a.set_seed(42);
  b.set_seed(42);
  a.enable(4);
  b.enable(4);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t id = a.new_trace_id();
    EXPECT_EQ(id, b.new_trace_id()) << "id stream diverged at " << i;
    EXPECT_NE(id, 0u);
  }
  obs::Tracer c;
  c.set_seed(43);
  c.enable(4);
  a.set_seed(42);  // restart the stream
  EXPECT_NE(a.new_trace_id(), c.new_trace_id())
      << "different seeds should give different id streams";
}

TEST(Tracer, DisabledPathRecordsNothingAndHandsOutZeroIds) {
  obs::Tracer t;
  t.set_seed(7);
  const obs::TraceNameId n = t.name("event");
  const obs::TraceActorId a = t.actor("actor");
  EXPECT_EQ(t.new_trace_id(), 0u) << "disabled tracer must hand out the "
                                     "\"no chain\" sentinel";
  t.instant(n, a, obs::TraceLayer::kSim);
  t.begin(n, a, obs::TraceLayer::kSim);
  t.end(n, a, obs::TraceLayer::kSim);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_TRUE(t.dump().empty());
}

TEST(Tracer, RingWraparoundKeepsNewestInEvictionOrder) {
  // Property: after N records into a capacity-C ring, the dump equals the
  // last min(N, C) records in order — checked against a reference deque.
  constexpr std::uint64_t kRecords = 37;
  for (const std::size_t cap : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{8}, std::size_t{64}}) {
    obs::Tracer t;
    t.set_seed(1);
    std::uint64_t clock = 0;
    t.bind_clock(&clock);
    const obs::TraceNameId n = t.name("tick");
    const obs::TraceActorId a = t.actor("ring");
    t.enable(cap);

    std::deque<std::uint64_t> reference;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      clock = i * 10;
      t.instant(n, a, obs::TraceLayer::kSim, 0, i);
      reference.push_back(i);
      if (reference.size() > cap) reference.pop_front();
    }

    const obs::TracerDump dump = t.dump();
    ASSERT_EQ(dump.events.size(), reference.size()) << "cap=" << cap;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(dump.events[i].arg, reference[i]) << "cap=" << cap;
      EXPECT_EQ(dump.events[i].time_us, reference[i] * 10) << "cap=" << cap;
    }
    EXPECT_EQ(dump.recorded, kRecords);
    EXPECT_EQ(dump.dropped, kRecords - std::min<std::uint64_t>(kRecords, cap));
  }
}

TEST(Tracer, IdScopeNestsAndRestores) {
  obs::Tracer t;
  t.set_seed(9);
  t.enable(8);
  EXPECT_EQ(t.current(), 0u);
  {
    obs::Tracer::IdScope outer(t, 111);
    EXPECT_EQ(t.current(), 111u);
    {
      obs::Tracer::IdScope inner(t, 222);
      EXPECT_EQ(t.current(), 222u);
    }
    EXPECT_EQ(t.current(), 111u);
  }
  EXPECT_EQ(t.current(), 0u);

  // A record with trace_id 0 inherits the active scope.
  const obs::TraceNameId n = t.name("inherit");
  const obs::TraceActorId a = t.actor("actor");
  {
    obs::Tracer::IdScope scope(t, 333);
    t.instant(n, a, obs::TraceLayer::kSim);
  }
  const obs::TracerDump dump = t.dump();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].trace_id, 333u);
}

// ---- Span reconstruction --------------------------------------------------

TEST(Spans, BuildSpansNestsPerActorAndAttachesInstants) {
  obs::Tracer t;
  t.set_seed(3);
  std::uint64_t clock = 0;
  t.bind_clock(&clock);
  const obs::TraceNameId outer = t.name("outer");
  const obs::TraceNameId inner = t.name("inner");
  const obs::TraceNameId tick = t.name("tick");
  const obs::TraceActorId a = t.actor("alice");
  const obs::TraceActorId b = t.actor("bob");
  t.enable(32);

  clock = 10;
  t.begin(outer, a, obs::TraceLayer::kSim, 1);
  clock = 15;
  t.begin(outer, b, obs::TraceLayer::kSim, 2);  // other actor: separate stack
  clock = 20;
  t.begin(inner, a, obs::TraceLayer::kSim, 1);
  clock = 25;
  t.instant(tick, a, obs::TraceLayer::kSim, 1, 99);
  clock = 30;
  t.end(inner, a, obs::TraceLayer::kSim, 1);
  clock = 40;
  t.end(outer, a, obs::TraceLayer::kSim, 1);
  // bob's span never closes (e.g. episode ended first).

  const obs::TracerDump dump = t.dump();
  const std::vector<obs::Span> spans = obs::build_spans(dump);
  ASSERT_EQ(spans.size(), 3u);

  const obs::Span& alice_outer = spans[0];
  EXPECT_EQ(dump.names[alice_outer.name], "outer");
  EXPECT_EQ(dump.actors[alice_outer.actor], "alice");
  EXPECT_EQ(alice_outer.parent, -1);
  EXPECT_TRUE(alice_outer.closed);
  EXPECT_EQ(alice_outer.start_us, 10u);
  EXPECT_EQ(alice_outer.end_us, 40u);
  ASSERT_EQ(alice_outer.children.size(), 1u);

  const obs::Span& bob_outer = spans[1];
  EXPECT_EQ(dump.actors[bob_outer.actor], "bob");
  EXPECT_EQ(bob_outer.parent, -1);
  EXPECT_FALSE(bob_outer.closed) << "unclosed span must not be marked closed";

  const obs::Span& alice_inner = spans[alice_outer.children[0]];
  EXPECT_EQ(dump.names[alice_inner.name], "inner");
  EXPECT_EQ(alice_inner.parent, 0);
  EXPECT_TRUE(alice_inner.closed);
  EXPECT_EQ(alice_inner.start_us, 20u);
  EXPECT_EQ(alice_inner.end_us, 30u);
  ASSERT_EQ(alice_inner.instants.size(), 1u);
  EXPECT_EQ(dump.events[alice_inner.instants[0]].arg, 99u);
}

// ---- Chrome trace-event export --------------------------------------------

TEST(ChromeTrace, SchemaRoundTrip) {
  obs::Tracer t;
  t.set_seed(5);
  std::uint64_t clock = 0;
  t.bind_clock(&clock);
  const obs::TraceNameId span = t.name("work");
  const obs::TraceNameId mark = t.name("mark");
  const obs::TraceActorId a = t.actor("worker-0");
  t.enable(16);
  clock = 100;
  t.begin(span, a, obs::TraceLayer::kNet, 0xABCD);
  clock = 150;
  t.instant(mark, a, obs::TraceLayer::kNet, 0xABCD, 7);
  clock = 200;
  t.end(span, a, obs::TraceLayer::kNet, 0xABCD);

  std::ostringstream out;
  obs::ChromeTraceWriter writer(out);
  writer.process(t.dump(), 3, "variant seed=5");
  writer.finish();

  // The streamed document parses back with the trace-event schema.
  const auto parsed = util::Json::parse(out.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("displayTimeUnit")->as_string(), "ms");
  const util::Json* rows = parsed->find("traceEvents");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->type(), util::Json::Type::kArray);
  // process_name meta + thread_name meta + B + i + E.
  ASSERT_EQ(rows->size(), 5u);

  const util::Json& process_meta = rows->items()[0];
  EXPECT_EQ(process_meta.find("ph")->as_string(), "M");
  EXPECT_EQ(process_meta.find("name")->as_string(), "process_name");
  EXPECT_EQ(process_meta.find("pid")->as_int(), 3);
  EXPECT_EQ(process_meta.find("args")->find("name")->as_string(),
            "variant seed=5");

  const util::Json& thread_meta = rows->items()[1];
  EXPECT_EQ(thread_meta.find("ph")->as_string(), "M");
  EXPECT_EQ(thread_meta.find("name")->as_string(), "thread_name");
  EXPECT_EQ(thread_meta.find("args")->find("name")->as_string(), "worker-0");
  const std::int64_t tid = thread_meta.find("tid")->as_int();

  const char* expected_ph[] = {"B", "i", "E"};
  const std::int64_t expected_ts[] = {100, 150, 200};
  for (int i = 0; i < 3; ++i) {
    const util::Json& row = rows->items()[static_cast<std::size_t>(2 + i)];
    EXPECT_EQ(row.find("ph")->as_string(), expected_ph[i]);
    EXPECT_EQ(row.find("ts")->as_int(), expected_ts[i]);
    EXPECT_EQ(row.find("cat")->as_string(), "net");
    EXPECT_EQ(row.find("pid")->as_int(), 3);
    EXPECT_EQ(row.find("tid")->as_int(), tid);
    // trace ids export as fixed-width hex so chains grep cleanly.
    EXPECT_EQ(row.find("args")->find("trace")->as_string(),
              "000000000000abcd");
    if (std::string_view(expected_ph[i]) == "i") {
      ASSERT_NE(row.find("s"), nullptr) << "instants need a scope field";
      EXPECT_EQ(row.find("s")->as_string(), "t");
    } else {
      EXPECT_EQ(row.find("s"), nullptr);
    }
  }
}

// ---- Scripted WPA handshake ------------------------------------------------

struct TracedWpaFixture {
  sim::Simulator sim{91};
  phy::Medium medium{sim};

  TracedWpaFixture() { sim.tracer().enable(1 << 14); }

  dot11::ApConfig ap_cfg() {
    dot11::ApConfig cfg;
    cfg.ssid = "CORP";
    cfg.bssid = MacAddr::from_id(0xA9);
    cfg.channel = 1;
    cfg.security = dot11::SecurityMode::kWpaPsk;
    cfg.wpa_psk = to_bytes("corp-passphrase");
    return cfg;
  }
  dot11::StationConfig sta_cfg() {
    dot11::StationConfig cfg;
    cfg.mac = MacAddr::from_id(0x51);
    cfg.target_ssid = "CORP";
    cfg.scan_channels = {1};
    cfg.security = dot11::SecurityMode::kWpaPsk;
    cfg.wpa_psk = to_bytes("corp-passphrase");
    return cfg;
  }
};

TEST(WpaTrace, HandshakeSpanTreeAssertsNodeByNode) {
  TracedWpaFixture w;
  dot11::AccessPoint ap(w.sim, w.medium, w.ap_cfg());
  dot11::Station sta(w.sim, w.medium, w.sta_cfg());
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  w.sim.run_until(3 * sim::kSecond);
  ASSERT_TRUE(sta.ready()) << "4-way handshake did not complete";

  const obs::TracerDump dump = w.sim.tracer().dump();
  ASSERT_FALSE(dump.empty());

  // Exactly one dot11.wpa span, on the AP's track, closed (M1 -> M4), with
  // the M2/M3 verdict instants recorded inside it.
  const std::vector<obs::Span> spans = obs::build_spans(dump);
  const obs::Span* wpa = nullptr;
  for (const obs::Span& s : spans) {
    if (dump.names[s.name] == "dot11.wpa") {
      ASSERT_EQ(wpa, nullptr) << "expected exactly one handshake span";
      wpa = &s;
    }
  }
  ASSERT_NE(wpa, nullptr) << "handshake span missing from the dump";
  EXPECT_TRUE(wpa->closed) << "span must close when M4 verifies";
  EXPECT_LT(wpa->start_us, wpa->end_us);
  std::set<std::string> inside;
  for (const std::size_t idx : wpa->instants) {
    inside.insert(std::string(dump.name_of(dump.events[idx])));
  }
  EXPECT_TRUE(inside.count("dot11.wpa.m2")) << "M2 verdict not inside span";
  EXPECT_TRUE(inside.count("dot11.wpa.m3")) << "M3 send not inside span";

  // The STA saw M1 and reported the pairwise key install.
  std::uint64_t m1_seen = 0;
  std::uint64_t wpa_up = 0;
  for (const obs::TraceEvent& e : dump.events) {
    if (dump.name_of(e) == "dot11.wpa.m1") ++m1_seen;
    if (dump.name_of(e) == "dot11.wpa-up") ++wpa_up;
  }
  EXPECT_GE(m1_seen, 1u);
  EXPECT_EQ(wpa_up, 1u);
}

TEST(WpaTrace, HandshakeRidesOneCausalChain) {
  TracedWpaFixture w;
  dot11::AccessPoint ap(w.sim, w.medium, w.ap_cfg());
  dot11::Station sta(w.sim, w.medium, w.sta_cfg());
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  w.sim.run_until(3 * sim::kSecond);
  ASSERT_TRUE(sta.ready());

  const obs::TracerDump dump = w.sim.tracer().dump();
  // Chain anchor: the AP's M2-accepted verdict inherits the delivery
  // context of the EAPOL frame that carried M2.
  std::uint64_t chain_id = 0;
  for (const obs::TraceEvent& e : dump.events) {
    if (dump.name_of(e) == "dot11.wpa.m2") chain_id = e.trace_id;
  }
  ASSERT_NE(chain_id, 0u) << "M2 verdict must inherit a causal chain";

  const std::vector<obs::TraceEvent> chain =
      obs::causal_chain(dump, chain_id);
  std::uint64_t tx_on_chain = 0;
  bool m3_on_chain = false;
  std::uint64_t last_t = 0;
  for (const obs::TraceEvent& e : chain) {
    EXPECT_GE(e.time_us, last_t) << "chain must be in time order";
    last_t = e.time_us;
    if (dump.name_of(e) == "phy.tx") ++tx_on_chain;
    if (dump.name_of(e) == "dot11.wpa.m3") m3_on_chain = true;
  }
  // Causality inheritance links the request/response ladder: at least the
  // M2 -> M3 -> M4 transmissions (and usually the join sequence before
  // them) share the chain the anchor frame started.
  EXPECT_GE(tx_on_chain, 3u)
      << "expected the handshake's transmissions on one chain, got "
      << tx_on_chain;
  EXPECT_TRUE(m3_on_chain) << "M3 send must continue M2's chain";
}

// ---- Sweep integration -----------------------------------------------------

scenario::CorpConfig quick_corp() {
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

TEST(SweepTrace, DisabledTracerAddsNothingToTheReport) {
  runner::SweepConfig cfg;
  cfg.scenario = "corp";
  cfg.seed_base = 100;
  cfg.runs = 1;
  cfg.jobs = 1;
  runner::ExperimentRunner exp(cfg);
  exp.add_variant("rogue+deauth", [](std::uint64_t) {
    return std::make_unique<scenario::CorpWorld>(quick_corp());
  });
  const runner::SweepReport report = exp.run();
  ASSERT_EQ(report.failed_count(), 0u);
  EXPECT_EQ(report.runs[0].trace, nullptr);
  EXPECT_TRUE(report.runs[0].timeseries.empty());
  std::ostringstream trace;
  obs::ChromeTraceWriter writer(trace);
  report.write_chrome_trace(writer);
  writer.finish();
  EXPECT_EQ(trace.str(), R"({"traceEvents":[],"displayTimeUnit":"ms"})");
  EXPECT_TRUE(report.timeseries_jsonl().empty());
}

/// Instants named `name` recorded by actors whose label starts with
/// `actor_prefix`.
std::uint64_t count_instants(const obs::TracerDump& dump, std::string_view name,
                             std::string_view actor_prefix) {
  std::uint64_t n = 0;
  for (const obs::TraceEvent& e : dump.events) {
    if (e.phase == obs::TracePhase::kInstant && dump.name_of(e) == name &&
        dump.actor_of(e).starts_with(actor_prefix)) {
      ++n;
    }
  }
  return n;
}

TEST(SweepTrace, StatsCountersEqualTheirInstantsWhenTheRingDidNotWrap) {
  runner::SweepConfig cfg;
  cfg.scenario = "cross-check";
  cfg.seed_base = 7;
  cfg.runs = 1;
  cfg.jobs = 1;
  cfg.trace = true;
  cfg.trace_ring_events = 1 << 20;
  runner::ExperimentRunner exp(cfg);
  // Roaming, deauths and reconnects under faults on the hotspot; a WIDS
  // panel catching a low-and-slow deauth attacker on corp.
  runner::Variant chaos = runner::stock_variants("hotspot-chaos").at(0);
  exp.add_variant(chaos.name, std::move(chaos.make));
  exp.add_variant("wids", [](std::uint64_t) {
    scenario::CorpConfig corp;
    corp.wids_detectors = {"composite"};
    corp.wids_attacker = "low-slow-deauth";
    return std::make_unique<scenario::CorpWorld>(corp);
  });
  const runner::SweepReport report = exp.run();
  ASSERT_EQ(report.failed_count(), 0u);
  ASSERT_EQ(report.runs.size(), 2u);

  std::uint64_t scans = 0;
  std::uint64_t assocs = 0;
  std::uint64_t deauths = 0;
  std::uint64_t alerts = 0;
  for (const runner::RunMetrics& run : report.runs) {
    SCOPED_TRACE(run.variant);
    ASSERT_NE(run.trace, nullptr);
    const obs::TracerDump& dump = *run.trace;
    ASSERT_EQ(dump.dropped, 0u) << "ring wrapped: counts are not comparable";
    const obs::StatsSnapshot& stats = run.metrics.stats;

    EXPECT_EQ(stats.value("dot11.sta.scans"),
              count_instants(dump, "dot11.scan-start", ""));
    EXPECT_EQ(stats.value("dot11.sta.associations"),
              count_instants(dump, "dot11.associated", ""));
    EXPECT_EQ(stats.value("dot11.sta.deauth_rx"),
              count_instants(dump, "dot11.deauth-rx", "sta:"));
    std::uint64_t alert_stats = 0;
    for (const obs::StatsSnapshot::Entry& e : stats.entries) {
      if (e.name.starts_with("detect.") && e.name.ends_with(".alerts")) {
        alert_stats += e.value;
      }
    }
    EXPECT_EQ(alert_stats, count_instants(dump, "detect.alert", "detect:"));

    scans += stats.value("dot11.sta.scans");
    assocs += stats.value("dot11.sta.associations");
    deauths += stats.value("dot11.sta.deauth_rx");
    alerts += alert_stats;
  }
  // Each pair was actually exercised, so equality is not 0 == 0.
  EXPECT_GT(scans, 0u);
  EXPECT_GT(assocs, 0u);
  EXPECT_GT(deauths, 0u);
  EXPECT_GT(alerts, 0u);
}

/// Minimal world whose episode records a few trace events and then throws
/// — the shape a real crash takes, minus the debugging session.
class ThrowingWorld final : public scenario::World {
 public:
  [[nodiscard]] std::string_view name() const override { return "throwing"; }
  void configure(std::uint64_t seed) override { sim_.reseed(seed); }
  void start() override {}
  void run_for(sim::Time duration) override {
    sim_.run_until(sim_.now() + duration);
  }
  void run_episode() override {
    obs::Tracer& tracer = sim_.tracer();
    const obs::TraceNameId step = tracer.name("test.step");
    const obs::TraceActorId actor = tracer.actor("throwing-world");
    for (std::uint64_t i = 0; i < 5; ++i) {
      (void)sim_.at((i + 1) * sim::kMillisecond, [this, step, actor, i] {
        sim_.tracer().instant(step, actor, obs::TraceLayer::kSim, 0, i);
      });
    }
    sim_.run();
    throw std::runtime_error("episode exploded");
  }
  [[nodiscard]] sim::Simulator& simulator() override { return sim_; }
  [[nodiscard]] sim::Trace& trace() override { return trace_; }
  [[nodiscard]] scenario::Metrics collect_metrics() const override {
    return {};
  }

 private:
  sim::Simulator sim_{1};
  sim::Trace trace_;
};

TEST(SweepTrace, FailedReplicaCarriesFlightRecorderTail) {
  runner::SweepConfig cfg;
  cfg.scenario = "test";
  cfg.seed_base = 5;
  cfg.runs = 1;
  cfg.jobs = 1;
  cfg.trace = true;
  cfg.trace_ring_events = 64;
  runner::ExperimentRunner exp(cfg);
  exp.add_variant("boom", [](std::uint64_t) {
    return std::make_unique<ThrowingWorld>();
  });
  const runner::SweepReport report = exp.run();
  ASSERT_EQ(report.failed_count(), 1u);

  const util::Json j = report.to_json();
  const util::Json* failures = j.find("failures");
  ASSERT_NE(failures, nullptr);
  ASSERT_EQ(failures->size(), 1u);
  const util::Json& f = failures->items()[0];
  EXPECT_EQ(f.find("error")->as_string(), "episode exploded");
  const util::Json* recorder = f.find("flight_recorder");
  ASSERT_NE(recorder, nullptr) << "failed traced replica must dump its tail";
  ASSERT_EQ(recorder->size(), 5u);
  const util::Json& row = recorder->items()[0];
  EXPECT_NE(row.find("t_us"), nullptr);
  EXPECT_EQ(row.find("name")->as_string(), "test.step");
  EXPECT_EQ(row.find("actor")->as_string(), "throwing-world");
  EXPECT_NE(row.find("trace"), nullptr);
}

TEST(SweepTrace, UntracedFailureKeepsLegacyFailureBytes) {
  runner::SweepConfig cfg;
  cfg.scenario = "test";
  cfg.seed_base = 5;
  cfg.runs = 1;
  cfg.jobs = 1;  // tracing off: failures keep their legacy shape
  runner::ExperimentRunner exp(cfg);
  exp.add_variant("boom", [](std::uint64_t) {
    return std::make_unique<ThrowingWorld>();
  });
  const runner::SweepReport report = exp.run();
  ASSERT_EQ(report.failed_count(), 1u);
  EXPECT_EQ(report.to_json().dump().find("flight_recorder"),
            std::string::npos);
}

}  // namespace
}  // namespace rogue
