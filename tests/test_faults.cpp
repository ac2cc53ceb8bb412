// Fault-injection tests: deterministic plan generation, injector edge
// semantics (overlap collapse, degrade max-severity), and end-to-end
// recovery — VPN client reconnecting across an endpoint crash, station
// rescan backoff across an AP outage, and TCP's retransmission machinery
// under scripted burst loss on the radio medium — and fault routing: every
// fault kind reaches its component in every client world.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "faults/fault.hpp"
#include "net/tcp.hpp"
#include "scenario/corp_world.hpp"
#include "scenario/hotspot.hpp"
#include "sim/simulator.hpp"
#include "util/prng.hpp"

namespace rogue::faults {
namespace {

PlanConfig minute_plan(double intensity) {
  PlanConfig cfg;
  cfg.intensity = intensity;
  cfg.start = 3 * sim::kSecond;
  cfg.horizon = 63 * sim::kSecond;  // exactly one simulated minute
  return cfg;
}

TEST(Plan, IsAPureFunctionOfPrngStateAndConfig) {
  const PlanConfig cfg = minute_plan(10.0);
  util::Prng a(1234), b(1234), c(999);
  const Plan plan_a = Plan::generate(a, cfg);
  const Plan plan_b = Plan::generate(b, cfg);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  ASSERT_GE(plan_a.size(), 10u);
  for (std::size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a.events()[i].kind, plan_b.events()[i].kind);
    EXPECT_EQ(plan_a.events()[i].at, plan_b.events()[i].at);
    EXPECT_EQ(plan_a.events()[i].duration, plan_b.events()[i].duration);
    EXPECT_EQ(plan_a.events()[i].severity, plan_b.events()[i].severity);
  }

  // A different stream draws a different schedule.
  const Plan plan_c = Plan::generate(c, cfg);
  bool differs = plan_a.size() != plan_c.size();
  for (std::size_t i = 0; !differs && i < plan_a.size(); ++i) {
    differs = plan_a.events()[i].at != plan_c.events()[i].at ||
              plan_a.events()[i].kind != plan_c.events()[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(Plan, CoversEveryEnabledKindWithinBounds) {
  const PlanConfig cfg = minute_plan(8.0);
  util::Prng rng(77);
  const Plan plan = Plan::generate(rng, cfg);

  bool seen[kFaultKindCount] = {};
  sim::Time prev = 0;
  for (const FaultEvent& event : plan.events()) {
    seen[static_cast<std::size_t>(event.kind)] = true;
    EXPECT_GE(event.at, cfg.start);
    EXPECT_LT(event.at, cfg.horizon);
    EXPECT_GE(event.at, prev);  // sorted
    prev = event.at;
    EXPECT_GE(event.duration, cfg.min_duration);
    EXPECT_LE(event.duration, cfg.max_duration);
    if (event.kind == FaultKind::kChannelDegrade) {
      EXPECT_EQ(event.severity, cfg.degrade_loss);
    }
  }
  // Default-enabled kinds must all be covered; the transport-chaos kinds
  // (reorder/duplicate/jitter) are opt-in and must NOT appear by default.
  for (std::size_t k = 0; k <= static_cast<std::size_t>(FaultKind::kDeauthStorm);
       ++k) {
    EXPECT_TRUE(seen[k]) << "kind " << k << " never scheduled";
  }
  EXPECT_FALSE(seen[static_cast<std::size_t>(FaultKind::kReorder)]);
  EXPECT_FALSE(seen[static_cast<std::size_t>(FaultKind::kDuplicate)]);
  EXPECT_FALSE(seen[static_cast<std::size_t>(FaultKind::kJitter)]);
}

TEST(Plan, TransportChaosKindsAppearWhenOptedIn) {
  PlanConfig cfg = minute_plan(8.0);
  cfg.reorder = true;
  cfg.duplicate = true;
  cfg.jitter = true;
  util::Prng rng(77);
  const Plan plan = Plan::generate(rng, cfg);

  bool seen[kFaultKindCount] = {};
  for (const FaultEvent& event : plan.events()) {
    seen[static_cast<std::size_t>(event.kind)] = true;
    if (event.kind == FaultKind::kReorder) {
      EXPECT_EQ(event.severity, cfg.reorder_prob);
    }
    if (event.kind == FaultKind::kDuplicate) {
      EXPECT_EQ(event.severity, cfg.duplicate_prob);
    }
    if (event.kind == FaultKind::kJitter) {
      EXPECT_EQ(event.severity, cfg.jitter_ms);
    }
  }
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_TRUE(seen[k]) << "kind " << k << " never scheduled";
  }
}

/// Opting into a transport-chaos kind changes how many draws generate()
/// makes, but the legacy kinds' defaults must keep pre-existing seeded
/// plans byte-identical — the determinism contract behind pinned digests.
TEST(Plan, DefaultConfigDrawsAreUnchangedByNewKnobs) {
  const PlanConfig cfg = minute_plan(6.0);
  util::Prng a(4242), b(4242);
  const Plan before = Plan::generate(a, cfg);
  PlanConfig same = cfg;  // explicitly touch the new knobs' severities only
  same.reorder_prob = 0.9;
  same.duplicate_prob = 0.9;
  same.jitter_ms = 50.0;
  const Plan after = Plan::generate(b, same);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before.events()[i].kind, after.events()[i].kind);
    EXPECT_EQ(before.events()[i].at, after.events()[i].at);
    EXPECT_EQ(before.events()[i].severity, after.events()[i].severity);
  }
}

TEST(Plan, DisabledKindsNeverAppear) {
  PlanConfig cfg = minute_plan(12.0);
  cfg.ap_outage = false;
  cfg.channel_degrade = false;
  cfg.link_flap = false;
  cfg.deauth_storm = false;  // endpoint outages only
  util::Prng rng(5);
  const Plan plan = Plan::generate(rng, cfg);
  ASSERT_FALSE(plan.empty());
  for (const FaultEvent& event : plan.events()) {
    EXPECT_EQ(event.kind, FaultKind::kEndpointOutage);
  }
}

/// Records every hook invocation, in order.
class RecordingTarget final : public FaultTarget {
 public:
  void fault_ap(bool down) override {
    log.push_back(down ? "ap:down" : "ap:up");
  }
  void fault_endpoint(bool down) override {
    log.push_back(down ? "ep:down" : "ep:up");
  }
  void fault_channel(double extra_loss) override {
    log.push_back("ch:" + std::to_string(extra_loss).substr(0, 4));
  }
  void fault_link(bool down) override {
    log.push_back(down ? "link:down" : "link:up");
  }
  void fault_deauth_storm(bool active) override {
    log.push_back(active ? "storm:on" : "storm:off");
  }
  void fault_reorder(double probability) override {
    log.push_back("ro:" + std::to_string(probability).substr(0, 4));
  }
  void fault_duplicate(double probability) override {
    log.push_back("dup:" + std::to_string(probability).substr(0, 4));
  }
  void fault_jitter(double max_ms) override {
    log.push_back("jit:" + std::to_string(max_ms).substr(0, 4));
  }

  std::vector<std::string> log;
};

TEST(Injector, CollapsesOverlappingWindowsPerKind) {
  sim::Simulator sim(1);
  RecordingTarget target;
  Injector injector(sim, target);

  // Two overlapping AP outages: [100ms, 600ms) and [300ms, 800ms) must
  // surface as ONE down edge at 100ms and ONE up edge at 800ms.
  std::vector<FaultEvent> events;
  events.push_back({FaultKind::kApOutage, 100 * sim::kMillisecond,
                    500 * sim::kMillisecond, 0.0});
  events.push_back({FaultKind::kApOutage, 300 * sim::kMillisecond,
                    500 * sim::kMillisecond, 0.0});
  injector.install(Plan::from_events(std::move(events)));

  sim.run_until(2 * sim::kSecond);
  ASSERT_EQ(target.log.size(), 2u);
  EXPECT_EQ(target.log[0], "ap:down");
  EXPECT_EQ(target.log[1], "ap:up");
  EXPECT_EQ(injector.injected(), 2u);
}

TEST(Injector, ChannelDegradeAppliesTheStrongestActiveSeverity) {
  sim::Simulator sim(1);
  RecordingTarget target;
  Injector injector(sim, target);

  // Mild window [1s, 3s) @0.30 overlapped by a harsh one [1.5s, 2.5s)
  // @0.80: the target must always see the max of the active severities,
  // and 0 once both lift.
  std::vector<FaultEvent> events;
  events.push_back({FaultKind::kChannelDegrade, 1 * sim::kSecond,
                    2 * sim::kSecond, 0.30});
  events.push_back({FaultKind::kChannelDegrade, 1500 * sim::kMillisecond,
                    1 * sim::kSecond, 0.80});
  injector.install(Plan::from_events(std::move(events)));

  sim.run_until(4 * sim::kSecond);
  const std::vector<std::string> expected = {"ch:0.30", "ch:0.80", "ch:0.30",
                                             "ch:0.00"};
  EXPECT_EQ(target.log, expected);
}

TEST(Injector, TransportChaosSeveritiesStackLikeDegrade) {
  sim::Simulator sim(1);
  RecordingTarget target;
  Injector injector(sim, target);

  // Reorder [1s, 3s) @0.10 overlapped by [1.5s, 2.5s) @0.40, plus an
  // independent jitter window: each kind folds its own stack.
  std::vector<FaultEvent> events;
  events.push_back({FaultKind::kReorder, 1 * sim::kSecond,
                    2 * sim::kSecond, 0.10});
  events.push_back({FaultKind::kReorder, 1500 * sim::kMillisecond,
                    1 * sim::kSecond, 0.40});
  events.push_back({FaultKind::kJitter, 2 * sim::kSecond,
                    1 * sim::kSecond, 6.0});
  injector.install(Plan::from_events(std::move(events)));

  sim.run_until(4 * sim::kSecond);
  const std::vector<std::string> expected = {"ro:0.10", "ro:0.40", "jit:6.00",
                                             "ro:0.10", "ro:0.00", "jit:0.00"};
  EXPECT_EQ(target.log, expected);
}

}  // namespace
}  // namespace rogue::faults

namespace rogue::scenario {
namespace {

/// Endpoint crash + restart: the self-healing client must detect the dead
/// peer, retry with backoff while the endpoint is down, and re-establish
/// once it returns — with the gap showing up in the robustness metrics.
TEST(Recovery, VpnClientReconnectsAfterEndpointCrash) {
  CorpConfig cfg;
  cfg.do_download = false;
  cfg.vpn_auto_reconnect = true;
  CorpWorld world(cfg);
  world.configure(11);
  world.start();
  world.run_for(3 * sim::kSecond);

  bool initial_ok = false;
  world.kit().connect_vpn([&](bool ok) { initial_ok = ok; });
  world.run_for(3 * sim::kSecond);
  ASSERT_TRUE(initial_ok);
  ASSERT_TRUE(world.kit().tunnel()->established());

  world.vpn_endpoint().stop();
  world.run_for(8 * sim::kSecond);  // DPD fires, reconnects fail, backoff
  EXPECT_FALSE(world.kit().tunnel()->established());
  EXPECT_TRUE(world.kit().tunnel_health().gap_open());

  world.vpn_endpoint().start();
  world.run_for(12 * sim::kSecond);  // backoff is capped at 8s
  EXPECT_TRUE(world.kit().tunnel()->established());

  const Metrics m = world.collect_metrics();
  EXPECT_TRUE(m.vpn_established);
  EXPECT_GE(m.vpn_tunnel_losses, 1u);
  EXPECT_GE(m.vpn_reconnects, 1u);
  EXPECT_GT(m.vpn_downtime_s, 0.0);
  EXPECT_GT(m.vpn_recover_p95_s, 0.0);
  EXPECT_GE(m.vpn_recover_p95_s, m.vpn_recover_p50_s);
}

/// AP outage: the station loses beacons, backs its rescan cadence off
/// exponentially while the AP is dark, and re-associates once it returns.
TEST(Recovery, StationReassociatesWithBackoffAfterApOutage) {
  CorpConfig cfg;
  cfg.do_download = false;
  CorpWorld world(cfg);
  world.configure(3);
  world.start();
  world.run_for(3 * sim::kSecond);
  ASSERT_TRUE(world.victim_sta().associated());

  world.legit_ap().stop();
  world.run_for(6 * sim::kSecond);
  EXPECT_FALSE(world.victim_sta().associated());
  // Failed scan cycles pushed the rescan delay beyond its base value.
  EXPECT_GT(world.victim_sta().counters().scan_backoffs, 0u);

  world.legit_ap().start();
  world.run_for(6 * sim::kSecond);  // rescan backoff caps at 2s (+ jitter)
  EXPECT_TRUE(world.victim_sta().associated());
  EXPECT_GE(world.victim_sta().counters().associations, 2u);
}

/// Scripted burst loss on the radio medium: TCP must survive via its
/// retransmission machinery — RTO events (whose timer doubles per firing:
/// exponential backoff) through the blackout, fast retransmits through
/// the partial-loss window — and still deliver every byte.
TEST(Recovery, TcpRidesOutBurstLossOnTheMedium) {
  CorpConfig cfg;
  cfg.do_download = false;
  CorpWorld world(cfg);
  world.configure(21);
  world.start();
  world.run_for(3 * sim::kSecond);
  ASSERT_TRUE(world.victim_sta().associated());

  // Sink service on the web host; victim streams 64 KiB at it through the
  // wireless hop the loss override governs.
  constexpr std::size_t kTotal = 64 * 1024;
  std::size_t received = 0;
  world.web_server().tcp().listen(5000, [&](net::TcpConnectionPtr conn) {
    conn->set_on_data([&received](util::ByteView data) {
      received += data.size();
    });
  });
  net::TcpConnectionPtr conn = world.victim().tcp().connect(
      world.addr().victim, world.addr().web_server, 5000);
  ASSERT_NE(conn, nullptr);
  conn->set_on_connect([conn] {
    const util::Bytes payload(kTotal, std::uint8_t{0x5a});
    conn->send(payload);
  });

  // Blackout burst (~every packet lost for 900ms), then a partial-loss
  // window that thins the stream enough for duplicate ACKs.
  world.sim().at(4 * sim::kSecond,
                 [&world] { world.medium().set_loss_override(0.97); });
  world.sim().at(4900 * sim::kMillisecond,
                 [&world] { world.medium().set_loss_override(0.0); });
  world.sim().at(6 * sim::kSecond,
                 [&world] { world.medium().set_loss_override(0.35); });
  world.sim().at(8 * sim::kSecond,
                 [&world] { world.medium().set_loss_override(0.0); });

  world.run_for(30 * sim::kSecond);

  const net::TcpStats& stats = conn->stats();
  EXPECT_EQ(stats.bytes_acked, kTotal);
  EXPECT_EQ(received, kTotal);
  // The blackout outlives RTO_min several times over, so the timer must
  // have fired (and doubled) more than once.
  EXPECT_GE(stats.rto_events, 2u);
  EXPECT_GE(stats.fast_retransmits, 1u);
  EXPECT_GT(stats.retransmits, stats.fast_retransmits);
}

// ---- Fault routing -------------------------------------------------------

/// What each fault kind disturbs, read through const views only.
struct Probe {
  std::uint64_t beacons = 0;
  std::uint64_t deauths = 0;
  double loss = 0.0;
  double reorder = 0.0;
  double duplicate = 0.0;
  double jitter = 0.0;
  bool endpoint_running = false;
  bool link_up = false;
};

Probe probe(const ClientKit& kit, const dot11::Station& sta) {
  Probe p;
  p.beacons = kit.ap().counters().beacons_sent;
  p.deauths = sta.counters().deauths_received;
  p.loss = kit.medium().loss_override();
  p.reorder = kit.medium().reorder();
  p.duplicate = kit.medium().duplicate();
  p.jitter = kit.medium().jitter_ms();
  p.endpoint_running = kit.endpoint().running();
  for (const auto& iface : kit.endpoint_host().interfaces()) {
    if (iface->name() == "eth0") p.link_up = iface->admin_up();
  }
  return p;
}

/// Enables one fault kind at a time in a fresh world and checks that its
/// target changed mid-window and (except the deauth storm, whose damage
/// is done) recovered after it. A hook that silently does nothing fails.
template <typename W, typename Config>
void expect_every_fault_kind_lands(Config base,
                                   dot11::Station& (W::*client_sta)()) {
  for (std::uint8_t k = 0; k < faults::kFaultKindCount; ++k) {
    const auto kind = static_cast<faults::FaultKind>(k);
    SCOPED_TRACE(faults::to_string(kind));
    Config cfg = base;
    cfg.do_download = false;
    faults::PlanConfig& plan = cfg.faults;
    plan.start = 4 * sim::kSecond;
    plan.horizon = 6 * sim::kSecond;
    plan.min_duration = plan.max_duration = sim::kSecond;
    plan.ap_outage = kind == faults::FaultKind::kApOutage;
    plan.channel_degrade = kind == faults::FaultKind::kChannelDegrade;
    plan.endpoint_outage = kind == faults::FaultKind::kEndpointOutage;
    plan.link_flap = kind == faults::FaultKind::kLinkFlap;
    plan.deauth_storm = kind == faults::FaultKind::kDeauthStorm;
    plan.reorder = kind == faults::FaultKind::kReorder;
    plan.duplicate = kind == faults::FaultKind::kDuplicate;
    plan.jitter = kind == faults::FaultKind::kJitter;

    W world(cfg);
    world.configure(3);
    world.start();
    world.kit().install_fault_plan();
    const ClientKit& kit = world.kit();
    const dot11::Station& sta = (world.*client_sta)();
    ASSERT_NE(kit.fault_injector(), nullptr);
    ASSERT_EQ(kit.fault_injector()->plan().size(), 1u);
    const faults::FaultEvent window = kit.fault_injector()->plan().events()[0];
    ASSERT_EQ(window.kind, kind);

    const auto run_to = [&world](sim::Time t) {
      world.run_for(t - world.sim().now());
    };
    run_to(window.at - sim::kMillisecond);
    const Probe before = probe(kit, sta);
    run_to(window.at + window.duration / 4);
    const Probe quarter = probe(kit, sta);
    run_to(window.at + window.duration / 2);
    const Probe mid = probe(kit, sta);
    run_to(window.at + window.duration + 600 * sim::kMillisecond);
    const Probe after = probe(kit, sta);

    switch (kind) {
      case faults::FaultKind::kApOutage:
        EXPECT_EQ(mid.beacons, quarter.beacons);
        EXPECT_GT(after.beacons, mid.beacons);
        break;
      case faults::FaultKind::kChannelDegrade:
        EXPECT_GT(mid.loss, 0.0);
        EXPECT_EQ(after.loss, 0.0);
        break;
      case faults::FaultKind::kEndpointOutage:
        EXPECT_TRUE(before.endpoint_running);
        EXPECT_FALSE(mid.endpoint_running);
        EXPECT_TRUE(after.endpoint_running);
        break;
      case faults::FaultKind::kLinkFlap:
        EXPECT_TRUE(before.link_up);
        EXPECT_FALSE(mid.link_up);
        EXPECT_TRUE(after.link_up);
        break;
      case faults::FaultKind::kDeauthStorm:
        EXPECT_GT(mid.deauths, before.deauths);
        break;
      case faults::FaultKind::kReorder:
        EXPECT_GT(mid.reorder, 0.0);
        EXPECT_EQ(after.reorder, 0.0);
        break;
      case faults::FaultKind::kDuplicate:
        EXPECT_GT(mid.duplicate, 0.0);
        EXPECT_EQ(after.duplicate, 0.0);
        break;
      case faults::FaultKind::kJitter:
        EXPECT_GT(mid.jitter, 0.0);
        EXPECT_EQ(after.jitter, 0.0);
        break;
    }
  }
}

TEST(FaultRouting, EveryKindLandsInCorpWorld) {
  expect_every_fault_kind_lands<CorpWorld>(CorpConfig{}, &CorpWorld::victim_sta);
}

TEST(FaultRouting, EveryKindLandsInHotspotWorld) {
  expect_every_fault_kind_lands<HotspotWorld>(HotspotConfig{},
                                              &HotspotWorld::client_sta);
}

}  // namespace
}  // namespace rogue::scenario
