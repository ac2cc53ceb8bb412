// Detection tests (§2.3): sequence-control anomaly monitoring, radio site
// audits against an AP inventory, and the wired-side MAC census.
#include <gtest/gtest.h>

#include "attack/attacker.hpp"
#include "attack/deauth.hpp"
#include "attack/replay.hpp"
#include "attack/rogue_gateway.hpp"
#include "detect/detector.hpp"
#include "detect/fingerprint.hpp"
#include "detect/probe_timing.hpp"
#include "detect/rssi_profile.hpp"
#include "detect/seqnum.hpp"
#include "detect/site_audit.hpp"
#include "detect/wired_monitor.hpp"
#include "dot11/ap.hpp"
#include "dot11/sta.hpp"
#include "scenario/corp_world.hpp"

namespace rogue::detect {
namespace {

using net::MacAddr;
using util::to_bytes;

// ---- Sequence-number monitor (offline observations) --------------------------

dot11::FrameView frame_from(MacAddr src, std::uint16_t seq) {
  dot11::FrameView f;
  f.type = dot11::FrameType::kData;
  f.addr1 = MacAddr::broadcast();
  f.addr2 = src;
  f.sequence = seq;
  return f;
}

TEST(SeqMonitor, CleanCounterNoAnomalies) {
  sim::Simulator sim;
  phy::Medium medium(sim);
  SeqNumMonitor monitor(sim, medium, {});
  const MacAddr mac = MacAddr::from_id(1);
  for (std::uint16_t s = 0; s < 500; ++s) monitor.observe(frame_from(mac, s), s);
  EXPECT_TRUE(monitor.alerts().empty());
}

TEST(SeqMonitor, ToleratesSmallGapsFromLoss) {
  sim::Simulator sim;
  phy::Medium medium(sim);
  SeqNumMonitor monitor(sim, medium, {});
  const MacAddr mac = MacAddr::from_id(1);
  // Monitor misses every other frame: gaps of 2.
  for (std::uint16_t s = 0; s < 500; s += 2) monitor.observe(frame_from(mac, s), s);
  EXPECT_TRUE(monitor.alerts().empty());
}

TEST(SeqMonitor, ToleratesWraparound) {
  sim::Simulator sim;
  phy::Medium medium(sim);
  SeqNumMonitor monitor(sim, medium, {});
  const MacAddr mac = MacAddr::from_id(1);
  for (int i = 0; i < 100; ++i) {
    monitor.observe(frame_from(mac, static_cast<std::uint16_t>((4090 + i) & 0xfff)),
                    static_cast<sim::Time>(i));
  }
  EXPECT_TRUE(monitor.alerts().empty());
}

TEST(SeqMonitor, FlagsForgedInterleavedCounter) {
  // A spoofer transmitting as `mac` with its own counter interleaves with
  // the real device: the stream keeps jumping between two regions.
  sim::Simulator sim;
  phy::Medium medium(sim);
  SeqNumMonitor monitor(sim, medium, {});
  const MacAddr mac = MacAddr::from_id(1);
  std::uint16_t real_seq = 100;
  std::uint16_t forged_seq = 3000;
  for (int i = 0; i < 50; ++i) {
    monitor.observe(frame_from(mac, real_seq++), static_cast<sim::Time>(2 * i));
    monitor.observe(frame_from(mac, forged_seq++), static_cast<sim::Time>(2 * i + 1));
  }
  EXPECT_GT(monitor.alerts().size(), 20u);
  const auto suspects = monitor.suspects();
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], mac);
}

TEST(SeqMonitor, SeparatesDistinctTransmitters) {
  sim::Simulator sim;
  phy::Medium medium(sim);
  SeqNumMonitor monitor(sim, medium, {});
  // Two different MACs with wildly different counters: both clean.
  const MacAddr a = MacAddr::from_id(1);
  const MacAddr b = MacAddr::from_id(2);
  std::uint16_t sa = 10;
  std::uint16_t sb = 3900;
  for (int i = 0; i < 100; ++i) {
    monitor.observe(frame_from(a, sa++), static_cast<sim::Time>(2 * i));
    monitor.observe(frame_from(b, sb++ & 0xfff), static_cast<sim::Time>(2 * i + 1));
  }
  EXPECT_TRUE(monitor.alerts().empty());
}

TEST(SeqMonitor, DetectsLiveForgedDeauth) {
  // On-air: a legitimate AP beacons with its counter while the deauth
  // attacker forges frames from the same BSSID with its own counter.
  sim::Simulator sim{81};
  phy::Medium medium(sim);
  dot11::ApConfig apc;
  apc.ssid = "CORP";
  apc.bssid = MacAddr::from_id(0xA9);
  apc.channel = 1;
  dot11::AccessPoint ap(sim, medium, apc);
  ap.radio().set_position({2, 0});
  SeqMonitorConfig mc;
  mc.channel = 1;
  SeqNumMonitor monitor(sim, medium, mc);
  monitor.radio().set_position({0, 1});

  ap.start();
  sim.run_until(3 * sim::kSecond);  // let the AP's counter be learned
  attack::DeauthAttacker attacker(sim, medium, 1, apc.bssid, MacAddr::broadcast());
  attacker.start(100'000);
  sim.run_until(6 * sim::kSecond);
  attacker.stop();

  const auto suspects = monitor.suspects();
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects[0], apc.bssid);
}

TEST(SeqMonitor, QuietAirNoFalsePositives) {
  sim::Simulator sim{82};
  phy::Medium medium(sim);
  dot11::ApConfig apc;
  apc.ssid = "CORP";
  apc.bssid = MacAddr::from_id(0xA9);
  apc.channel = 1;
  dot11::AccessPoint ap(sim, medium, apc);
  ap.radio().set_position({2, 0});
  dot11::StationConfig stc;
  stc.mac = MacAddr::from_id(0x51);
  stc.target_ssid = "CORP";
  stc.scan_channels = {1};
  dot11::Station sta(sim, medium, stc);

  SeqMonitorConfig mc;
  mc.channel = 1;
  SeqNumMonitor monitor(sim, medium, mc);
  monitor.radio().set_position({0, 1});

  ap.start();
  sta.start();
  sim.run_until(10 * sim::kSecond);
  EXPECT_TRUE(monitor.suspects().empty());
}

// ---- Site audit -----------------------------------------------------------------

attack::ObservedBss bss(const std::string& ssid, MacAddr bssid, phy::Channel ch) {
  attack::ObservedBss b;
  b.ssid = ssid;
  b.bssid = bssid;
  b.channel = ch;
  return b;
}

TEST(SiteAudit, CleanCensusNoFindings) {
  SiteAudit audit({{"CORP", MacAddr::from_id(0xA9), 1}});
  EXPECT_TRUE(audit.evaluate({bss("CORP", MacAddr::from_id(0xA9), 1)}).empty());
  EXPECT_FALSE(audit.rogue_detected({bss("CORP", MacAddr::from_id(0xA9), 1)}));
}

TEST(SiteAudit, FlagsUnknownBssidOnOwnSsid) {
  SiteAudit audit({{"CORP", MacAddr::from_id(0xA9), 1}});
  const auto findings = audit.evaluate({bss("CORP", MacAddr::from_id(0xEE), 6)});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, AuditFindingKind::kUnknownBssid);
  EXPECT_TRUE(audit.rogue_detected({bss("CORP", MacAddr::from_id(0xEE), 6)}));
}

TEST(SiteAudit, FlagsClonedBssidOnWrongChannel) {
  SiteAudit audit({{"CORP", MacAddr::from_id(0xA9), 1}});
  const auto findings = audit.evaluate({bss("CORP", MacAddr::from_id(0xA9), 6)});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, AuditFindingKind::kClonedBssidWrongChannel);
}

TEST(SiteAudit, ForeignSsidInformational) {
  SiteAudit audit({{"CORP", MacAddr::from_id(0xA9), 1}});
  const auto findings = audit.evaluate({bss("COFFEESHOP", MacAddr::from_id(0x77), 11)});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, AuditFindingKind::kUnknownSsid);
  EXPECT_FALSE(audit.rogue_detected({bss("COFFEESHOP", MacAddr::from_id(0x77), 11)}));
}

TEST(SiteAudit, DetectsLiveRogueInCorpWorld) {
  scenario::CorpWorld world;
  world.start();
  world.run_for(2 * sim::kSecond);
  world.deploy_rogue();
  world.run_for(2 * sim::kSecond);

  // Auditor sweeps both channels.
  attack::SnifferConfig sc;
  sc.hop_channels = {world.config().legit_channel, world.config().rogue_channel};
  sc.hop_dwell = 300'000;
  attack::Sniffer auditor(world.sim(), world.medium(), sc);
  auditor.radio().set_position({5, 5});
  world.run_for(3 * sim::kSecond);

  SiteAudit audit({{"CORP", world.legit_bssid(), world.config().legit_channel}});
  EXPECT_TRUE(audit.rogue_detected(auditor.observed_bss()))
      << "site audit should flag the cloned-BSSID rogue on channel 6";
}

// ---- Wired monitor ---------------------------------------------------------------

TEST(WiredMonitor, FlagsUnknownMacOnWire) {
  sim::Simulator sim;
  net::Switch lan(sim);
  WiredMonitor monitor(sim, lan, {MacAddr::from_id(0xA)});

  net::Host known(sim, "known");
  known.add_wired("eth0", lan, MacAddr::from_id(0xA));
  known.configure("eth0", net::Ipv4Addr(10, 0, 0, 1), 24);
  net::Host intruder(sim, "intruder");
  intruder.add_wired("eth0", lan, MacAddr::from_id(0xBAD));
  intruder.configure("eth0", net::Ipv4Addr(10, 0, 0, 66), 24);

  // Broadcast ARP traffic reaches the monitor port even on a switch.
  known.ping(net::Ipv4Addr(10, 0, 0, 66), [](std::optional<sim::Time>) {});
  sim.run_until(2 * sim::kSecond);

  ASSERT_EQ(monitor.unknown_macs().size(), 1u);
  EXPECT_EQ(monitor.unknown_macs()[0].mac, MacAddr::from_id(0xBAD));
  // Known MAC not flagged, and each unknown is reported once.
  known.ping(net::Ipv4Addr(10, 0, 0, 66), [](std::optional<sim::Time>) {});
  sim.run_until(4 * sim::kSecond);
  EXPECT_EQ(monitor.unknown_macs().size(), 1u);
}

// ---- Pluggable detector/attacker registries -------------------------------

TEST(Registry, EveryKnownDetectorConstructs) {
  for (const auto name : known_detectors()) {
    const auto detector = make_detector(name);
    ASSERT_NE(detector, nullptr) << name;
    EXPECT_EQ(detector->name(), name);
  }
  EXPECT_EQ(make_detector("no-such-detector"), nullptr);
}

TEST(Registry, EveryKnownAttackerConstructs) {
  for (const auto name : attack::known_attackers()) {
    const auto attacker = attack::make_attacker(name);
    ASSERT_NE(attacker, nullptr) << name;
    EXPECT_EQ(attacker->name(), name);
  }
  EXPECT_EQ(attack::make_attacker("no-such-attacker"), nullptr);
}

// ---- Fingerprint detector (scripted traces) --------------------------------

util::Bytes beacon_bytes(const std::string& ssid, MacAddr bssid,
                         std::uint8_t channel,
                         std::uint16_t interval_tu = 100,
                         std::uint16_t capability = dot11::kCapEss) {
  dot11::Frame f;
  f.type = dot11::FrameType::kManagement;
  f.subtype = static_cast<std::uint8_t>(dot11::MgmtSubtype::kBeacon);
  f.addr1 = MacAddr::broadcast();
  f.addr2 = bssid;
  f.addr3 = bssid;
  dot11::BeaconBody body;
  body.ssid = ssid;
  body.channel = channel;
  body.beacon_interval_tu = interval_tu;
  body.capability = capability;
  f.body = body.encode();
  return f.serialize();
}

DetectorEnv inventory_env() {
  DetectorEnv env;  // no sim/medium/channels: pure observe()-driven
  env.inventory = {{"CORP", MacAddr::from_id(0xA9), 1, 100, dot11::kCapEss}};
  return env;
}

TEST(Fingerprint, ExactCloneAndForeignBssidClassified) {
  FingerprintDetector detector;
  detector.attach(inventory_env());

  // A frame matching the inventory exactly is clean.
  const util::Bytes clean = beacon_bytes("CORP", MacAddr::from_id(0xA9), 1);
  detector.observe(*dot11::FrameView::parse(clean), {1000, -56.0, 1});
  EXPECT_TRUE(detector.alerts().empty());

  // Our SSID from a BSSID we don't own.
  const util::Bytes rogue = beacon_bytes("CORP", MacAddr::from_id(0xEE), 6);
  detector.observe(*dot11::FrameView::parse(rogue), {2000, -50.0, 6});
  ASSERT_EQ(detector.alerts().size(), 1u);
  EXPECT_EQ(detector.alerts()[0].kind, AlertKind::kUnknownBssid);

  // Foreign SSID is informational, not the same alert.
  const util::Bytes foreign = beacon_bytes("COFFEE", MacAddr::from_id(0x77), 11);
  detector.observe(*dot11::FrameView::parse(foreign), {3000, -70.0, 11});
  ASSERT_EQ(detector.alerts().size(), 2u);
  EXPECT_EQ(detector.alerts()[1].kind, AlertKind::kUnknownSsid);
}

TEST(Fingerprint, FlagsOffBookFieldsOnOurBssid) {
  const MacAddr ours = MacAddr::from_id(0xA9);
  {  // our BSSID beaconing on the wrong channel
    FingerprintDetector detector;
    detector.attach(inventory_env());
    const util::Bytes raw = beacon_bytes("CORP", ours, 6);
    detector.observe(*dot11::FrameView::parse(raw), {1000, -50.0, 6});
    ASSERT_EQ(detector.alerts().size(), 1u);
    EXPECT_EQ(detector.alerts()[0].kind, AlertKind::kChannelMismatch);
  }
  {  // wrong beacon interval
    FingerprintDetector detector;
    detector.attach(inventory_env());
    const util::Bytes raw = beacon_bytes("CORP", ours, 1, 200);
    detector.observe(*dot11::FrameView::parse(raw), {1000, -50.0, 1});
    ASSERT_EQ(detector.alerts().size(), 1u);
    EXPECT_EQ(detector.alerts()[0].kind, AlertKind::kFingerprintMismatch);
  }
  {  // privacy bit flipped on
    FingerprintDetector detector;
    detector.attach(inventory_env());
    const util::Bytes raw =
        beacon_bytes("CORP", ours, 1, 100, dot11::kCapEss | dot11::kCapPrivacy);
    detector.observe(*dot11::FrameView::parse(raw), {1000, -50.0, 1});
    ASSERT_EQ(detector.alerts().size(), 1u);
    EXPECT_EQ(detector.alerts()[0].kind, AlertKind::kPrivacyMismatch);
  }
}

// ---- RSSI-profile detector (scripted traces) -------------------------------

TEST(RssiProfile, FreezesBaselineThenFlagsOutliers) {
  RssiProfileDetector detector({/*min_samples=*/8, /*threshold_db=*/4.0});
  detector.attach(inventory_env());
  const MacAddr ours = MacAddr::from_id(0xA9);

  // Baseline: 8 frames around -56 dBm. Profile not frozen until then.
  for (int i = 0; i < 8; ++i) {
    const double rssi = -56.0 + ((i % 2 == 0) ? 0.5 : -0.5);
    detector.observe(frame_from(ours, static_cast<std::uint16_t>(i)),
                     {static_cast<sim::Time>(1000 * i), rssi, 1});
  }
  EXPECT_NEAR(detector.profile_mean(ours), -56.0, 0.01);
  EXPECT_TRUE(detector.alerts().empty());

  // In-envelope frame: clean. 5 dB hotter (attacker much closer): alert.
  detector.observe(frame_from(ours, 100), {9000, -57.5, 1});
  EXPECT_TRUE(detector.alerts().empty());
  detector.observe(frame_from(ours, 101), {10000, -51.0, 1});
  ASSERT_EQ(detector.alerts().size(), 1u);
  EXPECT_EQ(detector.alerts()[0].kind, AlertKind::kRssiInconsistent);
  EXPECT_EQ(detector.alerts()[0].transmitter, ours);

  // Unwatched transmitters never profile or alert.
  detector.observe(frame_from(MacAddr::from_id(0xBB), 7), {11000, -20.0, 1});
  EXPECT_EQ(detector.alerts().size(), 1u);
}

// ---- Probe-timing detector (scripted transactions) -------------------------

util::Bytes probe_resp_bytes(MacAddr bssid, MacAddr dest) {
  dot11::Frame f;
  f.type = dot11::FrameType::kManagement;
  f.subtype = static_cast<std::uint8_t>(dot11::MgmtSubtype::kProbeResp);
  f.addr1 = dest;
  f.addr2 = bssid;
  f.addr3 = bssid;
  dot11::BeaconBody body;
  body.ssid = "CORP";
  f.body = body.encode();
  return f.serialize();
}

TEST(ProbeTiming, FlagsDuplicateResponseAndSkew) {
  ProbeTimingDetector detector({/*probe_period=*/500 * sim::kMillisecond,
                                /*skew_threshold=*/2'500});
  DetectorEnv env;  // no radios: transactions scripted below
  detector.attach(env);
  const MacAddr ap = MacAddr::from_id(0xA9);
  const util::Bytes resp = probe_resp_bytes(ap, detector.prober_mac());

  // Fast single response: clean (real firmware).
  detector.begin_transaction(1, 1'000'000);
  detector.observe(*dot11::FrameView::parse(resp), {1'000'200, -56.0, 1});
  EXPECT_TRUE(detector.alerts().empty());

  // Second response to the same transaction: a clone shares the BSSID.
  detector.observe(*dot11::FrameView::parse(resp), {1'004'000, -50.0, 1});
  ASSERT_EQ(detector.alerts().size(), 2u);
  EXPECT_EQ(detector.alerts()[0].kind, AlertKind::kDuplicateProbeResponse);
  // ... and the duplicate arrived 4 ms late: host-stack, not firmware.
  EXPECT_EQ(detector.alerts()[1].kind, AlertKind::kProbeTimingSkew);

  // Responses addressed to someone else's probe are ignored.
  const util::Bytes other = probe_resp_bytes(ap, MacAddr::from_id(0x123));
  detector.begin_transaction(1, 2'000'000);
  detector.observe(*dot11::FrameView::parse(other), {2'009'000, -56.0, 1});
  EXPECT_EQ(detector.alerts().size(), 2u);
}

// ---- Channel-plan satellite: no hard-coded channel 1 -----------------------

TEST(ChannelPlan, DetectorEnvFollowsWorldChannels) {
  scenario::CorpConfig cfg;
  cfg.legit_channel = 3;
  cfg.rogue_channel = 9;
  scenario::CorpWorld world(cfg);
  world.configure(5);
  world.start();
  const DetectorEnv env = world.kit().detector_env();
  ASSERT_EQ(env.channels.size(), 2u);
  EXPECT_EQ(env.channels[0], 3);
  EXPECT_EQ(env.channels[1], 9);
  ASSERT_EQ(env.inventory.size(), 1u);
  EXPECT_EQ(env.inventory[0].channel, 3);
  EXPECT_EQ(env.inventory[0].bssid, world.legit_bssid());
}

TEST(ChannelPlan, AttachedDetectorCatchesAttackOffChannelOne) {
  // The whole WIDS episode on channels 3/9: a detector pinned to channel 1
  // would hear nothing at all.
  scenario::CorpConfig cfg;
  cfg.legit_channel = 3;
  cfg.rogue_channel = 9;
  cfg.do_download = false;
  cfg.wids_detectors = {"seqnum"};
  cfg.wids_attacker = "deauth-flood";
  scenario::CorpWorld world(cfg);
  world.configure(5);
  world.run_episode();
  const scenario::Metrics m = world.collect_metrics();
  EXPECT_TRUE(m.wids_enabled);
  EXPECT_GE(m.wids_time_to_detect_s, 0.0);
  EXPECT_EQ(m.wids_false_alerts, 0u);
}

// ---- Stealth-attacker evasion (acceptance: >= 1 evasive attacker beats
// ---- seqnum-only detection but not the composite panel) --------------------

scenario::Metrics run_wids_pair(const std::string& attacker,
                                const std::string& detector,
                                std::uint64_t seed = 1) {
  scenario::CorpConfig cfg;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.do_download = false;
  cfg.wids_detectors = {detector};
  cfg.wids_attacker = attacker;
  scenario::CorpWorld world(cfg);
  world.configure(seed);
  world.run_episode();
  return world.collect_metrics();
}

TEST(Evasion, ClonerBeatsSeqnumOnlyDetection) {
  const scenario::Metrics m = run_wids_pair("cloner", "seqnum");
  EXPECT_TRUE(m.wids_enabled);
  EXPECT_GE(m.wids_attack_start_s, 0.0);
  EXPECT_EQ(m.wids_alerts, 0u) << "seq mimicry should stay in tolerance";
  EXPECT_LT(m.wids_time_to_detect_s, 0.0);
}

TEST(Evasion, ClonerCaughtByCompositePanel) {
  const scenario::Metrics m = run_wids_pair("cloner", "composite");
  EXPECT_GE(m.wids_time_to_detect_s, 0.0) << "RSSI/probe-timing see physics";
  EXPECT_EQ(m.wids_false_alerts, 0u);
}

TEST(Evasion, LowSlowDeauthBeatsSeqnumButNotRssi) {
  const scenario::Metrics seq = run_wids_pair("low-slow-deauth", "seqnum");
  EXPECT_EQ(seq.wids_alerts, 0u);
  EXPECT_LT(seq.wids_time_to_detect_s, 0.0);

  const scenario::Metrics rssi = run_wids_pair("low-slow-deauth", "rssi");
  EXPECT_GE(rssi.wids_time_to_detect_s, 0.0);
  EXPECT_EQ(rssi.wids_false_alerts, 0u);
}

TEST(ReplayAttack, SealedRecordReplayGetsZeroAcceptance) {
  // An attacker who banks the victim's over-the-air tunnel frames and
  // replays them verbatim: WEP has no replay counter and the AP forwards
  // duplicates happily, so the *tunnel's* anti-replay window is the only
  // thing standing. Every replayed record must be dropped (0% acceptance)
  // without disturbing the session or its reply path.
  scenario::CorpConfig cfg;
  cfg.use_vpn = true;
  cfg.vpn_transport = vpn::Transport::kUdp;
  cfg.vpn_auto_reconnect = true;
  cfg.do_download = false;
  scenario::CorpWorld world(cfg);
  world.configure(11);
  world.start();
  world.run_for(cfg.settle_time);
  bool up = false;
  world.kit().connect_vpn([&](bool ok) { up = ok; });
  world.run_for(cfg.vpn_window);
  ASSERT_TRUE(up);

  ASSERT_TRUE(world.attach_attacker("replay"));
  auto* replayer = dynamic_cast<attack::RecordReplayer*>(world.kit().wids_attacker());
  ASSERT_NE(replayer, nullptr);
  const std::uint64_t handshakes =
      world.vpn_endpoint().counters().sessions_established;
  replayer->start();
  world.run_for(30 * sim::kSecond);  // keepalives feed the capture ring
  replayer->stop();

  EXPECT_GT(replayer->frames_captured(), 0u);
  EXPECT_GT(replayer->frames_replayed(), 0u);
  const vpn::EndpointCounters& e = world.vpn_endpoint().counters();
  const vpn::ClientCounters& c = world.kit().tunnel()->counters();
  // Zero acceptance: every forwarded duplicate lands in the replay bucket,
  // never in records_in as fresh traffic; none authenticates a roam.
  EXPECT_GT(e.records_replayed + c.records_replayed, 0u);
  EXPECT_EQ(e.records_auth_fail, 0u);
  EXPECT_EQ(e.roams, 0u);
  // The session itself shrugs it off: still up, no re-handshake.
  EXPECT_TRUE(world.kit().tunnel()->established());
  EXPECT_EQ(e.sessions_established, handshakes);
  EXPECT_EQ(c.dead_peer_events, 0u);
}

TEST(Evasion, ControlRowStaysQuiet) {
  const scenario::Metrics m = run_wids_pair("none", "composite");
  EXPECT_TRUE(m.wids_enabled);
  EXPECT_LT(m.wids_attack_start_s, 0.0);
  EXPECT_EQ(m.wids_alerts, 0u);
  EXPECT_EQ(m.wids_false_alerts, 0u);
}

}  // namespace
}  // namespace rogue::detect
