// End-to-end scenario tests — the paper's three figures as assertions:
//   Figure 1: rogue AP captures the victim despite SSID/WEP/MAC controls.
//   Figure 2: the captured victim downloads a trojan whose forged MD5SUM
//             verifies.
//   Figure 3: VPN-ing all traffic to the trusted endpoint defeats the MITM.
#include <gtest/gtest.h>

#include "scenario/corp_world.hpp"
#include "scenario/hotspot.hpp"

namespace rogue::scenario {
namespace {

TEST(CorpWorld, BaselineVictimJoinsLegitApAndDownloads) {
  CorpWorld world;
  world.start();
  world.run_for(5 * sim::kSecond);
  ASSERT_TRUE(world.victim_sta().associated());
  EXPECT_FALSE(world.victim_on_rogue());
  EXPECT_EQ(world.victim_sta().bss().bssid, world.legit_bssid());

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(30 * sim::kSecond);
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  EXPECT_TRUE(outcome.md5_verified);
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().release_md5());
}

TEST(CorpWorld, Figure1RogueCapturesNearbyVictim) {
  CorpConfig cfg;
  cfg.victim_to_legit_m = 20.0;  // rogue much closer than the real AP
  cfg.victim_to_rogue_m = 4.0;
  // The victim is already associated to the legit AP; the attacker kicks
  // it once (the paper's targeted forcing) and it rescans.
  cfg.deauth_forcing = true;
  CorpWorld world(cfg);
  world.run_capture_phase();
  EXPECT_TRUE(world.victim_sta().associated());
  EXPECT_TRUE(world.victim_on_rogue())
      << "victim should have been captured by the stronger rogue AP";
  EXPECT_TRUE(world.rogue()->uplink_associated());
}

TEST(CorpWorld, Figure2DownloadMitmForgesChecksum) {
  CorpConfig cfg;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.deauth_forcing = true;
  CorpWorld world(cfg);
  world.run_capture_phase();
  ASSERT_TRUE(world.victim_on_rogue());

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(60 * sim::kSecond);

  ASSERT_TRUE(outcome.page_fetched) << outcome.error;
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  // The nefarious part: the victim got the trojan AND the checksum passed.
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().trojan_md5());
  EXPECT_NE(outcome.fetched_md5_hex, world.kit().release_md5());
  EXPECT_TRUE(outcome.md5_verified)
      << "the MD5SUM on the page should have been rewritten to match";
  // And the binary came from the attacker's mirror.
  EXPECT_EQ(outcome.fetched_from, world.addr().rogue_wlan);
  EXPECT_GT(world.rogue()->netsed().stats().replacements, 0u);
}

TEST(CorpWorld, Figure2WithoutCaptureDownloadIsClean) {
  // Rogue deployed but victim stays on the legit AP (rogue far away, no
  // deauth forcing): the attack has no vantage point.
  CorpConfig cfg;
  cfg.victim_to_legit_m = 4.0;
  cfg.victim_to_rogue_m = 30.0;
  CorpWorld world(cfg);
  world.start();
  world.run_for(3 * sim::kSecond);
  world.deploy_rogue();
  world.run_for(10 * sim::kSecond);
  ASSERT_TRUE(world.victim_sta().associated());
  ASSERT_FALSE(world.victim_on_rogue());

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(30 * sim::kSecond);
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().release_md5());
  EXPECT_TRUE(outcome.md5_verified);
}

TEST(CorpWorld, Figure3VpnDefeatsDownloadMitm) {
  CorpConfig cfg;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.deauth_forcing = true;
  CorpWorld world(cfg);
  world.run_capture_phase();
  ASSERT_TRUE(world.victim_on_rogue()) << "need the MITM vantage point";

  bool vpn_ok = false;
  bool vpn_done = false;
  world.kit().connect_vpn([&](bool ok) {
    vpn_ok = ok;
    vpn_done = true;
  });
  world.run_for(10 * sim::kSecond);
  ASSERT_TRUE(vpn_done);
  ASSERT_TRUE(vpn_ok) << "VPN should establish through the rogue";
  ASSERT_TRUE(world.kit().tunnel()->server_authenticated());

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(60 * sim::kSecond);

  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  // Tunnelled traffic never hits the rogue's netsed: clean download.
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().release_md5());
  EXPECT_TRUE(outcome.md5_verified);
  EXPECT_EQ(world.rogue()->netsed().stats().connections, 0u);
}

TEST(CorpWorld, WepInsiderRogueWorksBecauseKeyIsShared) {
  // §2.1: WEP "provides no protection what so ever" against this attack —
  // the rogue is configured with the same shared key.
  CorpConfig cfg;
  cfg.security = dot11::SecurityMode::kWep;
  cfg.mac_filtering = true;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.deauth_forcing = true;
  CorpWorld world(cfg);
  world.run_capture_phase();
  EXPECT_TRUE(world.victim_on_rogue());
}

TEST(CorpWorld, DistinctBssidRogueAlsoCaptures) {
  CorpConfig cfg;
  cfg.rogue_clones_bssid = false;  // lazier attacker, different AP MAC
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.deauth_forcing = true;
  CorpWorld world(cfg);
  world.run_capture_phase();
  EXPECT_TRUE(world.victim_on_rogue());
}

TEST(CorpWorld, WpaBaselineDownloadVerifies) {
  // The §2.2 upgrade in benign conditions: WPA-PSK world, no attack.
  CorpConfig cfg;
  cfg.security = dot11::SecurityMode::kWpaPsk;
  CorpWorld world(cfg);
  world.start();
  world.run_for(5 * sim::kSecond);
  ASSERT_TRUE(world.victim_sta().ready());

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(40 * sim::kSecond);
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  EXPECT_TRUE(outcome.md5_verified);
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().release_md5());
}

TEST(CorpWorld, EapBaselineDownloadVerifies) {
  CorpConfig cfg;
  cfg.security = dot11::SecurityMode::kEap;
  CorpWorld world(cfg);
  world.start();
  world.run_for(5 * sim::kSecond);
  ASSERT_TRUE(world.victim_sta().ready());

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(40 * sim::kSecond);
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  EXPECT_TRUE(outcome.md5_verified);
}

TEST(Hotspot, BenignHotspotDownloadVerifies) {
  HotspotWorld world;
  world.start();
  world.run_for(5 * sim::kSecond);
  ASSERT_TRUE(world.client_sta().associated());

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(30 * sim::kSecond);
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  EXPECT_TRUE(outcome.md5_verified);
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().release_md5());
}

TEST(Hotspot, HostileHotspotTrojansTheDownload) {
  HotspotConfig cfg;
  cfg.hostile = true;
  HotspotWorld world(cfg);
  world.start();
  world.run_for(5 * sim::kSecond);
  ASSERT_TRUE(world.client_sta().associated());

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(60 * sim::kSecond);
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().trojan_md5());
  EXPECT_TRUE(outcome.md5_verified);  // forged checksum "verifies"
}

TEST(Hotspot, VpnProtectsAtHostileHotspot) {
  HotspotConfig cfg;
  cfg.hostile = true;
  HotspotWorld world(cfg);
  world.start();
  world.run_for(5 * sim::kSecond);
  ASSERT_TRUE(world.client_sta().associated());

  bool vpn_ok = false;
  world.kit().connect_vpn([&](bool ok) { vpn_ok = ok; });
  world.run_for(10 * sim::kSecond);
  ASSERT_TRUE(vpn_ok);

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(60 * sim::kSecond);
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().release_md5());
  EXPECT_TRUE(outcome.md5_verified);
}

TEST(World, CorpEpisodeThroughBaseInterfaceYieldsMetrics) {
  CorpConfig cfg;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.deploy_rogue = true;
  cfg.deauth_forcing = true;
  cfg.enable_detection = true;
  CorpWorld corp(cfg);
  World& world = corp;  // drive purely through the abstract interface
  world.configure(1234);
  EXPECT_EQ(world.name(), "corp");
  EXPECT_EQ(world.simulator().seed(), 1234u);
  world.run_episode();

  const Metrics m = world.collect_metrics();
  EXPECT_TRUE(m.victim_captured);
  EXPECT_GE(m.time_to_capture_s, 0.0);
  EXPECT_TRUE(m.download_completed);
  EXPECT_TRUE(m.trojaned);
  EXPECT_TRUE(m.victim_deceived);
  EXPECT_TRUE(m.rogue_detected);
  EXPECT_GE(m.detection_latency_s, 0.0);
  EXPECT_GT(m.seq_anomalies, 0u);
  EXPECT_GT(m.events_fired, 0u);
  EXPECT_GT(m.trace_records, 0u);
  EXPECT_GT(m.sim_time_s, 0.0);
}

TEST(World, CorpVpnEpisodeDefeatsMitmInMetrics) {
  CorpConfig cfg;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.deploy_rogue = true;
  cfg.deauth_forcing = true;
  cfg.use_vpn = true;
  CorpWorld world(cfg);
  world.configure(7);
  world.run_episode();

  const Metrics m = world.collect_metrics();
  EXPECT_TRUE(m.victim_captured);
  EXPECT_TRUE(m.vpn_established);
  EXPECT_TRUE(m.download_completed);
  EXPECT_FALSE(m.trojaned) << "tunnelled download must dodge netsed";
  EXPECT_TRUE(m.md5_verified);
  EXPECT_GT(m.vpn_records_out, 0u);
  EXPECT_GT(m.vpn_goodput_kbps, 0.0);
  EXPECT_GT(m.vpn_overhead_ratio, 1.0);
}

TEST(World, HotspotEpisodeThroughBaseInterface) {
  HotspotConfig cfg;
  cfg.hostile = true;
  HotspotWorld hotspot(cfg);
  World& world = hotspot;
  world.configure(99);
  EXPECT_EQ(world.name(), "hotspot");
  world.run_episode();

  const Metrics m = world.collect_metrics();
  EXPECT_TRUE(m.victim_captured);  // joined attacker-owned infrastructure
  EXPECT_TRUE(m.download_completed);
  EXPECT_TRUE(m.trojaned);
  EXPECT_TRUE(m.victim_deceived);
}

TEST(World, ConfigureReseedsDeterministically) {
  auto run_once = [](std::uint64_t seed) {
    CorpConfig cfg;
    cfg.victim_to_legit_m = 20.0;
    cfg.victim_to_rogue_m = 4.0;
    cfg.deploy_rogue = true;
    cfg.deauth_forcing = true;
    CorpWorld world(cfg);
    world.configure(seed);
    world.run_episode();
    const Metrics m = world.collect_metrics();
    return std::pair<std::uint64_t, double>(m.events_fired, m.time_to_capture_s);
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

}  // namespace
}  // namespace rogue::scenario
