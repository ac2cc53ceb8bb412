// kEap (802.1X-style per-client credentials) tests: the mutual
// authentication whose absence the paper diagnoses (§3.1). A rogue AP —
// even one that is itself a valid client — cannot complete the victim's
// handshake, so the victim's data path never opens through it and the
// station falls back to the legitimate network.
#include <gtest/gtest.h>

#include "dot11/ap.hpp"
#include "dot11/sta.hpp"
#include "phy/medium.hpp"
#include "scenario/corp_world.hpp"

namespace rogue::dot11 {
namespace {

using net::MacAddr;
using util::Bytes;
using util::to_bytes;

struct EapFixture {
  sim::Simulator sim{141};
  phy::Medium medium{sim};
  sim::Trace trace;
  const MacAddr victim_mac = MacAddr::from_id(0x51);
  const MacAddr staff_mac = MacAddr::from_id(0x52);

  ApConfig ap_cfg() {
    ApConfig cfg;
    cfg.ssid = "CORP";
    cfg.bssid = MacAddr::from_id(0xA9);
    cfg.channel = 1;
    cfg.security = SecurityMode::kEap;
    cfg.eap_client_keys = {{victim_mac, to_bytes("victim-key")},
                           {staff_mac, to_bytes("staff-key")}};
    return cfg;
  }
  StationConfig sta_cfg(MacAddr mac, const std::string& key) {
    StationConfig cfg;
    cfg.mac = mac;
    cfg.target_ssid = "CORP";
    cfg.scan_channels = {1};
    cfg.security = SecurityMode::kEap;
    cfg.wpa_psk = to_bytes(key);
    return cfg;
  }
};

TEST(Eap, EnrolledClientComesUp) {
  EapFixture f;
  AccessPoint ap(f.sim, f.medium, f.ap_cfg(), &f.trace);
  Station sta(f.sim, f.medium, f.sta_cfg(f.victim_mac, "victim-key"), &f.trace);
  ap.radio().set_position({3, 0});

  std::string up;
  ap.set_ds_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView p) {
    up = util::to_string(p);
  });

  ap.start();
  sta.start();
  f.sim.run_until(3 * sim::kSecond);
  ASSERT_TRUE(sta.ready());
  EXPECT_TRUE(ap.is_station_ready(f.victim_mac));
  sta.send(MacAddr::from_id(0xDD), kEtherTypeIpv4, to_bytes("eap-data"));
  f.sim.run_until(4 * sim::kSecond);
  EXPECT_EQ(up, "eap-data");
}

TEST(Eap, ClientsUseDistinctKeys) {
  EapFixture f;
  AccessPoint ap(f.sim, f.medium, f.ap_cfg(), &f.trace);
  Station victim(f.sim, f.medium, f.sta_cfg(f.victim_mac, "victim-key"), &f.trace);
  Station staff(f.sim, f.medium, f.sta_cfg(f.staff_mac, "staff-key"), &f.trace);
  ap.radio().set_position({3, 0});
  staff.radio().set_position({0, 3});
  ap.start();
  victim.start();
  staff.start();
  f.sim.run_until(4 * sim::kSecond);
  EXPECT_TRUE(victim.ready());
  EXPECT_TRUE(staff.ready());
}

TEST(Eap, WrongPersonalKeyStaysDown) {
  EapFixture f;
  AccessPoint ap(f.sim, f.medium, f.ap_cfg(), &f.trace);
  Station sta(f.sim, f.medium, f.sta_cfg(f.victim_mac, "not-my-key"), &f.trace);
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  f.sim.run_until(4 * sim::kSecond);
  EXPECT_FALSE(sta.ready());
  EXPECT_EQ(ap.counters().wpa_handshakes_completed, 0u);
}

TEST(Eap, UnenrolledMacIgnored) {
  EapFixture f;
  AccessPoint ap(f.sim, f.medium, f.ap_cfg(), &f.trace);
  Station sta(f.sim, f.medium,
              f.sta_cfg(MacAddr::from_id(0x99), "victim-key"), &f.trace);
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  f.sim.run_until(4 * sim::kSecond);
  EXPECT_FALSE(sta.ready());
}

TEST(Eap, HandshakeTimeoutBlocklistsAndFallsBack) {
  // Two APs, same SSID: a "rogue" that knows no client keys (empty DB)
  // and the real one. The victim tries the stronger rogue first, the
  // handshake stalls, it blocklists that BSS and settles on the real AP.
  EapFixture f;
  auto rogue_cfg = f.ap_cfg();
  rogue_cfg.bssid = MacAddr::from_id(0xEE);
  rogue_cfg.channel = 6;
  rogue_cfg.eap_client_keys = {};  // knows nobody
  AccessPoint rogue(f.sim, f.medium, rogue_cfg, &f.trace);
  AccessPoint legit(f.sim, f.medium, f.ap_cfg(), &f.trace);
  rogue.radio().set_position({2, 0});   // stronger
  legit.radio().set_position({15, 0});  // weaker

  auto stc = f.sta_cfg(f.victim_mac, "victim-key");
  stc.scan_channels = {1, 6};
  Station sta(f.sim, f.medium, stc, &f.trace);

  rogue.start();
  legit.start();
  sta.start();
  f.sim.run_until(15 * sim::kSecond);

  ASSERT_TRUE(sta.ready()) << "victim should have settled somewhere usable";
  EXPECT_EQ(sta.bss().bssid, legit.config().bssid)
      << "victim must end up on the AP that proved key knowledge";
  EXPECT_TRUE(legit.is_station_ready(f.victim_mac));
}

TEST(Eap, FullRogueAttackDefeated) {
  // The EXP-X1 headline in test form: under per-client credentials the
  // complete Figure-2 attack fails and the download stays clean.
  scenario::CorpConfig cfg;
  cfg.security = SecurityMode::kEap;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  scenario::CorpWorld world(cfg);
  world.start();
  world.run_for(3 * sim::kSecond);
  world.deploy_rogue();
  auto& deauth = world.start_deauth_forcing();
  world.run_for(15 * sim::kSecond);
  // While the flood runs, the rogue never gets a working data path (the
  // handshake cannot complete without the victim's credential): the MITM
  // has degraded to denial of service.
  EXPECT_FALSE(world.victim_on_rogue() && world.victim_sta().ready());

  deauth.stop();  // attacker gives up; victim must recover cleanly
  world.run_for(15 * sim::kSecond);
  ASSERT_TRUE(world.victim_sta().ready());
  EXPECT_FALSE(world.victim_on_rogue());

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(60 * sim::kSecond);
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().release_md5());
  EXPECT_TRUE(outcome.md5_verified);
}

}  // namespace
}  // namespace rogue::dot11
