// Attack tooling tests: FMS/AirSnort key recovery against our own WEP,
// monitor-mode sniffing (eavesdropping + IV harvesting), deauth forcing,
// and the rogue gateway orchestrator in isolation.
#include <gtest/gtest.h>

#include "attack/deauth.hpp"
#include "attack/fms.hpp"
#include "attack/sniffer.hpp"
#include "crypto/wep.hpp"
#include "dot11/ap.hpp"
#include "dot11/sta.hpp"
#include "phy/medium.hpp"

namespace rogue::attack {
namespace {

using crypto::WepIv;
using net::MacAddr;
using util::Bytes;
using util::to_bytes;

// Generate `count` WEP frames with the device IV policy and feed the
// cracker, exactly like passive capture would. Non-weak frames contribute
// nothing to FMS, so (purely as a test-speed optimization) only weak-IV
// frames are actually encrypted; the IV *sequence* is faithful.
void feed_captured_traffic(FmsCracker& cracker, util::ByteView key,
                           crypto::WepIvPolicy policy, std::size_t count) {
  crypto::WepIvGenerator gen(policy, key.size(), /*seed=*/7);
  const Bytes msdu = dot11::llc_encode(dot11::kEtherTypeIpv4, to_bytes("data"));
  for (std::size_t i = 0; i < count; ++i) {
    const crypto::WepIv iv = gen.next();
    if (!crypto::is_fms_weak_iv(iv, key.size())) continue;
    cracker.add_frame(crypto::wep_encrypt(iv, key, msdu));
  }
}

TEST(Fms, RecoversWep40KeyFromWeakIvs) {
  const Bytes key = to_bytes("KEY42");
  FmsCracker cracker(key.size());
  // Feed a dense weak-IV sweep: all (A+3, 0xFF, X) for every key byte.
  const Bytes msdu = dot11::llc_encode(dot11::kEtherTypeIpv4, to_bytes("x"));
  for (std::size_t a = 0; a < key.size(); ++a) {
    for (int x = 0; x < 256; ++x) {
      const WepIv iv = {static_cast<std::uint8_t>(a + 3), 0xff,
                        static_cast<std::uint8_t>(x)};
      cracker.add_frame(crypto::wep_encrypt(iv, key, msdu));
    }
  }
  const auto recovered = cracker.try_recover(/*min_votes=*/8);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, key);
}

TEST(Fms, RecoversKeyFromSequentialIvTraffic) {
  // The AirSnort scenario: a card counting IVs sequentially leaks weak
  // IVs every 64Ki frames; ~3M frames is plenty for a 5-byte key.
  const Bytes key = to_bytes("wepk1");
  FmsCracker cracker(key.size());
  // ~9M frames: the order of magnitude AirSnort-era captures needed.
  feed_captured_traffic(cracker, key, crypto::WepIvPolicy::kSequential,
                        9'000'000);
  EXPECT_GT(cracker.weak_samples(), 500u);
  const auto recovered = cracker.try_recover();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, key);
}

TEST(Fms, SkipWeakIvPolicyStarvesTheAttack) {
  // WEPplus-era mitigation: filtered IVs give FMS nothing to vote with.
  const Bytes key = to_bytes("wepk1");
  FmsCracker cracker(key.size());
  feed_captured_traffic(cracker, key, crypto::WepIvPolicy::kSkipWeak, 500'000);
  EXPECT_EQ(cracker.weak_samples(), 0u);
  EXPECT_FALSE(cracker.try_recover().has_value());
}

TEST(Fms, InsufficientSamplesReturnsNothing) {
  FmsCracker cracker(5);
  feed_captured_traffic(cracker, to_bytes("KEY42"),
                        crypto::WepIvPolicy::kSequential, 1000);
  EXPECT_FALSE(cracker.try_recover().has_value());
}

TEST(Fms, RecoversWep104Key) {
  const Bytes key = to_bytes("SECRETWEPKEY1");
  ASSERT_EQ(key.size(), crypto::kWep104KeyLen);
  FmsCracker cracker(key.size());
  const Bytes msdu = dot11::llc_encode(dot11::kEtherTypeIpv4, to_bytes("x"));
  for (std::size_t a = 0; a < key.size(); ++a) {
    for (int x = 0; x < 256; ++x) {
      const WepIv iv = {static_cast<std::uint8_t>(a + 3), 0xff,
                        static_cast<std::uint8_t>(x)};
      cracker.add_frame(crypto::wep_encrypt(iv, key, msdu));
    }
  }
  const auto recovered = cracker.try_recover();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, key);
}

// ---- Sniffer ----------------------------------------------------------------

struct AirFixture {
  sim::Simulator sim{51};
  phy::Medium medium{sim};

  dot11::ApConfig ap_cfg(bool wep) {
    dot11::ApConfig cfg;
    cfg.ssid = "CORP";
    cfg.bssid = MacAddr::from_id(0xA9);
    cfg.channel = 1;
    if (wep) {
      cfg.security = dot11::SecurityMode::kWep;
      cfg.wep_key = to_bytes("SECRETWEPKEY1");
    }
    return cfg;
  }
  dot11::StationConfig sta_cfg(bool wep) {
    dot11::StationConfig cfg;
    cfg.mac = MacAddr::from_id(0x51);
    cfg.target_ssid = "CORP";
    cfg.scan_channels = {1};
    if (wep) {
      cfg.security = dot11::SecurityMode::kWep;
      cfg.wep_key = to_bytes("SECRETWEPKEY1");
    }
    return cfg;
  }
};

TEST(Sniffer, SeesCleartextTraffic) {
  AirFixture f;
  dot11::AccessPoint ap(f.sim, f.medium, f.ap_cfg(false));
  dot11::Station sta(f.sim, f.medium, f.sta_cfg(false));
  ap.radio().set_position({3, 0});

  SnifferConfig cfg;
  cfg.channel = 1;
  Sniffer sniffer(f.sim, f.medium, cfg);
  sniffer.radio().set_position({1, 1});

  std::string captured;
  sniffer.set_msdu_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView p) {
    captured += util::to_string(p);
  });

  ap.start();
  sta.start();
  f.sim.run_until(2 * sim::kSecond);
  ASSERT_TRUE(sta.associated());
  sta.send(MacAddr::from_id(0xDD), dot11::kEtherTypeIpv4,
           to_bytes("username=root&password=hunter2"));
  f.sim.run_until(3 * sim::kSecond);

  EXPECT_NE(captured.find("password=hunter2"), std::string::npos);
  EXPECT_GT(sniffer.counters().plaintext_bytes, 0u);
  EXPECT_FALSE(sniffer.observed_bss().empty());
  EXPECT_TRUE(sniffer.observed_clients().contains(sta.config().mac));
}

TEST(Sniffer, WepHidesPayloadWithoutKey) {
  AirFixture f;
  dot11::AccessPoint ap(f.sim, f.medium, f.ap_cfg(true));
  dot11::Station sta(f.sim, f.medium, f.sta_cfg(true));
  ap.radio().set_position({3, 0});

  SnifferConfig cfg;
  cfg.channel = 1;
  Sniffer sniffer(f.sim, f.medium, cfg);
  sniffer.radio().set_position({1, 1});
  bool saw_payload = false;
  sniffer.set_msdu_handler(
      [&](MacAddr, MacAddr, std::uint16_t, util::ByteView) { saw_payload = true; });

  ap.start();
  sta.start();
  f.sim.run_until(2 * sim::kSecond);
  ASSERT_TRUE(sta.associated());
  sta.send(MacAddr::from_id(0xDD), dot11::kEtherTypeIpv4, to_bytes("secret"));
  f.sim.run_until(3 * sim::kSecond);

  EXPECT_FALSE(saw_payload);
  EXPECT_GT(sniffer.counters().wep_data_frames, 0u);
  EXPECT_EQ(sniffer.counters().decrypted_bytes, 0u);
  // But IVs were harvested for FMS regardless.
  EXPECT_GT(sniffer.fms().samples(), 0u);
}

TEST(Sniffer, InsiderWithKeyDecryptsEverything) {
  // §2.1 "in the attack scenarios we present here it provides no
  // protection what so ever" — anyone holding the shared key reads all.
  AirFixture f;
  dot11::AccessPoint ap(f.sim, f.medium, f.ap_cfg(true));
  dot11::Station sta(f.sim, f.medium, f.sta_cfg(true));
  ap.radio().set_position({3, 0});

  SnifferConfig cfg;
  cfg.channel = 1;
  cfg.wep_key = to_bytes("SECRETWEPKEY1");
  Sniffer sniffer(f.sim, f.medium, cfg);
  sniffer.radio().set_position({1, 1});
  std::string captured;
  sniffer.set_msdu_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView p) {
    captured += util::to_string(p);
  });

  ap.start();
  sta.start();
  f.sim.run_until(2 * sim::kSecond);
  ASSERT_TRUE(sta.associated());
  sta.send(MacAddr::from_id(0xDD), dot11::kEtherTypeIpv4,
           to_bytes("GET /payroll.xls HTTP/1.0"));
  f.sim.run_until(3 * sim::kSecond);

  EXPECT_NE(captured.find("payroll"), std::string::npos);
  EXPECT_GT(sniffer.counters().decrypted_bytes, 0u);
}

TEST(Sniffer, ChannelHoppingFindsBothAps) {
  AirFixture f;
  auto cfg1 = f.ap_cfg(false);
  auto cfg6 = f.ap_cfg(false);
  cfg6.bssid = MacAddr::from_id(0xB0);
  cfg6.channel = 6;
  dot11::AccessPoint ap1(f.sim, f.medium, cfg1);
  dot11::AccessPoint ap6(f.sim, f.medium, cfg6);
  ap1.radio().set_position({3, 0});
  ap6.radio().set_position({0, 3});

  SnifferConfig cfg;
  cfg.hop_channels = {1, 6};
  cfg.hop_dwell = 200'000;
  Sniffer sniffer(f.sim, f.medium, cfg);

  ap1.start();
  ap6.start();
  f.sim.run_until(3 * sim::kSecond);
  EXPECT_EQ(sniffer.observed_bss().size(), 2u);
}

// ---- Deauth ------------------------------------------------------------------

TEST(Deauth, ForgedDeauthKicksStation) {
  AirFixture f;
  dot11::AccessPoint ap(f.sim, f.medium, f.ap_cfg(false));
  dot11::Station sta(f.sim, f.medium, f.sta_cfg(false));
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  f.sim.run_until(2 * sim::kSecond);
  ASSERT_TRUE(sta.associated());

  // The attacker never authenticated to anything; it just forges addr2.
  // (A few spaced shots: a single unacknowledged management frame can be
  // lost to a collision, exactly as over real RF.)
  DeauthAttacker attacker(f.sim, f.medium, 1, ap.config().bssid, sta.config().mac);
  attacker.send_once();
  f.sim.after(100'000, [&] { attacker.send_once(); });
  f.sim.after(200'000, [&] { attacker.send_once(); });
  f.sim.run_until(2 * sim::kSecond + 400'000);
  EXPECT_GE(sta.counters().deauths_received, 1u);
  EXPECT_GE(sta.counters().scans, 2u);  // victim forced back to scanning
}

TEST(Deauth, FloodKeepsStationOff) {
  AirFixture f;
  dot11::AccessPoint ap(f.sim, f.medium, f.ap_cfg(false));
  dot11::Station sta(f.sim, f.medium, f.sta_cfg(false));
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  f.sim.run_until(2 * sim::kSecond);
  ASSERT_TRUE(sta.associated());

  DeauthAttacker attacker(f.sim, f.medium, 1, ap.config().bssid, sta.config().mac);
  attacker.start(/*period=*/50'000);
  f.sim.run_until(6 * sim::kSecond);
  // Under constant deauth the victim keeps getting kicked.
  EXPECT_GT(sta.counters().deauths_received, 5u);
  attacker.stop();
  f.sim.run_until(12 * sim::kSecond);
  EXPECT_TRUE(sta.associated());  // recovers once the flood stops
}

TEST(Deauth, WrongBssidIgnored) {
  AirFixture f;
  dot11::AccessPoint ap(f.sim, f.medium, f.ap_cfg(false));
  dot11::Station sta(f.sim, f.medium, f.sta_cfg(false));
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  f.sim.run_until(2 * sim::kSecond);
  ASSERT_TRUE(sta.associated());

  DeauthAttacker attacker(f.sim, f.medium, 1, MacAddr::from_id(0xBAD),
                          sta.config().mac);
  attacker.send_once();
  f.sim.run_until(3 * sim::kSecond);
  EXPECT_EQ(sta.counters().deauths_received, 0u);
  EXPECT_TRUE(sta.associated());
}

}  // namespace
}  // namespace rogue::attack
