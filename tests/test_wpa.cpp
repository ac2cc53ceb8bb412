// WPA-PSK extension tests (§2.2): key derivation, handshake codec/MICs,
// data protection + replay, AP/STA integration, and the property the
// paper predicts — a PSK holder can still impersonate the network and
// passively decrypt clients, while true outsiders are locked out (unlike
// WEP, whose FMS hole needs no credentials at all).
#include <gtest/gtest.h>

#include "attack/sniffer.hpp"
#include "dot11/ap.hpp"
#include "dot11/sta.hpp"
#include "dot11/wpa.hpp"
#include "phy/medium.hpp"
#include "scenario/corp_world.hpp"

namespace rogue::dot11 {
namespace {

using net::MacAddr;
using util::Bytes;
using util::to_bytes;

// ---- Primitives ---------------------------------------------------------------

TEST(WpaKeys, PmkDependsOnPskAndSsid) {
  EXPECT_EQ(wpa_pmk(to_bytes("pass"), "CORP"), wpa_pmk(to_bytes("pass"), "CORP"));
  EXPECT_NE(wpa_pmk(to_bytes("pass"), "CORP"), wpa_pmk(to_bytes("pass"), "OTHER"));
  EXPECT_NE(wpa_pmk(to_bytes("pass"), "CORP"), wpa_pmk(to_bytes("word"), "CORP"));
}

TEST(WpaKeys, PtkSymmetricInRoles) {
  const Bytes pmk = wpa_pmk(to_bytes("pass"), "CORP");
  const MacAddr ap = MacAddr::from_id(1);
  const MacAddr sta = MacAddr::from_id(2);
  WpaNonce a{};
  a.fill(0x11);
  WpaNonce s{};
  s.fill(0x22);
  const WpaPtk p1 = wpa_ptk(pmk, ap, sta, a, s);
  const WpaPtk p2 = wpa_ptk(pmk, sta, ap, a, s);  // roles swapped
  EXPECT_EQ(p1.kck, p2.kck);
  EXPECT_EQ(p1.aead_key, p2.aead_key);
  EXPECT_EQ(p1.kck.size(), kKckLen);
  EXPECT_EQ(p1.aead_key.size(), crypto::kAeadKeyLen);
}

TEST(WpaKeys, PtkFreshPerNonce) {
  const Bytes pmk = wpa_pmk(to_bytes("pass"), "CORP");
  const MacAddr ap = MacAddr::from_id(1);
  const MacAddr sta = MacAddr::from_id(2);
  WpaNonce a{};
  a.fill(0x11);
  WpaNonce s1{};
  s1.fill(0x22);
  WpaNonce s2{};
  s2.fill(0x23);
  EXPECT_NE(wpa_ptk(pmk, ap, sta, a, s1).aead_key,
            wpa_ptk(pmk, ap, sta, a, s2).aead_key);
}

TEST(WpaHandshakeCodec, RoundTripAndMic) {
  WpaHandshakeFrame f;
  f.msg = WpaMsg::kM3;
  f.nonce.fill(0xab);
  f.sealed_gtk = to_bytes("sealed group key bytes");
  const Bytes kck(kKckLen, 0x42);
  f.sign(kck);

  const auto decoded = WpaHandshakeFrame::decode(f.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->msg, WpaMsg::kM3);
  EXPECT_EQ(decoded->sealed_gtk, f.sealed_gtk);
  EXPECT_TRUE(decoded->verify(kck));

  // Any field tamper breaks the MIC.
  auto tampered = *decoded;
  tampered.sealed_gtk[0] ^= 1;
  EXPECT_FALSE(tampered.verify(kck));
  // Wrong KCK fails.
  EXPECT_FALSE(decoded->verify(Bytes(kKckLen, 0x43)));
}

TEST(WpaHandshakeCodec, DecodeRejectsGarbage) {
  EXPECT_FALSE(WpaHandshakeFrame::decode({}).has_value());
  EXPECT_FALSE(WpaHandshakeFrame::decode(to_bytes("\x09short")).has_value());
}

TEST(WpaData, ProtectOpenRoundTrip) {
  const Bytes key(crypto::kAeadKeyLen, 0x77);
  const Bytes msdu = to_bytes("an msdu");
  const Bytes body = wpa_protect(key, 42, msdu);
  const auto opened = wpa_open(key, body);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->pn, 42u);
  EXPECT_EQ(opened->msdu, msdu);
}

TEST(WpaData, TamperAndWrongKeyRejected) {
  const Bytes key(crypto::kAeadKeyLen, 0x77);
  Bytes body = wpa_protect(key, 1, to_bytes("payload"));
  Bytes bad = body;
  bad[12] ^= 1;
  EXPECT_FALSE(wpa_open(key, bad).has_value());
  EXPECT_FALSE(wpa_open(Bytes(crypto::kAeadKeyLen, 0x78), body).has_value());
  EXPECT_FALSE(wpa_open(key, util::ByteView(body).subspan(0, 10)).has_value());
}

// ---- AP/STA integration ---------------------------------------------------------

struct WpaFixture {
  sim::Simulator sim{91};
  phy::Medium medium{sim};
  sim::Trace trace;

  ApConfig ap_cfg(const std::string& psk = "corp-passphrase") {
    ApConfig cfg;
    cfg.ssid = "CORP";
    cfg.bssid = MacAddr::from_id(0xA9);
    cfg.channel = 1;
    cfg.security = SecurityMode::kWpaPsk;
    cfg.wpa_psk = to_bytes(psk);
    return cfg;
  }
  StationConfig sta_cfg(const std::string& psk = "corp-passphrase") {
    StationConfig cfg;
    cfg.mac = MacAddr::from_id(0x51);
    cfg.target_ssid = "CORP";
    cfg.scan_channels = {1};
    cfg.security = SecurityMode::kWpaPsk;
    cfg.wpa_psk = to_bytes(psk);
    return cfg;
  }
};

TEST(WpaApSta, HandshakeCompletesAndDataFlows) {
  WpaFixture w;
  AccessPoint ap(w.sim, w.medium, w.ap_cfg(), &w.trace);
  Station sta(w.sim, w.medium, w.sta_cfg(), &w.trace);
  ap.radio().set_position({3, 0});

  std::string up;
  ap.set_ds_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView p) {
    up = util::to_string(p);
  });
  std::string down;
  sta.set_rx_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView p) {
    down = util::to_string(p);
  });

  ap.start();
  sta.start();
  w.sim.run_until(3 * sim::kSecond);
  ASSERT_TRUE(sta.associated());
  ASSERT_TRUE(sta.ready()) << "4-way handshake did not complete";
  EXPECT_TRUE(ap.is_station_ready(sta.config().mac));
  EXPECT_EQ(ap.counters().wpa_handshakes_completed, 1u);

  sta.send(MacAddr::from_id(0xDD), kEtherTypeIpv4, to_bytes("wpa-up"));
  w.sim.run_until(4 * sim::kSecond);
  EXPECT_EQ(up, "wpa-up");

  ap.send_to_station(sta.config().mac, MacAddr::from_id(0xDD), kEtherTypeIpv4,
                     to_bytes("wpa-down"));
  w.sim.run_until(5 * sim::kSecond);
  EXPECT_EQ(down, "wpa-down");
}

TEST(WpaApSta, BroadcastUsesGroupKey) {
  WpaFixture w;
  AccessPoint ap(w.sim, w.medium, w.ap_cfg(), &w.trace);
  auto c1 = w.sta_cfg();
  auto c2 = w.sta_cfg();
  c2.mac = MacAddr::from_id(0x52);
  Station sta1(w.sim, w.medium, c1);
  Station sta2(w.sim, w.medium, c2);
  ap.radio().set_position({3, 0});
  sta2.radio().set_position({0, 3});

  int got1 = 0;
  int got2 = 0;
  sta1.set_rx_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView) { ++got1; });
  sta2.set_rx_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView) { ++got2; });

  ap.start();
  sta1.start();
  sta2.start();
  w.sim.run_until(4 * sim::kSecond);
  ASSERT_TRUE(sta1.ready());
  ASSERT_TRUE(sta2.ready());

  ap.send_to_station(MacAddr::broadcast(), MacAddr::from_id(0xDD), kEtherTypeIpv4,
                     to_bytes("to-everyone"));
  w.sim.run_until(5 * sim::kSecond);
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);
}

TEST(WpaApSta, WrongPskNeverCompletesHandshake) {
  WpaFixture w;
  AccessPoint ap(w.sim, w.medium, w.ap_cfg("corp-passphrase"), &w.trace);
  Station sta(w.sim, w.medium, w.sta_cfg("wrong-passphrase"), &w.trace);
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  w.sim.run_until(5 * sim::kSecond);
  // Association succeeds (open auth) but the data path never opens.
  EXPECT_FALSE(sta.ready());
  EXPECT_FALSE(ap.is_station_ready(sta.config().mac));
  EXPECT_EQ(ap.counters().wpa_handshakes_completed, 0u);

  // And data cannot be injected either way.
  EXPECT_FALSE(sta.send(MacAddr::from_id(0xDD), kEtherTypeIpv4, to_bytes("x")));
}

TEST(WpaApSta, ReplayedDataFrameDropped) {
  // Capture one protected frame off the air and re-inject it verbatim:
  // WEP accepts this (no replay protection); WPA must not.
  WpaFixture w;
  AccessPoint ap(w.sim, w.medium, w.ap_cfg(), &w.trace);
  Station sta(w.sim, w.medium, w.sta_cfg(), &w.trace);
  ap.radio().set_position({3, 0});

  int delivered = 0;
  ap.set_ds_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView) {
    ++delivered;
  });

  // Raw capture via a monitor radio.
  phy::Radio monitor(w.medium, "monitor");
  monitor.set_channel(1);
  monitor.set_position({1, 1});
  util::Bytes captured;
  monitor.set_receive_handler([&](util::ByteView raw, const phy::RxInfo&) {
    const auto f = Frame::parse(raw);
    if (f && f->is_data() && f->to_ds && f->protected_frame) {
      captured.assign(raw.begin(), raw.end());
    }
  });

  ap.start();
  sta.start();
  w.sim.run_until(3 * sim::kSecond);
  ASSERT_TRUE(sta.ready());
  sta.send(MacAddr::from_id(0xDD), kEtherTypeIpv4, to_bytes("original"));
  w.sim.run_until(4 * sim::kSecond);
  ASSERT_EQ(delivered, 1);
  ASSERT_FALSE(captured.empty());

  // Replay the captured frame from an attacker radio.
  phy::Radio attacker(w.medium, "attacker");
  attacker.set_channel(1);
  attacker.set_position({1, 1});
  attacker.transmit(captured);
  w.sim.run_until(5 * sim::kSecond);
  EXPECT_EQ(delivered, 1);  // replay rejected
  EXPECT_GT(ap.counters().wpa_replays_dropped, 0u);
}

TEST(WpaApSta, WepReplayIsAcceptedForContrast) {
  // The same replay against WEP sails through — the §2.2 upgrade really
  // does fix something, just not the rogue-AP problem.
  sim::Simulator sim{92};
  phy::Medium medium{sim};
  ApConfig apc;
  apc.ssid = "CORP";
  apc.bssid = MacAddr::from_id(0xA9);
  apc.channel = 1;
  apc.security = SecurityMode::kWep;
  apc.wep_key = to_bytes("SECRETWEPKEY1");
  AccessPoint ap(sim, medium, apc);
  StationConfig stc;
  stc.mac = MacAddr::from_id(0x51);
  stc.target_ssid = "CORP";
  stc.scan_channels = {1};
  stc.security = SecurityMode::kWep;
  stc.wep_key = to_bytes("SECRETWEPKEY1");
  Station sta(sim, medium, stc);
  ap.radio().set_position({3, 0});

  int delivered = 0;
  ap.set_ds_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView) {
    ++delivered;
  });
  phy::Radio monitor(medium, "monitor");
  monitor.set_channel(1);
  monitor.set_position({1, 1});
  util::Bytes captured;
  monitor.set_receive_handler([&](util::ByteView raw, const phy::RxInfo&) {
    const auto f = Frame::parse(raw);
    if (f && f->is_data() && f->to_ds && f->protected_frame && captured.empty()) {
      captured.assign(raw.begin(), raw.end());
    }
  });

  ap.start();
  sta.start();
  sim.run_until(3 * sim::kSecond);
  ASSERT_TRUE(sta.associated());
  sta.send(MacAddr::from_id(0xDD), kEtherTypeIpv4, to_bytes("original"));
  sim.run_until(4 * sim::kSecond);
  ASSERT_EQ(delivered, 1);
  ASSERT_FALSE(captured.empty());

  phy::Radio attacker(medium, "attacker");
  attacker.set_channel(1);
  attacker.set_position({1, 1});
  attacker.transmit(captured);
  sim.run_until(5 * sim::kSecond);
  EXPECT_EQ(delivered, 2);  // WEP happily accepts the replay
}

// ---- The paper's §2.2 punchline ------------------------------------------------

TEST(WpaAttack, OutsiderSnifferReadsNothing) {
  WpaFixture w;
  AccessPoint ap(w.sim, w.medium, w.ap_cfg(), &w.trace);
  Station sta(w.sim, w.medium, w.sta_cfg(), &w.trace);
  ap.radio().set_position({3, 0});

  attack::SnifferConfig sc;
  sc.channel = 1;  // no credentials at all
  attack::Sniffer outsider(w.sim, w.medium, sc);
  outsider.radio().set_position({1, 1});
  std::uint64_t readable = 0;
  outsider.set_msdu_handler([&](MacAddr, MacAddr, std::uint16_t et, util::ByteView p) {
    if (et == kEtherTypeIpv4) readable += p.size();
  });

  ap.start();
  sta.start();
  w.sim.run_until(3 * sim::kSecond);
  ASSERT_TRUE(sta.ready());
  sta.send(MacAddr::from_id(0xDD), kEtherTypeIpv4, to_bytes("secret payload"));
  w.sim.run_until(4 * sim::kSecond);
  EXPECT_EQ(readable, 0u);
  // And there is nothing for FMS to chew on either.
  EXPECT_FALSE(outsider.fms().try_recover().has_value());
}

TEST(WpaAttack, PskHolderDecryptsAfterObservingHandshake) {
  // §2.2: "TKIP still relies on a pre shared key, thus is still vulnerable
  // to MITM attack from valid network clients" — and to passive insiders.
  WpaFixture w;
  AccessPoint ap(w.sim, w.medium, w.ap_cfg(), &w.trace);
  Station sta(w.sim, w.medium, w.sta_cfg(), &w.trace);
  ap.radio().set_position({3, 0});

  attack::SnifferConfig sc;
  sc.channel = 1;
  sc.wpa_psk = to_bytes("corp-passphrase");  // a valid client's credentials
  sc.wpa_ssid = "CORP";
  attack::Sniffer insider(w.sim, w.medium, sc);
  insider.radio().set_position({1, 1});
  std::string captured;
  insider.set_msdu_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView p) {
    captured += util::to_string(p);
  });

  ap.start();
  sta.start();
  w.sim.run_until(3 * sim::kSecond);
  ASSERT_TRUE(sta.ready());
  EXPECT_GE(insider.counters().wpa_handshakes_observed, 2u);  // M1 + M2 seen

  sta.send(MacAddr::from_id(0xDD), kEtherTypeIpv4,
           to_bytes("password=still-visible-to-psk-holders"));
  w.sim.run_until(4 * sim::kSecond);
  EXPECT_NE(captured.find("still-visible-to-psk-holders"), std::string::npos);
  EXPECT_GT(insider.counters().decrypted_bytes, 0u);
}

TEST(WpaAttack, RogueWithPskStillCapturesVictim) {
  // The headline §2.2 result: upgrading the corporate WLAN to WPA-PSK
  // does not stop the rogue — it simply configures the same passphrase.
  scenario::CorpConfig cfg;
  cfg.security = SecurityMode::kWpaPsk;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  scenario::CorpWorld world(cfg);
  world.start();
  world.run_for(3 * sim::kSecond);
  world.deploy_rogue();
  world.start_deauth_forcing();
  world.run_for(15 * sim::kSecond);
  ASSERT_TRUE(world.victim_on_rogue());

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(90 * sim::kSecond);
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().trojan_md5());
  EXPECT_TRUE(outcome.md5_verified);
}

TEST(WpaAttack, VpnStillProtectsUnderWpa) {
  scenario::CorpConfig cfg;
  cfg.security = SecurityMode::kWpaPsk;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  scenario::CorpWorld world(cfg);
  world.start();
  world.run_for(3 * sim::kSecond);
  world.deploy_rogue();
  world.start_deauth_forcing();
  world.run_for(15 * sim::kSecond);
  ASSERT_TRUE(world.victim_on_rogue());

  bool vpn_ok = false;
  world.kit().connect_vpn([&](bool ok) { vpn_ok = ok; });
  world.run_for(10 * sim::kSecond);
  ASSERT_TRUE(vpn_ok);

  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(90 * sim::kSecond);
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().release_md5());
}

}  // namespace
}  // namespace rogue::dot11
