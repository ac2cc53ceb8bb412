// 802.11 MAC tests: frame codec round-trips, then AP/STA integration —
// scan/join, WEP enforcement, MAC filtering, deauth-driven roaming.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "dot11/ap.hpp"
#include "dot11/frame.hpp"
#include "dot11/sta.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/prng.hpp"

namespace rogue::dot11 {
namespace {

using net::MacAddr;
using util::Bytes;
using util::to_bytes;

// ---- Frame codec ------------------------------------------------------------

TEST(Frame, SerializeParseRoundTrip) {
  Frame f;
  f.type = FrameType::kData;
  f.subtype = 0;
  f.to_ds = true;
  f.protected_frame = true;
  f.addr1 = MacAddr::from_id(1);
  f.addr2 = MacAddr::from_id(2);
  f.addr3 = MacAddr::from_id(3);
  f.sequence = 0x5ab;
  f.fragment = 3;
  f.body = to_bytes("payload bytes");

  const auto parsed = Frame::parse(f.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, FrameType::kData);
  EXPECT_TRUE(parsed->to_ds);
  EXPECT_FALSE(parsed->from_ds);
  EXPECT_TRUE(parsed->protected_frame);
  EXPECT_EQ(parsed->addr1, f.addr1);
  EXPECT_EQ(parsed->addr2, f.addr2);
  EXPECT_EQ(parsed->addr3, f.addr3);
  EXPECT_EQ(parsed->sequence, 0x5ab);
  EXPECT_EQ(parsed->fragment, 3);
  EXPECT_EQ(parsed->body, f.body);
}

TEST(Frame, ParseRejectsTruncated) {
  Frame f;
  f.addr1 = MacAddr::broadcast();
  const Bytes raw = f.serialize();
  for (std::size_t len = 0; len < 24; ++len) {
    EXPECT_FALSE(Frame::parse(util::ByteView(raw.data(), len)).has_value());
  }
}

class MgmtSubtypeRoundTrip : public ::testing::TestWithParam<MgmtSubtype> {};

TEST_P(MgmtSubtypeRoundTrip, SubtypePreserved) {
  Frame f;
  f.type = FrameType::kManagement;
  f.subtype = static_cast<std::uint8_t>(GetParam());
  const auto parsed = Frame::parse(f.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_mgmt(GetParam()));
}

// ---- Management writer vs the reference serializer --------------------------

/// Every field of each body, for comparing a decoded body with its source.
auto fields(const BeaconBody& b) {
  return std::tie(b.timestamp, b.beacon_interval_tu, b.capability, b.ssid, b.channel);
}
auto fields(const ProbeReqBody& b) { return std::tie(b.ssid); }
auto fields(const AuthBody& b) {
  return std::tie(b.algorithm, b.transaction_seq, b.status, b.challenge);
}
auto fields(const AssocReqBody& b) { return std::tie(b.capability, b.ssid); }
auto fields(const AssocRespBody& b) {
  return std::tie(b.capability, b.status, b.association_id);
}
auto fields(const DeauthBody& b) { return std::tie(b.reason); }

std::string random_ssid(util::Prng& rng, std::size_t len) {
  std::string ssid(len, '\0');
  for (char& c : ssid) c = static_cast<char>(rng.uniform_u32(256));
  return ssid;
}

/// write_mgmt must lay out exactly what Frame::serialize() does for the
/// same header fields around body.encode(), for any sequence number, and
/// the bytes must parse back to the header and body they came from.
template <typename Body>
void expect_writer_matches_serialize(MgmtSubtype subtype, const Body& body,
                                     util::Prng& rng) {
  const auto random_seq = static_cast<std::uint16_t>(rng.uniform_u32(0x10000));
  for (const std::uint16_t sequence :
       {std::uint16_t{0}, std::uint16_t{0x0fff}, std::uint16_t{0x1000},
        std::uint16_t{0xffff}, random_seq}) {
    const MgmtHeader header{.subtype = subtype,
                            .addr1 = MacAddr::from_id(rng.next()),
                            .addr2 = MacAddr::from_id(rng.next()),
                            .addr3 = MacAddr::from_id(rng.next()),
                            .sequence = sequence};
    Bytes written(300, 0xee);  // stale contents the writer must drop
    write_mgmt(written, header, body);

    Frame reference;
    reference.subtype = static_cast<std::uint8_t>(subtype);
    reference.addr1 = header.addr1;
    reference.addr2 = header.addr2;
    reference.addr3 = header.addr3;
    reference.sequence = sequence;
    reference.body = body.encode();
    EXPECT_EQ(written, reference.serialize()) << "sequence " << sequence;

    const auto view = FrameView::parse(written);
    ASSERT_TRUE(view.has_value());
    EXPECT_TRUE(view->is_mgmt(subtype));
    EXPECT_FALSE(view->to_ds || view->from_ds || view->retry ||
                 view->protected_frame);
    EXPECT_EQ(view->addr1, header.addr1);
    EXPECT_EQ(view->addr2, header.addr2);
    EXPECT_EQ(view->addr3, header.addr3);
    EXPECT_EQ(view->sequence, sequence & 0x0fff);  // bits past 12 fall off
    EXPECT_EQ(view->fragment, 0);
    const auto decoded = Body::decode(view->body);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(fields(*decoded) == fields(body));
  }
}

TEST_P(MgmtSubtypeRoundTrip, WriterMatchesReferenceSerializer) {
  const MgmtSubtype subtype = GetParam();
  util::Prng rng(static_cast<std::uint64_t>(subtype) + 1);
  // 16 and 32 bytes spill past std::string's inline buffer.
  for (const std::size_t ssid_len : {0u, 4u, 16u, 32u}) {
    const std::string ssid = random_ssid(rng, ssid_len);
    switch (subtype) {
      case MgmtSubtype::kBeacon:
      case MgmtSubtype::kProbeResp: {
        BeaconBody b;
        b.timestamp = rng.next();
        b.beacon_interval_tu = static_cast<std::uint16_t>(rng.next());
        b.capability = static_cast<std::uint16_t>(rng.next());
        b.ssid = ssid;
        b.channel = static_cast<std::uint8_t>(rng.next());
        expect_writer_matches_serialize(subtype, b, rng);
        break;
      }
      case MgmtSubtype::kProbeReq: {
        ProbeReqBody b;
        b.ssid = ssid;
        expect_writer_matches_serialize(subtype, b, rng);
        break;
      }
      case MgmtSubtype::kAssocReq: {
        AssocReqBody b;
        b.capability = static_cast<std::uint16_t>(rng.next());
        b.ssid = ssid;
        expect_writer_matches_serialize(subtype, b, rng);
        break;
      }
      case MgmtSubtype::kAssocResp: {
        AssocRespBody b;
        b.capability = static_cast<std::uint16_t>(rng.next());
        b.status = static_cast<StatusCode>(rng.next());
        b.association_id = static_cast<std::uint16_t>(rng.next());
        expect_writer_matches_serialize(subtype, b, rng);
        break;
      }
      case MgmtSubtype::kAuth: {
        for (const std::size_t challenge_len : {0u, 128u}) {
          AuthBody b;
          b.algorithm = static_cast<AuthAlgorithm>(rng.next());
          b.transaction_seq = static_cast<std::uint16_t>(rng.next());
          b.status = static_cast<StatusCode>(rng.next());
          b.challenge.resize(challenge_len);
          rng.fill(b.challenge);
          expect_writer_matches_serialize(subtype, b, rng);
        }
        break;
      }
      case MgmtSubtype::kDeauth:
      case MgmtSubtype::kDisassoc: {
        DeauthBody b;
        b.reason = static_cast<ReasonCode>(rng.next());
        expect_writer_matches_serialize(subtype, b, rng);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubtypes, MgmtSubtypeRoundTrip,
                         ::testing::Values(MgmtSubtype::kAssocReq,
                                           MgmtSubtype::kAssocResp,
                                           MgmtSubtype::kProbeReq,
                                           MgmtSubtype::kProbeResp,
                                           MgmtSubtype::kBeacon,
                                           MgmtSubtype::kDisassoc,
                                           MgmtSubtype::kAuth,
                                           MgmtSubtype::kDeauth));

/// encode_into appends to what `out` already holds; what it appends is
/// encode()'s bytes.
template <typename Body>
void expect_encode_into_appends(const Body& body) {
  Bytes out{0x01, 0x02};
  body.encode_into(out);
  Bytes expected{0x01, 0x02};
  util::append(expected, body.encode());
  EXPECT_EQ(out, expected);
}

TEST(Bodies, BeaconRoundTrip) {
  BeaconBody b;
  b.timestamp = 123456789;
  b.beacon_interval_tu = 100;
  b.capability = kCapEss | kCapPrivacy;
  b.ssid = "CORP";
  b.channel = 6;
  const auto decoded = BeaconBody::decode(b.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->timestamp, b.timestamp);
  EXPECT_EQ(decoded->ssid, "CORP");
  EXPECT_EQ(decoded->channel, 6);
  EXPECT_TRUE(decoded->privacy());
  expect_encode_into_appends(b);
}

TEST(Bodies, AuthRoundTripWithChallenge) {
  AuthBody a;
  a.algorithm = AuthAlgorithm::kSharedKey;
  a.transaction_seq = 2;
  a.status = StatusCode::kSuccess;
  a.challenge = Bytes(128, 0x5a);
  const auto decoded = AuthBody::decode(a.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->algorithm, AuthAlgorithm::kSharedKey);
  EXPECT_EQ(decoded->transaction_seq, 2);
  EXPECT_EQ(decoded->challenge, a.challenge);
  expect_encode_into_appends(a);
}

TEST(Bodies, AssocAndDeauthRoundTrip) {
  AssocReqBody req;
  req.ssid = "NET";
  EXPECT_EQ(AssocReqBody::decode(req.encode())->ssid, "NET");

  AssocRespBody resp;
  resp.status = StatusCode::kAssocDeniedUnspec;
  resp.association_id = 42;
  const auto r = AssocRespBody::decode(resp.encode());
  EXPECT_EQ(r->status, StatusCode::kAssocDeniedUnspec);
  EXPECT_EQ(r->association_id, 42);

  DeauthBody d;
  d.reason = ReasonCode::kDeauthLeaving;
  EXPECT_EQ(DeauthBody::decode(d.encode())->reason, ReasonCode::kDeauthLeaving);
  expect_encode_into_appends(req);
  expect_encode_into_appends(resp);
  expect_encode_into_appends(d);
  expect_encode_into_appends(ProbeReqBody{});
}

TEST(Llc, EncodeDecode) {
  const Bytes msdu = llc_encode(kEtherTypeIpv4, to_bytes("ip packet"));
  EXPECT_EQ(msdu[0], 0xaa);  // the FMS known-plaintext byte
  const auto decoded = llc_decode(msdu);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ethertype, kEtherTypeIpv4);
  EXPECT_EQ(util::to_string(decoded->payload), "ip packet");
}

TEST(Llc, RejectsNonSnap) {
  Bytes bad = llc_encode(kEtherTypeIpv4, to_bytes("x"));
  bad[0] = 0x00;
  EXPECT_FALSE(llc_decode(bad).has_value());
  EXPECT_FALSE(llc_decode(Bytes{0xaa, 0xaa}).has_value());
}

// ---- AP / STA integration -----------------------------------------------------

struct WirelessFixture {
  sim::Simulator sim{7};
  phy::Medium medium{sim};
  sim::Trace trace;

  ApConfig ap_config() {
    ApConfig cfg;
    cfg.ssid = "CORP";
    cfg.bssid = MacAddr::from_id(0xA9);
    cfg.channel = 1;
    return cfg;
  }
  StationConfig sta_config() {
    StationConfig cfg;
    cfg.mac = MacAddr::from_id(0x51);
    cfg.target_ssid = "CORP";
    cfg.scan_channels = {1};
    return cfg;
  }
};

TEST(ApSta, OpenAssociation) {
  WirelessFixture w;
  AccessPoint ap(w.sim, w.medium, w.ap_config(), &w.trace);
  Station sta(w.sim, w.medium, w.sta_config(), &w.trace);
  ap.radio().set_position({3, 0});

  ap.start();
  sta.start();
  w.sim.run_until(2 * sim::kSecond);

  EXPECT_TRUE(sta.associated());
  EXPECT_TRUE(ap.is_associated(sta.config().mac));
  EXPECT_EQ(sta.bss().bssid, ap.config().bssid);
  EXPECT_EQ(ap.counters().assoc_ok, 1u);
}

TEST(ApSta, SsidMismatchNeverAssociates) {
  WirelessFixture w;
  AccessPoint ap(w.sim, w.medium, w.ap_config());
  auto cfg = w.sta_config();
  cfg.target_ssid = "OTHER";
  Station sta(w.sim, w.medium, cfg);
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  w.sim.run_until(2 * sim::kSecond);
  EXPECT_FALSE(sta.associated());
}

TEST(ApSta, PrivacyMismatchPreventsJoin) {
  WirelessFixture w;
  auto apc = w.ap_config();
  apc.security = SecurityMode::kWep;
  apc.wep_key = to_bytes("SECRE");
  AccessPoint ap(w.sim, w.medium, apc);
  Station sta(w.sim, w.medium, w.sta_config());  // no WEP configured
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  w.sim.run_until(2 * sim::kSecond);
  EXPECT_FALSE(sta.associated());
}

TEST(ApSta, WepDataRoundTrip) {
  WirelessFixture w;
  auto apc = w.ap_config();
  apc.security = SecurityMode::kWep;
  apc.wep_key = to_bytes("SECRETWEPKEY1");
  AccessPoint ap(w.sim, w.medium, apc);
  auto stc = w.sta_config();
  stc.security = SecurityMode::kWep;
  stc.wep_key = to_bytes("SECRETWEPKEY1");
  Station sta(w.sim, w.medium, stc);
  ap.radio().set_position({3, 0});

  // Capture what reaches the DS.
  std::string up;
  ap.set_ds_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView payload) {
    up = util::to_string(payload);
  });
  std::string down;
  sta.set_rx_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView payload) {
    down = util::to_string(payload);
  });

  ap.start();
  sta.start();
  w.sim.run_until(2 * sim::kSecond);
  ASSERT_TRUE(sta.associated());

  sta.send(MacAddr::from_id(0xDD), kEtherTypeIpv4, to_bytes("uplink-data"));
  w.sim.run_until(3 * sim::kSecond);
  EXPECT_EQ(up, "uplink-data");

  ap.send_to_station(sta.config().mac, MacAddr::from_id(0xDD), kEtherTypeIpv4,
                     to_bytes("downlink-data"));
  w.sim.run_until(4 * sim::kSecond);
  EXPECT_EQ(down, "downlink-data");
}

TEST(ApSta, WrongWepKeyDataDropped) {
  WirelessFixture w;
  auto apc = w.ap_config();
  apc.security = SecurityMode::kWep;
  apc.wep_key = to_bytes("SECRETWEPKEY1");
  AccessPoint ap(w.sim, w.medium, apc);
  auto stc = w.sta_config();
  stc.security = SecurityMode::kWep;
  stc.wep_key = to_bytes("WRONGKEY12345");
  Station sta(w.sim, w.medium, stc);
  ap.radio().set_position({3, 0});

  bool up = false;
  ap.set_ds_handler([&](MacAddr, MacAddr, std::uint16_t, util::ByteView) { up = true; });

  ap.start();
  sta.start();
  w.sim.run_until(2 * sim::kSecond);
  // Open auth + assoc succeed (key never proven), but data fails ICV.
  ASSERT_TRUE(sta.associated());
  sta.send(MacAddr::from_id(0xDD), kEtherTypeIpv4, to_bytes("boom"));
  w.sim.run_until(3 * sim::kSecond);
  EXPECT_FALSE(up);
  EXPECT_GT(ap.counters().wep_icv_failures, 0u);
}

TEST(ApSta, SharedKeyAuthSucceedsWithKey) {
  WirelessFixture w;
  auto apc = w.ap_config();
  apc.security = SecurityMode::kWep;
  apc.wep_key = to_bytes("SECRETWEPKEY1");
  apc.auth_algorithm = AuthAlgorithm::kSharedKey;
  AccessPoint ap(w.sim, w.medium, apc);
  auto stc = w.sta_config();
  stc.security = SecurityMode::kWep;
  stc.wep_key = to_bytes("SECRETWEPKEY1");
  stc.auth_algorithm = AuthAlgorithm::kSharedKey;
  Station sta(w.sim, w.medium, stc);
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  w.sim.run_until(2 * sim::kSecond);
  EXPECT_TRUE(sta.associated());
}

TEST(ApSta, SharedKeyAuthFailsWithWrongKey) {
  WirelessFixture w;
  auto apc = w.ap_config();
  apc.security = SecurityMode::kWep;
  apc.wep_key = to_bytes("SECRETWEPKEY1");
  apc.auth_algorithm = AuthAlgorithm::kSharedKey;
  AccessPoint ap(w.sim, w.medium, apc);
  auto stc = w.sta_config();
  stc.security = SecurityMode::kWep;
  stc.wep_key = to_bytes("WRONGKEY12345");
  stc.auth_algorithm = AuthAlgorithm::kSharedKey;
  Station sta(w.sim, w.medium, stc);
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  w.sim.run_until(3 * sim::kSecond);
  EXPECT_FALSE(sta.associated());
  EXPECT_GT(ap.counters().auth_rejected, 0u);
}

TEST(ApSta, MacFilteringBlocksUnlisted) {
  WirelessFixture w;
  auto apc = w.ap_config();
  apc.mac_filtering = true;
  apc.allowed_macs = {MacAddr::from_id(0x99)};  // not the station
  AccessPoint ap(w.sim, w.medium, apc);
  Station sta(w.sim, w.medium, w.sta_config());
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  w.sim.run_until(2 * sim::kSecond);
  EXPECT_FALSE(sta.associated());
}

TEST(ApSta, MacFilteringDefeatedBySpoofing) {
  // §2.1: "MAC addresses can be changed from their factory default and
  // valid MACs can be sniffed from the network".
  WirelessFixture w;
  auto apc = w.ap_config();
  apc.mac_filtering = true;
  const MacAddr allowed = MacAddr::from_id(0x99);
  apc.allowed_macs = {allowed};
  AccessPoint ap(w.sim, w.medium, apc);
  auto stc = w.sta_config();
  stc.mac = allowed;  // spoofed
  Station sta(w.sim, w.medium, stc);
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  w.sim.run_until(2 * sim::kSecond);
  EXPECT_TRUE(sta.associated());
}

TEST(ApSta, DeauthFromApDisconnectsAndRescans) {
  WirelessFixture w;
  AccessPoint ap(w.sim, w.medium, w.ap_config(), &w.trace);
  Station sta(w.sim, w.medium, w.sta_config(), &w.trace);
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  w.sim.run_until(2 * sim::kSecond);
  ASSERT_TRUE(sta.associated());

  ap.deauth_station(sta.config().mac, ReasonCode::kDeauthLeaving);
  w.sim.run_until(2 * sim::kSecond + 100'000);
  EXPECT_EQ(sta.counters().deauths_received, 1u);

  // It rescans and rejoins (the AP is still the best candidate).
  w.sim.run_until(5 * sim::kSecond);
  EXPECT_TRUE(sta.associated());
  EXPECT_GE(sta.counters().associations, 2u);
}

TEST(ApSta, BeaconLossTriggersRoam) {
  WirelessFixture w;
  AccessPoint ap(w.sim, w.medium, w.ap_config(), &w.trace);
  Station sta(w.sim, w.medium, w.sta_config(), &w.trace);
  ap.radio().set_position({3, 0});
  ap.start();
  sta.start();
  w.sim.run_until(2 * sim::kSecond);
  ASSERT_TRUE(sta.associated());

  ap.stop();  // AP goes dark
  w.sim.run_until(5 * sim::kSecond);
  EXPECT_FALSE(sta.associated());
  EXPECT_GE(sta.counters().beacon_losses, 1u);
}

TEST(ApSta, StationPicksStrongerOfTwoAps) {
  WirelessFixture w;
  auto near_cfg = w.ap_config();
  near_cfg.bssid = MacAddr::from_id(0xA1);
  near_cfg.channel = 1;
  auto far_cfg = w.ap_config();
  far_cfg.bssid = MacAddr::from_id(0xA2);
  far_cfg.channel = 6;

  AccessPoint near_ap(w.sim, w.medium, near_cfg);
  AccessPoint far_ap(w.sim, w.medium, far_cfg);
  near_ap.radio().set_position({3, 0});
  far_ap.radio().set_position({40, 0});

  auto stc = w.sta_config();
  stc.scan_channels = {1, 6};
  Station sta(w.sim, w.medium, stc);

  near_ap.start();
  far_ap.start();
  sta.start();
  w.sim.run_until(3 * sim::kSecond);
  ASSERT_TRUE(sta.associated());
  EXPECT_EQ(sta.bss().bssid, near_cfg.bssid);
}

TEST(ApSta, ClonedBssidOnTwoChannelsBothVisible) {
  // An evil twin clones the BSSID on another channel. Scan results key by
  // (BSSID, channel) — like wpa_supplicant's (BSSID, freq) — so both
  // entries exist and best-RSSI picks the stronger one.
  WirelessFixture w;
  auto real_cfg = w.ap_config();   // ch 1
  auto twin_cfg = w.ap_config();   // same BSSID!
  twin_cfg.channel = 6;
  AccessPoint real_ap(w.sim, w.medium, real_cfg);
  AccessPoint twin_ap(w.sim, w.medium, twin_cfg);
  real_ap.radio().set_position({30, 0});  // weaker
  twin_ap.radio().set_position({2, 0});   // stronger

  auto stc = w.sta_config();
  stc.scan_channels = {1, 6};
  Station sta(w.sim, w.medium, stc);

  real_ap.start();
  twin_ap.start();
  sta.start();
  w.sim.run_until(3 * sim::kSecond);
  ASSERT_TRUE(sta.associated());
  EXPECT_EQ(sta.bss().bssid, real_cfg.bssid);  // identical for both
  EXPECT_EQ(sta.bss().channel, 6);             // the stronger twin won
  EXPECT_TRUE(twin_ap.is_associated(stc.mac));
  EXPECT_FALSE(real_ap.is_associated(stc.mac));
}

TEST(ApSta, IntraBssRelay) {
  WirelessFixture w;
  AccessPoint ap(w.sim, w.medium, w.ap_config());
  auto c1 = w.sta_config();
  c1.mac = MacAddr::from_id(0x51);
  auto c2 = w.sta_config();
  c2.mac = MacAddr::from_id(0x52);
  Station sta1(w.sim, w.medium, c1);
  Station sta2(w.sim, w.medium, c2);
  ap.radio().set_position({3, 0});
  sta2.radio().set_position({6, 0});

  std::string got;
  sta2.set_rx_handler([&](MacAddr src, MacAddr, std::uint16_t, util::ByteView p) {
    EXPECT_EQ(src, c1.mac);
    got = util::to_string(p);
  });

  ap.start();
  sta1.start();
  sta2.start();
  w.sim.run_until(3 * sim::kSecond);
  ASSERT_TRUE(sta1.associated());
  ASSERT_TRUE(sta2.associated());

  sta1.send(c2.mac, kEtherTypeIpv4, to_bytes("peer-to-peer"));
  w.sim.run_until(4 * sim::kSecond);
  EXPECT_EQ(got, "peer-to-peer");
}

}  // namespace
}  // namespace rogue::dot11
