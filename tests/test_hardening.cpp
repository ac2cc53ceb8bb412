// Hardening and property tests cutting across modules: pcap round-trips,
// VPN record replay, reordering robustness, conntrack/netfilter edges,
// and failure injection that the per-module files do not cover.
#include <gtest/gtest.h>

#include "attack/arp_spoof.hpp"
#include "scenario/corp_world.hpp"
#include "attack/sniffer.hpp"
#include "dot11/ap.hpp"
#include "dot11/sta.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "vpn/client.hpp"
#include "vpn/endpoint.hpp"

namespace rogue {
namespace {

using net::Ipv4Addr;
using net::MacAddr;
using util::Bytes;
using util::to_bytes;

// ---- pcap ---------------------------------------------------------------------

TEST(Pcap, EmptyFileParses) {
  obs::PcapWriter w;
  const auto parsed = obs::pcap_parse(w.data());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->link_type, obs::PcapWriter::kLinkTypeIeee80211);
  EXPECT_TRUE(parsed->records.empty());
}

TEST(Pcap, RecordsRoundTrip) {
  obs::PcapWriter w(obs::PcapWriter::kLinkTypeEthernet);
  w.add_frame(1'500'000, to_bytes("frame-one"));
  w.add_frame(2'000'001, to_bytes("frame-two-longer"));
  EXPECT_EQ(w.frames(), 2u);

  const auto parsed = obs::pcap_parse(w.data());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->link_type, obs::PcapWriter::kLinkTypeEthernet);
  ASSERT_EQ(parsed->records.size(), 2u);
  EXPECT_EQ(parsed->records[0].timestamp_us, 1'500'000u);
  EXPECT_EQ(util::to_string(parsed->records[0].frame), "frame-one");
  EXPECT_EQ(parsed->records[1].timestamp_us, 2'000'001u);
  EXPECT_EQ(util::to_string(parsed->records[1].frame), "frame-two-longer");
}

TEST(Pcap, RejectsCorruptImages) {
  obs::PcapWriter w;
  w.add_frame(1, to_bytes("abc"));
  Bytes img = w.data();
  EXPECT_FALSE(obs::pcap_parse(util::ByteView(img).subspan(0, 10)).has_value());
  img[0] ^= 0xff;  // break magic
  EXPECT_FALSE(obs::pcap_parse(img).has_value());
  // Truncated record body.
  Bytes trunc = w.data();
  trunc.pop_back();
  EXPECT_FALSE(obs::pcap_parse(trunc).has_value());
}

TEST(Pcap, SnifferCaptureContainsBeacons) {
  sim::Simulator sim{101};
  phy::Medium medium(sim);
  dot11::ApConfig apc;
  apc.ssid = "CORP";
  apc.bssid = MacAddr::from_id(0xA9);
  apc.channel = 1;
  dot11::AccessPoint ap(sim, medium, apc);
  ap.radio().set_position({2, 0});

  attack::SnifferConfig sc;
  sc.channel = 1;
  attack::Sniffer sniffer(sim, medium, sc);
  sniffer.radio().set_position({0, 1});
  obs::PcapWriter pcap;
  sniffer.set_pcap(&pcap);

  ap.start();
  sim.run_until(2 * sim::kSecond);
  EXPECT_GT(pcap.frames(), 10u);

  const auto parsed = obs::pcap_parse(pcap.data());
  ASSERT_TRUE(parsed.has_value());
  std::size_t beacons = 0;
  for (const auto& rec : parsed->records) {
    const auto f = dot11::Frame::parse(rec.frame);
    if (f && f->is_mgmt(dot11::MgmtSubtype::kBeacon)) ++beacons;
  }
  EXPECT_GT(beacons, 10u);
  // Timestamps are monotone non-decreasing.
  for (std::size_t i = 1; i < parsed->records.size(); ++i) {
    EXPECT_GE(parsed->records[i].timestamp_us, parsed->records[i - 1].timestamp_us);
  }
}

TEST(Pcap, WriteFileToDisk) {
  obs::PcapWriter w;
  w.add_frame(42, to_bytes("payload"));
  const std::string path = "/tmp/rogue_test_capture.pcap";
  ASSERT_TRUE(w.write_file(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  Bytes content(4096);
  const std::size_t n = std::fread(content.data(), 1, content.size(), f);
  std::fclose(f);
  std::remove(path.c_str());
  content.resize(n);
  EXPECT_EQ(content, w.data());
}

// ---- VPN record replay / reorder -------------------------------------------------

struct VpnPair {
  sim::Simulator sim{111};
  net::Switch lan{sim};
  std::unique_ptr<net::Host> client;
  std::unique_ptr<net::Host> server;
  std::unique_ptr<vpn::Endpoint> endpoint;
  std::unique_ptr<vpn::ClientTunnel> tunnel;
  bool up = false;

  VpnPair() {
    client = std::make_unique<net::Host>(sim, "client");
    client->add_wired("eth0", lan, MacAddr::from_id(0xC1));
    client->configure("eth0", Ipv4Addr(10, 0, 0, 1), 24);
    server = std::make_unique<net::Host>(sim, "server");
    server->add_wired("eth0", lan, MacAddr::from_id(0x55));
    server->configure("eth0", Ipv4Addr(10, 0, 0, 5), 24);
    vpn::EndpointConfig ec;
    ec.psk = to_bytes("psk");
    ec.snat_to_wire = false;
    endpoint = std::make_unique<vpn::Endpoint>(*server, ec);
    endpoint->start();
    vpn::ClientConfig cc;
    cc.psk = to_bytes("psk");
    cc.endpoint_ip = Ipv4Addr(10, 0, 0, 5);
    cc.transport = vpn::Transport::kUdp;
    tunnel = std::make_unique<vpn::ClientTunnel>(*client, cc);
    tunnel->start([this](bool ok) { up = ok; });
    sim.run_until(5 * sim::kSecond);
  }
};

TEST(VpnHardening, ReplayedRecordRejected) {
  VpnPair v;
  ASSERT_TRUE(v.up);

  // Send a ping through the tunnel, capturing the client's UDP datagrams.
  std::vector<Bytes> captured;
  v.lan.set_span([&](const net::L2Frame& frame) {
    if (frame.src == MacAddr::from_id(0xC1) &&
        frame.ethertype == dot11::kEtherTypeIpv4) {
      captured.push_back(frame.payload);
    }
  });
  std::optional<sim::Time> rtt;
  // Target the endpoint's tunnel-side address so the inner packet stays
  // inside the VPN network.
  v.client->ping(Ipv4Addr(172, 16, 0, 1), [&](std::optional<sim::Time> r) { rtt = r; });
  v.sim.run_until(8 * sim::kSecond);
  ASSERT_TRUE(rtt.has_value());
  ASSERT_FALSE(captured.empty());

  // Replay every captured tunnel datagram verbatim from an attacker host.
  const auto before_bad = v.endpoint->counters().records_bad;
  const auto before_in = v.endpoint->counters().records_in;
  net::Host attacker(v.sim, "attacker");
  attacker.add_wired("eth0", v.lan, MacAddr::from_id(0xBAD));
  attacker.configure("eth0", Ipv4Addr(10, 0, 0, 66), 24);
  for (const auto& ip_payload : captured) {
    const auto packet = net::Ipv4Packet::parse(ip_payload);
    if (!packet || packet->protocol != net::kProtoUdp) continue;
    // Re-send the same UDP payload (the sealed record) from our address —
    // and also spoof the client's source via a raw forward.
    net::Ipv4Packet replay = *packet;  // keeps original src (spoofed)
    attacker.send_packet(std::move(replay));
  }
  v.sim.run_until(10 * sim::kSecond);
  EXPECT_GT(v.endpoint->counters().records_in, before_in);
  EXPECT_GT(v.endpoint->counters().records_bad, before_bad)
      << "replayed records must be dropped by the sequence check";
}

TEST(VpnHardening, GarbageDatagramsIgnored) {
  VpnPair v;
  ASSERT_TRUE(v.up);
  net::Host attacker(v.sim, "attacker");
  attacker.add_wired("eth0", v.lan, MacAddr::from_id(0xBAD));
  attacker.configure("eth0", Ipv4Addr(10, 0, 0, 66), 24);
  auto sock = attacker.udp_open(0);
  util::Prng rng(3);
  for (int i = 0; i < 50; ++i) {
    Bytes junk(64);
    rng.fill(junk);
    junk[0] = 5;  // kData type byte, garbage payload
    sock->send_to(Ipv4Addr(10, 0, 0, 5), 7000, junk);
  }
  v.sim.run_until(8 * sim::kSecond);
  // Tunnel still works afterwards.
  std::optional<sim::Time> rtt;
  v.client->ping(Ipv4Addr(172, 16, 0, 1), [&](std::optional<sim::Time> r) { rtt = r; });
  v.sim.run_until(12 * sim::kSecond);
  EXPECT_TRUE(rtt.has_value());
}

// ---- Netfilter edges ---------------------------------------------------------------

TEST(NetfilterHardening, DropInForwardBlocksTransit) {
  sim::Simulator sim{121};
  net::Switch lan1(sim);
  net::Switch lan2(sim);
  net::Host router(sim, "router");
  router.add_wired("eth0", lan1, MacAddr::from_id(1));
  router.add_wired("eth1", lan2, MacAddr::from_id(2));
  router.configure("eth0", Ipv4Addr(10, 0, 0, 1), 24);
  router.configure("eth1", Ipv4Addr(10, 0, 1, 1), 24);
  router.set_ip_forward(true);
  net::Rule drop;
  drop.match.protocol = net::kProtoIcmp;
  drop.target = net::RuleTarget::kDrop;
  router.netfilter().append(net::Hook::kForward, drop);

  net::Host a(sim, "a");
  a.add_wired("eth0", lan1, MacAddr::from_id(0xA));
  a.configure("eth0", Ipv4Addr(10, 0, 0, 2), 24);
  a.routes().add_default(Ipv4Addr(10, 0, 0, 1), "eth0");
  net::Host b(sim, "b");
  b.add_wired("eth0", lan2, MacAddr::from_id(0xB));
  b.configure("eth0", Ipv4Addr(10, 0, 1, 2), 24);
  b.routes().add_default(Ipv4Addr(10, 0, 1, 1), "eth0");

  // Transit ICMP dropped...
  std::optional<sim::Time> rtt;
  bool done = false;
  a.ping(Ipv4Addr(10, 0, 1, 2), [&](std::optional<sim::Time> r) {
    rtt = r;
    done = true;
  });
  sim.run_until(3 * sim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_FALSE(rtt.has_value());
  EXPECT_GT(router.netfilter().counters().dropped, 0u);

  // ...but ICMP terminating at the router (INPUT path) still answers.
  rtt.reset();
  a.ping(Ipv4Addr(10, 0, 0, 1), [&](std::optional<sim::Time> r) { rtt = r; });
  sim.run_until(6 * sim::kSecond);
  EXPECT_TRUE(rtt.has_value());
}

TEST(NetfilterHardening, ConntrackKeepsFlowsSeparate) {
  // Two clients DNAT'd through the same rule must not cross-talk.
  net::Netfilter nf;
  net::Rule dnat;
  dnat.match.protocol = net::kProtoTcp;
  dnat.match.dst = Ipv4Addr(203, 0, 113, 80);
  dnat.match.dport = 80;
  dnat.target = net::RuleTarget::kDnat;
  dnat.nat_ip = Ipv4Addr(10, 0, 0, 200);
  dnat.nat_port = 10101;
  nf.append(net::Hook::kPrerouting, dnat);

  auto make = [](Ipv4Addr src, std::uint16_t sport, Ipv4Addr dst, std::uint16_t dport) {
    net::Ipv4Packet p;
    p.protocol = net::kProtoTcp;
    p.src = src;
    p.dst = dst;
    p.payload.assign(20, 0);
    p.payload[0] = static_cast<std::uint8_t>(sport >> 8);
    p.payload[1] = static_cast<std::uint8_t>(sport);
    p.payload[2] = static_cast<std::uint8_t>(dport >> 8);
    p.payload[3] = static_cast<std::uint8_t>(dport);
    net::fix_transport_checksum(p);
    return p;
  };

  auto c1 = make(Ipv4Addr(10, 0, 0, 77), 40001, Ipv4Addr(203, 0, 113, 80), 80);
  auto c2 = make(Ipv4Addr(10, 0, 0, 78), 40002, Ipv4Addr(203, 0, 113, 80), 80);
  nf.run(net::Hook::kPrerouting, c1, "wlan0", "", Ipv4Addr());
  nf.run(net::Hook::kPrerouting, c2, "wlan0", "", Ipv4Addr());
  EXPECT_EQ(nf.conntrack_size(), 2u);

  // Replies unwind to the right client.
  auto r1 = make(Ipv4Addr(10, 0, 0, 200), 10101, Ipv4Addr(10, 0, 0, 77), 40001);
  auto r2 = make(Ipv4Addr(10, 0, 0, 200), 10101, Ipv4Addr(10, 0, 0, 78), 40002);
  nf.run(net::Hook::kPostrouting, r1, "", "wlan0", Ipv4Addr());
  nf.run(net::Hook::kPostrouting, r2, "", "wlan0", Ipv4Addr());
  EXPECT_EQ(r1.src, Ipv4Addr(203, 0, 113, 80));
  EXPECT_EQ(r2.src, Ipv4Addr(203, 0, 113, 80));
  EXPECT_EQ(r1.dst, Ipv4Addr(10, 0, 0, 77));
  EXPECT_EQ(r2.dst, Ipv4Addr(10, 0, 0, 78));
}

// ---- Wireless failure injection ------------------------------------------------------

TEST(WirelessHardening, DownloadSurvivesLossyAir) {
  // 15% extra air loss: TCP grinds through; outcome stays correct.
  scenario::CorpConfig cfg;
  cfg.seed = 77;
  cfg.medium.base_loss_prob = 0.15;
  scenario::CorpWorld world(cfg);
  world.start();
  world.run_for(8 * sim::kSecond);
  ASSERT_TRUE(world.victim_sta().associated());
  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(120 * sim::kSecond);
  ASSERT_TRUE(outcome.file_fetched) << outcome.error;
  EXPECT_TRUE(outcome.md5_verified);
  EXPECT_EQ(outcome.fetched_md5_hex, world.kit().release_md5());
}

TEST(WirelessHardening, ApRestartRecoversClients) {
  sim::Simulator sim{131};
  phy::Medium medium(sim);
  dot11::ApConfig apc;
  apc.ssid = "CORP";
  apc.bssid = MacAddr::from_id(0xA9);
  apc.channel = 1;
  dot11::AccessPoint ap(sim, medium, apc);
  ap.radio().set_position({3, 0});
  dot11::StationConfig stc;
  stc.mac = MacAddr::from_id(0x51);
  stc.target_ssid = "CORP";
  stc.scan_channels = {1};
  dot11::Station sta(sim, medium, stc);

  ap.start();
  sta.start();
  sim.run_until(2 * sim::kSecond);
  ASSERT_TRUE(sta.associated());

  ap.stop();
  sim.run_until(5 * sim::kSecond);
  EXPECT_FALSE(sta.associated());
  ap.start();
  sim.run_until(9 * sim::kSecond);
  EXPECT_TRUE(sta.associated());
  EXPECT_GE(sta.counters().associations, 2u);
}

// ---- Wired MITM baseline (§1.2): ARP spoofing -----------------------------------

TEST(ArpSpoof, PoisonsVictimAndInterceptsTransparently) {
  // victim --switch-- {gateway -> far LAN server, attacker}. The attacker
  // poisons the victim's gateway entry; traffic flows through it (with
  // ip_forward) and keeps working — the classic wired MITM the paper
  // contrasts with the far easier wireless variant.
  sim::Simulator sim{161};
  net::Switch lan(sim);
  net::Switch far_lan(sim);

  net::Host gateway(sim, "gateway");
  gateway.add_wired("eth0", lan, MacAddr::from_id(0x1));
  gateway.add_wired("eth1", far_lan, MacAddr::from_id(0x2));
  gateway.configure("eth0", Ipv4Addr(10, 0, 0, 1), 24);
  gateway.configure("eth1", Ipv4Addr(10, 0, 1, 1), 24);
  gateway.set_ip_forward(true);

  net::Host server(sim, "server");
  server.add_wired("eth0", far_lan, MacAddr::from_id(0x5));
  server.configure("eth0", Ipv4Addr(10, 0, 1, 80), 24);
  server.routes().add_default(Ipv4Addr(10, 0, 1, 1), "eth0");

  net::Host victim(sim, "victim");
  victim.add_wired("eth0", lan, MacAddr::from_id(0x77));
  victim.configure("eth0", Ipv4Addr(10, 0, 0, 77), 24);
  victim.routes().add_default(Ipv4Addr(10, 0, 0, 1), "eth0");

  net::Host attacker(sim, "attacker");
  attacker.add_wired("eth0", lan, MacAddr::from_id(0xBAD));
  attacker.configure("eth0", Ipv4Addr(10, 0, 0, 66), 24);
  attacker.routes().add_default(Ipv4Addr(10, 0, 0, 1), "eth0");
  attacker.set_ip_forward(true);
  std::uint64_t intercepted = 0;
  attacker.set_tap([&](std::string_view point, const net::Ipv4Packet& p,
                       std::string_view) {
    if (point == "fwd" && p.src == Ipv4Addr(10, 0, 0, 77)) ++intercepted;
  });

  // Seed the victim's cache legitimately first (a fresh cache would just
  // resolve the real gateway).
  std::optional<sim::Time> rtt;
  victim.ping(Ipv4Addr(10, 0, 1, 80), [&](std::optional<sim::Time> r) { rtt = r; });
  sim.run_until(2 * sim::kSecond);
  ASSERT_TRUE(rtt.has_value());

  attack::ArpSpoofer spoofer(attacker, "eth0", Ipv4Addr(10, 0, 0, 77),
                             MacAddr::from_id(0x77), Ipv4Addr(10, 0, 0, 1));
  spoofer.start();
  sim.run_until(3 * sim::kSecond);

  // The victim's gateway entry now points at the attacker...
  const auto mac = victim.arp("eth0").lookup(Ipv4Addr(10, 0, 0, 1));
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(*mac, MacAddr::from_id(0xBAD));

  // ...and traffic still works, now transiting the attacker.
  rtt.reset();
  victim.ping(Ipv4Addr(10, 0, 1, 80), [&](std::optional<sim::Time> r) { rtt = r; });
  sim.run_until(5 * sim::kSecond);
  EXPECT_TRUE(rtt.has_value());
  EXPECT_GT(intercepted, 0u);
}

// ---- Link capacity -------------------------------------------------------------

TEST(LinkCapacity, FiniteBandwidthStretchesTransfers) {
  // The same 100 KiB TCP transfer over a 100 Mb/s vs a 1 Mb/s segment:
  // completion time must scale roughly with the serialization rate.
  auto run = [](double bps) {
    sim::Simulator sim{151};
    net::LossyHub link(sim, 0.0, 5, bps);
    net::Host a(sim, "a");
    a.add_wired("eth0", link, MacAddr::from_id(1));
    a.configure("eth0", Ipv4Addr(10, 0, 0, 1), 24);
    net::Host b(sim, "b");
    b.add_wired("eth0", link, MacAddr::from_id(2));
    b.configure("eth0", Ipv4Addr(10, 0, 0, 2), 24);
    std::size_t received = 0;
    b.tcp_listen(80, [&](net::TcpConnectionPtr c) {
      c->set_on_data([&](util::ByteView d) { received += d.size(); });
    });
    util::Bytes payload(100 * 1024);
    util::Prng rng(1);
    rng.fill(payload);
    sim::Time done_at = 0;
    auto conn = a.tcp_connect(Ipv4Addr(10, 0, 0, 2), 80);
    conn->set_on_connect([&, conn] { conn->send(payload); });
    std::function<void()> poll = [&] {
      if (received >= payload.size()) {
        done_at = sim.now();
        return;
      }
      sim.after(10'000, poll);
    };
    sim.after(10'000, poll);
    sim.run_until(200 * sim::kSecond);
    EXPECT_EQ(received, payload.size());
    return done_at;
  };
  const sim::Time fast = run(100e6);
  const sim::Time slow = run(1e6);
  ASSERT_GT(fast, 0u);
  ASSERT_GT(slow, 0u);
  // 100 KiB at 1 Mb/s is ~0.84 s minimum (data alone, one direction).
  EXPECT_GT(slow, 800 * sim::kMillisecond);
  EXPECT_GT(static_cast<double>(slow) / static_cast<double>(fast), 10.0);
}

TEST(LinkCapacity, QueueingDelayUnderBurst) {
  // Burst 50 frames into a 1 Mb/s hub at one instant: the last frame's
  // delivery must lag the first by the serialization time of the queue.
  sim::Simulator sim{152};
  net::LossyHub link(sim, 0.0, 5, 1e6);
  net::SegmentPort tx(link, "tx");
  net::SegmentPort rx(link, "rx");
  std::vector<sim::Time> arrivals;
  rx.set_rx([&](const net::L2Frame&) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 50; ++i) {
    tx.send(net::L2Frame{MacAddr::from_id(2), MacAddr::from_id(1), 0x0800,
                         util::Bytes(1000)});
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 50u);
  // Each 1018-byte frame occupies ~8.1 ms of the 1 Mb/s wire.
  EXPECT_GT(arrivals.back() - arrivals.front(), 300 * sim::kMillisecond);
}

}  // namespace
}  // namespace rogue

