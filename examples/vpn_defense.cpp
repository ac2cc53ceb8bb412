// Figure 3: the VPN countermeasure in detail — what the rogue can and
// cannot see once the victim tunnels all traffic to a trusted endpoint,
// plus the endpoint-authentication property (§5.2) that stops a rogue
// from simply terminating the VPN itself.
//
//   $ ./vpn_defense [--udp]
#include <cstdio>
#include <cstring>

#include "attack/sniffer.hpp"
#include "scenario/corp_world.hpp"

using namespace rogue;

int main(int argc, char** argv) {
  const bool udp = argc > 1 && std::strcmp(argv[1], "--udp") == 0;

  scenario::CorpConfig cfg;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.deauth_forcing = true;
  cfg.vpn_transport = udp ? vpn::Transport::kUdp : vpn::Transport::kTcp;
  scenario::CorpWorld world(cfg);

  std::printf("VPN countermeasure demo (paper section 5), transport: %s\n\n",
              udp ? "UDP (IPsec-style)" : "TCP (PPP-over-SSH-style)");

  world.run_capture_phase();
  std::printf("[1] victim captured by rogue AP: %s\n",
              world.victim_on_rogue() ? "yes" : "no");

  // An insider-grade sniffer (has the WEP key) watches the rogue channel:
  // everything WEP carries it can read — unless the VPN wraps it first.
  attack::SnifferConfig sc;
  sc.channel = cfg.rogue_channel;
  sc.wep_key = cfg.wep_key;
  attack::Sniffer sniffer(world.sim(), world.medium(), sc);
  sniffer.radio().set_position({2, 2});
  std::uint64_t http_plaintext_bytes = 0;
  sniffer.set_msdu_handler([&](net::MacAddr, net::MacAddr, std::uint16_t,
                               util::ByteView payload) {
    const std::string text = util::to_string(payload);
    if (text.find("HTTP/1.0") != std::string::npos ||
        text.find("href=") != std::string::npos) {
      http_plaintext_bytes += payload.size();
    }
  });

  std::printf("[2] establishing VPN to %s:%u (endpoint on the trusted wire)\n",
              world.addr().vpn_endpoint.to_string().c_str(),
              world.addr().vpn_port);
  bool vpn_ok = false;
  world.kit().connect_vpn([&](bool ok) { vpn_ok = ok; });
  world.run_for(10 * sim::kSecond);
  std::printf("      established:            %s\n", vpn_ok ? "yes" : "NO");
  std::printf("      endpoint authenticated: %s (PSK transcript MAC)\n",
              world.kit().tunnel()->server_authenticated() ? "yes" : "no");
  std::printf("      tunnel address:         %s\n",
              world.kit().tunnel()->tunnel_ip().to_string().c_str());
  std::printf("      default route now via:  tun0 (ALL traffic, per §5.2 req. 4)\n");

  std::printf("[3] victim downloads through the hostile path...\n");
  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(60 * sim::kSecond);

  std::printf("\n--- results -------------------------------------------------\n");
  std::printf("  downloaded MD5:            %s\n", outcome.fetched_md5_hex.c_str());
  std::printf("  genuine release MD5:       %s\n", world.kit().release_md5().c_str());
  std::printf("  checksum verification:     %s\n",
              outcome.md5_verified ? "OK" : "MISMATCH");
  std::printf("  binary is genuine:         %s\n",
              outcome.fetched_md5_hex == world.kit().release_md5() ? "YES" : "no");
  std::printf("  rogue netsed connections:  %llu (nothing to grab)\n",
              static_cast<unsigned long long>(
                  world.rogue()->netsed().stats().connections));
  std::printf("  sniffer HTTP plaintext:    %llu bytes (tunnel showed it none)\n",
              static_cast<unsigned long long>(http_plaintext_bytes));
  std::printf("  VPN records sealed/opened: %llu / %llu\n",
              static_cast<unsigned long long>(
                  world.kit().tunnel()->counters().records_out),
              static_cast<unsigned long long>(
                  world.kit().tunnel()->counters().records_in));
  return 0;
}
