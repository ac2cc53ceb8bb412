// EXP-F3 (Figure 3 + §5): the VPN countermeasure under active attack.
//
// Same hostile world as EXP-F2 (victim captured by the rogue). Measures,
// with and without the tunnel: trojan installation rate, bytes of
// application plaintext the rogue-side observer can read, flows through
// the rogue's netsed, and whether a rogue that terminates the VPN itself
// can pass endpoint authentication.
#include <cstdio>

#include "attack/sniffer.hpp"
#include "exp_common.hpp"
#include "util/fmt.hpp"
#include "scenario/corp_world.hpp"
#include "vpn/client.hpp"

using namespace rogue;

namespace {

struct Outcome {
  bool usable = false;
  bool trojaned = false;
  bool verified = false;
  std::uint64_t rogue_plaintext_bytes = 0;  ///< HTTP-looking bytes observable
  std::uint64_t netsed_connections = 0;
};

Outcome run_trial(std::uint64_t seed, bool use_vpn, vpn::Transport transport) {
  scenario::CorpConfig cfg;
  cfg.seed = seed;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.vpn_transport = transport;
  scenario::CorpWorld world(cfg);
  world.start();
  world.run_for(3 * sim::kSecond);
  world.deploy_rogue();
  world.start_deauth_forcing();
  world.run_for(15 * sim::kSecond);
  if (!world.victim_on_rogue()) return {};

  // Insider-grade observer on the rogue channel (holds the WEP key, like
  // the rogue itself): counts application plaintext it can recover.
  attack::SnifferConfig sc;
  sc.channel = cfg.rogue_channel;
  sc.wep_key = cfg.wep_key;
  attack::Sniffer observer(world.sim(), world.medium(), sc);
  observer.radio().set_position({2.0, 2.0});
  std::uint64_t http_bytes = 0;
  observer.set_msdu_handler([&](net::MacAddr, net::MacAddr, std::uint16_t,
                                util::ByteView payload) {
    const std::string text = util::to_string(payload);
    if (text.find("HTTP/1.0") != std::string::npos ||
        text.find("href=") != std::string::npos ||
        text.find("GET ") != std::string::npos) {
      http_bytes += payload.size();
    }
  });

  if (use_vpn) {
    bool ok = false;
    world.kit().connect_vpn([&](bool r) { ok = r; });
    world.run_for(10 * sim::kSecond);
    if (!ok) return {};
  }

  apps::DownloadOutcome outcome;
  bool done = false;
  world.kit().download([&](const apps::DownloadOutcome& o) {
    outcome = o;
    done = true;
  });
  world.run_for(90 * sim::kSecond);
  if (!done || !outcome.file_fetched) return {};

  Outcome r;
  r.usable = true;
  r.trojaned = outcome.fetched_md5_hex == world.kit().trojan_md5();
  r.verified = outcome.md5_verified;
  r.rogue_plaintext_bytes = http_bytes;
  r.netsed_connections = world.rogue()->netsed().stats().connections;
  return r;
}

}  // namespace

int main() {
  bench::print_header("EXP-F3", "VPN countermeasure vs the rogue MITM",
                      "Figure 3; §5 \"require the wireless client to VPN all "
                      "traffic\"");
  bench::print_expectation(
      "without VPN: trojan installed, rogue reads the whole HTTP exchange. "
      "with VPN (either transport): zero tampering, zero readable plaintext, "
      "zero netsed flows; a rogue terminating the VPN fails authentication");

  constexpr std::size_t kTrials = 12;

  struct Condition {
    const char* name;
    bool vpn;
    vpn::Transport transport;
  };
  const Condition conditions[] = {
      {"no VPN", false, vpn::Transport::kTcp},
      {"VPN, TCP transport (PPP-over-SSH style)", true, vpn::Transport::kTcp},
      {"VPN, UDP transport (IPsec style)", true, vpn::Transport::kUdp},
  };

  util::Table table({"condition", "usable trials", "trojaned", "deceived",
                     "rogue-readable HTTP bytes (mean)", "netsed flows (mean)"});
  std::uint64_t seed_base = 3000;
  for (const auto& cond : conditions) {
    const auto results = bench::run_trials<Outcome>(
        kTrials,
        [&](std::uint64_t seed) {
          return run_trial(seed, cond.vpn, cond.transport);
        },
        seed_base);
    seed_base += 1000;

    std::vector<bool> trojaned;
    std::vector<bool> deceived;
    util::Summary plaintext;
    util::Summary flows;
    std::size_t usable = 0;
    for (const auto& r : results) {
      if (!r.usable) continue;
      ++usable;
      trojaned.push_back(r.trojaned);
      deceived.push_back(r.trojaned && r.verified);
      plaintext.add(static_cast<double>(r.rogue_plaintext_bytes));
      flows.add(static_cast<double>(r.netsed_connections));
    }
    table.add_row({cond.name, util::format("{}/{}", usable, kTrials),
                   util::fmt_percent(bench::fraction(trojaned)),
                   util::fmt_percent(bench::fraction(deceived)),
                   usable ? util::fmt_double(plaintext.mean(), 0) : "n/a",
                   usable ? util::fmt_double(flows.mean(), 2) : "n/a"});
  }
  table.print();

  // ---- Endpoint authentication: rogue-terminated VPN -------------------------
  // §5.2.1: a hotspot/rogue-provided VPN endpoint is worthless — here the
  // rogue hijacks the VPN port itself, but cannot produce the PSK MAC.
  std::printf("\nEndpoint authentication (rogue DNATs the VPN port to itself):\n");
  std::size_t rejected = 0;
  constexpr std::size_t kAuthTrials = 8;
  for (std::size_t i = 0; i < kAuthTrials; ++i) {
    scenario::CorpConfig cfg;
    cfg.seed = 12000 + i;
    cfg.victim_to_legit_m = 20.0;
    cfg.victim_to_rogue_m = 4.0;
    scenario::CorpWorld world(cfg);
    world.start();
    world.run_for(3 * sim::kSecond);
    auto& rogue_gw = world.deploy_rogue();
    world.start_deauth_forcing();
    world.run_for(15 * sim::kSecond);
    if (!world.victim_on_rogue()) continue;

    // The rogue hijacks VPN traffic: DNAT endpoint:7000 -> rogue:7000 and
    // stands up its own endpoint with a guessed PSK.
    net::Rule hijack;
    hijack.match.protocol = net::kProtoTcp;
    hijack.match.dst = world.addr().vpn_endpoint;
    hijack.match.dport = world.addr().vpn_port;
    hijack.target = net::RuleTarget::kDnat;
    hijack.nat_ip = rogue_gw.config().wlan_ip;
    rogue_gw.host().netfilter().append(net::Hook::kPrerouting, hijack);
    vpn::EndpointConfig fake;
    fake.psk = util::to_bytes("attacker-does-not-know-the-psk");
    fake.port = world.addr().vpn_port;
    fake.snat_to_wire = false;
    fake.egress_ifname = "eth1";
    vpn::Endpoint fake_endpoint(rogue_gw.host(), fake);
    fake_endpoint.start();

    bool ok = true;
    bool done = false;
    world.kit().connect_vpn([&](bool r) {
      ok = r;
      done = true;
    });
    world.run_for(15 * sim::kSecond);
    if (done && !ok) ++rejected;
  }
  std::printf("  client rejected the rogue-terminated VPN in %zu/%zu attempts\n",
              rejected, kAuthTrials);
  std::printf("  (§5.2 req. 2: \"authentication information preestablished\")\n");
  return 0;
}
