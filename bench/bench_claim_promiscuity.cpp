// EXP-C5 (§3.2 "network promiscuity" + §1.2.2 hostile hotspots):
//
// A mobile client visits K hotspot domains; each is hostile with
// probability p. At every visit it downloads the release (and installs
// whatever verifies). Compromise probability vs K, with and without the
// always-on home VPN — the paper's argument that "a partial fix, or fix
// at home, will not solve the problem" but VPN-everywhere does.
#include <cmath>
#include <cstdio>

#include "exp_common.hpp"
#include "scenario/hotspot.hpp"
#include "util/fmt.hpp"

using namespace rogue;

namespace {

/// One hotspot visit: returns {usable, compromised}.
struct VisitOutcome {
  bool usable = false;
  bool compromised = false;
};

VisitOutcome visit_hotspot(std::uint64_t seed, bool hostile, bool use_vpn) {
  scenario::HotspotConfig cfg;
  cfg.seed = seed;
  cfg.hostile = hostile;
  scenario::HotspotWorld world(cfg);
  world.start();
  world.run_for(5 * sim::kSecond);
  if (!world.client_sta().associated()) return {};

  if (use_vpn) {
    bool ok = false;
    world.kit().connect_vpn([&](bool r) { ok = r; });
    world.run_for(10 * sim::kSecond);
    if (!ok) return {};  // VPN policy: no tunnel, no traffic
  }

  apps::DownloadOutcome outcome;
  bool done = false;
  world.kit().download([&](const apps::DownloadOutcome& o) {
    outcome = o;
    done = true;
  });
  world.run_for(40 * sim::kSecond);
  if (!done || !outcome.file_fetched) return {};

  VisitOutcome v;
  v.usable = true;
  // The client installs anything whose checksum verifies.
  v.compromised = outcome.md5_verified &&
                  outcome.fetched_md5_hex == world.kit().trojan_md5();
  return v;
}

}  // namespace

int main() {
  bench::print_header("EXP-C5", "network promiscuity: roaming across domains",
                      "§3.2 \"a type of network promiscuity\"; §1.2.2 hostile "
                      "hotspots; §2.4 \"a partial fix, or fix at home, will "
                      "not solve the problem\"");
  bench::print_expectation(
      "without VPN, P(compromise) -> 1 - (1-p)^K as visits accumulate; with "
      "the always-on home VPN it stays at zero regardless of K");

  constexpr double kHostileProb = 0.25;  // fraction of hostile domains
  constexpr std::size_t kClients = 12;   // roaming clients simulated per row

  util::Table table({"visits K", "hostile domains met (mean)",
                     "compromised, no VPN", "compromised, VPN",
                     "1-(1-p)^K (model)"});
  for (const std::size_t visits : {1u, 2u, 4u, 8u}) {
    struct ClientOutcome {
      bool compromised_novpn = false;
      bool compromised_vpn = false;
      int hostile_met = 0;
    };
    const auto clients = bench::run_trials<ClientOutcome>(
        kClients,
        [&](std::uint64_t seed) {
          ClientOutcome c;
          util::Prng itinerary(seed);  // which domains are hostile
          for (std::size_t k = 0; k < visits; ++k) {
            const bool hostile = itinerary.chance(kHostileProb);
            if (hostile) ++c.hostile_met;
            const auto plain = visit_hotspot(seed * 100 + k, hostile, false);
            if (plain.usable && plain.compromised) c.compromised_novpn = true;
            const auto vpn = visit_hotspot(seed * 100 + 50 + k, hostile, true);
            if (vpn.usable && vpn.compromised) c.compromised_vpn = true;
          }
          return c;
        },
        40'000 + visits * 1000);

    std::vector<bool> no_vpn;
    std::vector<bool> with_vpn;
    util::Summary hostile_met;
    for (const auto& c : clients) {
      no_vpn.push_back(c.compromised_novpn);
      with_vpn.push_back(c.compromised_vpn);
      hostile_met.add(c.hostile_met);
    }
    const double model = 1.0 - std::pow(1.0 - kHostileProb, static_cast<double>(visits));
    table.add_row({std::to_string(visits), util::fmt_double(hostile_met.mean(), 2),
                   util::fmt_percent(bench::fraction(no_vpn)),
                   util::fmt_percent(bench::fraction(with_vpn)),
                   util::fmt_percent(model)});
  }
  table.print();

  std::printf("\n§3.2: once compromised at one domain, the client \"brings that\n"
              "threat to any other network it encounters\" — including the\n"
              "ultra-secure home network (§2.4).\n");
  return 0;
}
