// EXP-X1 (extension; §2.1-§2.2 ablation): does upgrading the link layer
// stop the rogue?
//
// The same full attack (rogue + deauth forcing + download MITM) runs
// against three corporate WLAN configurations: open, WEP (the paper's
// setting), and WPA-PSK (the paper's "interim solution"). In every case
// the attacker holds the network credentials — exactly the §2.2 point:
// "TKIP still relies on a pre shared key, thus is still vulnerable to
// MITM attack from valid network clients." A second table shows what
// each mode costs a *credential-less* outsider, where WPA genuinely
// improves on WEP (no FMS, no replay, no insider-free decryption).
#include <cstdio>

#include "attack/sniffer.hpp"
#include "exp_common.hpp"
#include "scenario/corp_world.hpp"
#include "util/fmt.hpp"

using namespace rogue;

namespace {

struct Outcome {
  bool usable = false;
  bool captured = false;
  bool deceived = false;
  std::uint64_t outsider_plaintext = 0;  ///< bytes readable w/o credentials
};

Outcome run_trial(std::uint64_t seed, dot11::SecurityMode mode) {
  scenario::CorpConfig cfg;
  cfg.seed = seed;
  cfg.security = mode;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  scenario::CorpWorld world(cfg);
  world.start();
  world.run_for(3 * sim::kSecond);

  // Credential-less outsider parked on the rogue channel.
  attack::SnifferConfig sc;
  sc.channel = cfg.rogue_channel;
  attack::Sniffer outsider(world.sim(), world.medium(), sc);
  outsider.radio().set_position({2, 2});
  std::uint64_t readable = 0;
  outsider.set_msdu_handler(
      [&](net::MacAddr, net::MacAddr, std::uint16_t et, util::ByteView p) {
        if (et == dot11::kEtherTypeIpv4) readable += p.size();
      });

  world.deploy_rogue();
  world.start_deauth_forcing();
  world.run_for(15 * sim::kSecond);

  Outcome out;
  // "Captured" here means the victim has a *working data path* through
  // the rogue. Under kEap the victim may associate briefly but the rogue
  // cannot complete the handshake, so the path never opens and the
  // victim blocklists it.
  out.captured = world.victim_on_rogue() && world.victim_sta().ready();
  if (!out.captured) return out;

  apps::DownloadOutcome dl;
  bool done = false;
  world.kit().download([&](const apps::DownloadOutcome& o) {
    dl = o;
    done = true;
  });
  world.run_for(90 * sim::kSecond);
  if (!done || !dl.file_fetched) return out;

  out.usable = true;
  out.deceived = dl.md5_verified && dl.fetched_md5_hex == world.kit().trojan_md5();
  out.outsider_plaintext = readable;
  return out;
}

}  // namespace

int main() {
  bench::print_header("EXP-X1", "link-layer security mode vs the rogue attack",
                      "§2.1 WEP; §2.2 802.1x/WPA \"interim solution\" "
                      "(extension beyond the paper's testbed)");
  bench::print_expectation(
      "capture + deception rates are flat across open/WEP/WPA-PSK — the "
      "rogue holds the shared credentials in all three. Per-client 802.1X "
      "keys finally break the attack: the rogue cannot prove knowledge of "
      "the victim's credential, the handshake stalls, and the victim "
      "blocklists the rogue BSS");

  constexpr std::size_t kTrials = 10;

  struct ModeRow {
    const char* name;
    dot11::SecurityMode mode;
  };
  const ModeRow modes[] = {
      {"open (no privacy)", dot11::SecurityMode::kOpen},
      {"WEP-104 shared key (paper)", dot11::SecurityMode::kWep},
      {"WPA-PSK (the 2.2 upgrade)", dot11::SecurityMode::kWpaPsk},
      {"802.1X per-client keys (mutual auth)", dot11::SecurityMode::kEap},
  };

  util::Table table({"corporate WLAN mode", "victim captured",
                     "victim deceived (trojan+forged md5)",
                     "outsider-readable bytes (mean)"});
  std::uint64_t seed = 8000;
  for (const auto& m : modes) {
    const auto results = bench::run_trials<Outcome>(
        kTrials, [&](std::uint64_t s) { return run_trial(s, m.mode); }, seed);
    seed += 500;
    std::vector<bool> captured;
    std::vector<bool> deceived;
    util::Summary outsider;
    for (const auto& r : results) {
      captured.push_back(r.captured);
      if (r.usable) {
        deceived.push_back(r.deceived);
        outsider.add(static_cast<double>(r.outsider_plaintext));
      }
    }
    table.add_row({m.name, util::fmt_percent(bench::fraction(captured)),
                   util::fmt_percent(bench::fraction(deceived)),
                   outsider.count() ? util::fmt_double(outsider.mean(), 0) : "n/a"});
  }
  table.print();

  std::printf("\nReading: the security mode changes who can *listen in from\n"
              "outside*, not whether a credentialed rogue can own the client.\n"
              "Only network authentication (802.11i/802.1X-EAP, out of the\n"
              "paper's scope) or the paper's VPN policy addresses the latter.\n");
  return 0;
}
