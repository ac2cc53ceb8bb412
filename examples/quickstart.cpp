// Quickstart: build the paper's corporate network (Figure 1), deploy the
// rogue access point, force the victim onto it, and watch the software
// download get trojaned with a forged MD5SUM (Figure 2) — then repeat
// with the VPN countermeasure (Figure 3).
//
//   $ ./quickstart
#include <cstdio>

#include "scenario/corp_world.hpp"
#include "util/stats.hpp"

using namespace rogue;

namespace {

void report(const char* label, const apps::DownloadOutcome& outcome,
            const scenario::CorpWorld& world) {
  std::printf("\n=== %s ===\n", label);
  std::printf("  page fetched:   %s\n", outcome.page_fetched ? "yes" : "no");
  std::printf("  file fetched:   %s\n", outcome.file_fetched ? "yes" : "no");
  std::printf("  published MD5:  %s\n", outcome.published_md5_hex.c_str());
  std::printf("  downloaded MD5: %s\n", outcome.fetched_md5_hex.c_str());
  std::printf("  checksum check: %s\n",
              outcome.md5_verified ? "PASSED (victim reassured)" : "FAILED");
  std::printf("  served from:    %s\n", outcome.fetched_from.to_string().c_str());
  const bool trojaned = outcome.fetched_md5_hex == world.kit().trojan_md5();
  std::printf("  verdict:        %s\n",
              trojaned ? "*** TROJANED BINARY INSTALLED ***"
                       : "genuine release");
}

}  // namespace

int main() {
  std::printf("Countering Rogues in Wireless Networks — quickstart\n");
  std::printf("---------------------------------------------------\n");

  // --- Phase 1: clean network ------------------------------------------------
  {
    scenario::CorpWorld world;
    world.start();
    world.run_for(5 * sim::kSecond);
    std::printf("victim associated to legit AP: %s\n",
                world.victim_sta().associated() ? "yes" : "no");

    apps::DownloadOutcome outcome;
    world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
    world.run_for(30 * sim::kSecond);
    report("Baseline (no attack)", outcome, world);
  }

  // --- Phase 2: Figures 1+2 — the rogue AP MITM ------------------------------
  {
    scenario::CorpConfig cfg;
    cfg.victim_to_legit_m = 20.0;  // rogue parks closer to the victim
    cfg.victim_to_rogue_m = 4.0;
    cfg.deauth_forcing = true;
    scenario::CorpWorld world(cfg);

    std::printf("\nDeploying rogue AP: SSID CORP, cloned BSSID %s, channel %d, "
                "same WEP key\n",
                world.legit_bssid().to_string().c_str(),
                static_cast<int>(cfg.rogue_channel));
    world.run_capture_phase();
    std::printf("victim captured by rogue: %s\n",
                world.victim_on_rogue() ? "yes" : "no");

    apps::DownloadOutcome outcome;
    world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
    world.run_for(60 * sim::kSecond);
    report("Figure 2: download MITM", outcome, world);
    std::printf("  netsed rewrites: %llu\n",
                static_cast<unsigned long long>(
                    world.rogue()->netsed().stats().replacements));
  }

  // --- Phase 3: Figure 3 — VPN all traffic ------------------------------------
  {
    scenario::CorpConfig cfg;
    cfg.victim_to_legit_m = 20.0;
    cfg.victim_to_rogue_m = 4.0;
    cfg.deauth_forcing = true;
    scenario::CorpWorld world(cfg);
    world.run_capture_phase();

    bool vpn_ok = false;
    world.kit().connect_vpn([&](bool ok) { vpn_ok = ok; });
    world.run_for(10 * sim::kSecond);
    std::printf("\nVPN tunnel (victim -> trusted wired endpoint): %s\n",
                vpn_ok ? "established, endpoint authenticated" : "FAILED");

    apps::DownloadOutcome outcome;
    world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
    world.run_for(60 * sim::kSecond);
    report("Figure 3: same attack, with VPN", outcome, world);
    std::printf("  flows seen by rogue's netsed: %llu\n",
                static_cast<unsigned long long>(
                    world.rogue()->netsed().stats().connections));
  }

  std::printf("\nConclusion (paper, §5): tunnel ALL traffic to a trusted,\n"
              "pre-authenticated endpoint on a secure wired network.\n");
  return 0;
}
