// Administrator walk-through: detecting the rogue AP with the paper's
// §2.3 techniques — a radio site audit (BSS census vs. inventory), the
// 802.11 sequence-control monitor, and a wired-side MAC census.
//
//   $ ./hotspot_audit
#include <cstdio>

#include "detect/seqnum.hpp"
#include "detect/site_audit.hpp"
#include "detect/wired_monitor.hpp"
#include "scenario/corp_world.hpp"
#include "util/stats.hpp"

using namespace rogue;

int main() {
  std::printf("Rogue AP detection walk-through (paper section 2.3)\n");
  std::printf("----------------------------------------------------\n\n");

  scenario::CorpConfig cfg;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.deauth_forcing = true;
  cfg.capture_window = 10 * sim::kSecond;
  scenario::CorpWorld world(cfg);
  world.start();

  // Wired-side census starts with the known inventory: infrastructure
  // MACs and registered clients. The rogue's uplink uses a *sniffed staff
  // MAC*, which the inventory lists too — but the corp gateway and VPN
  // endpoint are known, so anything else is a finding.
  detect::WiredMonitor wired(world.sim(), world.corp_lan(),
                             {world.victim_mac(), world.legit_bssid(),
                              world.corp_gw().interface("lan0")->mac(),
                              world.vpn_host().interface("eth0")->mac()});

  // Sequence-control monitor parked on the corporate channel.
  detect::SeqNumMonitor& seq_monitor = world.enable_detection();

  world.run_capture_phase();
  std::printf("[t=%3.0fs] rogue deployed; victim on rogue: %s\n",
              static_cast<double>(world.sim().now()) / 1e6,
              world.victim_on_rogue() ? "yes" : "no");

  // The victim browses, so the rogue's uplink traffic crosses the wire.
  world.kit().download([](const apps::DownloadOutcome&) {});
  world.run_for(30 * sim::kSecond);

  // --- Radio site audit -------------------------------------------------------
  attack::SnifferConfig sc;
  sc.hop_channels = {cfg.legit_channel, cfg.rogue_channel};
  sc.hop_dwell = 300'000;
  attack::Sniffer auditor(world.sim(), world.medium(), sc);
  auditor.radio().set_position({8, 8});
  world.run_for(4 * sim::kSecond);

  detect::SiteAudit audit({{"CORP", world.legit_bssid(), cfg.legit_channel}});
  const auto census = auditor.observed_bss();

  util::Table census_table({"SSID", "BSSID", "channel", "privacy", "beacons"});
  for (const auto& bss : census) {
    census_table.add_row({bss.ssid, bss.bssid.to_string(),
                          std::to_string(static_cast<int>(bss.channel)),
                          bss.privacy ? "WEP" : "open",
                          std::to_string(bss.beacons)});
  }
  std::printf("\nRadio site audit census:\n");
  census_table.print();

  std::printf("\nFindings vs. authorized inventory:\n");
  for (const auto& finding : audit.evaluate(census)) {
    const char* kind = "?";
    switch (finding.kind) {
      case detect::AuditFindingKind::kUnknownBssid: kind = "UNKNOWN BSSID on our SSID"; break;
      case detect::AuditFindingKind::kClonedBssidWrongChannel:
        kind = "OUR BSSID CLONED on an unauthorized channel"; break;
      case detect::AuditFindingKind::kUnknownSsid: kind = "foreign SSID (info)"; break;
      case detect::AuditFindingKind::kPrivacyMismatch: kind = "privacy mismatch"; break;
    }
    std::printf("  [%s] ssid=%s bssid=%s ch=%d\n", kind, finding.bss.ssid.c_str(),
                finding.bss.bssid.to_string().c_str(),
                static_cast<int>(finding.bss.channel));
  }
  std::printf("  => rogue detected: %s\n",
              audit.rogue_detected(census) ? "YES" : "no");

  // --- Sequence-control anomalies ---------------------------------------------
  std::printf("\nSequence-control monitor (channel %d): %zu anomalies, suspects:\n",
              static_cast<int>(cfg.legit_channel), seq_monitor.alerts().size());
  for (const auto& mac : seq_monitor.suspects()) {
    std::printf("  %s %s\n", mac.to_string().c_str(),
                mac == world.legit_bssid() ? "(our AP's identity — being forged!)"
                                           : "");
  }

  // --- Wired-side census --------------------------------------------------------
  std::printf("\nWired monitor (%llu frames observed): "
              "%zu unregistered MAC(s) active on the LAN:\n",
              static_cast<unsigned long long>(wired.frames_observed()),
              wired.unknown_macs().size());
  for (const auto& finding : wired.unknown_macs()) {
    std::printf("  %s first seen t=%.1fs\n", finding.mac.to_string().c_str(),
                static_cast<double>(finding.time) / 1e6);
  }
  std::printf("\nNote (paper §1.2.1): detection protects the *network*; the\n"
              "roaming client is only protected by its own VPN policy.\n");
  return 0;
}
