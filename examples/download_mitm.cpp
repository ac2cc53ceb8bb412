// Figure 2 in detail: the software-download MITM, step by step, with the
// exact mechanism of §4.1 — proxy-ARP bridging, the Netfilter DNAT rule,
// and netsed's two string rewrites — narrated with live state dumps.
//
//   $ ./download_mitm [--streaming]
#include <cstdio>
#include <cstring>

#include "scenario/corp_world.hpp"

using namespace rogue;

int main(int argc, char** argv) {
  const bool streaming = argc > 1 && std::strcmp(argv[1], "--streaming") == 0;

  scenario::CorpConfig cfg;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.netsed_mode =
      streaming ? apps::NetsedMode::kStreaming : apps::NetsedMode::kPerSegment;
  scenario::CorpWorld world(cfg);

  std::printf("Software download MITM (paper section 4.1)\n");
  std::printf("netsed matching mode: %s\n\n",
              streaming ? "streaming (cross-segment fix)" : "per-segment (historic)");

  world.start();
  world.run_for(3 * sim::kSecond);
  std::printf("[1] victim %s associated to CORP (bssid %s, ch %d)\n",
              world.victim_mac().to_string().c_str(),
              world.victim_sta().bss().bssid.to_string().c_str(),
              static_cast<int>(world.victim_sta().bss().channel));

  auto& rogue_gw = world.deploy_rogue();
  std::printf("[2] rogue gateway up:\n");
  std::printf("      eth1 (client to CORP):  MAC %s, IP %s\n",
              rogue_gw.config().client_mac.to_string().c_str(),
              rogue_gw.config().eth_ip.to_string().c_str());
  std::printf("      wlan0 (Master mode):    BSSID %s, ch %d, IP %s\n",
              rogue_gw.config().rogue_bssid.to_string().c_str(),
              static_cast<int>(rogue_gw.config().rogue_channel),
              rogue_gw.config().wlan_ip.to_string().c_str());
  std::printf("      parprouted wlan0 eth1 + ip_forward=1\n");
  std::printf("      iptables -t nat -A PREROUTING -p tcp -d %s --dport 80 "
              "-j DNAT --to %s:10101\n",
              world.addr().web_server.to_string().c_str(),
              rogue_gw.config().wlan_ip.to_string().c_str());
  std::printf("      netsed rules:\n");
  for (const auto& rule : rogue_gw.config().netsed_rules) {
    std::printf("        s/%s/%s/\n", util::to_string(rule.pattern).c_str(),
                util::to_string(rule.replacement).c_str());
  }

  world.start_deauth_forcing();
  world.run_for(15 * sim::kSecond);
  std::printf("[3] forged deauths sent; victim now on rogue AP: %s\n",
              world.victim_on_rogue() ? "yes" : "NO (attack failed)");
  std::printf("      rogue uplink associated to legit AP: %s\n",
              rogue_gw.uplink_associated() ? "yes" : "no");
  std::printf("      proxy-ARP replies so far: %llu, host routes learned: %llu\n",
              static_cast<unsigned long long>(rogue_gw.bridge().proxied_replies()),
              static_cast<unsigned long long>(rogue_gw.bridge().routes_learned()));

  std::printf("[4] victim browses to http://%s/download.html ...\n",
              world.addr().web_server.to_string().c_str());
  apps::DownloadOutcome outcome;
  world.kit().download([&](const apps::DownloadOutcome& o) { outcome = o; });
  world.run_for(60 * sim::kSecond);

  std::printf("\n--- victim's experience ------------------------------------\n");
  std::printf("  download link followed:  http://%s/file.tgz\n",
              outcome.fetched_from.to_string().c_str());
  std::printf("  md5sum file.tgz          %s\n", outcome.fetched_md5_hex.c_str());
  std::printf("  MD5SUM on the page:      %s\n", outcome.published_md5_hex.c_str());
  std::printf("  verification:            %s\n",
              outcome.md5_verified ? "OK — \"download completed safely\"" : "MISMATCH");

  std::printf("\n--- ground truth --------------------------------------------\n");
  std::printf("  genuine release MD5:     %s\n", world.kit().release_md5().c_str());
  std::printf("  trojaned build MD5:      %s\n", world.kit().trojan_md5().c_str());
  std::printf("  victim installed:        %s\n",
              outcome.fetched_md5_hex == world.kit().trojan_md5()
                  ? "THE TROJAN (attack succeeded)"
                  : "the genuine release");
  std::printf("  netsed: %llu connection(s) proxied, %llu replacement(s)\n",
              static_cast<unsigned long long>(rogue_gw.netsed().stats().connections),
              static_cast<unsigned long long>(rogue_gw.netsed().stats().replacements));
  return 0;
}
