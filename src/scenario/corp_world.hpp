// CorpWorld: the paper's end-to-end testbed as a single composable world.
//
//   [web server 203.0.113.80] --- internet switch --- [corp gw 203.0.113.1
//                                                              10.0.0.1]
//                                                           |
//                                                     corp switch ---
//                                                     [vpn endpoint 10.0.0.5]
//                                                           |
//                                                     [legit AP "CORP" ch1]
//                                                        )))  (((
//      [victim 10.0.0.77]     [rogue gateway: eth1 client + wlan0 "CORP" ch6]
//
// Figure 1 = deploy_rogue(); Figure 2 = deploy_rogue() + kit().download();
// Figure 3 = kit().connect_vpn() + kit().download(). Knobs cover WEP on/off,
// MAC filtering, join policy, signal geometry, deauth forcing, and the
// netsed matching mode.
#pragma once

#include <memory>
#include <optional>

#include "apps/http.hpp"
#include "attack/rogue_gateway.hpp"
#include "detect/seqnum.hpp"
#include "dot11/sta.hpp"
#include "net/link.hpp"
#include "scenario/client_kit.hpp"

namespace rogue::scenario {

struct CorpConfig : EpisodeConfig {
  CorpConfig() { vpn_psk = util::to_bytes("corp-vpn-preshared-authenticator"); }

  // Link-layer "security" (the mechanisms §2.1 shows to be insufficient):
  // kOpen / kWep / kWpaPsk / kEap (§2.2 extension — the rogue is
  // configured with the same credentials either way).
  dot11::SecurityMode security = dot11::SecurityMode::kWep;
  util::Bytes wep_key = util::to_bytes("SECRETWEPKEY1");  // 13 bytes (WEP-104)
  util::Bytes wpa_psk = util::to_bytes("corp-wpa-passphrase");
  crypto::WepIvPolicy iv_policy = crypto::WepIvPolicy::kSequential;
  dot11::AuthAlgorithm auth_algorithm = dot11::AuthAlgorithm::kOpenSystem;
  bool mac_filtering = true;

  // Geometry (meters from the victim).
  double victim_to_legit_m = 15.0;
  double victim_to_rogue_m = 8.0;
  phy::Channel legit_channel = 1;
  phy::Channel rogue_channel = 6;

  dot11::JoinPolicy victim_join_policy = dot11::JoinPolicy::kBestRssi;

  // Attack configuration.
  bool rogue_clones_bssid = true;  ///< Figure 1: same "AP MAC"
  apps::NetsedMode netsed_mode = apps::NetsedMode::kPerSegment;
  bool rewrite_link = true;  ///< netsed rule 1: href -> attacker mirror
  bool rewrite_md5 = true;   ///< netsed rule 2: REALMD5SUM -> FAKEMD5SUM

  /// TCP parameters applied to every host in the world (the MSS controls
  /// where TCP segments — and therefore netsed's match windows — split).
  net::TcpConfig tcp;

  // VPN record layer.
  /// Anti-replay window width (records) on both tunnel directions.
  std::size_t vpn_replay_window = 1024;
  /// Client-initiated rekey thresholds; 0 disables that trigger.
  std::uint64_t vpn_rekey_records = 0;
  sim::Time vpn_rekey_interval = 0;

  // Corp phases of the episode script, run between settle and the VPN.
  // Defaults reproduce Figure 2's baseline: no attack, plain download.
  // Flip the booleans to get Figure 1 (deploy_rogue), Figure 2
  // (deploy_rogue + do_download) or Figure 3 (use_vpn + do_download).
  bool deploy_rogue = false;
  bool deauth_forcing = false;   ///< §4 forced roam (needs deploy_rogue)
  bool enable_detection = false; ///< §2.3 sequence-control monitor
  sim::Time capture_window = 15 * sim::kSecond;
};

/// Well-known addresses inside the world.
struct CorpAddresses {
  net::Ipv4Addr corp_gw_lan{10, 0, 0, 1};
  net::Ipv4Addr vpn_endpoint{10, 0, 0, 5};
  net::Ipv4Addr victim{10, 0, 0, 77};
  net::Ipv4Addr rogue_wlan{10, 0, 0, 200};
  net::Ipv4Addr rogue_eth{10, 0, 0, 201};
  net::Ipv4Addr corp_gw_wan{203, 0, 113, 1};
  net::Ipv4Addr web_server{203, 0, 113, 80};
  std::uint16_t vpn_port = 7000;
};

class CorpWorld final : public World {
 public:
  explicit CorpWorld(CorpConfig config = {});

  // ---- World interface -----------------------------------------------------
  [[nodiscard]] std::string_view name() const override { return "corp"; }
  /// Re-root the simulation at `seed`. Must precede start().
  void configure(std::uint64_t seed) override;
  void run_episode() override;
  [[nodiscard]] Metrics collect_metrics() const override;
  [[nodiscard]] sim::Simulator& simulator() override { return sim_; }
  [[nodiscard]] sim::Trace& trace() override { return trace_; }

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] phy::Medium& medium() { return medium_; }
  [[nodiscard]] const CorpConfig& config() const { return config_; }
  [[nodiscard]] const CorpAddresses& addr() const { return addr_; }

  /// Faults, WIDS, the VPN tunnel, the download workload and the blobs.
  [[nodiscard]] ClientKit& kit() { return kit_; }
  [[nodiscard]] const ClientKit& kit() const { return kit_; }

  /// Bring up the wired network, legit AP, web site, VPN endpoint, victim.
  void start() override;

  /// Record every radio frame into the trace (pcap export). Call before
  /// start().
  void enable_frame_capture() override { capture_frames_ = true; }

  /// Figure 1: stand up the rogue gateway (cloned SSID/WEP/BSSID, proxy
  /// ARP bridge, DNAT + netsed + trojan mirror).
  attack::RogueGateway& deploy_rogue();
  [[nodiscard]] attack::RogueGateway* rogue() { return rogue_.get(); }

  /// §4: force the victim off the legitimate AP with forged deauths.
  attack::DeauthAttacker& start_deauth_forcing(sim::Time period = 100'000);

  /// Boilerplate shared by every "rogue captures the victim" driver:
  /// start(), settle, deploy the rogue (plus deauth forcing when the
  /// config asks for it), then run out the capture window.
  void run_capture_phase();

  /// §2.3: park a sequence-control monitor on the corporate channel.
  /// Created automatically by run_episode() when enable_detection is set.
  detect::SeqNumMonitor& enable_detection();
  [[nodiscard]] detect::SeqNumMonitor* detector() { return monitor_.get(); }

  bool attach_detector(std::string_view name) override {
    return kit_.attach_detector(name);
  }
  bool attach_attacker(std::string_view name) override {
    return kit_.attach_attacker(name);
  }

  /// Drive the simulation forward.
  void run_for(sim::Time duration) override {
    sim_.run_until(sim_.now() + duration);
  }

  // ---- Introspection -------------------------------------------------------
  [[nodiscard]] dot11::Station& victim_sta() { return *victim_sta_; }
  [[nodiscard]] net::Host& victim() { return *victim_; }
  [[nodiscard]] dot11::AccessPoint& legit_ap() { return *legit_ap_; }
  [[nodiscard]] net::Host& web_server() { return *web_; }
  [[nodiscard]] net::Host& corp_gw() { return *corp_gw_; }
  [[nodiscard]] net::Host& vpn_host() { return *vpn_host_; }
  [[nodiscard]] vpn::Endpoint& vpn_endpoint() { return *endpoint_; }
  [[nodiscard]] net::Switch& corp_lan() { return corp_lan_; }
  [[nodiscard]] net::Switch& internet() { return internet_; }

  [[nodiscard]] net::MacAddr legit_bssid() const;
  [[nodiscard]] net::MacAddr victim_mac() const;
  /// Is the victim currently associated with the rogue AP (vs the real one)?
  [[nodiscard]] bool victim_on_rogue() const;

 private:
  void build_wired();
  void build_wireless();
  /// The kit's view of this world: victim, legit AP, VPN endpoint, the
  /// corporate channel plan and where monitors and attackers sit.
  [[nodiscard]] ClientKit::Topology topology();

  CorpConfig config_;
  CorpAddresses addr_;
  sim::Simulator sim_;
  sim::Trace trace_;
  phy::Medium medium_;
  net::Switch corp_lan_;
  net::Switch internet_;

  std::unique_ptr<net::Host> corp_gw_;
  std::unique_ptr<net::Host> web_;
  std::unique_ptr<apps::HttpServer> web_http_;
  std::unique_ptr<net::Host> vpn_host_;
  std::unique_ptr<vpn::Endpoint> endpoint_;

  std::unique_ptr<dot11::AccessPoint> legit_ap_;
  std::unique_ptr<net::ApBridge> ap_bridge_;

  std::unique_ptr<dot11::Station> victim_sta_;
  std::unique_ptr<net::Host> victim_;

  std::unique_ptr<attack::RogueGateway> rogue_;
  std::unique_ptr<attack::DeauthAttacker> deauth_;
  std::unique_ptr<detect::SeqNumMonitor> monitor_;

  bool started_ = false;
  bool capture_frames_ = false;

  // Episode observations, filled in as the scenario unfolds and read by
  // collect_metrics(). "-1 cast to Time" is avoided by optionals.
  std::optional<sim::Time> rogue_deploy_time_;
  std::optional<sim::Time> capture_time_;

  // Last member: destroyed first, while the hosts it taps still exist.
  ClientKit kit_;
};

}  // namespace rogue::scenario
