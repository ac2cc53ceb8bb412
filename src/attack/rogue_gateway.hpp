// The complete attack box from Figures 1 and 2: a laptop with two WiFi
// cards. One (eth1, Netgear in the paper) associates to the legitimate
// CORP network as an ordinary client; the other (wlan0, D-Link + hostap)
// runs in Master mode advertising the same SSID (and, per Figure 1, the
// same AP MAC) with the same WEP key. parprouted bridges them by proxy
// ARP, Netfilter DNATs the victim's port-80 traffic for the target site
// into a local netsed, and netsed rewrites the download link + MD5SUM.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/http.hpp"
#include "apps/download.hpp"
#include "apps/netsed.hpp"
#include "attack/attacker.hpp"
#include "bridge/arp_proxy.hpp"
#include "dot11/ap.hpp"
#include "dot11/sta.hpp"
#include "net/host.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace rogue::attack {

struct RogueGatewayConfig {
  // Wireless identity to clone.
  std::string ssid = "CORP";
  dot11::SecurityMode security = dot11::SecurityMode::kWep;
  util::Bytes wep_key;  ///< when security == kWep
  util::Bytes wpa_psk;  ///< when security == kWpaPsk (the §2.2 "fix")
  dot11::AuthAlgorithm auth_algorithm = dot11::AuthAlgorithm::kOpenSystem;

  /// MAC used to associate to the legitimate network — "a MAC address
  /// that he has observed by sniffing network traffic" when ACLs are on.
  net::MacAddr client_mac;
  /// BSSID advertised by the rogue AP (Figure 1 clones the real AP MAC).
  net::MacAddr rogue_bssid;
  phy::Channel rogue_channel = 6;
  std::vector<phy::Channel> uplink_scan_channels = {1};

  // IP plan: both interfaces sit in the CORP subnet (paper appendix).
  net::Ipv4Addr wlan_ip;  ///< IP on the rogue BSS side
  net::Ipv4Addr eth_ip;   ///< IP on the uplink side
  unsigned prefix_len = 24;
  net::Ipv4Addr upstream_gateway;  ///< CORP default gateway

  // MITM payload rewriting.
  net::Ipv4Addr target_ip;        ///< the download site (iptables -d)
  std::uint16_t target_port = 80;
  std::uint16_t netsed_port = 10101;
  std::vector<apps::NetsedRule> netsed_rules;
  apps::NetsedMode netsed_mode = apps::NetsedMode::kPerSegment;

  /// If non-empty: serve this trojaned blob at http://<wlan_ip>/file.tgz.
  util::Bytes trojan_blob;

  /// TCP parameters for the gateway host (netsed + trojan server).
  net::TcpConfig tcp;
};

/// Attacker-shaped for uniform start()/stop() control; tournaments drive
/// it through the ScriptedRogue adapter because the World owns its
/// config (IP plan, trojan payload, wired topology).
class RogueGateway final : public Attacker {
 public:
  RogueGateway(sim::Simulator& simulator, phy::Medium& medium,
               RogueGatewayConfig config, sim::Trace* trace = nullptr);

  [[nodiscard]] std::string_view name() const override {
    return "rogue-gateway";
  }

  /// Bring up the uplink station, the rogue AP, bridge, NAT and netsed.
  void start() override;
  void stop() override;

  [[nodiscard]] bool uplink_associated() const { return uplink_->associated(); }
  [[nodiscard]] dot11::Station& uplink() { return *uplink_; }
  [[nodiscard]] dot11::AccessPoint& ap() { return *ap_; }
  [[nodiscard]] net::Host& host() { return *host_; }
  [[nodiscard]] apps::Netsed& netsed() { return *netsed_; }
  [[nodiscard]] bridge::ArpProxyBridge& bridge() { return *bridge_; }
  [[nodiscard]] const RogueGatewayConfig& config() const { return config_; }

  /// Stations currently captured by the rogue AP.
  [[nodiscard]] std::vector<net::MacAddr> captured_stations() const {
    return ap_->associated_stations();
  }

 private:
  sim::Simulator& sim_;
  RogueGatewayConfig config_;
  std::unique_ptr<dot11::Station> uplink_;
  std::unique_ptr<dot11::AccessPoint> ap_;
  std::unique_ptr<net::Host> host_;
  std::unique_ptr<bridge::ArpProxyBridge> bridge_;
  std::unique_ptr<apps::Netsed> netsed_;
  std::unique_ptr<apps::HttpServer> trojan_server_;
  bool started_ = false;
};

}  // namespace rogue::attack
