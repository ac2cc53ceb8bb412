#include "attack/rogue_gateway.hpp"

#include "util/assert.hpp"

namespace rogue::attack {

RogueGateway::RogueGateway(sim::Simulator& simulator, phy::Medium& medium,
                           RogueGatewayConfig config, sim::Trace* trace)
    : sim_(simulator), config_(std::move(config)) {
  // eth1: ordinary managed-mode client of the legitimate network.
  dot11::StationConfig sta_cfg;
  sta_cfg.mac = config_.client_mac;
  sta_cfg.target_ssid = config_.ssid;
  sta_cfg.security = config_.security;
  sta_cfg.wep_key = config_.wep_key;
  sta_cfg.wpa_psk = config_.wpa_psk;
  sta_cfg.auth_algorithm = config_.auth_algorithm;
  sta_cfg.scan_channels = config_.uplink_scan_channels;
  uplink_ = std::make_unique<dot11::Station>(sim_, medium, sta_cfg, trace);

  // wlan0: Master mode, cloning SSID / WEP / (typically) the AP MAC.
  dot11::ApConfig ap_cfg;
  ap_cfg.ssid = config_.ssid;
  ap_cfg.bssid = config_.rogue_bssid;
  ap_cfg.channel = config_.rogue_channel;
  ap_cfg.security = config_.security;
  ap_cfg.wep_key = config_.wep_key;
  ap_cfg.wpa_psk = config_.wpa_psk;
  if (ap_cfg.security == dot11::SecurityMode::kEap) {
    // The rogue can only enroll the credential it actually has — its own.
    ap_cfg.eap_client_keys = {{config_.client_mac, config_.wpa_psk}};
  }
  ap_cfg.auth_algorithm = config_.auth_algorithm;
  ap_ = std::make_unique<dot11::AccessPoint>(sim_, medium, ap_cfg, trace);

  // The gateway host owning both interfaces.
  host_ = std::make_unique<net::Host>(sim_, "rogue-gateway", config_.tcp);
  host_->attach(std::make_unique<net::ApIf>("wlan0", *ap_));
  host_->attach(std::make_unique<net::StationIf>("eth1", *uplink_));
  host_->configure("wlan0", config_.wlan_ip, config_.prefix_len);
  host_->configure("eth1", config_.eth_ip, config_.prefix_len);

  // Appendix A: host routes + default gateway via the uplink side.
  host_->routes().remove_by_interface("wlan0");
  host_->routes().remove_by_interface("eth1");
  host_->routes().add_host(config_.upstream_gateway, "eth1");
  host_->routes().add_default(config_.upstream_gateway, "eth1");
}

void RogueGateway::start() {
  if (started_) return;
  started_ = true;

  // "parprouted wlan0 eth1" (also flips on ip_forward).
  bridge_ = std::make_unique<bridge::ArpProxyBridge>(*host_, "wlan0", "eth1");

  // iptables -t nat -A PREROUTING -p tcp -d Target-IP --dport 80
  //          -j DNAT --to Gateway-IP:10101
  net::Rule dnat;
  dnat.match.protocol = net::kProtoTcp;
  dnat.match.dst = config_.target_ip;
  dnat.match.dport = config_.target_port;
  dnat.target = net::RuleTarget::kDnat;
  dnat.nat_ip = config_.wlan_ip;
  dnat.nat_port = config_.netsed_port;
  host_->netfilter().append(net::Hook::kPrerouting, dnat);

  // netsed tcp 10101 Target-IP 80 s/.../...
  netsed_ = std::make_unique<apps::Netsed>(*host_, config_.netsed_port,
                                           config_.target_ip, config_.target_port,
                                           config_.netsed_rules, config_.netsed_mode);

  // Attacker-hosted mirror with the trojaned binary.
  if (!config_.trojan_blob.empty()) {
    trojan_server_ = std::make_unique<apps::HttpServer>(*host_, 80);
    apps::install_trojan_site(*trojan_server_, config_.trojan_blob);
  }

  uplink_->start();
  ap_->start();
}

void RogueGateway::stop() {
  if (!started_) return;
  started_ = false;
  ap_->stop();
  uplink_->stop();
}

}  // namespace rogue::attack
