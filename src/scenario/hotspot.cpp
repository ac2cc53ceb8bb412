#include "scenario/hotspot.hpp"

#include "util/assert.hpp"

namespace rogue::scenario {

namespace {
const net::MacAddr kHotspotBssid = net::MacAddr::from_id(0xCAFE000001);
const net::MacAddr kClientMac = net::MacAddr::from_id(0xCAFE000100);
const net::MacAddr kGwWanMac = net::MacAddr::from_id(0xCAFE000002);
const net::MacAddr kWebMac = net::MacAddr::from_id(0xCAFE000003);
const net::MacAddr kHomeMac = net::MacAddr::from_id(0xCAFE000004);
constexpr std::uint16_t kNetsedPort = 10101;
}  // namespace

HotspotWorld::HotspotWorld(HotspotConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      medium_(sim_, config_.medium),
      internet_(sim_),
      kit_(sim_, medium_, trace_, config_) {}

void HotspotWorld::configure(std::uint64_t seed) {
  ROGUE_ASSERT_MSG(!started_, "configure() must precede start()");
  config_.seed = seed;
  sim_.reseed(seed);
}

void HotspotWorld::start() {
  if (started_) return;
  started_ = true;
  if (capture_frames_) medium_.set_capture(&trace_);

  // Open hotspot AP (public hotspots of the era ran no WEP).
  dot11::ApConfig ap_cfg;
  ap_cfg.ssid = "HOTSPOT";
  ap_cfg.bssid = kHotspotBssid;
  ap_cfg.channel = 6;
  ap_ = std::make_unique<dot11::AccessPoint>(sim_, medium_, ap_cfg, &trace_);
  ap_->radio().set_position({5.0, 0.0});

  // Hotspot gateway: NAT between the hotspot LAN and the internet.
  gw_ = std::make_unique<net::Host>(sim_, "hotspot-gw");
  gw_->attach(std::make_unique<net::ApIf>("wlan0", *ap_));
  gw_->add_wired("wan0", internet_, kGwWanMac);
  gw_->configure("wlan0", addr_.hotspot_lan, 24);
  gw_->configure("wan0", addr_.hotspot_wan, 24);
  gw_->set_ip_forward(true);
  {
    net::Rule masquerade;
    masquerade.match.src = net::Ipv4Addr(192, 168, 1, 0);
    masquerade.match.src_mask = net::netmask(24);
    masquerade.match.out_iface = "wan0";
    masquerade.target = net::RuleTarget::kSnat;
    masquerade.nat_ip = addr_.hotspot_wan;
    gw_->netfilter().append(net::Hook::kPostrouting, masquerade);
  }

  if (config_.hostile) {
    // The owner-in-the-middle: same DNAT + netsed + trojan mirror as the
    // corporate rogue, but running on legitimate infrastructure.
    net::Rule dnat;
    dnat.match.protocol = net::kProtoTcp;
    dnat.match.dst = addr_.web_server;
    dnat.match.dport = 80;
    dnat.match.in_iface = "wlan0";
    dnat.target = net::RuleTarget::kDnat;
    dnat.nat_ip = addr_.hotspot_lan;
    dnat.nat_port = kNetsedPort;
    gw_->netfilter().append(net::Hook::kPrerouting, dnat);

    const std::string fake_link =
        "http://" + addr_.hotspot_lan.to_string() + "/file.tgz";
    std::vector<apps::NetsedRule> rules;
    rules.push_back(
        apps::NetsedRule::from_strings("href=file.tgz", "href=" + fake_link));
    rules.push_back(
        apps::NetsedRule::from_strings(kit_.release_md5(), kit_.trojan_md5()));
    netsed_ = std::make_unique<apps::Netsed>(*gw_, kNetsedPort, addr_.web_server,
                                             80, std::move(rules));
    trojan_server_ = std::make_unique<apps::HttpServer>(*gw_, 80);
    apps::install_trojan_site(*trojan_server_, kit_.trojan_blob());
  }

  // The public web server.
  web_ = std::make_unique<net::Host>(sim_, "web-server");
  web_->add_wired("eth0", internet_, kWebMac);
  web_->configure("eth0", addr_.web_server, 24);
  web_http_ = std::make_unique<apps::HttpServer>(*web_, 80);
  apps::install_download_site(*web_http_, kit_.release_blob());

  // The client's *home* VPN endpoint, reachable across the internet
  // (§5.2: provided by "the client's home corporation, home ISP, or
  // perhaps a trusted third party").
  home_ = std::make_unique<net::Host>(sim_, "home-vpn");
  home_->add_wired("eth0", internet_, kHomeMac);
  home_->configure("eth0", addr_.home_vpn, 24);
  vpn::EndpointConfig ep;
  ep.psk = config_.vpn_psk;
  ep.port = addr_.vpn_port;
  endpoint_ = std::make_unique<vpn::Endpoint>(*home_, ep);
  endpoint_->start();

  // The roaming client.
  dot11::StationConfig sta;
  sta.mac = kClientMac;
  sta.target_ssid = "HOTSPOT";
  sta.scan_channels = {6};
  client_sta_ = std::make_unique<dot11::Station>(sim_, medium_, sta, &trace_);
  client_sta_->radio().set_position({0.0, 0.0});
  client_sta_->set_event_handler(
      [this](std::string_view event, const dot11::BssInfo&) {
        if (event == "assoc" && !join_time_) join_time_ = sim_.now();
      });

  client_ = std::make_unique<net::Host>(sim_, "client");
  client_->attach(std::make_unique<net::StationIf>("wlan0", *client_sta_));
  client_->configure("wlan0", addr_.client, 24);
  client_->routes().add_default(addr_.hotspot_lan, "wlan0");

  ap_->start();
  client_sta_->start();
  kit_.bind(topology());
}

ClientKit::Topology HotspotWorld::topology() {
  ClientKit::Topology t;
  t.client = client_.get();
  t.ap = ap_.get();
  t.endpoint = endpoint_.get();
  t.endpoint_host = home_.get();
  t.web_server = addr_.web_server;
  t.vpn.endpoint_ip = addr_.home_vpn;
  t.vpn.endpoint_port = addr_.vpn_port;
  t.storm_position = {2.0, 1.0};

  detect::DetectorEnv& d = t.detector;
  d.channels = {6};
  // Near the AP: a hotspot operator audits from its own rack, which keeps
  // the RSSI baseline tight.
  d.position = {4.0, 2.0};
  detect::TrustedAp ap;
  ap.ssid = "HOTSPOT";
  ap.bssid = kHotspotBssid;
  ap.channel = 6;
  d.inventory = {ap};
  d.wired = &internet_;
  d.known_wired_macs = {kGwWanMac, kWebMac, kHomeMac};

  attack::AttackerEnv& a = t.attacker;
  a.ssid = "HOTSPOT";
  a.legit_bssid = kHotspotBssid;
  a.victim_mac = kClientMac;
  a.legit_channel = 6;
  a.rogue_channel = 6;
  a.position = {1.0, 0.0};  // lurking next to the client
  // No rogue-gateway stack in this world: the hooks stay empty and the
  // "rogue-gateway" row degenerates to a no-op attacker.
  return t;
}

void HotspotWorld::run_episode() {
  start();
  if (config_.wids_episode()) {
    kit_.run_wids_episode();
    return;
  }
  if (config_.inject_faults) kit_.install_fault_plan();
  run_for(config_.settle_time);
  if (config_.use_vpn) {
    kit_.connect_vpn([](bool) {});
    run_for(config_.vpn_window);
  }
  if (config_.do_download) {
    kit_.download([](const apps::DownloadOutcome&) {});
    run_for(config_.download_window);
  }
}

Metrics HotspotWorld::collect_metrics() const {
  Metrics m = kit_.collect_metrics();
  // "Captured" here means attached to attacker-run infrastructure: in the
  // hostile variant the hotspot itself is the adversary, so joining it at
  // all is the capture event.
  if (config_.hostile && join_time_) {
    m.victim_captured = true;
    m.time_to_capture_s = static_cast<double>(*join_time_) / 1e6;
  }
  return m;
}

}  // namespace rogue::scenario
