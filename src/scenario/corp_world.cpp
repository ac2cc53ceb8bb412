#include "scenario/corp_world.hpp"

#include "util/assert.hpp"

namespace rogue::scenario {

namespace {
// Per-client 802.1X-style credentials (kEap mode). The rogue, as the
// "staff" insider, knows only its own.
const char* kVictimEapKey = "victim-personal-credential";
const char* kStaffEapKey = "staff-personal-credential";

// Stable MAC plan (locally administered).
const net::MacAddr kLegitBssid = net::MacAddr::from_id(0xAABBCCDD01);
const net::MacAddr kVictimMac = net::MacAddr::from_id(0xAABBCCDD77);
const net::MacAddr kStaffMac = net::MacAddr::from_id(0xAABBCCDD42);  // offline
const net::MacAddr kRogueBssidDistinct = net::MacAddr::from_id(0xEE66660001);
const net::MacAddr kCorpGwLanMac = net::MacAddr::from_id(0x10);
const net::MacAddr kCorpGwWanMac = net::MacAddr::from_id(0x11);
const net::MacAddr kWebMac = net::MacAddr::from_id(0x12);
const net::MacAddr kVpnMac = net::MacAddr::from_id(0x13);
}  // namespace

CorpWorld::CorpWorld(CorpConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      medium_(sim_, config_.medium),
      corp_lan_(sim_),
      internet_(sim_),
      kit_(sim_, medium_, trace_, config_) {}

net::MacAddr CorpWorld::legit_bssid() const { return kLegitBssid; }
net::MacAddr CorpWorld::victim_mac() const { return kVictimMac; }

void CorpWorld::configure(std::uint64_t seed) {
  ROGUE_ASSERT_MSG(!started_, "configure() must precede start()");
  config_.seed = seed;
  sim_.reseed(seed);
}

void CorpWorld::start() {
  if (started_) return;
  started_ = true;
  if (capture_frames_) medium_.set_capture(&trace_);
  build_wired();
  build_wireless();
  kit_.bind(topology());
}

void CorpWorld::run_capture_phase() {
  start();
  run_for(config_.settle_time);
  deploy_rogue();
  if (config_.deauth_forcing) start_deauth_forcing(config_.deauth_period);
  run_for(config_.capture_window);
}

detect::SeqNumMonitor& CorpWorld::enable_detection() {
  ROGUE_ASSERT_MSG(!monitor_, "detection already enabled");
  detect::SeqMonitorConfig cfg;
  cfg.channel = config_.legit_channel;
  monitor_ = std::make_unique<detect::SeqNumMonitor>(sim_, medium_, cfg);
  // Park the monitor between the victim and the legitimate AP, off-axis —
  // close enough to hear both the AP's real counter and the forgeries.
  monitor_->radio().set_position({config_.victim_to_legit_m / 2.0, 4.0});
  return *monitor_;
}

void CorpWorld::run_episode() {
  start();
  if (config_.wids_episode()) {
    kit_.run_wids_episode();
    return;
  }
  if (config_.enable_detection && !monitor_) enable_detection();
  if (config_.inject_faults) {
    kit_.install_fault_plan(config_.deploy_rogue ? config_.capture_window : 0);
  }
  run_for(config_.settle_time);
  if (config_.deploy_rogue) {
    deploy_rogue();
    if (config_.deauth_forcing) start_deauth_forcing(config_.deauth_period);
    run_for(config_.capture_window);
  }
  if (config_.use_vpn) {
    kit_.connect_vpn([](bool) {});
    run_for(config_.vpn_window);
  }
  if (config_.do_download) {
    kit_.download([](const apps::DownloadOutcome&) {});
    run_for(config_.download_window);
  }
}

void CorpWorld::build_wired() {
  // Corp gateway: routes between the corp LAN and the "internet".
  corp_gw_ = std::make_unique<net::Host>(sim_, "corp-gw", config_.tcp);
  corp_gw_->add_wired("lan0", corp_lan_, kCorpGwLanMac);
  corp_gw_->add_wired("wan0", internet_, kCorpGwWanMac);
  corp_gw_->configure("lan0", addr_.corp_gw_lan, 24);
  corp_gw_->configure("wan0", addr_.corp_gw_wan, 24);
  corp_gw_->set_ip_forward(true);

  // Web server hosting the download site.
  web_ = std::make_unique<net::Host>(sim_, "web-server", config_.tcp);
  web_->add_wired("eth0", internet_, kWebMac);
  web_->configure("eth0", addr_.web_server, 24);
  web_->routes().add_default(addr_.corp_gw_wan, "eth0");
  web_http_ = std::make_unique<apps::HttpServer>(*web_, 80);
  apps::install_download_site(*web_http_, kit_.release_blob());

  // VPN endpoint on the trusted wired LAN (§5.2 requirement 3).
  vpn_host_ = std::make_unique<net::Host>(sim_, "vpn-endpoint", config_.tcp);
  vpn_host_->add_wired("eth0", corp_lan_, kVpnMac);
  vpn_host_->configure("eth0", addr_.vpn_endpoint, 24);
  vpn_host_->routes().add_default(addr_.corp_gw_lan, "eth0");
  vpn::EndpointConfig ep_cfg;
  ep_cfg.psk = config_.vpn_psk;
  ep_cfg.port = addr_.vpn_port;
  ep_cfg.replay_window = config_.vpn_replay_window;
  endpoint_ = std::make_unique<vpn::Endpoint>(*vpn_host_, ep_cfg);
  endpoint_->start();
}

void CorpWorld::build_wireless() {
  const dot11::SecurityMode security = config_.security;
  // Legitimate AP, bridged onto the corp LAN at L2.
  dot11::ApConfig ap_cfg;
  ap_cfg.ssid = "CORP";
  ap_cfg.bssid = kLegitBssid;
  ap_cfg.channel = config_.legit_channel;
  ap_cfg.security = security;
  ap_cfg.wep_key =
      security == dot11::SecurityMode::kWep ? config_.wep_key : util::Bytes{};
  ap_cfg.wpa_psk =
      security == dot11::SecurityMode::kWpaPsk ? config_.wpa_psk : util::Bytes{};
  if (security == dot11::SecurityMode::kEap) {
    ap_cfg.eap_client_keys = {{kVictimMac, util::to_bytes(kVictimEapKey)},
                              {kStaffMac, util::to_bytes(kStaffEapKey)}};
  }
  ap_cfg.iv_policy = config_.iv_policy;
  ap_cfg.auth_algorithm = config_.auth_algorithm;
  ap_cfg.mac_filtering = config_.mac_filtering;
  ap_cfg.allowed_macs = {kVictimMac, kStaffMac};
  legit_ap_ = std::make_unique<dot11::AccessPoint>(sim_, medium_, ap_cfg, &trace_);
  legit_ap_->radio().set_position({config_.victim_to_legit_m, 0.0});
  ap_bridge_ = std::make_unique<net::ApBridge>(*legit_ap_, corp_lan_, "legit-ap-uplink");
  legit_ap_->start();

  // Victim station + host.
  dot11::StationConfig sta_cfg;
  sta_cfg.mac = kVictimMac;
  sta_cfg.target_ssid = "CORP";
  sta_cfg.security = security;
  sta_cfg.wep_key =
      security == dot11::SecurityMode::kWep ? config_.wep_key : util::Bytes{};
  sta_cfg.wpa_psk = security == dot11::SecurityMode::kWpaPsk ? config_.wpa_psk
                    : security == dot11::SecurityMode::kEap
                        ? util::to_bytes(kVictimEapKey)
                        : util::Bytes{};
  sta_cfg.iv_policy = config_.iv_policy;
  sta_cfg.auth_algorithm = config_.auth_algorithm;
  sta_cfg.join_policy = config_.victim_join_policy;
  sta_cfg.scan_channels = {config_.legit_channel, config_.rogue_channel};
  victim_sta_ = std::make_unique<dot11::Station>(sim_, medium_, sta_cfg, &trace_);
  victim_sta_->radio().set_position({0.0, 0.0});

  victim_ = std::make_unique<net::Host>(sim_, "victim", config_.tcp);
  victim_->attach(std::make_unique<net::StationIf>("wlan0", *victim_sta_));
  victim_->configure("wlan0", addr_.victim, 24);
  victim_->routes().add_default(addr_.corp_gw_lan, "wlan0");

  // Roaming hygiene: flush neighbour state when the association changes
  // (models the reachability probing a real stack does after a move).
  // Also the capture observer: the first association that lands on the
  // rogue is the paper's "victim captured" moment.
  victim_sta_->set_event_handler(
      [this](std::string_view event, const dot11::BssInfo&) {
        if (event != "assoc") return;
        victim_->arp("wlan0").flush();
        if (!capture_time_ && victim_on_rogue()) capture_time_ = sim_.now();
      });

  victim_sta_->start();
}

attack::RogueGateway& CorpWorld::deploy_rogue() {
  ROGUE_ASSERT_MSG(started_, "start() the world before deploying the rogue");
  ROGUE_ASSERT_MSG(!rogue_, "rogue already deployed");

  const dot11::SecurityMode security = config_.security;
  attack::RogueGatewayConfig cfg;
  cfg.ssid = "CORP";
  cfg.security = security;
  cfg.wep_key =
      security == dot11::SecurityMode::kWep ? config_.wep_key : util::Bytes{};
  cfg.wpa_psk = security == dot11::SecurityMode::kWpaPsk ? config_.wpa_psk
                : security == dot11::SecurityMode::kEap
                    ? util::to_bytes(kStaffEapKey)  // its own credential only
                    : util::Bytes{};
  cfg.auth_algorithm = config_.auth_algorithm;
  // "created by a valid user, using the authentication information he was
  // given" / or an outsider with a sniffed MAC: either way the uplink MAC
  // passes the ACL.
  cfg.client_mac = kStaffMac;
  cfg.rogue_bssid = config_.rogue_clones_bssid ? kLegitBssid : kRogueBssidDistinct;
  cfg.rogue_channel = config_.rogue_channel;
  cfg.uplink_scan_channels = {config_.legit_channel};
  cfg.wlan_ip = addr_.rogue_wlan;
  cfg.eth_ip = addr_.rogue_eth;
  cfg.upstream_gateway = addr_.corp_gw_lan;
  cfg.target_ip = addr_.web_server;
  cfg.target_port = 80;
  cfg.netsed_mode = config_.netsed_mode;
  cfg.trojan_blob = kit_.trojan_blob();

  // netsed tcp 10101 Target-IP 80 s/href=file.tgz/href=http:...%2f...
  //                               s/REALMD5SUM/FAKEMD5SUM
  cfg.tcp = config_.tcp;
  const std::string fake_link =
      "http://" + addr_.rogue_wlan.to_string() + "/file.tgz";
  if (config_.rewrite_link) {
    cfg.netsed_rules.push_back(
        apps::NetsedRule::from_strings("href=file.tgz", "href=" + fake_link));
  }
  if (config_.rewrite_md5) {
    cfg.netsed_rules.push_back(
        apps::NetsedRule::from_strings(kit_.release_md5(), kit_.trojan_md5()));
  }

  rogue_ = std::make_unique<attack::RogueGateway>(sim_, medium_, cfg, &trace_);
  rogue_->uplink().radio().set_position({config_.victim_to_rogue_m, 2.0});
  rogue_->ap().radio().set_position({config_.victim_to_rogue_m, 0.0});
  rogue_->start();
  rogue_deploy_time_ = sim_.now();
  return *rogue_;
}

attack::DeauthAttacker& CorpWorld::start_deauth_forcing(sim::Time period) {
  ROGUE_ASSERT_MSG(!deauth_, "deauth forcing already running");
  deauth_ = std::make_unique<attack::DeauthAttacker>(
      sim_, medium_, config_.legit_channel, kLegitBssid, kVictimMac);
  deauth_->radio().set_position({config_.victim_to_rogue_m, 0.0});
  deauth_->start(period);
  return *deauth_;
}

ClientKit::Topology CorpWorld::topology() {
  const bool privacy = config_.security != dot11::SecurityMode::kOpen;
  ClientKit::Topology t;
  t.client = victim_.get();
  t.ap = legit_ap_.get();
  t.endpoint = endpoint_.get();
  t.endpoint_host = vpn_host_.get();
  t.web_server = addr_.web_server;
  t.vpn.endpoint_ip = addr_.vpn_endpoint;
  t.vpn.endpoint_port = addr_.vpn_port;
  t.vpn.replay_window = config_.vpn_replay_window;
  t.vpn.rekey_after_records = config_.vpn_rekey_records;
  t.vpn.rekey_after_time = config_.vpn_rekey_interval;
  t.storm_position = {config_.victim_to_rogue_m, 1.0};

  detect::DetectorEnv& d = t.detector;
  // The World's channel plan — the corporate channel plus wherever a
  // rogue could park — not a hard-coded channel 1.
  d.channels = {config_.legit_channel};
  if (config_.rogue_channel != config_.legit_channel) {
    d.channels.push_back(config_.rogue_channel);
  }
  // Between the victim and the legitimate AP, off-axis: hears both the
  // AP's real counter and any forgeries.
  d.position = {config_.victim_to_legit_m / 2.0, 4.0};
  detect::TrustedAp ap;
  ap.ssid = "CORP";
  ap.bssid = kLegitBssid;
  ap.channel = config_.legit_channel;
  ap.beacon_interval_tu = 100;
  ap.capability = dot11::kCapEss;
  if (privacy) ap.capability |= dot11::kCapPrivacy;
  d.inventory = {ap};
  d.wired = &corp_lan_;
  d.known_wired_macs = {kCorpGwLanMac, kVpnMac, kVictimMac, kStaffMac};

  attack::AttackerEnv& a = t.attacker;
  a.ssid = "CORP";
  a.legit_bssid = kLegitBssid;
  a.victim_mac = kVictimMac;
  a.legit_channel = config_.legit_channel;
  a.rogue_channel = config_.rogue_channel;
  a.beacon_interval_tu = 100;
  a.capability = dot11::kCapEss;
  if (privacy) a.capability |= dot11::kCapPrivacy;
  a.position = {config_.victim_to_rogue_m, 0.0};
  a.deploy_rogue = [this] {
    if (!rogue_) deploy_rogue();
  };
  a.stop_rogue = [this] {
    if (rogue_) rogue_->stop();
  };
  return t;
}

bool CorpWorld::victim_on_rogue() const {
  if (!victim_sta_->associated()) return false;
  if (rogue_ == nullptr) return false;
  // With a cloned BSSID the channel is the distinguishing feature.
  return victim_sta_->bss().channel == rogue_->config().rogue_channel;
}

Metrics CorpWorld::collect_metrics() const {
  constexpr double kUsPerSecond = 1e6;
  Metrics m = kit_.collect_metrics();
  m.victim_captured = capture_time_.has_value();
  if (capture_time_) {
    const sim::Time base =
        rogue_deploy_time_ ? *rogue_deploy_time_ : sim::Time{0};
    m.time_to_capture_s =
        static_cast<double>(*capture_time_ - base) / kUsPerSecond;
  }

  if (monitor_) {
    m.seq_anomalies = monitor_->alerts().size();
    // The WIDS block may already have set it; either monitor counts.
    if (!monitor_->suspects().empty()) m.rogue_detected = true;
    if (rogue_deploy_time_) {
      for (const detect::Alert& alert : monitor_->alerts()) {
        if (alert.time < *rogue_deploy_time_) continue;
        m.detection_latency_s =
            static_cast<double>(alert.time - *rogue_deploy_time_) / kUsPerSecond;
        break;
      }
    }
  }
  return m;
}

}  // namespace rogue::scenario
