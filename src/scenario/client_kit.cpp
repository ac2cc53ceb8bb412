#include "scenario/client_kit.hpp"

#include <stdexcept>

#include "crypto/aead.hpp"
#include "crypto/md5.hpp"
#include "util/assert.hpp"

namespace rogue::scenario {

ClientKit::ClientKit(sim::Simulator& simulator, phy::Medium& medium,
                     sim::Trace& trace, const EpisodeConfig& config)
    : sim_(simulator),
      medium_(medium),
      trace_(trace),
      config_(config),
      release_(apps::make_release_blob(/*seed=*/0xFEED, config.release_size)),
      trojan_(apps::make_release_blob(/*seed=*/0xBAD, config.release_size)) {}

void ClientKit::bind(Topology topology) { topo_ = std::move(topology); }

std::string ClientKit::release_md5() const { return crypto::md5_hex(release_); }
std::string ClientKit::trojan_md5() const { return crypto::md5_hex(trojan_); }

void ClientKit::install_fault_plan(sim::Time extra_window) {
  ROGUE_ASSERT_MSG(topo_.client, "start() the world before installing faults");
  if (injector_) return;
  faults::PlanConfig cfg = config_.faults;
  if (cfg.horizon == 0) {
    // Default window: the episode body after settle, so faults land while
    // the phases the metrics care about are running.
    cfg.start = sim_.now() + config_.settle_time;
    sim::Time horizon = cfg.start + extra_window;
    if (config_.use_vpn) horizon += config_.vpn_window;
    if (config_.do_download) horizon += config_.download_window;
    if (horizon <= cfg.start) horizon = cfg.start + sim::kSecond;
    cfg.horizon = horizon;
  }
  util::Prng rng = sim_.derive_rng("faults.plan");
  injector_ = std::make_unique<faults::Injector>(
      sim_, static_cast<faults::FaultTarget&>(*this));
  injector_->install(faults::Plan::generate(rng, cfg));

  // Ambient client traffic for the episode: a tiny periodic heartbeat that
  // rides the tunnel while it is up and leaks onto the radio during a
  // fail-open gap — the packets Metrics::clear_packets counts.
  start_chatter();
}

void ClientKit::start_chatter() {
  if (config_.chatter_period == 0 || chatter_sock_) return;
  chatter_sock_ = topo_.client->udp_open(0);
  sim_.every(config_.chatter_period, [this] {
    static const util::Bytes kBeacon = {'h', 'b'};
    if (chatter_sock_) chatter_sock_->send_to(topo_.web_server, 9, kBeacon);
  });
}

void ClientKit::fault_ap(bool down) {
  if (down) topo_.ap->stop();
  else topo_.ap->start();
}

void ClientKit::fault_endpoint(bool down) {
  if (down) topo_.endpoint->stop();
  else topo_.endpoint->start();
}

void ClientKit::fault_channel(double extra_loss) {
  medium_.set_loss_override(extra_loss);
}

void ClientKit::fault_link(bool down) {
  if (net::NetIf* eth = topo_.endpoint_host->interface("eth0")) {
    eth->set_admin_up(!down);
  }
}

void ClientKit::fault_reorder(double probability) {
  medium_.set_reorder(probability);
}

void ClientKit::fault_duplicate(double probability) {
  medium_.set_duplicate(probability);
}

void ClientKit::fault_jitter(double max_ms) { medium_.set_jitter_ms(max_ms); }

void ClientKit::fault_deauth_storm(bool active) {
  if (active) {
    if (!chaos_deauth_) {
      const attack::AttackerEnv& target = topo_.attacker;
      chaos_deauth_ = std::make_unique<attack::DeauthAttacker>(
          sim_, medium_, target.legit_channel, target.legit_bssid,
          target.victim_mac);
      chaos_deauth_->radio().set_position(topo_.storm_position);
    }
    chaos_deauth_->start(config_.deauth_period);
  } else if (chaos_deauth_) {
    chaos_deauth_->stop();
  }
}

detect::DetectorEnv ClientKit::detector_env() {
  detect::DetectorEnv env = topo_.detector;
  env.sim = &sim_;
  env.medium = &medium_;
  env.trace = &trace_;
  return env;
}

attack::AttackerEnv ClientKit::attacker_env() {
  attack::AttackerEnv env = topo_.attacker;
  env.sim = &sim_;
  env.medium = &medium_;
  env.deauth_period = config_.deauth_period;
  // Named stream off the replica's root seed: every behavioural jitter
  // the attacker draws is a pure function of (variant, seed).
  env.rng = sim_.derive_rng("wids.attacker");
  return env;
}

bool ClientKit::attach_detector(std::string_view name) {
  ROGUE_ASSERT_MSG(topo_.client, "start() the world before attaching detectors");
  auto detector = detect::make_detector(name);
  if (!detector) return false;
  detector->attach(detector_env());
  wids_enabled_ = true;
  detectors_.push_back(std::move(detector));
  return true;
}

bool ClientKit::attach_attacker(std::string_view name) {
  ROGUE_ASSERT_MSG(topo_.client, "start() the world before attaching attackers");
  ROGUE_ASSERT_MSG(!attacker_, "attacker already attached");
  wids_enabled_ = true;
  if (name == "none") return true;  // control row: nothing ever transmits
  auto attacker = attack::make_attacker(name);
  if (!attacker) return false;
  attacker->configure(attacker_env());
  attacker_ = std::move(attacker);
  return true;
}

void ClientKit::run_wids_episode() {
  // Throw (not assert) on unknown registry names: a sweep replica with a
  // bad roster entry should land in the report's failures array, not
  // abort the whole worker pool.
  for (const std::string& name : config_.wids_detectors) {
    if (!attach_detector(name)) {
      throw std::runtime_error("unknown wids detector: " + name);
    }
  }
  if (!config_.wids_attacker.empty() &&
      !attach_attacker(config_.wids_attacker)) {
    throw std::runtime_error("unknown wids attacker: " + config_.wids_attacker);
  }
  // Ambient client traffic: keeps the AP's sequence counter moving so
  // mimicry has something to shadow, and gives the episode data frames.
  start_chatter();
  run_for(config_.settle_time + config_.wids_baseline_window);
  if (attacker_) {
    wids_attack_start_ = sim_.now();
    attacker_->start();
  }
  run_for(config_.wids_attack_window);
  if (attacker_) attacker_->stop();
}

void ClientKit::connect_vpn(std::function<void(bool)> done) {
  ROGUE_ASSERT_MSG(!tunnel_, "VPN already connected");
  vpn::ClientConfig cfg = topo_.vpn;
  cfg.psk = config_.vpn_psk;
  cfg.transport = config_.vpn_transport;
  cfg.auto_reconnect = config_.vpn_auto_reconnect;
  cfg.fail_open = config_.vpn_fail_open;
  tunnel_ = std::make_unique<vpn::ClientTunnel>(*topo_.client, cfg);
  tunnel_->set_session_handler([this](bool up) {
    health_.on_session(sim_.now(), up);
    if (up) {
      vpn_ok_ = true;
      if (!vpn_up_time_) vpn_up_time_ = sim_.now();
    }
  });
  // Fail-open exposure meter: client packets that leave on a physical
  // interface (not tun0) toward anything but the endpoint itself, while an
  // established tunnel is torn down, travelled in the clear.
  topo_.client->set_tap([this](std::string_view point,
                               const net::Ipv4Packet& packet,
                               std::string_view ifname) {
    if (point != "tx" || ifname == "tun0") return;
    if (packet.dst == topo_.vpn.endpoint_ip) return;
    if (health_.gap_open()) ++health_.clear_packets;
  });
  tunnel_->start([this, done = std::move(done)](bool ok) {
    vpn_ok_ = ok;
    if (ok && !vpn_up_time_) vpn_up_time_ = sim_.now();
    if (done) done(ok);
  });
}

void ClientKit::download(std::function<void(const apps::DownloadOutcome&)> done) {
  apps::run_download(*topo_.client, topo_.web_server, 80,
                     [this, done = std::move(done)](const apps::DownloadOutcome& o) {
                       outcome_ = o;
                       if (done) done(o);
                     });
}

namespace {
constexpr double kUsPerSecond = 1e6;
/// Wire framing added to each VPN data record: 8-byte sequence number plus
/// the AEAD tag (the inner IP bytes themselves are what the counters hold).
constexpr double kVpnRecordFraming = 8.0 + crypto::kAeadTagLen;
}  // namespace

Metrics ClientKit::collect_metrics() const {
  Metrics m;
  m.sim_time_s = static_cast<double>(sim_.now()) / kUsPerSecond;
  m.events_fired = sim_.events_fired();
  m.trace_records = trace_.size();
  m.trace_warnings = trace_.warnings();
  m.stats = sim_.stats_snapshot();

  if (outcome_) {
    m.download_completed = outcome_->file_fetched;
    m.md5_verified = outcome_->md5_verified;
    m.trojaned = outcome_->file_fetched && outcome_->fetched_md5_hex == trojan_md5();
    m.victim_deceived = m.trojaned && m.md5_verified;
  }

  if (wids_enabled_) {
    m.wids_enabled = true;
    if (wids_attack_start_) {
      m.wids_attack_start_s =
          static_cast<double>(*wids_attack_start_) / kUsPerSecond;
    }
    std::optional<sim::Time> first_true;
    for (const auto& detector : detectors_) {
      for (const detect::Alert& alert : detector->alerts()) {
        ++m.wids_alerts;
        const bool false_alert =
            !wids_attack_start_ || alert.time < *wids_attack_start_;
        if (false_alert) {
          ++m.wids_false_alerts;  // fired with no attack underway
        } else if (!first_true || alert.time < *first_true) {
          first_true = alert.time;
        }
        m.wids_alert_timeline.push_back(Metrics::WidsAlert{
            static_cast<double>(alert.time) / kUsPerSecond,
            std::string(detector->name()),
            std::string(detect::to_string(alert.kind)), false_alert});
      }
    }
    if (first_true) {
      m.wids_time_to_detect_s =
          static_cast<double>(*first_true - *wids_attack_start_) / kUsPerSecond;
      m.rogue_detected = true;
    }
  }

  if (injector_) m.faults_injected = injector_->injected();

  if (tunnel_) {
    m.vpn_established = vpn_ok_ && tunnel_->established();
    m.vpn_tunnel_losses = health_.losses();
    m.vpn_reconnects = health_.reconnects();
    m.vpn_downtime_s = health_.downtime_s(sim_.now());
    if (health_.recover().count() > 0) {
      m.vpn_recover_p50_s = health_.recover().percentile(0.50);
      m.vpn_recover_p95_s = health_.recover().percentile(0.95);
    }
    m.clear_packets = health_.clear_packets;
    const vpn::ClientCounters& c = tunnel_->counters();
    m.vpn_records_out = c.records_out;
    m.vpn_records_in = c.records_in;
    if (vpn_up_time_ && sim_.now() > *vpn_up_time_) {
      const double active_s =
          static_cast<double>(sim_.now() - *vpn_up_time_) / kUsPerSecond;
      m.vpn_goodput_kbps =
          static_cast<double>(c.bytes_decrypted) * 8.0 / 1000.0 / active_s;
    }
    const double payload =
        static_cast<double>(c.bytes_sealed + c.bytes_decrypted);
    if (payload > 0.0) {
      const double wire =
          payload + kVpnRecordFraming *
                        static_cast<double>(c.records_out + c.records_in);
      m.vpn_overhead_ratio = wire / payload;
    }
    // Transport-resilience block (EXP-T1): only the datagram transport
    // exercises the anti-replay / rekey / roam machinery, and gating on it
    // keeps TCP-transport reports byte-identical.
    if (config_.vpn_transport == vpn::Transport::kUdp) {
      const vpn::EndpointCounters& e = topo_.endpoint->counters();
      m.transport_enabled = true;
      m.vpn_replay_drops = c.records_replayed + e.records_replayed;
      m.vpn_auth_fail_drops = c.records_auth_fail + e.records_auth_fail;
      m.vpn_stale_epoch_drops = c.records_stale_epoch + e.records_stale_epoch;
      m.vpn_rekeys = c.rekeys;
      m.vpn_roams = e.roams;
      m.vpn_sessions_reaped = e.sessions_reaped;
    }
  }
  return m;
}

}  // namespace rogue::scenario
