// ClientKit: the client-side plumbing every client world shares — how
// chaos, the pluggable WIDS, the §5 VPN countermeasure (Fig. 3) and the
// download workload (Fig. 2) land on a world. CorpWorld and HotspotWorld
// each own one as a member, constructed after their simulator, trace and
// medium; a world builds its own topology in start() and then bind()s the
// kit to the handful of facts below (client host, AP, VPN endpoint, the
// WIDS world facts). Everything downstream of those facts — the fault
// hooks, fault plan, chatter, detector/attacker attach, the tunnel with
// its health and fail-open meter, the download and the metrics they feed
// — exists once, here. Callers reach it through `world.kit()`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/download.hpp"
#include "attack/attacker.hpp"
#include "attack/deauth.hpp"
#include "detect/detector.hpp"
#include "dot11/ap.hpp"
#include "faults/fault.hpp"
#include "net/host.hpp"
#include "phy/medium.hpp"
#include "scenario/world.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "vpn/client.hpp"
#include "vpn/endpoint.hpp"

namespace rogue::scenario {

/// Episode knobs shared by every client world. CorpConfig and
/// HotspotConfig derive from it and add their topology and own phases.
struct EpisodeConfig {
  std::uint64_t seed = 1;

  // Radio environment.
  phy::MediumConfig medium;

  // Download workload.
  std::size_t release_size = 16 * 1024;

  // VPN configuration. Each world sets its own vpn_psk default.
  vpn::Transport vpn_transport = vpn::Transport::kTcp;
  util::Bytes vpn_psk;

  // Episode script (World::run_episode()): settle, then the world's own
  // phases, then optionally bring the VPN up, then the download.
  bool use_vpn = false;
  bool do_download = true;
  sim::Time settle_time = 3 * sim::kSecond;
  sim::Time vpn_window = 10 * sim::kSecond;
  sim::Time download_window = 60 * sim::kSecond;
  /// Cadence of forged deauths (deauth storms, flooding attackers).
  sim::Time deauth_period = 100 * sim::kMillisecond;

  // Chaos (fault injection) episode knobs.
  /// Generate a seed-derived faults::Plan over the episode windows and
  /// inject it while the episode runs.
  bool inject_faults = false;
  /// Plan shape; horizon == 0 means "derive [settle, episode end) from the
  /// phase windows above".
  faults::PlanConfig faults;
  /// Self-healing VPN client (keepalive/DPD + reconnect with backoff).
  bool vpn_auto_reconnect = false;
  /// Tunnel gap policy: fail open (restore the raw default route — exposed
  /// but connected, measured by Metrics::clear_packets) vs fail closed.
  bool vpn_fail_open = true;
  /// Background client heartbeat during chaos episodes (0 disables). A
  /// stalled download transmits nothing, so without ambient traffic the
  /// fail-open exposure meter would read zero by construction.
  sim::Time chatter_period = 500 * sim::kMillisecond;

  // WIDS tournament episode (attacker×detector pairing). When either
  // list is non-empty, run_episode() runs the tournament script instead
  // of the world's phases: settle, a quiet baseline window (false-positive
  // territory), then the attacker's window. wids_attacker "none" is the
  // control row; "" keeps the world's phases.
  std::vector<std::string> wids_detectors;
  std::string wids_attacker;
  sim::Time wids_baseline_window = 8 * sim::kSecond;
  sim::Time wids_attack_window = 20 * sim::kSecond;

  [[nodiscard]] bool wids_episode() const {
    return !wids_detectors.empty() || !wids_attacker.empty();
  }
};

class ClientKit final : private faults::FaultTarget {
 public:
  /// The topology facts a world binds at the end of its start().
  struct Topology {
    net::Host* client = nullptr;
    dot11::AccessPoint* ap = nullptr;  ///< the AP the client trusts
    vpn::Endpoint* endpoint = nullptr;
    net::Host* endpoint_host = nullptr;  ///< link faults flap its eth0
    net::Ipv4Addr web_server;
    /// Tunnel seed: endpoint address and port plus any record-layer
    /// settings the world carries; the kit adds psk, transport and the
    /// recovery policy from the EpisodeConfig.
    vpn::ClientConfig vpn;
    /// Where the chaos deauth storm's radio sits. It forges deauths from
    /// attacker.legit_bssid to attacker.victim_mac on legit_channel.
    phy::Position storm_position;
    /// WIDS world facts. The kit fills in sim, medium and trace, and for
    /// the attacker deauth_period and a "wids.attacker" rng stream.
    detect::DetectorEnv detector;
    attack::AttackerEnv attacker;
  };

  ClientKit(sim::Simulator& simulator, phy::Medium& medium, sim::Trace& trace,
            const EpisodeConfig& config);

  ClientKit(const ClientKit&) = delete;
  ClientKit& operator=(const ClientKit&) = delete;

  /// Bind to the world's topology. Every hook below needs it.
  void bind(Topology topology);

  // ---- Chaos ---------------------------------------------------------------
  /// Generate the seed-derived fault plan over the episode windows (settle,
  /// then `extra_window` of the world's own phases, the VPN and download
  /// windows) and schedule it, then start the chatter. Idempotent.
  void install_fault_plan(sim::Time extra_window = 0);
  [[nodiscard]] const faults::Injector* fault_injector() const {
    return injector_.get();
  }

  // ---- Pluggable WIDS ------------------------------------------------------
  /// Attach a registry detector wired to the world's channel plan, AP
  /// inventory, monitor position and wired segment.
  bool attach_detector(std::string_view name);
  /// Attach a registry attacker configured against the world ("none" arms
  /// nothing — the tournament's control row).
  bool attach_attacker(std::string_view name);
  /// Tournament script: attach the configured roster, chatter, settle +
  /// quiet baseline, then the attack window. Throws on unknown names.
  void run_wids_episode();
  /// The environment attach_detector() hands out (exposed for tests).
  [[nodiscard]] detect::DetectorEnv detector_env();
  [[nodiscard]] attack::Attacker* wids_attacker() { return attacker_.get(); }

  // ---- VPN (Figure 3) ------------------------------------------------------
  /// The client tunnels all traffic to the trusted endpoint.
  void connect_vpn(std::function<void(bool ok)> done);
  [[nodiscard]] vpn::ClientTunnel* tunnel() { return tunnel_.get(); }
  [[nodiscard]] const TunnelHealth& tunnel_health() const { return health_; }

  // ---- Download workload (Figure 2) ----------------------------------------
  /// The client fetches the download page, follows the link, verifies the
  /// MD5SUM.
  void download(std::function<void(const apps::DownloadOutcome&)> done);
  /// The genuine release blob and the attacker's trojan.
  [[nodiscard]] const util::Bytes& release_blob() const { return release_; }
  [[nodiscard]] const util::Bytes& trojan_blob() const { return trojan_; }
  [[nodiscard]] std::string release_md5() const;
  [[nodiscard]] std::string trojan_md5() const;

  /// The metrics every client world reports: kernel counters, download,
  /// WIDS, faults and tunnel. The world adds its own observations.
  [[nodiscard]] Metrics collect_metrics() const;

  // ---- Read-only views of the bound topology -------------------------------
  [[nodiscard]] const phy::Medium& medium() const { return medium_; }
  [[nodiscard]] const dot11::AccessPoint& ap() const { return *topo_.ap; }
  [[nodiscard]] const vpn::Endpoint& endpoint() const { return *topo_.endpoint; }
  [[nodiscard]] const net::Host& endpoint_host() const {
    return *topo_.endpoint_host;
  }

 private:
  void run_for(sim::Time duration) { sim_.run_until(sim_.now() + duration); }
  [[nodiscard]] attack::AttackerEnv attacker_env();
  /// Ambient client heartbeat toward the web server (no-op when disabled
  /// or already running).
  void start_chatter();

  // faults::FaultTarget — how chaos lands on the bound components.
  void fault_ap(bool down) override;
  void fault_endpoint(bool down) override;
  void fault_channel(double extra_loss) override;
  void fault_link(bool down) override;
  void fault_deauth_storm(bool active) override;
  void fault_reorder(double probability) override;
  void fault_duplicate(double probability) override;
  void fault_jitter(double max_ms) override;

  sim::Simulator& sim_;
  phy::Medium& medium_;
  sim::Trace& trace_;
  const EpisodeConfig& config_;
  Topology topo_;

  util::Bytes release_;
  util::Bytes trojan_;

  std::unique_ptr<vpn::ClientTunnel> tunnel_;
  std::unique_ptr<faults::Injector> injector_;
  std::unique_ptr<attack::DeauthAttacker> chaos_deauth_;
  std::vector<std::unique_ptr<detect::Detector>> detectors_;
  std::unique_ptr<attack::Attacker> attacker_;
  std::shared_ptr<net::UdpSocket> chatter_sock_;
  TunnelHealth health_;

  // Episode observations for collect_metrics().
  std::optional<sim::Time> wids_attack_start_;
  bool wids_enabled_ = false;
  std::optional<sim::Time> vpn_up_time_;
  bool vpn_ok_ = false;
  std::optional<apps::DownloadOutcome> outcome_;
};

}  // namespace rogue::scenario
