// The common scenario interface the experiment runner drives. A World
// packages one self-contained simulated testbed (simulator, radio medium,
// hosts, attacker, workload) behind a uniform lifecycle:
//
//   world.configure(seed);   // reseed every PRNG stream from one root seed
//   world.run_episode();     // start() + the scenario's canonical script
//   Metrics m = world.collect_metrics();
//
// Each World owns ALL of its mutable state — two worlds never share a
// simulator, medium, host, or PRNG — so replicas can run on any thread of
// a sweep and remain bit-deterministic per seed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stats.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/stats.hpp"

namespace rogue::scenario {

/// Scenario-agnostic observations from one replica episode. Fields that a
/// scenario does not measure keep their "not observed" defaults (-1 for
/// latencies, false/0 elsewhere), so aggregation can filter on them.
struct Metrics {
  // Rogue capture (paper Figure 1).
  bool victim_captured = false;
  double time_to_capture_s = -1.0;  ///< simulated seconds; -1 = never captured

  // Download workload (Figure 2).
  bool download_completed = false;
  bool trojaned = false;        ///< victim received the attacker's binary
  bool md5_verified = false;    ///< the checksum check passed
  bool victim_deceived = false; ///< trojaned AND verified: the paper's payoff

  // Detection (§2.3 monitors, when the scenario enables them).
  bool rogue_detected = false;
  double detection_latency_s = -1.0;  ///< rogue deploy -> first seq anomaly
  std::uint64_t seq_anomalies = 0;

  // VPN countermeasure (Figure 3).
  bool vpn_established = false;
  double vpn_goodput_kbps = 0.0;    ///< app payload rate through the tunnel
  double vpn_overhead_ratio = 0.0;  ///< sealed bytes / app payload bytes
  std::uint64_t vpn_records_out = 0;
  std::uint64_t vpn_records_in = 0;

  // Robustness under injected faults (chaos episodes).
  std::uint64_t faults_injected = 0;   ///< fault windows whose begin edge fired
  std::uint64_t vpn_tunnel_losses = 0; ///< sessions torn down (DPD/transport)
  std::uint64_t vpn_reconnects = 0;    ///< sessions re-established after loss
  double vpn_downtime_s = 0.0;         ///< tunnel-down time after first up
  double vpn_recover_p50_s = -1.0;     ///< time-to-recover percentiles across
  double vpn_recover_p95_s = -1.0;     ///< this replica's gaps; -1 = no gaps
  /// Packets the client sent outside the tunnel while it was down — the
  /// fail-open exposure the defended path is supposed to prevent.
  std::uint64_t clear_packets = 0;

  // Transport resilience (EXP-T1). Populated only when the scenario runs
  // a UDP tunnel; transport_enabled gates serialization so legacy reports
  // are byte-identical.
  bool transport_enabled = false;
  std::uint64_t vpn_replay_drops = 0;      ///< anti-replay window rejections
  std::uint64_t vpn_auth_fail_drops = 0;   ///< MAC verification failures
  std::uint64_t vpn_stale_epoch_drops = 0; ///< records from expired epochs
  std::uint64_t vpn_rekeys = 0;            ///< completed epoch rotations
  std::uint64_t vpn_roams = 0;             ///< endpoint path migrations
  std::uint64_t vpn_sessions_reaped = 0;   ///< half-open/idle sessions expired

  // WIDS tournament episode (attacker×detector pairings). Populated only
  // when a detector/attacker was attached via the pluggable interfaces;
  // wids_enabled gates their serialization so legacy reports are
  // byte-identical.
  bool wids_enabled = false;
  double wids_attack_start_s = -1.0;   ///< -1 = control row (no attack)
  std::uint64_t wids_alerts = 0;       ///< total alerts across detectors
  std::uint64_t wids_false_alerts = 0; ///< alerts before the attack began
  double wids_time_to_detect_s = -1.0; ///< attack start -> first true alert
  /// One entry per alert: when it fired, which detector, what kind — the
  /// raw timeline the tournament's TTD percentiles derive from (and are
  /// re-derivable from). Serialized inside the gated wids block.
  struct WidsAlert {
    double t_s = 0.0;         ///< simulated seconds
    std::string detector;     ///< registry name, e.g. "fingerprint"
    std::string kind;         ///< detect::to_string(AlertKind)
    bool false_alert = false; ///< fired before the attack began
  };
  std::vector<WidsAlert> wids_alert_timeline;

  // Metro roaming episode (EXP-C5 at city scale). Populated only by
  // scenario::MetroWorld; metro_enabled gates serialization so legacy
  // reports are byte-identical.
  bool metro_enabled = false;
  std::uint64_t metro_stas = 0;               ///< roaming population size
  std::uint64_t metro_aps = 0;                ///< APs incl. evil twins
  std::uint64_t metro_associations = 0;       ///< successful (re)associations
  std::uint64_t metro_roams = 0;              ///< voluntary better-AP moves
  std::uint64_t metro_beacon_losses = 0;      ///< watchdog-triggered drops
  std::uint64_t metro_join_failures = 0;      ///< auth/assoc timeouts
  std::uint64_t metro_deauths = 0;            ///< AP-initiated kicks received
  std::uint64_t metro_promiscuous_assocs = 0; ///< joins onto an evil twin
  double metro_promiscuous_rate = 0.0;        ///< rogue joins / all joins
  double metro_assoc_fraction = 0.0;          ///< STAs associated at end
  double metro_roam_p50_s = -1.0;             ///< disassoc->assoc latency
  double metro_roam_p95_s = -1.0;             ///< -1 = no closed roam gaps

  // Event-kernel counters (engineering health of the replica).
  std::uint64_t events_fired = 0;
  std::uint64_t trace_records = 0;   ///< events noted in the world's Trace
  std::uint64_t trace_warnings = 0;  ///< of those, noted at Severity::kWarn
  double sim_time_s = 0.0;

  /// Full layer-counter snapshot (phy/dot11/net/vpn/sim.*), deterministic
  /// per (variant, seed). Aggregated per variant by the sweep runner; not
  /// serialized per replica.
  obs::StatsSnapshot stats;
};

/// Folds a tunnel's up/down transitions (vpn::ClientTunnel's session
/// handler) into the robustness metrics: downtime, per-gap recovery
/// times, and — via the owning world's packet tap — in-the-clear packets.
class TunnelHealth {
 public:
  void on_session(sim::Time now, bool up) {
    if (up) {
      if (down_) {
        const sim::Time gap = now - down_since_;
        downtime_us_ += gap;
        recover_s_.add(static_cast<double>(gap) / 1e6);
        ++reconnects_;
        down_ = false;
      }
      ever_up_ = true;
    } else if (ever_up_ && !down_) {
      down_ = true;
      down_since_ = now;
      ++losses_;
    }
  }

  /// True while an established tunnel is currently torn down.
  [[nodiscard]] bool gap_open() const { return ever_up_ && down_; }
  [[nodiscard]] std::uint64_t losses() const { return losses_; }
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }
  [[nodiscard]] double downtime_s(sim::Time now) const {
    sim::Time total = downtime_us_;
    if (down_) total += now - down_since_;
    return static_cast<double>(total) / 1e6;
  }
  /// Recovery-time distribution over closed gaps.
  [[nodiscard]] const util::Summary& recover() const { return recover_s_; }

  std::uint64_t clear_packets = 0;  ///< maintained by the world's tap

 private:
  bool ever_up_ = false;
  bool down_ = false;
  sim::Time down_since_ = 0;
  sim::Time downtime_us_ = 0;
  std::uint64_t losses_ = 0;
  std::uint64_t reconnects_ = 0;
  util::Summary recover_s_;
};

class World {
 public:
  World() = default;
  virtual ~World() = default;

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Scenario id, e.g. "corp" or "hotspot".
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Re-root every PRNG stream in this world at `seed`. Must be called
  /// before start()/run_episode(); the world must not have run yet.
  virtual void configure(std::uint64_t seed) = 0;

  /// Bring the testbed up (idempotent).
  virtual void start() = 0;

  /// Ask the world to record every radio frame into its Trace (pcap
  /// export). Must be called before start(); worlds without a radio may
  /// ignore it. Off by default — capture copies every frame.
  virtual void enable_frame_capture() {}

  /// Drive the simulation forward by `duration` of simulated time.
  virtual void run_for(sim::Time duration) = 0;

  /// Run the scenario's canonical experiment script — which phases
  /// (attack, VPN, workload, detection) is selected by episode knobs in
  /// the scenario's config. Calls start() itself.
  virtual void run_episode() = 0;

  /// Attach a registry detector (detect::make_detector name) wired to
  /// this world's channel plan, AP inventory and monitor position.
  /// Returns false if the world does not support it or the name is
  /// unknown. Call after start() (or let run_episode() do it from the
  /// scenario config).
  virtual bool attach_detector(std::string_view /*name*/) { return false; }
  /// Attach a registry attacker (attack::make_attacker name) configured
  /// against this world's network. Started by the episode script.
  virtual bool attach_attacker(std::string_view /*name*/) { return false; }

  [[nodiscard]] virtual sim::Simulator& simulator() = 0;
  [[nodiscard]] virtual sim::Trace& trace() = 0;

  /// Snapshot the episode's observations. Valid any time after start();
  /// normally read once run_episode() returns.
  [[nodiscard]] virtual Metrics collect_metrics() const = 0;
};

}  // namespace rogue::scenario
