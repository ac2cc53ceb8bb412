// Metro world (EXP-C5 at city scale): the paper's "network promiscuity"
// claim — any STA walks up and associates with any AP it can hear (§4) —
// stressed at the scale where it becomes interesting: hundreds of APs on
// a street grid, tens of thousands of STAs roaming between them, and a
// handful of evil-twin rogues advertising the same ESS. The episode
// measures roam latency, association churn, and how often a roaming STA
// lands on a rogue (the promiscuous-association rate).
//
// Stations here are NOT dot11::Station instances — that class carries
// per-STA scan tables, WEP/WPA state and trace plumbing sized for
// ten-station worlds. A metro STA is a minimal state machine over a bare
// phy::Radio and the dot11 frame codecs: passive scan -> open auth ->
// associate -> monitor beacons (roam on better RSSI, rescan on beacon
// loss). The APs are real dot11::AccessPoint instances, so the handshake
// the STA runs is the same one every other scenario exercises.
//
// Scale notes: the medium runs with the pairwise-RSSI cache off, its
// spatial grid keeps every delivery inside a 3x3 cell neighborhood, one
// world-level mobility timer moves every STA (no per-STA motion timers), and each STA
// releases its delivery-plan memory (Radio::trim_tx_state) whenever it
// leaves the join phase — a STA transmits a handful of management frames
// per roam, so holding a neighborhood-sized plan between roams is pure
// waste at 50k stations.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "dot11/ap.hpp"
#include "dot11/frame.hpp"
#include "net/addr.hpp"
#include "phy/medium.hpp"
#include "scenario/world.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace rogue::scenario {

struct MetroConfig {
  std::uint64_t seed = 1;

  // Street grid of legitimate APs: ap_cols x ap_rows, one AP per
  // intersection, channels cycling {1, 6, 11}.
  std::size_t ap_cols = 6;
  std::size_t ap_rows = 4;
  double ap_spacing_m = 80.0;
  std::string ssid = "METRO";

  /// Evil twins: same SSID, open auth, seed-derived positions. A best-RSSI
  /// roamer near one will join it — the paper's point.
  std::size_t rogue_count = 0;

  // Roaming population.
  std::size_t sta_count = 512;
  double sta_speed_mps = 12.0;           ///< waypoint speed (jittered per STA)
  sim::Time mobility_tick = 500 * sim::kMillisecond;
  /// STAs begin their first scan staggered uniformly over this window so
  /// the join storm does not land in one carrier-sense blind window.
  sim::Time start_stagger = 3 * sim::kSecond;

  // STA state-machine knobs.
  sim::Time scan_dwell = 120 * sim::kMillisecond;  ///< > beacon interval
  sim::Time join_timeout = 100 * sim::kMillisecond;
  sim::Time watchdog_period = 400 * sim::kMillisecond;
  sim::Time beacon_loss_after = 350 * sim::kMillisecond;  ///< ~3 intervals
  double roam_hysteresis_db = 6.0;
  unsigned roam_sightings = 3;  ///< consecutive better-beacon sightings

  sim::Time episode_duration = 20 * sim::kSecond;

  phy::MediumConfig medium;  ///< pair_rssi_cache is forced off on top
};

class MetroWorld final : public World {
 public:
  explicit MetroWorld(MetroConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "metro"; }
  void configure(std::uint64_t seed) override;
  void start() override;
  void run_for(sim::Time duration) override {
    sim_.run_until(sim_.now() + duration);
  }
  void run_episode() override;
  [[nodiscard]] Metrics collect_metrics() const override;
  [[nodiscard]] sim::Simulator& simulator() override { return sim_; }
  [[nodiscard]] sim::Trace& trace() override { return trace_; }
  void enable_frame_capture() override { capture_frames_ = true; }

  [[nodiscard]] const MetroConfig& config() const { return config_; }
  [[nodiscard]] phy::Medium& medium() { return medium_; }
  /// STAs currently associated (rogue or legitimate).
  [[nodiscard]] std::size_t associated_count() const;

 private:
  enum class StaState : std::uint8_t { kScanning, kJoining, kAssociated };

  /// One roaming station: a bare radio plus the few words of state the
  /// scan/join/monitor machine needs. Lives in a deque so references stay
  /// stable while the population is built.
  struct Sta {
    Sta(phy::Medium& medium, std::string radio_name, net::MacAddr mac_,
        util::Prng rng_)
        : radio(medium, std::move(radio_name)), mac(mac_), rng(rng_) {}

    phy::Radio radio;
    net::MacAddr mac;
    util::Prng rng;  ///< forked per STA: mobility + waypoint draws

    StaState state = StaState::kScanning;
    sim::TimerHandle timer;  ///< scan dwell / join timeout / watchdog
    std::uint16_t tx_seq = 0;

    // Mobility (random waypoint inside the world rectangle).
    phy::Position waypoint{};
    double speed_mps = 0.0;

    // Scanning: best beacon heard across the dwell sweep.
    std::size_t scan_idx = 0;
    bool have_candidate = false;
    net::MacAddr cand_bssid;
    phy::Channel cand_channel = 1;
    double cand_rssi = -200.0;

    // Joining / associated.
    net::MacAddr bssid;            ///< join target, then current AP
    double own_rssi = -200.0;      ///< last beacon RSSI from own AP
    sim::Time last_beacon = 0;
    unsigned better_streak = 0;    ///< consecutive stronger-neighbor beacons
    net::MacAddr better_bssid;
    /// Set when an association ends (beacon loss, deauth, roam departure);
    /// the next successful association closes the roam-latency gap.
    sim::Time disassoc_time = 0;
    bool roaming = false;  ///< a disassoc gap is open
  };

  void build_aps();
  void build_stas();
  void start_mobility();
  void mobility_tick();

  void enter_scan(Sta& sta);
  void scan_step(Sta& sta);
  void start_join(Sta& sta, net::MacAddr bssid, phy::Channel channel);
  void join_timed_out(Sta& sta);
  void enter_associated(Sta& sta);
  void watchdog_fire(Sta& sta);
  void connection_lost(Sta& sta);
  void on_sta_rx(Sta& sta, util::ByteView raw, const phy::RxInfo& info);
  template <typename Body>
  void send_mgmt(Sta& sta, dot11::MgmtSubtype subtype, net::MacAddr dst,
                 const Body& body);

  [[nodiscard]] bool is_rogue(net::MacAddr bssid) const {
    return rogue_bssids_.count(bssid) != 0;
  }

  MetroConfig config_;
  sim::Simulator sim_;
  sim::Trace trace_;
  phy::Medium medium_;

  std::vector<std::unique_ptr<dot11::AccessPoint>> aps_;
  std::unordered_set<net::MacAddr> rogue_bssids_;
  std::deque<Sta> stas_;
  util::Prng layout_rng_;  ///< rogue placement, STA spawn/waypoints

  double world_w_m_ = 0.0;
  double world_h_m_ = 0.0;

  bool started_ = false;
  bool capture_frames_ = false;

  // Episode observations.
  std::uint64_t associations_ = 0;        ///< successful (re)associations
  std::uint64_t roams_ = 0;               ///< voluntary better-AP departures
  std::uint64_t beacon_losses_ = 0;       ///< watchdog-triggered drops
  std::uint64_t join_failures_ = 0;       ///< auth/assoc timeouts
  std::uint64_t deauths_rx_ = 0;          ///< AP-initiated kicks
  std::uint64_t promiscuous_assocs_ = 0;  ///< joins that landed on a rogue
  util::Summary roam_latency_s_;          ///< disassoc -> next assoc gaps
};

}  // namespace rogue::scenario
