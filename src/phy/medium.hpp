// Radio medium: the broadcast physical layer whose openness the paper
// contrasts with "the physical security of the network jacks" (§3.1).
// Every radio within range on the same channel hears every frame — the
// MAC layer above decides what to keep, which is exactly why monitor-mode
// sniffing and rogue APs work.
//
// Propagation: log-distance path loss; a frame is delivered to a radio if
// its RSSI clears the radio's sensitivity, it survives a margin-dependent
// error probability, and it did not overlap another audible transmission
// on the same channel (collision, no capture effect).
//
// Delivery geometry: radios are bucketed into square cells whose side is
// the longest audible range any attached radio can produce, so everything
// a sender can reach lies in its 3x3 cell neighborhood. Each cell keeps
// the indices of its eight neighbors: a sender's delivery plan is gathered
// by walking that array, and a change in a cell bumps the epoch of every
// cell around it, so validating a plan is one compare and a position
// change invalidates only the plans whose neighborhoods hold the affected
// cell. Carrier sense and collisions are localized the same way. An
// office-sized world fits in one neighborhood — every radio on the channel
// is a candidate, as on an unbucketed medium — while a metro-scale world
// (hundreds of APs, 10k+ roaming STAs) only ever walks its neighborhood.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/flat_map.hpp"

namespace rogue::sim {
class Trace;
}  // namespace rogue::sim

namespace rogue::phy {

/// 802.11b channel number (1..14).
using Channel = std::uint8_t;

struct Position {
  double x = 0.0;
  double y = 0.0;
};

[[nodiscard]] double distance(const Position& a, const Position& b);

/// Reception metadata handed to the MAC with each frame.
struct RxInfo {
  sim::Time time = 0;
  double rssi_dbm = 0.0;
  Channel channel = 1;
};

struct MediumConfig {
  double path_loss_exponent = 3.0;   ///< indoor office
  double ref_loss_dbm = 40.0;        ///< loss at 1 m
  double bitrate_bps = 11e6;         ///< 802.11b
  sim::Time preamble_us = 192;       ///< long preamble + PLCP header
  /// Extra random loss applied even at high margin (interference floor).
  double base_loss_prob = 0.0;
  /// Margin (dB) at which frame success reaches ~63%; success prob is
  /// 1 - exp(-margin/margin_scale) scaled into [0, 1-base_loss].
  double margin_scale_db = 3.0;
  /// Per-reception fading: RSSI jitters uniformly in +/- this many dB.
  /// Gives scan results realistic sample noise (affects AP selection).
  double rssi_noise_db = 2.0;
  /// Carrier-sense blind window: a transmission started within the last
  /// `sense_latency_us` is invisible to CSMA (propagation + slot time),
  /// which is how genuinely simultaneous transmissions still collide.
  sim::Time sense_latency_us = 15;
  /// Max random backoff added when deferring to a busy channel.
  sim::Time max_backoff_us = 300;
  /// Pairwise-RSSI memoisation (Radio::pair_cache_). Worth it for mostly
  /// static worlds; metro-scale roaming turns it off because every
  /// mobility tick stales the entries while tens of thousands of
  /// per-sender slices cost real memory.
  bool pair_rssi_cache = true;
};

class Medium;

/// A radio attached to the medium. MAC layers (dot11::AccessPoint /
/// dot11::Station / attack::Sniffer) own one or more of these.
class Radio {
 public:
  using RxHandler = std::function<void(util::ByteView frame, const RxInfo& info)>;

  Radio(Medium& medium, std::string name);
  ~Radio();

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Channel channel() const { return channel_; }
  void set_channel(Channel ch);
  [[nodiscard]] const Position& position() const { return position_; }
  void set_position(Position p);
  [[nodiscard]] double tx_power_dbm() const { return tx_power_dbm_; }
  void set_tx_power_dbm(double p);
  [[nodiscard]] double sensitivity_dbm() const { return sensitivity_dbm_; }
  void set_sensitivity_dbm(double s);

  void set_receive_handler(RxHandler handler) { handler_ = std::move(handler); }

  /// Queue a frame for transmission on the current channel. The radio
  /// serializes its own transmissions and defers (CSMA) while the channel
  /// is sensed busy; delivery lands at tx start + airtime.
  void transmit(util::Bytes frame);

  /// Pooled buffer for building the next transmit() frame: recycled from
  /// the simulator's BufferPool, returned to it after delivery.
  [[nodiscard]] util::Bytes acquire_buffer(std::size_t reserve_hint = 0);

  /// Release the per-sender fan-out state (delivery plan + pair-RSSI
  /// slice) back to the allocator. Purely a memory knob for worlds with
  /// many rarely-transmitting radios (a metro STA sends a handful of
  /// join frames, then holds a neighborhood-sized plan forever); the
  /// state rebuilds transparently on the next transmission.
  void trim_tx_state();

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_received() const { return frames_received_; }
  [[nodiscard]] std::uint64_t frames_deferred() const { return deferred_; }
  [[nodiscard]] std::size_t tx_queue_depth() const {
    return queue_.size() - queue_head_;
  }

  /// This radio's tracer track (interned from its name at attach). MAC
  /// layers reuse it so phy and dot11 records share one track per radio.
  [[nodiscard]] obs::TraceActorId trace_actor() const { return trace_actor_; }

 private:
  friend class Medium;

  static constexpr std::uint32_t kNoCell = 0xffffffffu;
  /// A fresh radio's tx power / sensitivity; the grid starts sized for them.
  static constexpr double kDefaultTxPowerDbm = 15.0;
  static constexpr double kDefaultSensitivityDbm = -85.0;

  /// Pairwise RSSI (before per-reception noise) memoised between geometry
  /// changes; entries are revalidated against both radios' geom_epoch_.
  struct RssiCacheEntry {
    std::uint32_t tx_epoch = 0;
    std::uint32_t rx_epoch = 0;
    double rssi_dbm = 0.0;
  };

  /// One receiver's row in this radio's cached delivery plan: the pairwise
  /// RSSI (pre-noise) and the receiver's sensitivity, flattened so the
  /// fan-out loop streams a contiguous array instead of probing a hash map
  /// per (sender, receiver) pair.
  struct PlanEntry {
    Radio* rx;
    double rssi_dbm;
    double sens_dbm;
  };

  /// Per-sender fan-out table for one channel, validated against the
  /// grid generation, the sender's cell and that cell's neighborhood
  /// epoch (it only moves forward, so an unchanged epoch means an
  /// unchanged world within audible range).
  struct DeliveryPlan {
    std::uint64_t grid_epoch = 0;  ///< 0 = never built
    Channel channel = 0;
    std::uint32_t cell = kNoCell;   ///< sender's cell index at build
    std::uint64_t neigh_epoch = 0;  ///< that cell's Cell::epoch at build
    std::vector<PlanEntry> entries;
  };

  /// A frame waiting for the air, with the causal context captured when it
  /// was handed to the radio — CSMA deferral must not sever the chain a
  /// response rides.
  struct QueuedFrame {
    util::Bytes frame;
    std::uint64_t chain;
  };

  void attempt_transmit();

  Medium& medium_;
  std::string name_;
  Channel channel_ = 1;
  Position position_{};
  double tx_power_dbm_ = kDefaultTxPowerDbm;
  double sensitivity_dbm_ = kDefaultSensitivityDbm;
  std::uint64_t attach_seq_ = 0;   ///< attach order; keys the medium's caches
  obs::TraceActorId trace_actor_;  ///< tracer track for this radio's records
  std::uint32_t geom_epoch_ = 0;   ///< bumped on position/tx-power changes
  std::uint32_t cell_ = kNoCell;   ///< grid cell index
  std::size_t radios_index_ = 0;   ///< slot in Medium::radios_ (O(1) detach)
  /// Mutable: rebuilt lazily inside deliver_impl(), which sees the sender
  /// through a const pointer recorded at transmit time.
  mutable DeliveryPlan plan_;
  /// This radio's slice of the pairwise RSSI cache, keyed by the receiver's
  /// attach_seq_. Keeping the slice with the sender makes a plan rebuild an
  /// L2-sized walk instead of 2N probes into one world-sized table, and
  /// lets detach invalidate every slice in O(1) via cache_generation_.
  mutable util::FlatU64Map<RssiCacheEntry> pair_cache_;
  mutable std::uint64_t cache_gen_seen_ = 0;  ///< Medium::cache_generation_ sync
  RxHandler handler_;
  /// FIFO: pops advance queue_head_, and both reset once the queue drains,
  /// so the vector's capacity is reused and nothing erases from its front.
  std::vector<QueuedFrame> queue_;
  std::size_t queue_head_ = 0;
  sim::TimerHandle attempt_timer_;
  bool attempt_pending_ = false;
  bool contended_ = false;
  sim::Time own_busy_until_ = 0;
  unsigned backoff_attempts_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t deferred_ = 0;
};

class Medium {
 public:
  Medium(sim::Simulator& simulator, MediumConfig config = {});

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const MediumConfig& config() const { return config_; }

  /// Airtime for a frame of `bytes` octets at the configured bitrate.
  [[nodiscard]] sim::Time airtime(std::size_t bytes) const;
  /// RSSI (dBm) at distance d metres for the given tx power.
  [[nodiscard]] double rssi_at(double tx_power_dbm, double dist_m) const;
  /// Distance at which a transmitter at `tx_power_dbm` can still reach a
  /// receiver at `sensitivity_dbm` after the most favourable +rssi_noise_db
  /// fade — the radius the grid's cell side must cover.
  [[nodiscard]] double audible_range(double tx_power_dbm,
                                     double sensitivity_dbm) const;

  [[nodiscard]] std::uint64_t frames_transmitted() const { return tx_count_; }
  [[nodiscard]] std::uint64_t collisions() const { return collision_count_; }
  /// Number of per-sender delivery-plan rebuilds (each rebuild re-derives
  /// one sender's flattened fan-out table after a world change). A static
  /// world settles at one rebuild per active sender.
  [[nodiscard]] std::uint64_t plan_rebuilds() const { return plan_rebuild_count_; }
  /// The phy.* tallies, read by the stats registry (see obs::Publication).
  void publish(obs::Tallies& out) const;

  // ---- Grid introspection (tests) -----------------------------------------
  /// Cell side in metres. Grows over the run if a radio is tuned louder or
  /// more sensitive than any before it.
  [[nodiscard]] double grid_cell_size_m() const { return cell_size_m_; }
  /// Cell coordinates a radio at `p` belongs to.
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> grid_coords(
      const Position& p) const;
  /// Members of one cell in attach_seq_ order (empty if the cell does not
  /// exist). For property tests against brute-force recomputation.
  [[nodiscard]] std::vector<const Radio*> cell_members(
      std::int32_t cx, std::int32_t cy) const;

  /// Chaos knob: extra loss probability layered on top of the configured
  /// base_loss_prob while a degradation window is open (fault injection,
  /// scripted burst loss). 0 restores the configured floor.
  void set_loss_override(double extra_loss_prob);
  [[nodiscard]] double loss_override() const { return extra_loss_; }

  // Transport-chaos knobs (fault injection). All default to 0 = off; while
  // off the delivery path makes no extra RNG draws, so enabling them in
  // one variant cannot perturb another variant's draw sequence.
  /// Probability that a delivered frame is held back long enough to arrive
  /// after frames transmitted later (per receiver).
  void set_reorder(double probability);
  [[nodiscard]] double reorder() const { return reorder_prob_; }
  /// Probability that a delivered frame arrives twice (per receiver).
  void set_duplicate(double probability);
  [[nodiscard]] double duplicate() const { return duplicate_prob_; }
  /// Max uniform extra delivery latency, in milliseconds (per receiver).
  void set_jitter_ms(double max_ms);
  [[nodiscard]] double jitter_ms() const {
    return static_cast<double>(jitter_max_us_) / 1000.0;
  }

  /// Mirror every frame put on the air into `trace` (verbatim bytes +
  /// simulated timestamp) for pcap export. nullptr detaches the tap.
  void set_capture(sim::Trace* trace) { capture_ = trace; }

 private:
  friend class Radio;

  struct ActiveTx {
    std::uint64_t id;
    Channel channel;
    sim::Time start_time;
    sim::Time end_time;
    const Radio* sender;
    bool corrupted;
    std::int32_t cx;  ///< sender cell coords at tx start
    std::int32_t cy;
    /// Causal chain id the frame carries through delivery. Rides here, not
    /// in the delivery event's capture — the EventFn capture is exactly
    /// sized to its inline storage and must not grow.
    std::uint64_t trace_id;
  };

  /// One grid cell: the radios currently inside one cell-sized square,
  /// sorted by attach_seq_ (the RNG draw order of a delivery). Cells are
  /// created on first occupancy and kept until the next regrid (their
  /// epoch must stay monotone).
  struct Cell {
    std::int32_t cx = 0;
    std::int32_t cy = 0;
    /// Bumped by touch() on any membership/geometry/channel change in
    /// this cell or one of its neighbors.
    std::uint64_t epoch = 0;
    /// The 3x3 neighborhood, row-major from (cx-1, cy-1); this cell sits at
    /// index 4 and kNoCell marks a neighbor that does not exist yet. A new
    /// cell patches itself into its existing neighbors' arrays.
    std::array<std::uint32_t, 9> neighbors{};
    std::vector<Radio*> members;
  };

  void attach(Radio* radio);
  void detach(Radio* radio);
  void transmit(Radio& sender, util::Bytes frame);
  void deliver(std::uint64_t tx_id, const Radio* sender, const util::Bytes& frame);
  void deliver_impl(std::uint64_t tx_id, const Radio* sender,
                    const util::Bytes& frame);
  [[nodiscard]] double pair_rssi(const Radio& tx, const Radio& rx);
  /// Hand a chaos-delayed (or duplicated) frame copy to `rx` at the
  /// scheduled time, re-validating attachment/channel/handler and that the
  /// receiver is still within audible range of the cell the frame left
  /// from (`from_cx`/`from_cy`).
  void deliver_late(Radio* rx, Channel channel, double rssi, sim::Time at,
                    const util::Bytes& frame, std::int32_t from_cx,
                    std::int32_t from_cy, std::uint64_t trace_id);
  /// The sender's flattened fan-out table for `channel`, rebuilt if stale.
  [[nodiscard]] const Radio::DeliveryPlan& delivery_plan(const Radio& sender,
                                                         Channel channel);
  /// CSMA view for one listening radio: the latest end time of visible
  /// transmissions on its channel from its 3x3 neighborhood (those inside
  /// the sensing blind window are not yet visible).
  [[nodiscard]] sim::Time channel_busy_for(const Radio& listener) const;
  // ---- Grid internals -----------------------------------------------------
  [[nodiscard]] static std::uint64_t cell_key(std::int32_t cx, std::int32_t cy);
  /// Cell index for (cx, cy), creating the cell on first use.
  [[nodiscard]] std::uint32_t cell_at(std::int32_t cx, std::int32_t cy);
  /// Index of an existing cell, or Radio::kNoCell.
  [[nodiscard]] std::uint32_t find_cell(std::int32_t cx, std::int32_t cy) const;
  /// Record a change in cell `ci`: bumps the epoch of every cell in its
  /// 3x3 neighborhood, i.e. of every cell whose plans could list it.
  void touch(std::uint32_t ci);
  /// Insert `radio` into the cell for its current position (sorted by
  /// attach_seq_) and touch that cell.
  void grid_insert(Radio* radio);
  /// Remove `radio` from its cell and touch that cell.
  void grid_remove(Radio* radio);
  /// set_position() hook: same cell -> touch it (geometry changed); cell
  /// crossing -> move membership and touch both cells.
  void radio_moved(Radio& radio);
  /// set_tx_power/set_sensitivity/set_channel hook: widen grid bounds if
  /// needed, touch the radio's cell.
  void radio_retuned(Radio& radio);
  /// Widen the power ceiling / sensitivity floor to cover `radio`; regrids
  /// (rare, O(N)) when the audible range outgrows the current cell side, so
  /// the 3x3 neighborhood always covers the true audible range.
  void ensure_grid_bounds(const Radio& radio);
  /// Rebuild every cell at `new_cell_m`; all outstanding plans go stale
  /// via grid_epoch_.
  void regrid(double new_cell_m);
  /// Chebyshev distance in cells between two cell coordinates.
  [[nodiscard]] static std::int32_t cell_chebyshev(std::int32_t ax, std::int32_t ay,
                                                   std::int32_t bx, std::int32_t by);

  sim::Simulator& sim_;
  MediumConfig config_;
  /// Every attached radio, unordered (detach swap-removes via
  /// Radio::radios_index_). Delivery order never reads this: it comes from
  /// per-cell membership.
  std::vector<Radio*> radios_;
  /// attach_seq_ -> radio, nulled on detach (FlatU64Map has no erase).
  /// Lets chaos-delayed deliveries revalidate a receiver without an O(N)
  /// scan and without dereferencing a possibly-destroyed pointer.
  util::FlatU64Map<Radio*> by_seq_;
  std::vector<ActiveTx> active_;

  std::vector<Cell> cells_;
  util::FlatU64Map<std::uint32_t> cell_index_;  ///< cell_key -> index + 1
  /// Loudest transmitter / most sensitive receiver seen so far; the cell
  /// side is the audible range between them.
  double grid_power_ceiling_ = Radio::kDefaultTxPowerDbm;
  double grid_sens_floor_ = Radio::kDefaultSensitivityDbm;
  double cell_size_m_ = 0.0;
  std::uint64_t grid_epoch_ = 1;  ///< bumped per regrid; stales every plan

  double extra_loss_ = 0.0;
  double reorder_prob_ = 0.0;
  double duplicate_prob_ = 0.0;
  sim::Time jitter_max_us_ = 0;
  std::uint64_t next_attach_seq_ = 1;
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t plan_rebuild_count_ = 0;
  /// Bumped on detach: every radio's pair_cache_ slice is lazily dropped on
  /// its next probe (same observable miss pattern as clearing one global
  /// pair cache eagerly, without the world-sized sweep per detach).
  std::uint64_t cache_generation_ = 1;
  sim::Trace* capture_ = nullptr;

  // The only tallies of the phy.* stats: each event is one add here, and
  // publish() derives the common-path counts from them.
  std::uint64_t tx_count_ = 0;
  std::uint64_t collision_count_ = 0;
  std::uint64_t rssi_lookup_count_ = 0;  ///< non-sender receiver visits
  std::uint64_t drop_margin_count_ = 0;
  std::uint64_t drop_loss_count_ = 0;
  std::uint64_t rssi_miss_count_ = 0;
  std::uint64_t no_handler_count_ = 0;
  std::uint64_t deferral_count_ = 0;
  std::uint64_t chaos_delayed_count_ = 0;    ///< reorder/jitter-held frames
  std::uint64_t chaos_duplicated_count_ = 0; ///< extra copies delivered

  /// Observed per transmit: the one per-event registry write.
  obs::HistogramId stat_frame_bytes_;
  obs::Profiler::ScopeId deliver_scope_;
  obs::Profiler::ScopeId plan_scope_;
  // Tracer record names (interned at construction; recording is gated on
  // the tracer's enabled flag, one branch per site when off).
  obs::TraceNameId trace_tx_;
  obs::TraceNameId trace_rx_;
  obs::TraceNameId trace_rx_late_;
  obs::TraceNameId trace_drop_margin_;
  obs::TraceNameId trace_drop_loss_;
  obs::TraceNameId trace_drop_corrupt_;
  obs::Publication publication_{sim_.stats(), *this};
};

}  // namespace rogue::phy
