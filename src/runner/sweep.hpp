// Parallel multi-seed experiment runner. A sweep fans N (seed, variant)
// replicas across a worker pool; every replica builds a private World (its
// own simulator, hosts, PRNG — nothing shared), runs the scenario's
// canonical episode, and emits a RunMetrics record. The runner then
// aggregates per variant into mean/percentile summaries.
//
// Determinism: a replica's result is a pure function of (variant, seed).
// Workers write into an index-ordered results vector and aggregation runs
// sequentially in replica order afterwards, so the report — including its
// serialized bytes — is identical at 1, 2, or 8 worker threads. Wall-clock
// readings stay out of the JSON for the same reason.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runner/metrics.hpp"
#include "scenario/world.hpp"
#include "util/buffer_pool.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace rogue::runner {

/// Build a fresh world for one replica. The factory bakes in the variant's
/// scenario config; the runner reseeds the world via World::configure(), so
/// the factory may ignore `seed` (it is passed for factories that need it
/// while constructing, e.g. to derive per-replica geometry).
using WorldFactory =
    std::function<std::unique_ptr<scenario::World>(std::uint64_t seed)>;

struct Variant {
  std::string name;  ///< e.g. "baseline", "rogue+deauth"
  WorldFactory make;
};

struct SweepConfig {
  std::string scenario = "corp";  ///< label stamped into every record
  std::uint64_t seed_base = 1;    ///< replica i uses seed_base + i
  std::size_t runs = 100;         ///< replicas per variant
  std::size_t jobs = 0;           ///< worker threads; 0 = hardware
  /// Per-replica buffer-pool setup. slab_buffers > 0 pre-warms each
  /// replica's arena before its episode runs (every replica owns its
  /// simulator, so arenas never cross threads) and adds the arena's
  /// high-water/spill counters to the stats report.
  util::BufferPoolConfig pool;
  /// Enable the causal tracer / flight recorder in every replica. Off by
  /// default: the legacy report bytes (and hot-path cost) are unchanged.
  bool trace = false;
  /// Per-replica flight-recorder ring capacity (records).
  std::size_t trace_ring_events = 1 << 16;
  /// Snapshot each replica's StatsRegistry every this many sim-seconds
  /// (0 = timeseries sampling off). Adds one periodic event per replica,
  /// so events_fired shifts — like `trace`, off by default.
  double timeseries_dt_s = 0.0;
};

/// Per-variant aggregate. Rates are over all replicas; the Summary fields
/// aggregate only the replicas where the quantity was observed (captured /
/// detected / tunnel up), so "never happened" does not skew the latency.
struct VariantSummary {
  std::string name;
  std::size_t runs = 0;
  std::size_t failed = 0;  ///< replicas that threw; excluded from the rest
  double capture_rate = 0.0;
  util::Summary time_to_capture_s;
  double download_rate = 0.0;
  double deception_rate = 0.0;
  double detection_rate = 0.0;
  util::Summary detection_latency_s;
  double vpn_rate = 0.0;
  util::Summary vpn_goodput_kbps;
  util::Summary vpn_overhead_ratio;
  // Robustness under chaos (replicas that ran a tunnel).
  util::Summary faults_injected;
  util::Summary vpn_reconnects;
  util::Summary vpn_downtime_s;
  util::Summary time_to_recover_s;  ///< per-replica p95, gaps that healed
  util::Summary clear_packets;
  util::Summary events_fired;
  util::Summary sim_time_s;
  // Metro roaming (replicas with metro_enabled; the aggregate block is
  // serialized only when metro_runs > 0, keeping legacy report bytes).
  std::size_t metro_runs = 0;
  util::Summary metro_associations;
  util::Summary metro_roams;
  util::Summary metro_roam_p95_s;
  util::Summary metro_promiscuous_rate;
  util::Summary metro_assoc_fraction;
  /// Layer-counter aggregates, one Summary per metric name over the
  /// variant's non-failed replicas. Gauges contribute a second
  /// "<name>.high_water" entry; histograms contribute "<name>.count" and
  /// "<name>.sum". Sorted by name (deterministic report bytes).
  std::vector<std::pair<std::string, util::Summary>> stats;
};

struct SweepReport {
  SweepConfig config;
  double wall_ms = 0.0;  ///< whole-sweep wall clock (console only)
  std::vector<RunMetrics> runs;  ///< variant-major, seed-minor order
  std::vector<VariantSummary> summaries;

  /// Machine-readable report. Deterministic: depends only on the
  /// experiment parameters and seeds, never on jobs or host speed.
  [[nodiscard]] util::Json to_json() const;
  /// The serialized replica records of variant `v`, in seed order.
  [[nodiscard]] util::Json runs_json(std::size_t v) const;
  /// (variant, seed, error) per failed replica — the report's "failures"
  /// array. With tracing on, each also carries its flight-recorder tail.
  [[nodiscard]] util::Json failures_json() const;
  /// Just the per-variant layer-counter aggregates (the --stats-out file).
  /// Deterministic under the same contract as to_json().
  [[nodiscard]] util::Json stats_json() const;
  /// Every traced replica's records as Chrome trace events (load in
  /// Perfetto / chrome://tracing): one process per replica, one track per
  /// actor, sim-time as microseconds. Callers may add tracks of their own
  /// (the host-time profile) before finish(). Deterministic under the same
  /// contract as to_json().
  void write_chrome_trace(obs::ChromeTraceWriter& out) const;
  /// Timeseries samples as JSON Lines, one StatsRegistry snapshot per
  /// (replica, sample point) — the --timeseries-out file. Deterministic.
  [[nodiscard]] std::string timeseries_jsonl() const;
  /// Fixed-width console table of the per-variant aggregates.
  [[nodiscard]] std::string table() const;
  /// Replicas that threw instead of completing (drives CLI exit codes).
  [[nodiscard]] std::size_t failed_count() const;
};

/// {count, mean, p50, p95} of one aggregate, zeros when it is empty.
[[nodiscard]] util::Json summary_json(const util::Summary& s);

class ExperimentRunner {
 public:
  explicit ExperimentRunner(SweepConfig config);

  void add_variant(std::string name, WorldFactory make);
  [[nodiscard]] std::size_t variant_count() const { return variants_.size(); }

  /// Run runs-per-variant replicas of every variant across the pool.
  [[nodiscard]] SweepReport run();

 private:
  SweepConfig config_;
  std::vector<Variant> variants_;
};

}  // namespace rogue::runner
