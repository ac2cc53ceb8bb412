// Per-simulation metrics registry: named counters, gauges (with high-water
// marks) and fixed-bucket histograms, built for the event hot path. A
// component interns its metric names once (like obs::Tracer names) and
// the returned handle indexes a flat uint64 array — an increment is one load
// plus one add, no hashing, no locks. One registry per Simulator keeps
// replicas thread-isolated and the counts a pure function of (seed,
// config), so stats can join the byte-identical sweep report.
//
// Default-constructed handles point at a reserved scrap slot, so an
// un-wired component increments harmlessly instead of faulting.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace rogue::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricKind kind);

/// Handles are plain slot indices into the registry's value array. Slot 0
/// is the scrap slot every default-constructed handle targets.
struct CounterId {
  std::uint32_t slot = 0;
};
struct GaugeId {
  std::uint32_t slot = 0;  ///< [slot] = current, [slot+1] = high water
};
struct HistogramId {
  std::uint32_t slot = 0;     ///< buckets..., then count, then sum
  std::uint32_t buckets = 1;  ///< bounds.size() + 1 (last bucket = +inf)
  std::uint32_t bound_offset = 0;  ///< into the registry's packed bounds
};

/// Read-only, name-sorted copy of a registry's metrics (plus any entries a
/// caller appends by hand — the simulator merges kernel/pool counters this
/// way). Safe to keep after the registry is gone.
struct StatsSnapshot {
  struct Histogram {
    std::vector<std::uint64_t> bounds;   ///< inclusive upper bounds
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t value = 0;       ///< counter total / gauge current
    std::uint64_t high_water = 0;  ///< gauges only
    Histogram hist;                ///< histograms only
  };

  std::vector<Entry> entries;  ///< sorted by name

  [[nodiscard]] const Entry* find(std::string_view name) const;
  /// Counter total / gauge current by name; 0 when absent.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;
  /// Re-sort after appending entries by hand.
  void sort();

  /// Object keyed by metric name: counters are bare numbers, gauges are
  /// {value, high_water}, histograms are {count, sum, bounds, buckets}.
  /// Deterministic: sorted names, integer values only.
  [[nodiscard]] util::Json to_json() const;
  /// Inverse of to_json(); entries come back name-sorted.
  [[nodiscard]] static StatsSnapshot from_json(const util::Json& j);
};

class StatsRegistry {
 public:
  StatsRegistry() {
    // Up-front capacity for a typical simulation's metric set, so a burst
    // of ctor-time interns doesn't reallocate the value array repeatedly.
    values_.reserve(128);
    metrics_.reserve(48);
    values_.resize(kScrapSlots, 0);  // slot 0..2: scrap for inert handles
  }

  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Intern a metric, returning a stable handle. Idempotent per name; the
  /// kind (and histogram bounds) must match on re-intern.
  [[nodiscard]] CounterId counter(std::string_view name);
  [[nodiscard]] GaugeId gauge(std::string_view name);
  /// `bounds` are inclusive upper bucket bounds, strictly increasing; a
  /// final +inf bucket is implicit.
  [[nodiscard]] HistogramId histogram(std::string_view name,
                                      std::vector<std::uint64_t> bounds);

  // ---- hot path ------------------------------------------------------------
  void add(CounterId id, std::uint64_t n = 1) { values_[id.slot] += n; }
  /// Overwrite a counter with an externally-kept running total. For
  /// components whose hot path tallies plain members and flushes from an
  /// on_snapshot() hook; idempotent across repeated snapshots.
  void set_total(CounterId id, std::uint64_t total) { values_[id.slot] = total; }
  void set(GaugeId id, std::uint64_t v) {
    values_[id.slot] = v;
    if (v > values_[id.slot + 1]) values_[id.slot + 1] = v;
  }
  void observe(HistogramId id, std::uint64_t sample) {
    const std::uint32_t last = id.buckets - 1;
    const std::uint64_t* bounds = bucket_bounds_.data() + id.bound_offset;
    std::uint32_t b = 0;
    while (b < last && sample > bounds[b]) ++b;
    ++values_[id.slot + b];
    ++values_[id.slot + id.buckets];              // count
    values_[id.slot + id.buckets + 1] += sample;  // sum
  }

  [[nodiscard]] std::uint64_t value(CounterId id) const { return values_[id.slot]; }
  [[nodiscard]] std::uint64_t value(GaugeId id) const { return values_[id.slot]; }
  [[nodiscard]] std::uint64_t high_water(GaugeId id) const {
    return values_[id.slot + 1];
  }

  [[nodiscard]] std::size_t metric_count() const { return metrics_.size(); }

  /// Zero every value (names and handles survive) — between episodes.
  void reset();

  /// Register a flush hook run at the start of every snapshot(). Lets a
  /// hot-path component keep plain member tallies (no registry traffic per
  /// event) and publish them just in time via set_total(). Returns a token
  /// for remove_snapshot_hook() — deregister before the component dies.
  std::uint64_t on_snapshot(std::function<void()> hook);
  void remove_snapshot_hook(std::uint64_t token);

  [[nodiscard]] StatsSnapshot snapshot() const;

 private:
  static constexpr std::size_t kScrapSlots = 3;  // widest scrap: gauge pair

  struct Metric {
    std::string name;
    MetricKind kind;
    std::uint32_t slot;
    std::uint32_t bound_count = 0;   ///< histograms: number of finite bounds
    std::uint32_t bound_offset = 0;  ///< into bucket_bounds_
  };

  [[nodiscard]] std::uint32_t intern(std::string_view name, MetricKind kind,
                                     std::uint32_t width);

  std::vector<Metric> metrics_;
  std::unordered_map<std::string, std::uint32_t> index_;  ///< name -> metrics_
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> bucket_bounds_;  ///< all histograms' bounds, packed
  std::vector<std::pair<std::uint64_t, std::function<void()>>> flush_hooks_;
  std::uint64_t next_hook_token_ = 1;
};

}  // namespace rogue::obs
