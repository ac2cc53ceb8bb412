// Per-simulation metrics registry. Each component keeps the only tally of
// what it counts, in its own plain members, and registers one publish()
// member through a Publication; every snapshot reads the live components'
// tallies through it, and a component's last counts are folded into the
// run's totals when it is destroyed. Tallies with the same name are summed
// over all instances. The one per-event registry write is a histogram
// observe(). One registry per Simulator keeps replicas thread-isolated and
// the counts a pure function of (seed, config), so stats can join the
// byte-identical sweep report.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace rogue::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricKind kind);

/// Slot handle of a histogram. A default-constructed handle targets a
/// reserved scrap range, so an un-interned histogram observes harmlessly.
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

  /// Calls `row(name, value)` for each flat report row, in entry order: a
  /// counter gives <name>, a gauge <name> and <name>.high_water, and a
  /// histogram <name>.count and <name>.sum. The one flattening rule of
  /// every report that lists stats as plain numbers.
  template <typename Fn>
  void for_each_row(Fn&& row) const {
    for (const Entry& e : entries) {
      switch (e.kind) {
        case MetricKind::kCounter:
          row(e.name, e.value);
          break;
        case MetricKind::kGauge:
          row(e.name, e.value);
          row(e.name + ".high_water", e.high_water);
          break;
        case MetricKind::kHistogram:
          row(e.name + ".count", e.hist.count);
          row(e.name + ".sum", e.hist.sum);
          break;
      }
    }
  }

  /// Object keyed by metric name: counters are bare numbers, gauges are
  /// {value, high_water}, histograms are {count, sum, bounds, buckets}.
  /// Deterministic: sorted names, integer values only.
  [[nodiscard]] util::Json to_json() const;
  /// Inverse of to_json(); entries come back name-sorted.
  [[nodiscard]] static StatsSnapshot from_json(const util::Json& j);
};

class StatsRegistry;

/// What a component's publish() reports its tallies to. A name may come
/// from any number of components; the registry sums their values.
class Tallies {
 public:
  /// A running count, listed from the component's registration on (even
  /// at 0) and kept in the totals after the component is destroyed.
  void counter(std::string_view name, std::uint64_t total);
  /// A running count listed only from the first snapshot that reads it as
  /// non-zero: for tallies most runs never raise, which would otherwise
  /// add a name to every run's snapshot.
  void lazy_counter(std::string_view name, std::uint64_t total) {
    if (total != 0) counter(name, total);
  }
  /// A level sampled at each snapshot. Listed from the first snapshot that
  /// reads it as non-zero, with its high-water mark: the maximum over the
  /// snapshot instants. A destroyed component's level drops out.
  void gauge(std::string_view name, std::uint64_t level);

 private:
  friend class StatsRegistry;
  Tallies(const StatsRegistry& registry, bool retiring)
      : registry_(registry), retiring_(retiring) {}

  const StatsRegistry& registry_;
  bool retiring_;  ///< folding a destroyed component's final counts
};

class StatsRegistry {
 public:
  StatsRegistry();

  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Intern a histogram, returning a stable handle. `bounds` are inclusive
  /// upper bucket bounds, strictly increasing; a final +inf bucket is
  /// implicit. Idempotent per name; the bounds must match on re-intern.
  [[nodiscard]] HistogramId histogram(std::string_view name,
                                      std::vector<std::uint64_t> bounds);

  // ---- hot path ------------------------------------------------------------
  void observe(HistogramId id, std::uint64_t sample) {
    const std::uint32_t last = id.buckets - 1;
    const std::uint64_t* bounds = bucket_bounds_.data() + id.bound_offset;
    std::uint32_t b = 0;
    while (b < last && sample > bounds[b]) ++b;
    ++values_[id.slot + b];
    ++values_[id.slot + id.buckets];              // count
    values_[id.slot + id.buckets + 1] += sample;  // sum
  }

  /// Every live component's tallies plus the destroyed ones' totals, sorted
  /// by name. Reading advances the gauges' high-water marks and lists the
  /// names that first turned non-zero, so a snapshot is part of a run's
  /// history: the same run sampled at other instants may hold other marks.
  [[nodiscard]] StatsSnapshot snapshot() const;

 private:
  friend class Tallies;
  friend class Publication;

  using PublishFn = void (*)(const void* owner, Tallies& out);
  struct Publisher {
    const void* owner = nullptr;  ///< nullptr: a free slot
    PublishFn publish = nullptr;
  };
  struct Metric {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t retired = 0;     ///< counters: destroyed components' sum
    std::uint64_t live = 0;        ///< the snapshot being read
    std::uint64_t high_water = 0;  ///< gauges: max over snapshot instants
    std::uint32_t slot = 0;        ///< histograms: into values_
    std::uint32_t bound_count = 0;   ///< histograms: number of finite bounds
    std::uint32_t bound_offset = 0;  ///< into bucket_bounds_
  };

  [[nodiscard]] std::uint32_t add_publisher(const void* owner, PublishFn fn);
  void retire(std::uint32_t slot);
  /// The metric named `name`, inserted in name order when new; nullptr
  /// when absent and `create` is false.
  Metric* metric(std::string_view name, MetricKind kind, bool create) const;

  // The name table is logically part of every snapshot's reading: a
  // snapshot lists names that turned non-zero and moves high-water marks.
  mutable std::vector<Metric> metrics_;  ///< sorted by name
  std::vector<Publisher> publishers_;
  std::vector<std::uint32_t> free_publishers_;
  std::vector<std::uint64_t> values_;  ///< histogram buckets, count, sum
  std::vector<std::uint64_t> bucket_bounds_;  ///< all histograms' bounds, packed
};

/// A component's registration with its simulator's registry: while it
/// lives, every snapshot calls `owner.publish(Tallies&)`, and its
/// destructor calls it once more to fold the final counts into the run's
/// totals. Declare it after every member publish() reads, so it is
/// destroyed first.
class Publication {
 public:
  template <typename T>
  Publication(StatsRegistry& registry, const T& owner)
      : registry_(registry),
        slot_(registry.add_publisher(&owner, [](const void* o, Tallies& out) {
          static_cast<const T*>(o)->publish(out);
        })) {}
  ~Publication() { registry_.retire(slot_); }

  Publication(const Publication&) = delete;
  Publication& operator=(const Publication&) = delete;

 private:
  StatsRegistry& registry_;
  std::uint32_t slot_;
};

}  // namespace rogue::obs
