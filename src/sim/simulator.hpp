// Discrete-event simulation kernel. Single-threaded and deterministic:
// events fire in (time, insertion-order) order and all randomness flows
// from the simulator-owned PRNG, so a trial is reproducible from its seed.
//
// Internals are built for the hot path: a 4-ary heap over 24-byte POD
// entries (the callable never moves during sift operations), a
// slot/generation table giving O(1) cancel() and an exact pending() count,
// and small-buffer-optimized EventFn callbacks so typical captures never
// allocate. Cancelled events leave a stale heap entry behind (skipped on
// pop, compacted when they pile up); correctness never depends on the
// stale entries because every entry is validated against its slot's
// generation.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/stats.hpp"
#include "obs/tracer.hpp"
#include "sim/event_fn.hpp"
#include "sim/event_heap.hpp"
#include "util/buffer_pool.hpp"
#include "util/prng.hpp"

namespace rogue::sim {

/// Simulated time in microseconds.
using Time = std::uint64_t;

inline constexpr Time kMicrosecond = 1;
inline constexpr Time kMillisecond = 1000;
inline constexpr Time kSecond = 1'000'000;

/// Handle for cancelling a scheduled event. Default-constructed handles
/// are inert. Encodes (slot, generation): stale handles — already fired,
/// already cancelled, or from a recycled slot — are detected exactly, so
/// cancel() on them is a true no-op.
class TimerHandle {
 public:
  TimerHandle() = default;

  [[nodiscard]] bool valid() const { return id_ != 0; }

 private:
  friend class Simulator;
  explicit TimerHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;  // (generation << 32) | slot; generation >= 1
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] util::Prng& rng() { return rng_; }
  /// The root seed this simulation's every random decision derives from.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  /// Swap in a new root seed. Only legal on a pristine simulator (nothing
  /// scheduled or fired yet) — i.e., during World::configure(), before the
  /// scenario builds anything that draws randomness.
  void reseed(std::uint64_t seed);
  /// Derive an independent, named PRNG stream from the root seed. Unlike
  /// rng(), the derived stream does not depend on how many draws other
  /// components have made, only on (seed, stream name) — use it for
  /// randomness that must stay stable as the world grows components.
  [[nodiscard]] util::Prng derive_rng(std::string_view stream) const;
  /// Frame-buffer freelist shared by this simulation's phy/dot11/net hot
  /// paths. Per-simulator, so trials stay deterministic and thread-isolated.
  [[nodiscard]] util::BufferPool& buffer_pool() { return pool_; }
  /// Reconfigure the buffer pool (arena pre-warm, poisoning) during world
  /// setup. In arena mode stats_snapshot() additionally reports the pool's
  /// in-flight high-water mark and heap spills — names that only exist
  /// when the arena is on, so default-pool reports are unchanged.
  void configure_buffer_pool(const util::BufferPoolConfig& config) {
    pool_.configure(config);
  }
  /// Per-simulation metrics registry. Components register a Publication
  /// and keep their own tallies; values are deterministic (a pure function
  /// of seed and config, like every other observable).
  [[nodiscard]] obs::StatsRegistry& stats() { return stats_; }
  /// Host wall-time profiler, disabled by default. Enabling it never
  /// changes simulation behaviour — only how long the host takes.
  [[nodiscard]] obs::Profiler& profiler() { return profiler_; }
  /// Causal tracer / flight recorder, disabled by default. Records stamp
  /// sim-time and derive ids from the root seed, so dumps are as
  /// deterministic as every other observable; enabling it never changes
  /// simulation behaviour.
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
  /// Registry snapshot merged with the kernel's own instruments: event
  /// heap depth/cancels and the buffer pool's hit/miss/high-water counts.
  [[nodiscard]] obs::StatsSnapshot stats_snapshot() const;

  /// Schedule `fn` at absolute time t (must be >= now()).
  TimerHandle at(Time t, EventFn fn);
  /// Schedule `fn` after a relative delay.
  TimerHandle after(Time delay, EventFn fn);
  /// Cancel a scheduled event; O(1). No-op if already fired or cancelled.
  void cancel(TimerHandle handle);
  /// True while `handle` refers to a scheduled (not yet fired/cancelled)
  /// event or live periodic series.
  [[nodiscard]] bool scheduled(TimerHandle handle) const;

  /// Schedule fn every `period`, first firing after `phase` (defaults to
  /// one period). Returns a handle that cancels the whole series.
  TimerHandle every(Time period, EventFn fn);
  TimerHandle every(Time period, Time phase, EventFn fn);

  /// Execute the next event; false if the queue is empty.
  bool step();
  /// Run until the queue drains or `max_events` fire.
  void run(std::uint64_t max_events = ~0ULL);
  /// Run events with time <= t, then set now() = t.
  void run_until(Time t);

  /// Exact count of scheduled events (a periodic series counts as one).
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

 private:
  /// Per-event state. The generation distinguishes the slot's current
  /// tenant from stale heap entries and stale handles; it bumps every time
  /// the slot is freed.
  struct Slot {
    std::uint32_t gen = 1;
    bool periodic = false;
    Time period = 0;
    EventFn fn;
  };

  [[nodiscard]] std::uint32_t allocate_slot();
  void free_slot(std::uint32_t index);
  [[nodiscard]] TimerHandle schedule(Time t, EventFn&& fn, bool periodic,
                                     Time period);
  /// Pop stale (cancelled) entries off the heap top; afterwards the top,
  /// if any, is a live event. Returns false when the heap is empty.
  [[nodiscard]] bool settle_top();
  void maybe_compact();

  Time now_ = 0;
  std::uint64_t seed_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;   ///< scheduled events (periodic series count once)
  std::size_t stale_ = 0;  ///< cancelled entries still sitting in the heap
  // Before the event slots: a pending callback may own a component, whose
  // Publication must retire into a live registry.
  obs::StatsRegistry stats_;
  EventHeap heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  util::Prng rng_;
  util::BufferPool pool_;
  obs::Profiler profiler_;
  obs::Tracer tracer_;
  std::uint64_t cancels_ = 0;
  std::size_t heap_peak_ = 0;  ///< deepest the event heap has been
  obs::Profiler::ScopeId dispatch_scope_;
};

}  // namespace rogue::sim
