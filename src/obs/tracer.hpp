// Deterministic causal tracer + flight recorder. Every injected frame gets
// a seed-derived 64-bit trace id threaded through the datapath (phy
// delivery → dot11 → net → vpn → detect → faults); components emit typed
// span/instant records into a bounded ring buffer that overwrites oldest
// ("flight recorder"). Recording is branch-cheap when disabled and heap-
// free when enabled: names and actors are interned once at construction
// (interning works while disabled), and a
// record is a fixed-size POD store into a preallocated ring.
//
// Determinism: trace ids derive from (root seed, per-simulation frame
// counter) via splitmix64, and record timestamps come from the simulator
// clock the tracer is bound to — so the dump is a pure function of
// (variant, seed) and joins the byte-identical sweep report. Host time
// never enters; the profiler's wall-clock track is exported separately
// and clearly marked nondeterministic.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/json.hpp"

namespace rogue::obs {

/// Which subsystem emitted a record; exported as the Chrome "cat" field.
enum class TraceLayer : std::uint8_t {
  kSim = 0,
  kPhy,
  kDot11,
  kNet,
  kVpn,
  kDetect,
  kFaults,
};

[[nodiscard]] std::string_view to_string(TraceLayer layer);

enum class TracePhase : std::uint8_t {
  kInstant = 0,  ///< point event ("i")
  kBegin,        ///< span open ("B")
  kEnd,          ///< span close ("E")
};

/// Interned handles. Default-constructed handles index the reserved
/// "(unnamed)" entry, so an un-wired component records harmlessly.
struct TraceNameId {
  std::uint32_t index = 0;
};
struct TraceActorId {
  std::uint32_t index = 0;
};

/// One flight-recorder record. POD, 40 bytes, no pointers — the ring is a
/// flat preallocated vector and a record is a single struct store.
struct TraceEvent {
  std::uint64_t trace_id = 0;  ///< causal chain id (0 = outside any chain)
  std::uint64_t time_us = 0;   ///< simulated microseconds
  std::uint64_t arg = 0;       ///< free-form verdict/size/kind payload
  std::uint32_t name = 0;      ///< TraceNameId::index
  std::uint32_t actor = 0;     ///< TraceActorId::index (Chrome tid / track)
  TraceLayer layer = TraceLayer::kSim;
  TracePhase phase = TracePhase::kInstant;
};

/// Detached copy of a tracer's state: ring contents in eviction order
/// (oldest first) plus the intern tables needed to render them. Safe to
/// keep after the simulation is gone; this is what RunMetrics carries.
struct TracerDump {
  std::vector<TraceEvent> events;
  std::vector<std::string> names;
  std::vector<std::string> actors;
  std::uint64_t dropped = 0;   ///< records overwritten by ring wraparound
  std::uint64_t recorded = 0;  ///< total records ever written

  [[nodiscard]] bool empty() const { return events.empty(); }
  [[nodiscard]] std::string_view name_of(const TraceEvent& e) const {
    return names[e.name];
  }
  [[nodiscard]] std::string_view actor_of(const TraceEvent& e) const {
    return actors[e.actor];
  }
};

class Tracer {
 public:
  Tracer() {
    names_.emplace_back("(unnamed)");
    actors_.emplace_back("(unattributed)");
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Intern a record name / actor (track) label; idempotent, works while
  /// disabled so components intern in their constructors.
  [[nodiscard]] TraceNameId name(std::string_view label);
  [[nodiscard]] TraceActorId actor(std::string_view label);

  /// Root seed for trace-id derivation; resets the frame counter. The
  /// owning Simulator calls this from its constructor and reseed().
  void set_seed(std::uint64_t seed) {
    seed_ = seed;
    frames_ = 0;
  }

  /// Bind the simulated clock records are stamped from (the owning
  /// Simulator points this at its now_). Unbound tracers stamp 0.
  void bind_clock(const std::uint64_t* now_us) { clock_ = now_us; }

  /// Allocate the ring (`ring_events` records, >= 1) and start recording.
  void enable(std::size_t ring_events);
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::size_t ring_capacity() const { return ring_.size(); }

  /// Derive the next seed-deterministic trace id (never 0). Returns 0 when
  /// disabled so untraced frames carry the "no chain" sentinel for free.
  [[nodiscard]] std::uint64_t new_trace_id();

  /// The trace id of the causal context currently executing (0 = none).
  /// Set via IdScope around frame-delivery handlers, so any frame a
  /// handler transmits in response inherits the inbound frame's chain.
  [[nodiscard]] std::uint64_t current() const { return current_; }

  /// RAII causal context: delivery paths wrap each receiver's handler so
  /// transmit() can inherit the active chain. Safe (two stores) while
  /// disabled — the id threaded through is 0 then.
  class IdScope {
   public:
    IdScope(Tracer& tracer, std::uint64_t id)
        : tracer_(tracer), previous_(tracer.current_) {
      tracer.current_ = id;
    }
    ~IdScope() { tracer_.current_ = previous_; }

    IdScope(const IdScope&) = delete;
    IdScope& operator=(const IdScope&) = delete;

   private:
    Tracer& tracer_;
    std::uint64_t previous_;
  };

  // ---- hot path -----------------------------------------------------------
  // A single predictable branch when disabled; a POD ring store otherwise.
  // `trace_id` 0 means "attribute to the current causal context".

  void instant(TraceNameId name, TraceActorId actor, TraceLayer layer,
               std::uint64_t trace_id = 0, std::uint64_t arg = 0) {
    if (!enabled_) return;
    record(TracePhase::kInstant, trace_id, name, actor, layer, arg);
  }
  void begin(TraceNameId name, TraceActorId actor, TraceLayer layer,
             std::uint64_t trace_id = 0, std::uint64_t arg = 0) {
    if (!enabled_) return;
    record(TracePhase::kBegin, trace_id, name, actor, layer, arg);
  }
  void end(TraceNameId name, TraceActorId actor, TraceLayer layer,
           std::uint64_t trace_id = 0, std::uint64_t arg = 0) {
    if (!enabled_) return;
    record(TracePhase::kEnd, trace_id, name, actor, layer, arg);
  }

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

  /// Ring contents in eviction order plus intern tables.
  [[nodiscard]] TracerDump dump() const;

  /// Drop ring contents and counters (intern tables and seed survive).
  void reset();

 private:
  void record(TracePhase phase, std::uint64_t trace_id, TraceNameId name,
              TraceActorId actor, TraceLayer layer, std::uint64_t arg) {
    TraceEvent& e = ring_[head_];
    e.trace_id = trace_id != 0 ? trace_id : current_;
    e.time_us = clock_ != nullptr ? *clock_ : 0;
    e.arg = arg;
    e.name = name.index;
    e.actor = actor.index;
    e.layer = layer;
    e.phase = phase;
    if (++head_ == ring_.size()) head_ = 0;
    if (count_ < ring_.size()) {
      ++count_;
    } else {
      ++dropped_;
    }
    ++recorded_;
  }

  bool enabled_ = false;
  std::uint64_t seed_ = 1;
  std::uint64_t frames_ = 0;   ///< trace-id allocation counter
  std::uint64_t current_ = 0;  ///< active causal context (IdScope)
  const std::uint64_t* clock_ = nullptr;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;   ///< next write position
  std::size_t count_ = 0;  ///< live records (<= ring_.size())
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
  std::vector<std::string> names_;
  std::vector<std::string> actors_;
  std::unordered_map<std::string, std::uint32_t> name_index_;
  std::unordered_map<std::string, std::uint32_t> actor_index_;
};

// ---- reconstruction & export ----------------------------------------------

/// One node of the reconstructed span forest. Spans nest per actor (a
/// begin inside another open span of the same actor becomes its child);
/// instants attach to the innermost open span of their actor.
struct Span {
  std::uint32_t name = 0;   ///< TracerDump::names index
  std::uint32_t actor = 0;  ///< TracerDump::actors index
  std::uint64_t trace_id = 0;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  bool closed = false;  ///< false: ring evicted or never saw the end
  int parent = -1;      ///< index into the returned vector; -1 = root
  std::vector<std::size_t> children;  ///< span indices, chronological
  std::vector<std::size_t> instants;  ///< dump.events indices, chronological
};

/// Rebuild the span forest from a dump (events are already in time order).
[[nodiscard]] std::vector<Span> build_spans(const TracerDump& dump);

/// Every record on one causal chain, in time order — e.g. a 4-step
/// handshake's M1..M4 transmissions and verdicts, or attack frame →
/// detector observation → alert.
[[nodiscard]] std::vector<TraceEvent> causal_chain(const TracerDump& dump,
                                                   std::uint64_t trace_id);

/// Streams one Chrome trace-event document to `out`,
/// {"traceEvents":[...],"displayTimeUnit":"ms"} in compact JSON. Each event
/// is written as soon as it is made, so a trace never exists as one JSON
/// tree in memory.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& out);

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// One event object.
  void event(const util::Json& e);
  /// One replica's records as one process: process/thread metadata first,
  /// then "B"/"E"/"i" rows with sim-time µs timestamps, pid = replica,
  /// tid = actor. Deterministic: pure function of the dump.
  void process(const TracerDump& dump, std::uint64_t pid,
               std::string_view process_name);
  /// Close the document; call once, after the last event.
  void finish();

 private:
  std::ostream& out_;
  bool first_ = true;
};

/// Flight-recorder tail as JSON rows ({t_us, layer, actor, name, phase,
/// trace, arg}) — what a failed replica embeds in the failures array.
[[nodiscard]] util::Json flight_recorder_json(const TracerDump& dump);

}  // namespace rogue::obs
