// Per-replica result record for experiment sweeps: the scenario-agnostic
// observations (scenario::Metrics) stamped with the replica's identity
// (scenario, variant, seed) and its wall-clock cost, plus JSON round-trip
// so reports survive the trip to disk and back.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/tracer.hpp"
#include "scenario/world.hpp"
#include "util/json.hpp"

namespace rogue::runner {

struct RunMetrics {
  std::string scenario;  ///< e.g. "corp"
  std::string variant;   ///< e.g. "rogue+deauth"
  std::uint64_t seed = 0;
  double wall_ms = 0.0;  ///< host wall-clock, excluded from aggregates
  /// The replica threw instead of completing; `metrics` holds defaults and
  /// is excluded from aggregation. `error` carries the exception text.
  bool failed = false;
  std::string error;
  scenario::Metrics metrics;

  /// One StatsRegistry snapshot taken at a timeseries sample point.
  struct TimeSample {
    double t_s = 0.0;
    obs::StatsSnapshot stats;
  };

  // Tracing sidecars. Neither is serialized by to_json() — the flight
  // recorder and timeseries go to their own files (SweepReport::
  // write_chrome_trace() / timeseries_jsonl()), so per-replica report
  // records keep their exact legacy bytes. Both stay empty/null unless
  // the sweep ran with tracing / timeseries enabled.
  std::shared_ptr<obs::TracerDump> trace;
  std::vector<TimeSample> timeseries;
};

/// Serialize one record. `include_wall` is off for report files so the
/// bytes depend only on (seed, config), never on host timing.
[[nodiscard]] util::Json to_json(const RunMetrics& run, bool include_wall = true);

/// Inverse of to_json(); nullopt when a required field is missing or of
/// the wrong type. Absent wall_ms reads back as 0.
[[nodiscard]] std::optional<RunMetrics> run_metrics_from_json(const util::Json& j);

}  // namespace rogue::runner
