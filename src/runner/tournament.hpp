// Attacker×detector tournament: the arms-race companion to the variant
// sweep. A tournament crosses a roster of registry attackers
// (attack::make_attacker) with a roster of registry detectors
// (detect::make_detector) and runs `runs` seeded replicas per pair —
// every pair is one ordinary sweep variant named "<attacker>|<detector>"
// (tournament_variants() in runner/scenarios.hpp), so the report is a
// SweepReport with every export and the sweep's determinism contract:
// bytes depend only on (config, seeds), never on --jobs or host speed.
//
// Per pair the report aggregates:
//   detection_rate — replicas with >= 1 true alert (after attack start)
//   fp_rate        — replicas with >= 1 false alert (baseline window, or
//                    any alert on the "none" control row)
//   ttd_s          — attack start -> first true alert, p50/p95
#pragma once

#include <string>
#include <vector>

#include "runner/sweep.hpp"
#include "sim/simulator.hpp"

namespace rogue::runner {

/// A sweep over the attacker x detector pairs of a corp or hotspot world.
struct TournamentConfig : SweepConfig {
  /// Registry names (attack::known_attackers / detect::known_detectors).
  /// Empty lists pick the stock rosters (with_stock_rosters()).
  std::vector<std::string> attackers;
  std::vector<std::string> detectors;
  /// Quiet window after settle: alerts here are false positives.
  sim::Time baseline_window = 8 * sim::kSecond;
  /// Attacker-active window: first alert here is the detection.
  sim::Time attack_window = 20 * sim::kSecond;
};

/// `config` with each empty roster replaced by the stock one: every
/// registry attacker (including the "none" control row) crossed with the
/// four single detectors plus the composite. The hotspot world has no
/// rogue-gateway stack, so its roster drops that attacker.
[[nodiscard]] TournamentConfig with_stock_rosters(TournamentConfig config);

/// Per-pair aggregate over the pair's non-failed replicas.
struct PairSummary {
  std::string attacker;
  std::string detector;
  std::size_t runs = 0;
  std::size_t failed = 0;
  std::size_t detected = 0;      ///< replicas with a true alert
  double detection_rate = 0.0;   ///< detected / runs
  double fp_rate = 0.0;          ///< replicas with >= 1 false alert / runs
  util::Summary ttd_s;           ///< time-to-detect over detected replicas
  util::Summary alerts;          ///< total alerts per replica
  util::Summary false_alerts;    ///< false alerts per replica
};

/// The sweep a tournament ran, plus its per-pair aggregates. The inherited
/// stats_json(), write_chrome_trace() and timeseries_jsonl() serve
/// tournaments unchanged; to_json() and table() are the tournament's own
/// and hide the sweep's (not virtual: call them on a TournamentReport).
struct TournamentReport : SweepReport {
  /// Tallies `sweep`, a run of tournament_variants(tc), into pairs.
  TournamentReport(SweepReport sweep, TournamentConfig tc);

  TournamentConfig tournament;  ///< the rosters and windows that ran
  std::vector<PairSummary> pairs;  ///< attacker-major, as the variants

  /// Machine-readable report; deterministic bytes per (config, seeds).
  [[nodiscard]] util::Json to_json() const;
  /// The detection-rate matrix, then the fixed-width per-pair table.
  [[nodiscard]] std::string table() const;
  /// Detection-rate grid: attackers down, detectors across.
  [[nodiscard]] std::string matrix() const;
};

/// Run the full matrix over with_stock_rosters(config). Unknown attacker or
/// detector names fail the affected replicas (reported in the failures
/// array) rather than aborting the tournament; an unknown scenario throws
/// std::invalid_argument.
[[nodiscard]] TournamentReport run_tournament(const TournamentConfig& config);

}  // namespace rogue::runner
