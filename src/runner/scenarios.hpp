// Stock sweep configurations: maps a scenario name ("corp", "hotspot") to
// the paper's canonical variant ladder so the sweep CLI and tests don't
// each re-specify world configs. Custom studies can still build their own
// Variant lists and hand them to ExperimentRunner directly.
#pragma once

#include <string_view>
#include <vector>

#include "runner/sweep.hpp"
#include "runner/tournament.hpp"

namespace rogue::runner {

/// Lookup by scenario name; empty vector when unknown. `fault_intensity`
/// overlays fault injection on the plain ladders and scales the chaos ones
/// (<= 0 keeps the chaos scenarios at their default intensity):
///
///   corp            baseline download, rogue MITM (Figure 2), rogue + §4
///                   deauth forcing + §2.3 detection, and the VPN
///                   countermeasure under full attack (Figure 3)
///   hotspot         the §1.2.2 ladder: benign, hostile owner, hostile
///                   owner vs an always-on home VPN
///   corp-chaos      a tunnelled download under injected faults (at least
///   hotspot-chaos   one VPN-endpoint outage per replica), undefended
///                   (one-shot tunnel) vs defended (keepalive/DPD +
///                   reconnect with backoff); on the hotspot, clear
///                   packets cross attacker-owned infrastructure
///   corp-transport  EXP-T1: the tunnelled download over each VPN transport
///                   (tcp = TCP-over-TCP, udp = datagram records +
///                   anti-replay + periodic rekey) crossed with clean,
///                   5%/10% loss and transport chaos paths
///   metro           EXP-C5: a street grid of APs and waypoint-roaming STAs
///                   on the spatial-grid medium, baseline vs evil twins
///                   (takes no faults, nor does metro-city)
///   metro-city      the same at acceptance scale (210 APs, 50k STAs); one
///                   replica is minutes of CPU, so run 1..2 replicas
[[nodiscard]] std::vector<Variant> stock_variants(std::string_view scenario,
                                                  double fault_intensity = 0.0);

/// Whether stock ladder `scenario` applies a fault intensity: false for
/// the metro ladders (and for unknown names), so a caller can reject one
/// instead of running without it.
[[nodiscard]] bool takes_faults(std::string_view scenario);

/// Names accepted by stock_variants().
[[nodiscard]] std::vector<std::string_view> known_scenarios();

/// One WIDS variant per attacker x detector pair, attacker-major and named
/// "<attacker>|<detector>": the corp world in the corp ladder's attack
/// geometry, or the hotspot world, with the pair's roster and windows and
/// traffic from chatter rather than the download. Crosses the rosters as
/// given (see with_stock_rosters()); empty when the scenario is neither
/// "corp" nor "hotspot".
[[nodiscard]] std::vector<Variant> tournament_variants(
    const TournamentConfig& config);

}  // namespace rogue::runner
