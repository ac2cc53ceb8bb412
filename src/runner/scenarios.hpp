// Stock sweep configurations: maps a scenario name ("corp", "hotspot") to
// the paper's canonical variant ladder so the sweep CLI and tests don't
// each re-specify world configs. Custom studies can still build their own
// Variant lists and hand them to ExperimentRunner directly.
#pragma once

#include <string_view>
#include <vector>

#include "runner/sweep.hpp"

namespace rogue::runner {

/// The paper's corp-network ladder: baseline download, rogue MITM
/// (Figure 2), rogue + §4 deauth forcing + §2.3 detection, and the VPN
/// countermeasure under full attack (Figure 3). `fault_intensity > 0`
/// additionally injects a seed-derived fault plan (AP/endpoint crashes,
/// channel degradation, link flaps, deauth storms) into every variant.
[[nodiscard]] std::vector<Variant> corp_variants(double fault_intensity = 0.0);

/// The §1.2.2 hostile-hotspot ladder: benign hotspot, hostile owner,
/// hostile owner vs. always-on home VPN.
[[nodiscard]] std::vector<Variant> hotspot_variants(double fault_intensity = 0.0);

/// Chaos ladder on the corp world: a tunnelled download under injected
/// faults, undefended (one-shot tunnel) vs defended (keepalive/DPD +
/// automatic reconnect with backoff). Every replica is guaranteed at least
/// one VPN-endpoint outage, so time-to-recover is always exercised.
[[nodiscard]] std::vector<Variant> corp_chaos_variants(double fault_intensity = 1.0);

/// Chaos ladder on the hostile hotspot: same undefended/defended split,
/// with the added sting that packets sent in the clear during tunnel gaps
/// cross attacker-owned infrastructure.
[[nodiscard]] std::vector<Variant> hotspot_chaos_variants(double fault_intensity = 1.0);

/// Transport matrix (EXP-T1): a tunnelled download over each VPN transport
/// (tcp = TCP-over-TCP, udp = datagram records + anti-replay window +
/// periodic rekey) crossed with path conditions — clean, 5%/10% loss, and
/// transport chaos (reorder + duplicate + jitter + endpoint outages).
/// `fault_intensity` scales the chaos variants (<= 0 keeps the default).
[[nodiscard]] std::vector<Variant> corp_transport_variants(double fault_intensity = 1.0);

/// Metro roaming ladder (EXP-C5 at city scale): a street grid of APs with
/// a waypoint-roaming STA population on the spatial-grid medium. Variants:
/// baseline (no rogues) and evil-twin (rogue APs advertising the same
/// ESS). `fault_intensity` is ignored — the metro episode is a roaming
/// study, not a chaos study.
[[nodiscard]] std::vector<Variant> metro_variants(double fault_intensity = 0.0);

/// City-scale acceptance ladder: hundreds of APs, tens of thousands of
/// STAs. One replica is minutes of CPU — meant for `--runs 1..2` scaling
/// and determinism runs, not the default 100-replica sweep.
[[nodiscard]] std::vector<Variant> metro_city_variants(double fault_intensity = 0.0);

/// Lookup by scenario name; empty vector when unknown. `fault_intensity`
/// overlays fault injection on the plain ladders and scales the chaos ones
/// (<= 0 keeps the chaos scenarios at their default intensity).
[[nodiscard]] std::vector<Variant> stock_variants(std::string_view scenario,
                                                  double fault_intensity = 0.0);

/// Names accepted by stock_variants().
[[nodiscard]] std::vector<std::string_view> known_scenarios();

}  // namespace rogue::runner
