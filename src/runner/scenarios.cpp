#include "runner/scenarios.hpp"

#include <memory>
#include <string>
#include <utility>

#include "scenario/corp_world.hpp"
#include "scenario/hotspot.hpp"
#include "scenario/metro_world.hpp"

namespace rogue::runner {

namespace {

/// Attack-phase geometry used across the corp variants: the rogue parks
/// much closer to the victim than the legitimate AP, so best-RSSI roaming
/// reliably prefers it (the paper's parking-lot placement).
scenario::CorpConfig corp_attack_config() {
  scenario::CorpConfig cfg;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  return cfg;
}

Variant variant(std::string name, scenario::CorpConfig cfg) {
  return Variant{std::move(name), [cfg](std::uint64_t) {
                   return std::make_unique<scenario::CorpWorld>(cfg);
                 }};
}

Variant variant(std::string name, scenario::HotspotConfig cfg) {
  return Variant{std::move(name), [cfg](std::uint64_t) {
                   return std::make_unique<scenario::HotspotWorld>(cfg);
                 }};
}

Variant variant(std::string name, scenario::MetroConfig cfg) {
  return Variant{std::move(name), [cfg](std::uint64_t) {
                   return std::make_unique<scenario::MetroWorld>(cfg);
                 }};
}

void apply_faults(scenario::EpisodeConfig& cfg, double intensity) {
  if (intensity <= 0.0) return;
  cfg.inject_faults = true;
  cfg.faults.intensity = intensity;
}

/// Chaos ladder over `base`: a robustness study, not an attack study — a
/// tunnelled download while the infrastructure misbehaves underneath it,
/// undefended (one-shot tunnel, fail open) vs defended (keepalive/DPD +
/// reconnect).
template <typename Config>
std::vector<Variant> chaos_ladder(Config base, double fault_intensity) {
  base.use_vpn = true;
  base.vpn_window = 5 * sim::kSecond;
  base.download_window = 45 * sim::kSecond;
  apply_faults(base, fault_intensity > 0.0 ? fault_intensity : 1.0);

  std::vector<Variant> variants;
  variants.push_back(variant("chaos-undefended", base));
  base.vpn_auto_reconnect = true;
  variants.push_back(variant("chaos-defended", base));
  return variants;
}

std::vector<Variant> corp(double fault_intensity) {
  std::vector<Variant> variants;

  scenario::CorpConfig baseline;  // no attack, plain download
  apply_faults(baseline, fault_intensity);
  variants.push_back(variant("baseline", baseline));

  scenario::CorpConfig rogue = corp_attack_config();  // Figure 2
  rogue.deploy_rogue = true;
  apply_faults(rogue, fault_intensity);
  variants.push_back(variant("rogue", rogue));

  scenario::CorpConfig forced = corp_attack_config();  // §4 + §2.3
  forced.deploy_rogue = true;
  forced.deauth_forcing = true;
  forced.enable_detection = true;
  apply_faults(forced, fault_intensity);
  variants.push_back(variant("rogue+deauth", forced));

  scenario::CorpConfig vpn = corp_attack_config();  // Figure 3
  vpn.deploy_rogue = true;
  vpn.deauth_forcing = true;
  vpn.use_vpn = true;
  apply_faults(vpn, fault_intensity);
  variants.push_back(variant("vpn", vpn));

  return variants;
}

std::vector<Variant> hotspot(double fault_intensity) {
  std::vector<Variant> variants;

  scenario::HotspotConfig benign;
  apply_faults(benign, fault_intensity);
  variants.push_back(variant("benign", benign));

  scenario::HotspotConfig hostile;
  hostile.hostile = true;
  apply_faults(hostile, fault_intensity);
  variants.push_back(variant("hostile", hostile));

  scenario::HotspotConfig defended;
  defended.hostile = true;
  defended.use_vpn = true;
  apply_faults(defended, fault_intensity);
  variants.push_back(variant("hostile+vpn", defended));

  return variants;
}

std::vector<Variant> corp_chaos(double fault_intensity) {
  return chaos_ladder(scenario::CorpConfig{}, fault_intensity);
}

std::vector<Variant> hotspot_chaos(double fault_intensity) {
  scenario::HotspotConfig base;
  base.hostile = true;  // clear packets here cross attacker-owned ground
  return chaos_ladder(base, fault_intensity);
}

std::vector<Variant> corp_transport(double fault_intensity) {
  if (fault_intensity <= 0.0) fault_intensity = 1.0;

  // EXP-T1: the same tunnelled download over both transports, across path
  // conditions. No rogue — this is a transport study; the attack angle is
  // covered separately by the sealed-record replay attacker.
  scenario::CorpConfig base;
  base.use_vpn = true;
  base.vpn_auto_reconnect = true;
  base.vpn_window = 5 * sim::kSecond;
  base.download_window = 45 * sim::kSecond;
  // Large enough that the window is bandwidth-limited: goodput then
  // measures how the transport copes with the path, not the blob size.
  base.release_size = 1024 * 1024;

  std::vector<Variant> variants;
  for (const vpn::Transport transport :
       {vpn::Transport::kTcp, vpn::Transport::kUdp}) {
    const bool udp = transport == vpn::Transport::kUdp;
    const std::string prefix = udp ? "udp" : "tcp";
    scenario::CorpConfig t = base;
    t.vpn_transport = transport;
    // Exercise the datagram transport's epoch machinery continuously:
    // several rotations land inside every episode.
    if (udp) t.vpn_rekey_interval = 5 * sim::kSecond;

    scenario::CorpConfig clean = t;
    variants.push_back(variant(prefix + "-clean", clean));

    scenario::CorpConfig loss5 = t;
    loss5.medium.base_loss_prob = 0.05;
    variants.push_back(variant(prefix + "-loss5", loss5));

    scenario::CorpConfig loss10 = t;
    loss10.medium.base_loss_prob = 0.10;
    variants.push_back(variant(prefix + "-loss10", loss10));

    // Transport chaos: reorder/duplicate/jitter windows plus endpoint
    // outages. Other fault kinds are disabled so the matrix isolates what
    // the record layer (vs the association layer) must absorb.
    scenario::CorpConfig chaos = t;
    apply_faults(chaos, fault_intensity);
    chaos.faults.ap_outage = false;
    chaos.faults.channel_degrade = false;
    chaos.faults.link_flap = false;
    chaos.faults.deauth_storm = false;
    chaos.faults.reorder = true;
    chaos.faults.duplicate = true;
    chaos.faults.jitter = true;
    variants.push_back(variant(prefix + "-chaos", chaos));
  }
  return variants;
}

std::vector<Variant> metro(double /*fault_intensity: not taken*/) {
  // EXP-C5 at neighborhood scale: small enough for CI smokes and the
  // default 100-replica sweep, large enough that roaming crosses many
  // grid cells and several same-channel AP boundaries.
  scenario::MetroConfig base;  // 6x4 APs, 512 STAs

  std::vector<Variant> variants;
  variants.push_back(variant("baseline", base));

  scenario::MetroConfig twin = base;
  twin.rogue_count = 4;
  variants.push_back(variant("evil-twin", twin));
  return variants;
}

std::vector<Variant> metro_city(double /*fault_intensity: not taken*/) {
  // The acceptance-scale world: >= 200 APs, >= 50k STAs. Episode length is
  // trimmed so one replica stays in CPU-minutes territory.
  scenario::MetroConfig city;
  city.ap_cols = 15;
  city.ap_rows = 14;  // 210 legitimate APs
  city.sta_count = 50'000;
  city.rogue_count = 8;
  city.episode_duration = 10 * sim::kSecond;

  std::vector<Variant> variants;
  variants.push_back(variant("city", city));
  return variants;
}

struct Ladder {
  std::string_view name;
  std::vector<Variant> (*variants)(double fault_intensity);
  bool takes_faults;
};

/// The stock ladders, in known_scenarios() order.
constexpr Ladder kLadders[] = {{"corp", corp, true},
                               {"hotspot", hotspot, true},
                               {"corp-chaos", corp_chaos, true},
                               {"hotspot-chaos", hotspot_chaos, true},
                               {"corp-transport", corp_transport, true},
                               {"metro", metro, false},
                               {"metro-city", metro_city, false}};

}  // namespace

std::vector<Variant> stock_variants(std::string_view scenario,
                                    double fault_intensity) {
  for (const Ladder& ladder : kLadders) {
    if (ladder.name == scenario) return ladder.variants(fault_intensity);
  }
  return {};
}

bool takes_faults(std::string_view scenario) {
  for (const Ladder& ladder : kLadders) {
    if (ladder.name == scenario) return ladder.takes_faults;
  }
  return false;
}

std::vector<std::string_view> known_scenarios() {
  std::vector<std::string_view> names;
  for (const Ladder& ladder : kLadders) names.push_back(ladder.name);
  return names;
}

std::vector<Variant> tournament_variants(const TournamentConfig& config) {
  std::vector<Variant> variants;
  for (const std::string& attacker : config.attackers) {
    for (const std::string& detector : config.detectors) {
      const auto add = [&](auto world) {
        world.do_download = false;
        world.wids_detectors = {detector};
        world.wids_attacker = attacker;
        world.wids_baseline_window = config.baseline_window;
        world.wids_attack_window = config.attack_window;
        variants.push_back(variant(attacker + "|" + detector, world));
      };
      if (config.scenario == "corp") add(corp_attack_config());
      if (config.scenario == "hotspot") add(scenario::HotspotConfig{});
    }
  }
  return variants;
}

}  // namespace rogue::runner
