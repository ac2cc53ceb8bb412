// EXP-C4 (§2.3): detecting rogues — sequence-control monitoring, radio
// site audit, wired census.
//
// Table 1: detector outcomes across scenarios (benign, rogue, deauth
//          forgery, both) — detection rate and false positives.
// Table 2: sequence-gap threshold sweep (the detector's only knob):
//          tighter thresholds flag forgeries faster but risk false
//          positives under frame loss.
#include <cstdint>
#include <cstdio>
#include <initializer_list>

#include "detect/seqnum.hpp"
#include "detect/site_audit.hpp"
#include "exp_common.hpp"
#include "scenario/corp_world.hpp"
#include "util/fmt.hpp"

using namespace rogue;

namespace {

struct Observation {
  bool seq_flagged = false;   ///< seq monitor produced >= 2 anomalies
  bool audit_flagged = false; ///< site audit found a rogue
  bool attack_present = false;
};

Observation run_trial(std::uint64_t seed, bool rogue, bool deauth,
                      std::uint16_t max_forward_gap) {
  scenario::CorpConfig cfg;
  cfg.seed = seed;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  scenario::CorpWorld world(cfg);
  world.start();

  detect::SeqMonitorConfig smc;
  smc.channel = cfg.legit_channel;
  smc.max_forward_gap = max_forward_gap;
  detect::SeqNumMonitor monitor(world.sim(), world.medium(), smc);
  monitor.radio().set_position({12, 4});

  attack::SnifferConfig sc;
  sc.hop_channels = {cfg.legit_channel, cfg.rogue_channel};
  sc.hop_dwell = 250'000;
  attack::Sniffer auditor(world.sim(), world.medium(), sc);
  auditor.radio().set_position({8, 8});

  world.run_for(3 * sim::kSecond);
  if (rogue) world.deploy_rogue();
  if (deauth) world.start_deauth_forcing();
  world.run_for(12 * sim::kSecond);

  // Generate some victim traffic so the air is not idle.
  world.kit().download([](const apps::DownloadOutcome&) {});
  world.run_for(10 * sim::kSecond);

  detect::SiteAudit audit({{"CORP", world.legit_bssid(), cfg.legit_channel}});

  Observation obs;
  obs.attack_present = rogue || deauth;
  obs.seq_flagged = !monitor.suspects(2).empty();
  obs.audit_flagged = audit.rogue_detected(auditor.observed_bss());
  return obs;
}

}  // namespace

int main() {
  bench::print_header("EXP-C4", "rogue detection: seq-control monitor + site audit",
                      "§2.3 \"monitoring 802.11 Sequence Control numbers\"; "
                      "radio site audits");
  bench::print_expectation(
      "benign network: no flags. deauth forgery: seq monitor flags the forged "
      "BSSID. cloned-BSSID rogue: site audit flags it; seq monitor also flags "
      "once the same BSSID transmits from two radios");

  constexpr std::size_t kTrials = 10;

  struct Scenario {
    const char* name;
    bool rogue;
    bool deauth;
  };
  const Scenario scenarios[] = {
      {"benign (no attack)", false, false},
      {"deauth forgery only", false, true},
      {"rogue AP (cloned BSSID)", true, false},
      {"rogue + deauth (full attack)", true, true},
  };

  util::Table t1({"scenario", "seq monitor flagged", "site audit flagged",
                  "either"});
  std::uint64_t seed = 700;
  for (const auto& s : scenarios) {
    const auto results = bench::run_trials<Observation>(
        kTrials,
        [&](std::uint64_t sd) { return run_trial(sd, s.rogue, s.deauth, 64); },
        seed);
    seed += 100;
    std::vector<bool> seq;
    std::vector<bool> aud;
    std::vector<bool> either;
    for (const auto& r : results) {
      seq.push_back(r.seq_flagged);
      aud.push_back(r.audit_flagged);
      either.push_back(r.seq_flagged || r.audit_flagged);
    }
    t1.add_row({s.name, util::fmt_percent(bench::fraction(seq)),
                util::fmt_percent(bench::fraction(aud)),
                util::fmt_percent(bench::fraction(either))});
  }
  t1.print();

  // ---- Threshold ablation -----------------------------------------------------
  std::printf("\nAblation: sequence forward-gap threshold (deauth forgery scenario\n"
              "for detection, benign scenario for false positives):\n");
  util::Table t2({"max forward gap", "detection (forgery)", "false pos (benign)"});
  for (const std::uint16_t gap :
       std::initializer_list<std::uint16_t>{8, 16, 32, 64, 128, 256}) {
    const auto attack_runs = bench::run_trials<Observation>(
        kTrials,
        [&](std::uint64_t sd) { return run_trial(sd, false, true, gap); },
        2000 + gap);
    const auto benign_runs = bench::run_trials<Observation>(
        kTrials,
        [&](std::uint64_t sd) { return run_trial(sd, false, false, gap); },
        3000 + gap);
    std::vector<bool> detected;
    std::vector<bool> false_pos;
    for (const auto& r : attack_runs) detected.push_back(r.seq_flagged);
    for (const auto& r : benign_runs) false_pos.push_back(r.seq_flagged);
    t2.add_row({std::to_string(gap), util::fmt_percent(bench::fraction(detected)),
                util::fmt_percent(bench::fraction(false_pos))});
  }
  t2.print();

  std::printf("\n§1.2.1 caveat holds: detection secures the institution's own\n"
              "airspace; it does nothing for the client at a hostile hotspot.\n");
  return 0;
}
