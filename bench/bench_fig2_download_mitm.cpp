// EXP-F2 (Figure 2 + §4.1/§4.2): the software-download MITM.
//
// Table 1: download outcome under {no attack, link-only rewrite,
//          link+MD5SUM rewrite (the paper's attack)}.
// Table 2: the §4.2 limitation — per-segment netsed misses matches that
//          straddle TCP segment boundaries; the streaming matcher does
//          not. Swept over server MSS values so the page splits at many
//          different offsets.
#include <cmath>
#include <cstdio>

#include "exp_common.hpp"
#include "util/fmt.hpp"
#include "scenario/corp_world.hpp"

using namespace rogue;

namespace {

struct Outcome {
  bool fetched = false;
  bool trojaned = false;
  bool verified = false;
  bool deceived = false;  ///< trojaned AND the checksum verified
};

Outcome run_download_trial(std::uint64_t seed, bool attack, bool rewrite_link,
                           bool rewrite_md5, apps::NetsedMode mode,
                           std::size_t mss) {
  scenario::CorpConfig cfg;
  cfg.seed = seed;
  cfg.victim_to_legit_m = 20.0;
  cfg.victim_to_rogue_m = 4.0;
  cfg.netsed_mode = mode;
  cfg.rewrite_link = rewrite_link;
  cfg.rewrite_md5 = rewrite_md5;
  cfg.tcp.mss = mss;
  scenario::CorpWorld world(cfg);
  world.start();
  world.run_for(3 * sim::kSecond);
  if (attack) {
    world.deploy_rogue();
    world.start_deauth_forcing();
    world.run_for(15 * sim::kSecond);
    if (!world.victim_on_rogue()) return {};  // capture failed: no data point
  }

  apps::DownloadOutcome outcome;
  bool done = false;
  world.kit().download([&](const apps::DownloadOutcome& o) {
    outcome = o;
    done = true;
  });
  world.run_for(90 * sim::kSecond);
  if (!done || !outcome.file_fetched) return {};

  Outcome r;
  r.fetched = true;
  r.trojaned = outcome.fetched_md5_hex == world.kit().trojan_md5();
  r.verified = outcome.md5_verified;
  r.deceived = r.trojaned && r.verified;
  return r;
}

}  // namespace

int main() {
  bench::print_header("EXP-F2", "software download MITM outcomes",
                      "Figure 2; §4.1 netsed rules; §4.2 packet-boundary "
                      "limitation");
  bench::print_expectation(
      "no attack: clean+verified. link-only rewrite: trojaned but CAUGHT by "
      "the checksum. full attack: trojaned AND the forged checksum verifies. "
      "per-segment netsed misses boundary-straddling matches; streaming fixes");

  constexpr std::size_t kTrials = 12;

  // ---- Table 1: outcome per attack configuration -----------------------------
  struct Condition {
    const char* name;
    bool attack;
    bool link;
    bool md5;
  };
  const Condition conditions[] = {
      {"no attack", false, false, false},
      {"rogue, link rewrite only", true, true, false},
      {"rogue, link+MD5 rewrite (paper)", true, true, true},
  };

  util::Table t1({"condition", "fetched", "trojaned", "md5 verified",
                  "victim deceived"});
  for (const auto& cond : conditions) {
    const auto results = bench::run_trials<Outcome>(
        kTrials,
        [&](std::uint64_t seed) {
          return run_download_trial(seed, cond.attack, cond.link, cond.md5,
                                    apps::NetsedMode::kPerSegment, 1400);
        },
        2000);
    std::vector<bool> fetched;
    std::vector<bool> trojaned;
    std::vector<bool> verified;
    std::vector<bool> deceived;
    for (const auto& r : results) {
      if (!r.fetched) continue;  // capture/transfer failure: excluded
      fetched.push_back(true);
      trojaned.push_back(r.trojaned);
      verified.push_back(r.verified);
      deceived.push_back(r.deceived);
    }
    t1.add_row({cond.name,
                util::format("{}/{}", fetched.size(), kTrials),
                util::fmt_percent(bench::fraction(trojaned)),
                util::fmt_percent(bench::fraction(verified)),
                util::fmt_percent(bench::fraction(deceived))});
  }
  t1.print();

  // ---- Table 2: netsed matching mode vs TCP segmentation ---------------------
  // Small MSS values force the download page to split mid-pattern for
  // some alignments. Each MSS value is one deterministic "alignment draw";
  // we report the fraction of alignments where the full deception held.
  std::printf("\nSegment-boundary sensitivity (MSS sweep, one trial per MSS):\n");
  util::Table t2({"netsed mode", "MSS values", "full deception", "trojan w/o "
                  "forged md5 (caught)", "attack missed entirely"});
  for (const auto mode :
       {apps::NetsedMode::kPerSegment, apps::NetsedMode::kStreaming}) {
    std::vector<std::size_t> mss_values;
    for (std::size_t mss = 48; mss <= 240; mss += 16) mss_values.push_back(mss);

    std::vector<Outcome> results(mss_values.size());
    util::parallel_for(mss_values.size(), [&](std::size_t i) {
      results[i] = run_download_trial(7000 + i, true, true, true, mode,
                                      mss_values[i]);
    });

    std::size_t usable = 0;
    std::size_t deceived = 0;
    std::size_t caught = 0;
    std::size_t missed = 0;
    for (const auto& r : results) {
      if (!r.fetched) continue;
      ++usable;
      if (r.deceived) {
        ++deceived;
      } else if (r.trojaned) {
        ++caught;  // link rewritten but MD5 match straddled a boundary
      } else {
        ++missed;  // even the link rewrite straddled a boundary
      }
    }
    const auto pct = [&](std::size_t n) {
      return usable == 0 ? std::string("n/a")
                         : util::fmt_percent(static_cast<double>(n) /
                                             static_cast<double>(usable));
    };
    t2.add_row({mode == apps::NetsedMode::kPerSegment ? "per-segment (netsed)"
                                                      : "streaming (fixed)",
                std::to_string(usable), pct(deceived), pct(caught), pct(missed)});
  }
  t2.print();

  std::printf("\n§4.2: \"netsed will not match strings that cross packet\n"
              "boundaries. These, and other problems, could easily be\n"
              "addressed by someone with malicious intent.\"\n");
  return 0;
}
