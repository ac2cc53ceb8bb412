// Parallel multi-seed experiment sweep over a scenario's variant ladder.
//
//   $ ./sweep --scenario corp --runs 200 --jobs 8 --out report.json
//
// Fans (runs x variants) independent replicas across a worker pool — each
// replica owns a private world and is reproducible from its seed — prints
// the per-variant aggregate table, and writes the machine-readable JSON
// report. The report bytes are identical at any --jobs value. With
// --tournament the variants are the attacker x detector pairs of a WIDS
// tournament; everything else, every export file included, is the same.
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/pcap.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"
#include "runner/scenarios.hpp"
#include "runner/sweep.hpp"
#include "runner/tournament.hpp"

using namespace rogue;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--scenario corp|hotspot|corp-chaos|hotspot-chaos|\n"
      "                      corp-transport|metro|metro-city]\n"
      "          [--runs N] [--jobs N] [--seed-base N] [--faults X]\n"
      "          [--out report.json] [--stats-out stats.json]\n"
      "          [--trace-out trace.json] [--trace-ring-events N]\n"
      "          [--timeseries-out series.jsonl] [--timeseries-dt X]\n"
      "          [--pcap-out capture.pcap] [--profile]\n"
      "          [--profile-out profile.json]\n"
      "          [--pool-slab N] [--pool-buffer-bytes B] [--pool-poison]\n"
      "          [--tournament] [--attackers a,b,...] [--detectors d,e,...]\n"
      "          [--wids-baseline-s X] [--wids-attack-s X]\n"
      "\n"
      "  --tournament  run the attacker x detector WIDS matrix instead of\n"
      "                the variant ladder (scenario corp or hotspot). Every\n"
      "                pair is one variant of --runs seeded replicas; the\n"
      "                report carries per-pair detection rate, FP rate and\n"
      "                TTD p50/p95, and every export flag below applies\n"
      "  --attackers   comma-separated registry attackers (default: stock\n"
      "                roster incl. the \"none\" control row)\n"
      "  --detectors   comma-separated registry detectors (default: stock\n"
      "                roster incl. the composite)\n"
      "  --wids-baseline-s X  quiet window before the attack (FP territory)\n"
      "  --wids-attack-s X    attacker-active window\n"
      "\n"
      "  --faults X    inject a seed-derived fault plan at intensity X\n"
      "                (faults per simulated minute; overlays the plain\n"
      "                scenarios, scales the chaos ones; not with the\n"
      "                metro roaming scenarios or --tournament)\n"
      "  metro         spatial-grid roaming ladder (EXP-C5): street-grid\n"
      "                APs, waypoint-roaming STAs, evil-twin promiscuity\n"
      "  metro-city    the same at acceptance scale (210 APs, 50k STAs);\n"
      "                one replica is CPU-minutes — use --runs 1..2\n"
      "  --pool-slab N pre-warm each replica's frame-buffer arena with N\n"
      "                buffers (of --pool-buffer-bytes each, default 2048);\n"
      "                adds sim.pool.high_water / sim.pool.spills to the\n"
      "                stats so the slab can be sized from a trial run\n"
      "  --pool-poison overwrite released frame buffers with 0xA5 so\n"
      "                use-after-release bugs surface as loud garbage\n"
      "  --stats-out F write the per-variant layer-counter aggregates as\n"
      "                JSON (deterministic: identical bytes at any --jobs)\n"
      "  --trace-out F enable the causal tracer / flight recorder in every\n"
      "                replica and write a Chrome trace-event JSON (load in\n"
      "                Perfetto or chrome://tracing; one process per\n"
      "                replica, one track per actor, sim-time as us).\n"
      "                Deterministic: identical bytes at any --jobs; failed\n"
      "                replicas also embed their flight-recorder tail under\n"
      "                \"failures\" in the report\n"
      "  --trace-ring-events N  per-replica flight-recorder capacity in\n"
      "                records (default 65536; oldest overwritten)\n"
      "  --timeseries-out F  sample every replica's StatsRegistry on a\n"
      "                sim-time cadence and write one JSON object per line\n"
      "                (deterministic: identical bytes at any --jobs)\n"
      "  --timeseries-dt X   sample period in sim-seconds (default 1.0);\n"
      "                without --timeseries-out nothing is sampled\n"
      "  --pcap-out F  run one extra frame-capturing replica of the first\n"
      "                variant (seed-base) and dump its radio traffic as a\n"
      "                LINKTYPE_IEEE802_11 pcap\n"
      "  --profile     run one extra profiled replica per variant and print\n"
      "                the sim-time profile (host wall-time; console only)\n"
      "  --profile-out F  like --profile, but also write the per-variant\n"
      "                profiles as JSON (host wall-time: nondeterministic,\n"
      "                never part of the deterministic report files). With\n"
      "                --trace-out, the profiled replicas additionally\n"
      "                appear in the trace file as \"host-profile\" tracks\n"
      "                (marked nondeterministic; excluded from the\n"
      "                byte-determinism contract, so determinism checks\n"
      "                compare traces produced without profiling)\n"
      "\n"
      "exits 1 when any replica failed (reported under \"failures\" in the\n"
      "JSON report), 2 on usage errors.\n",
      argv0);
}

/// `text` as a whole number in [lo, hi]; exits 2 otherwise.
std::uint64_t parse_count(const char* flag, const char* text,
                          std::uint64_t lo, std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(*text)) == 0 || *end != '\0' ||
      errno != 0 || v < lo || v > hi) {
    std::fprintf(stderr, "%s wants a whole number in [%llu, %llu], got '%s'\n",
                 flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text);
    std::exit(2);
  }
  return v;
}

/// `text` as a number in [lo, hi]; exits 2 otherwise (NaN included).
double parse_real(const char* flag, const char* text, double lo, double hi) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= lo && v <= hi)) {
    std::fprintf(stderr, "%s wants a number in [%g, %g], got '%s'\n", flag, lo,
                 hi, text);
    std::exit(2);
  }
  return v;
}

std::vector<std::string> split_csv(const char* text) {
  std::vector<std::string> out;
  std::string current;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!current.empty()) out.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(*p);
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

/// Write `text` and a newline to `path` and say so; false when it cannot.
bool write_file(const char* what, const std::string& path,
                const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("%s written to %s (%zu bytes)\n", what, path.c_str(),
              text.size() + 1);
  return true;
}

/// Lay one profiled replica's rows onto a host-time track: "X" slices
/// packed end to end in self-time order. The track visualizes *relative*
/// host cost next to the sim-time tracks; its timestamps are host
/// measurements, hence nondeterministic and excluded from the trace file's
/// byte-determinism contract (compare traces made without --profile).
void append_profile_track(obs::ChromeTraceWriter& trace, std::uint64_t pid,
                          const std::string& variant,
                          const obs::Profiler::Report& profile) {
  util::Json meta_args = util::Json::object();
  meta_args.set("name", "host-profile " + variant + " (nondeterministic)");
  util::Json meta = util::Json::object();
  meta.set("name", "process_name");
  meta.set("ph", "M");
  meta.set("pid", pid);
  meta.set("tid", std::uint64_t{0});
  meta.set("args", std::move(meta_args));
  trace.event(meta);

  std::uint64_t cursor_ns = 0;
  for (const obs::Profiler::Row& row : profile.rows) {
    util::Json args = util::Json::object();
    args.set("calls", row.calls);
    args.set("total_ns", row.total_ns);
    args.set("self_ns", row.self_ns);
    util::Json e = util::Json::object();
    e.set("name", row.name);
    e.set("cat", "host");
    e.set("ph", "X");
    e.set("ts", cursor_ns / 1000);
    e.set("dur", row.self_ns / 1000);
    e.set("pid", pid);
    e.set("tid", std::uint64_t{0});
    e.set("args", std::move(args));
    trace.event(e);
    cursor_ns += row.self_ns;
  }
}

}  // namespace

int main(int argc, char** argv) {
  runner::TournamentConfig cfg;
  cfg.runs = 20;
  std::string out_path;
  std::string stats_path;
  std::string pcap_path;
  std::string trace_path;
  std::string timeseries_path;
  std::string profile_path;
  double timeseries_dt_s = 1.0;
  bool profile = false;
  bool tournament = false;
  double fault_intensity = 0.0;
  bool faults_given = false;              // sweep only
  const char* tournament_flag = nullptr;  // --tournament only

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](std::uint64_t lo, std::uint64_t hi) {
      return static_cast<std::size_t>(parse_count(arg, value(), lo, hi));
    };
    auto real = [&](double lo, double hi) {
      return parse_real(arg, value(), lo, hi);
    };
    if (std::strcmp(arg, "--scenario") == 0) {
      cfg.scenario = value();
    } else if (std::strcmp(arg, "--runs") == 0) {
      cfg.runs = count(1, 1'000'000);
    } else if (std::strcmp(arg, "--jobs") == 0) {
      cfg.jobs = count(0, 256);  // 0 = one per hardware thread
    } else if (std::strcmp(arg, "--seed-base") == 0) {
      cfg.seed_base = parse_count(arg, value(), 0, UINT64_MAX);
    } else if (std::strcmp(arg, "--faults") == 0) {
      fault_intensity = real(0.0, 1000.0);
      faults_given = true;
    } else if (std::strcmp(arg, "--out") == 0) {
      out_path = value();
    } else if (std::strcmp(arg, "--stats-out") == 0) {
      stats_path = value();
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      trace_path = value();
      cfg.trace = true;
    } else if (std::strcmp(arg, "--trace-ring-events") == 0) {
      cfg.trace_ring_events = count(1, std::size_t{1} << 24);
    } else if (std::strcmp(arg, "--timeseries-out") == 0) {
      timeseries_path = value();
    } else if (std::strcmp(arg, "--timeseries-dt") == 0) {
      timeseries_dt_s = real(0.001, 1e6);
    } else if (std::strcmp(arg, "--pool-slab") == 0) {
      cfg.pool.slab_buffers = count(0, 65536);
    } else if (std::strcmp(arg, "--pool-buffer-bytes") == 0) {
      cfg.pool.buffer_capacity = count(0, 65536);  // 0 = default
    } else if (std::strcmp(arg, "--pool-poison") == 0) {
      cfg.pool.poison_on_release = true;
    } else if (std::strcmp(arg, "--tournament") == 0) {
      tournament = true;
    } else if (std::strcmp(arg, "--attackers") == 0) {
      cfg.attackers = split_csv(value());
      tournament_flag = arg;
    } else if (std::strcmp(arg, "--detectors") == 0) {
      cfg.detectors = split_csv(value());
      tournament_flag = arg;
    } else if (std::strcmp(arg, "--wids-baseline-s") == 0) {
      cfg.baseline_window = static_cast<sim::Time>(real(0.0, 1e4) * 1e6);
      tournament_flag = arg;
    } else if (std::strcmp(arg, "--wids-attack-s") == 0) {
      cfg.attack_window = static_cast<sim::Time>(real(0.0, 1e4) * 1e6);
      tournament_flag = arg;
    } else if (std::strcmp(arg, "--pcap-out") == 0) {
      pcap_path = value();
    } else if (std::strcmp(arg, "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(arg, "--profile-out") == 0) {
      profile_path = value();
      profile = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage(argv[0]);
      return 2;
    }
  }
  if (tournament && faults_given) {
    std::fprintf(stderr, "--faults does not apply to --tournament\n");
    return 2;
  }
  if (!tournament && tournament_flag != nullptr) {
    std::fprintf(stderr, "%s needs --tournament\n", tournament_flag);
    return 2;
  }
  // Sampling adds a periodic event per replica, so it runs only when the
  // series is wanted: --timeseries-dt alone leaves the report unchanged.
  if (!timeseries_path.empty()) cfg.timeseries_dt_s = timeseries_dt_s;

  if (tournament) cfg = runner::with_stock_rosters(std::move(cfg));
  std::vector<runner::Variant> variants =
      tournament ? runner::tournament_variants(cfg)
                 : runner::stock_variants(cfg.scenario, fault_intensity);
  if (variants.empty()) {
    std::fprintf(stderr, "unknown scenario '%s'; known:", cfg.scenario.c_str());
    if (tournament) {
      std::fprintf(stderr, " corp hotspot (with --tournament)");
    } else {
      for (const auto name : runner::known_scenarios()) {
        std::fprintf(stderr, " %.*s", static_cast<int>(name.size()),
                     name.data());
      }
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (faults_given && !runner::takes_faults(cfg.scenario)) {
    std::fprintf(stderr, "--faults does not apply to --scenario %s\n",
                 cfg.scenario.c_str());
    return 2;
  }

  runner::ExperimentRunner exp(cfg);
  // Copies, not moves: the --pcap-out / --profile extra replicas below
  // need the factories again after the sweep.
  for (const auto& v : variants) exp.add_variant(v.name, v.make);

  std::printf("%s: scenario=%s runs=%zu/variant variants=%zu jobs=%zu\n",
              tournament ? "tournament" : "sweep", cfg.scenario.c_str(),
              cfg.runs, exp.variant_count(), cfg.jobs);
  runner::SweepReport sweep = exp.run();
  std::optional<runner::TournamentReport> wids;
  if (tournament) wids.emplace(std::move(sweep), cfg);
  const runner::SweepReport& report = wids ? *wids : sweep;

  std::printf("\n%s", (wids ? wids->table() : report.table()).c_str());
  std::printf("\n%zu replicas in %.1f ms wall\n", report.runs.size(),
              report.wall_ms);

  if (!out_path.empty() &&
      !write_file("report", out_path,
                  (wids ? wids->to_json() : report.to_json()).dump(2))) {
    return 1;
  }
  if (!stats_path.empty() &&
      !write_file("stats", stats_path, report.stats_json().dump(2))) {
    return 1;
  }

  if (!pcap_path.empty()) {
    // One dedicated capture replica of the first variant: frame capture
    // copies every radio frame, so it stays out of the sweep proper.
    const runner::Variant& v = variants.front();
    std::unique_ptr<scenario::World> world = v.make(cfg.seed_base);
    world->enable_frame_capture();
    world->configure(cfg.seed_base);
    world->run_episode();
    obs::PcapWriter pcap;
    for (const sim::CapturedFrame& frame : world->trace().frames()) {
      pcap.add_frame(frame.time, frame.bytes);
    }
    if (!pcap.write_file(pcap_path)) {
      std::fprintf(stderr, "cannot write %s\n", pcap_path.c_str());
      return 1;
    }
    std::printf("pcap written to %s (%zu frames, variant=%s seed=%llu)\n",
                pcap_path.c_str(), pcap.frames(), v.name.c_str(),
                static_cast<unsigned long long>(cfg.seed_base));
  }

  // One profiled replica per variant. Wall-time attribution is a host
  // measurement, so it never joins the deterministic report files: the
  // console table and --profile-out JSON carry it, and with --trace-out it
  // rides along as clearly-marked nondeterministic host-profile tracks.
  std::vector<std::pair<std::string, obs::Profiler::Report>> profiles;
  if (profile) {
    for (const runner::Variant& v : variants) {
      std::unique_ptr<scenario::World> world = v.make(cfg.seed_base);
      world->configure(cfg.seed_base);
      world->simulator().profiler().set_enabled(true);
      world->run_episode();
      profiles.emplace_back(v.name, world->simulator().profiler().report());
      std::fprintf(stderr, "\nprofile: variant=%s seed=%llu\n%s",
                   v.name.c_str(),
                   static_cast<unsigned long long>(cfg.seed_base),
                   profiles.back().second.table().c_str());
    }
  }

  if (!profile_path.empty()) {
    util::Json j = util::Json::object();
    j.set("scenario", cfg.scenario);
    j.set("seed", cfg.seed_base);
    j.set("nondeterministic", true);  // host wall-time: never diff this file
    util::Json vars = util::Json::array();
    for (const auto& [vname, vprofile] : profiles) {
      util::Json entry = util::Json::object();
      entry.set("name", vname);
      entry.set("profile", vprofile.to_json());
      vars.push_back(std::move(entry));
    }
    j.set("variants", std::move(vars));
    if (!write_file("profile", profile_path, j.dump(2))) return 1;
  }

  if (!trace_path.empty()) {
    // Streamed event by event: a metro trace is tens of MB as text, and
    // many times that as one JSON tree.
    std::ofstream file(trace_path);
    obs::ChromeTraceWriter trace(file);
    report.write_chrome_trace(trace);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      append_profile_track(trace, 1000000 + i, profiles[i].first,
                           profiles[i].second);
    }
    trace.finish();
    file << '\n';
    file.close();
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace written to %s (%llu bytes)\n", trace_path.c_str(),
                static_cast<unsigned long long>(
                    std::filesystem::file_size(trace_path)));
  }

  if (!timeseries_path.empty()) {
    std::string text = report.timeseries_jsonl();
    if (!text.empty() && text.back() == '\n') text.pop_back();
    if (!write_file("timeseries", timeseries_path, text)) return 1;
  }

  const std::size_t failed = report.failed_count();
  if (failed > 0) {
    std::fprintf(stderr, "%zu replica(s) failed:\n", failed);
    for (const runner::RunMetrics& run : report.runs) {
      if (!run.failed) continue;
      std::fprintf(stderr, "  variant=%s seed=%llu: %s\n", run.variant.c_str(),
                   static_cast<unsigned long long>(run.seed),
                   run.error.c_str());
    }
    return 1;
  }
  return 0;
}
