// End-to-end and per-layer benchmark over four sweep workloads.
//
//   bench_e2e [--workload NAME]... [--seed-base N] [--seconds S] [--traced]
//             [--out F] [--trace-out F] [--smoke]
//
// Every workload runs in a fork()ed child, so peak RSS is per workload.
// The child drives the user path — runner::ExperimentRunner (and
// runner::run_tournament) with jobs = 1 — as a closed loop: one client,
// and the next replica starts only when the previous one finishes. A
// round is one pass over the workload's replica set (fixed by the seed
// base); rounds repeat until --seconds is spent. Repeated rounds replay
// the same seeds, so each round must reproduce the first round's report
// bytes exactly, and a time metric is its value in the run's fastest
// round.
//
// Every run checks its output against the repository: the printed metric
// names must equal BENCHMARK.json's, and at seed base 1 (and at the smoke
// scale) the report digests must equal golden.json's. Both paths are
// compiled in.
//
// Layers are timed from outside, around their public calls: the stock
// variant factories are wrapped in TimedWorld, which times make /
// configure / start / run_episode / collect_metrics. Per-layer counts come
// from each replica's Metrics::stats snapshot. --traced turns on the
// simulator's own profiler and tracer in every wrapped replica before
// configure(); its rounds give the per-layer self times, and the untraced
// rounds of the same run give the tracing overhead. End-to-end metrics are
// only ever reported from untraced rounds.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "runner/scenarios.hpp"
#include "runner/sweep.hpp"
#include "runner/tournament.hpp"
#include "scenario/world.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"

// ---- allocation counter ----------------------------------------------------
// Every heap allocation in the process goes through these replacements; the
// benchmark reads the counter around the runner calls it times.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// std::stable_sort's buffer comes from the nothrow form and goes back
// through plain delete; a sanitizer that intercepts the nothrow form would
// otherwise see that buffer freed by the wrong allocator.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
// Out of line: inlined into a delete-expression, free() would trip GCC's
// new/delete pairing check even though both sides are replaced here.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace rogue;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double us_since_epoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- workloads -------------------------------------------------------------

/// One workload: a subset of a stock ladder's variants and, for
/// rogue-attack, a tournament pair. `seeds` is replicas per variant per
/// round; the smoke scale runs one seed of the first variant instead.
struct Workload {
  std::string_view name;
  std::string_view ladder;
  std::vector<std::string_view> variants;
  std::size_t seeds = 1;
  std::size_t tournament_seeds = 0;  ///< cloner|composite replicas per round
  /// replica_ms_tail's percentile within a round, fixed per workload so
  /// that a faster build cannot switch percentiles: p90 where a 25 s run
  /// holds at least ten replica samples beyond it, else the median.
  /// (rogue-attack's p99, 3 ms against a 1.6 ms median, moved from 2.5 to
  /// 4.5 ms with host interference alone.)
  double tail_q = 0.5;
};

// A round takes 3-7 s on a 4-vCPU x86 VM, so a run of --seconds holds
// several rounds to pick the fastest from. The seed base picks which
// seeds a round replays: the same --seed-base always yields the same
// replicas, and another seed base must not move the metrics by more than
// their bounds. A 1024-bit DH handshake costs ~0.85 s of host time, so the
// DH-bound workloads hold only variants whose handshake count does not
// depend on the seed: chaos-defended makes 2-6 handshakes per seed and the
// 10%-loss transports sometimes a second one, which moved a few-replica
// round by ±20% between seed bases.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      // Fig. 3 under faults: one handshake per replica, ~99% DH.
      {"vpn-chaos", "corp-chaos", {"chaos-undefended"}, 8, 0, 0.5},
      // 1 MB through the TCP and UDP tunnels, clean, lossy and under
      // transport chaos (which always costs exactly one reconnect).
      {"bulk-tunnel",
       "corp-transport",
       {"tcp-clean", "tcp-loss5", "tcp-chaos", "udp-clean", "udp-loss5",
        "udp-chaos"},
       1,
       0,
       0.5},
      // Figs. 1-2 + §4 deauth + the full WIDS panel; small worlds, no DH.
      {"rogue-attack",
       "corp",
       {"baseline", "rogue", "rogue+deauth"},
       500,
       500,
       0.9},
      // 512 roaming STAs on the spatial grid; flat-ref is left out so
      // retiring the flat medium does not change the workload.
      {"metro", "metro", {"baseline", "evil-twin"}, 20, 0, 0.9},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ---- the World decorator ---------------------------------------------------

/// Host-time phases of one wrapped replica, in lifecycle order.
enum Phase { kBuild, kConfigure, kStart, kEpisode, kCollect, kPhases };
constexpr std::string_view kPhaseNames[kPhases] = {"build", "configure",
                                                   "start", "episode",
                                                   "collect"};

struct ReplicaTiming {
  std::string variant;
  std::uint64_t seed = 0;
  double start_us[kPhases] = {};  ///< since process start (Chrome trace ts)
  double ms[kPhases] = {};
  obs::Profiler::Report profile;  ///< traced rounds only
};

constexpr std::size_t kTraceRingEvents = 1 << 16;  // SweepConfig's default

/// Wraps a stock world and times each lifecycle call. Behaviour is the
/// inner world's: start() is idempotent, so calling it ahead of
/// run_episode() only separates world construction from the episode.
class TimedWorld final : public scenario::World {
 public:
  TimedWorld(std::unique_ptr<scenario::World> inner, ReplicaTiming& log,
             bool traced)
      : inner_(std::move(inner)), log_(log), traced_(traced) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void configure(std::uint64_t seed) override {
    if (traced_) {
      inner_->simulator().profiler().set_enabled(true);
      inner_->simulator().tracer().enable(kTraceRingEvents);
    }
    timed(kConfigure, [&] { inner_->configure(seed); });
  }
  void start() override {
    timed(kStart, [&] { inner_->start(); });
  }
  void enable_frame_capture() override { inner_->enable_frame_capture(); }
  void run_for(sim::Time duration) override { inner_->run_for(duration); }
  void run_episode() override {
    start();
    timed(kEpisode, [&] { inner_->run_episode(); });
  }
  bool attach_detector(std::string_view name) override {
    return inner_->attach_detector(name);
  }
  bool attach_attacker(std::string_view name) override {
    return inner_->attach_attacker(name);
  }
  [[nodiscard]] sim::Simulator& simulator() override {
    return inner_->simulator();
  }
  [[nodiscard]] sim::Trace& trace() override { return inner_->trace(); }
  [[nodiscard]] scenario::Metrics collect_metrics() const override {
    scenario::Metrics m;
    timed(kCollect, [&] { m = inner_->collect_metrics(); });
    if (traced_) log_.profile = inner_->simulator().profiler().report();
    return m;
  }

 private:
  template <typename Fn>
  void timed(Phase phase, Fn&& fn) const {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (log_.ms[phase] == 0.0) log_.start_us[phase] = us_since_epoch(t0);
    log_.ms[phase] += ms_between(t0, t1);
  }

  std::unique_ptr<scenario::World> inner_;
  ReplicaTiming& log_;
  bool traced_;
};

/// The workload's variants with every factory wrapped in TimedWorld. The
/// log is a deque so references to earlier records survive later appends.
std::vector<runner::Variant> timed_variants(const Workload& w, bool smoke,
                                            bool traced,
                                            std::deque<ReplicaTiming>& log) {
  std::vector<runner::Variant> out;
  for (runner::Variant& v : runner::stock_variants(w.ladder)) {
    if (std::find(w.variants.begin(), w.variants.end(), v.name) ==
        w.variants.end()) {
      continue;
    }
    runner::WorldFactory inner = std::move(v.make);
    std::string name = v.name;
    out.push_back(runner::Variant{
        v.name, [inner = std::move(inner), name, traced,
                 &log](std::uint64_t seed) -> std::unique_ptr<scenario::World> {
          ReplicaTiming& rec = log.emplace_back();
          rec.variant = name;
          rec.seed = seed;
          const Clock::time_point t0 = Clock::now();
          std::unique_ptr<scenario::World> world = inner(seed);
          rec.start_us[kBuild] = us_since_epoch(t0);
          rec.ms[kBuild] = ms_between(t0, Clock::now());
          return std::make_unique<TimedWorld>(std::move(world), rec, traced);
        }});
    if (smoke) break;
  }
  if (out.size() != (smoke ? 1 : w.variants.size())) {
    throw std::runtime_error("ladder " + std::string(w.ladder) +
                             " lacks a variant of workload " +
                             std::string(w.name));
  }
  return out;
}

// ---- one round -------------------------------------------------------------

/// Profiler scopes the simulator has today, reported as <scope>.self_ms.
constexpr std::string_view kScopes[] = {
    "sim.dispatch",   "phy.deliver",      "phy.plan_rebuild",
    "dot11.sta.rx",   "dot11.ap.rx",      "vpn.client.data",
    "vpn.endpoint.data"};

/// One completed replica: host wall time (the runner's RunMetrics::wall_ms,
/// make through collect) against the simulated work it did.
struct Sample {
  double wall_ms = 0.0;
  double sim_s = 0.0;
  double events = 0.0;
};

struct RoundStats {
  bool traced = false;
  double wall_ms = 0.0;    ///< runner calls + report serialization + digest
  double report_ms = 0.0;  ///< to_json().dump(2) of every report
  std::uint64_t allocs = 0;  ///< during the runner calls
  std::size_t replicas = 0;
  std::size_t failed = 0;
  double sim_s = 0.0;
  double events = 0.0;
  std::vector<Sample> samples;  ///< every replica that completed
  std::map<std::string, double> counters;  ///< stats summed over replicas
  double wids_alerts = 0.0;
  // Wrapped replicas only (the tournament builds its own worlds).
  std::size_t wrapped = 0;
  double phase_ms[kPhases] = {};
  std::vector<double> setup_ms;  ///< build + configure + start, per replica
  std::map<std::string, double> self_ms;  ///< profiler self time by scope
  std::map<std::string, double> scope_calls;
  std::string digest;  ///< SHA-256 over every report's bytes
  std::string check_error;  ///< first failed paper-outcome check
};

void fold_runs(RoundStats& rs, const std::vector<runner::RunMetrics>& runs) {
  for (const runner::RunMetrics& run : runs) {
    ++rs.replicas;
    if (run.failed) {
      ++rs.failed;
      continue;
    }
    const scenario::Metrics& m = run.metrics;
    rs.samples.push_back(Sample{run.wall_ms, m.sim_time_s,
                                static_cast<double>(m.events_fired)});
    rs.sim_s += m.sim_time_s;
    rs.events += static_cast<double>(m.events_fired);
    rs.wids_alerts += static_cast<double>(m.wids_alerts);
    for (const obs::StatsSnapshot::Entry& e : m.stats.entries) {
      if (e.kind != obs::MetricKind::kHistogram) {
        rs.counters[e.name] += static_cast<double>(e.value);
      }
    }
  }
}

const runner::VariantSummary* find_summary(const runner::SweepReport& r,
                                           std::string_view name) {
  for (const runner::VariantSummary& s : r.summaries) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// The paper's outcomes, which must hold at any seed base. Returns the
/// first violation, or an empty string.
std::string check_outcomes(const Workload& w, const runner::SweepReport& r,
                           const runner::TournamentReport* t) {
  char buf[160];
  if (w.ladder == "corp-chaos" || w.ladder == "corp-transport") {
    // Fig. 3: nobody is deceived, and the tunnel is up at the end of the
    // episode in at least 90% of the workload's replicas.
    double deceived = 0.0, up = 0.0, runs = 0.0;
    for (const runner::VariantSummary& s : r.summaries) {
      const auto n = static_cast<double>(s.runs);
      deceived += s.deception_rate * n;
      up += s.vpn_rate * n;
      runs += n;
    }
    if (deceived > 0.0 || up < 0.9 * runs) {
      std::snprintf(buf, sizeof buf, "deception rate %.3f, vpn_rate %.3f",
                    ratio(deceived, runs), ratio(up, runs));
      return buf;
    }
  }
  if (w.ladder == "corp") {
    const runner::VariantSummary* base = find_summary(r, "baseline");
    const runner::VariantSummary* forced = find_summary(r, "rogue+deauth");
    if (base != nullptr && base->deception_rate != 0.0) {
      return "baseline deception rate is not 0";
    }
    if (forced != nullptr && forced->deception_rate < 0.9) {
      std::snprintf(buf, sizeof buf, "rogue+deauth deception %.3f < 0.9",
                    forced->deception_rate);
      return buf;
    }
  }
  if (w.ladder == "metro") {
    for (const runner::VariantSummary& s : r.summaries) {
      const double rate = s.metro_promiscuous_rate.count() > 0
                              ? s.metro_promiscuous_rate.mean()
                              : 0.0;
      const bool twin = s.name == "evil-twin";
      if (twin ? rate <= 0.0 : rate != 0.0) {
        std::snprintf(buf, sizeof buf, "%s: promiscuous rate %.4f",
                      s.name.c_str(), rate);
        return buf;
      }
    }
  }
  if (t != nullptr) {
    for (const runner::PairSummary& p : t->pairs) {
      if (p.detection_rate < 0.9) {
        std::snprintf(buf, sizeof buf, "%s|%s detection %.3f < 0.9",
                      p.attacker.c_str(), p.detector.c_str(),
                      p.detection_rate);
        return buf;
      }
    }
  }
  return "";
}

struct RunOptions {
  std::uint64_t seed_base = 1;
  double seconds = 25.0;  ///< BENCHMARK.json's run_seconds
  bool traced = false;
  bool smoke = false;
  std::string trace_out;  ///< Chrome trace of the benchmark's own spans
};

RoundStats run_round(const Workload& w, const RunOptions& opt, bool traced,
                     std::deque<ReplicaTiming>& log) {
  RoundStats rs;
  rs.traced = traced;
  log.clear();
  const Clock::time_point t0 = Clock::now();

  runner::SweepConfig cfg;
  cfg.scenario = std::string(w.ladder);
  cfg.seed_base = opt.seed_base;
  cfg.runs = opt.smoke ? 1 : w.seeds;
  cfg.jobs = 1;
  runner::ExperimentRunner sweep(cfg);
  for (runner::Variant& v : timed_variants(w, opt.smoke, traced, log)) {
    sweep.add_variant(std::move(v.name), std::move(v.make));
  }

  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const runner::SweepReport report = sweep.run();
  std::optional<runner::TournamentReport> tournament;
  if (w.tournament_seeds > 0) {
    runner::TournamentConfig tc;
    tc.scenario = "corp";
    tc.attackers = {"cloner"};
    tc.detectors = {"composite"};
    tc.seed_base = opt.seed_base;
    tc.runs = opt.smoke ? 1 : w.tournament_seeds;
    tc.jobs = 1;
    tournament = runner::run_tournament(tc);
  }
  rs.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;

  // The report bytes a user would write with `sweep --out`: dump(2) plus
  // the trailing newline, so the digest matches `sha256sum report.json`.
  const Clock::time_point r0 = Clock::now();
  std::string bytes = report.to_json().dump(2) + "\n";
  if (tournament) bytes += tournament->to_json().dump(2) + "\n";
  rs.report_ms = ms_between(r0, Clock::now());
  rs.digest = crypto::sha256_hex(util::ByteView(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));

  fold_runs(rs, report.runs);
  if (tournament) fold_runs(rs, tournament->runs);
  rs.check_error =
      check_outcomes(w, report, tournament ? &*tournament : nullptr);

  rs.wrapped = log.size();
  for (const ReplicaTiming& rec : log) {
    for (int p = 0; p < kPhases; ++p) rs.phase_ms[p] += rec.ms[p];
    rs.setup_ms.push_back(rec.ms[kBuild] + rec.ms[kConfigure] + rec.ms[kStart]);
    for (const obs::Profiler::Row& row : rec.profile.rows) {
      rs.self_ms[row.name] += static_cast<double>(row.self_ns) / 1e6;
      rs.scope_calls[row.name] += static_cast<double>(row.calls);
    }
  }
  rs.wall_ms = ms_between(t0, Clock::now());
  return rs;
}

// ---- crypto probes ---------------------------------------------------------

/// One VPN handshake's DH work: two key pairs and both shared secrets over
/// the 1024-bit MODP group, as client and endpoint each compute them.
double dh_handshake_ms(util::Prng& rng) {
  const Clock::time_point t0 = Clock::now();
  const crypto::DhGroup& group = crypto::DhGroup::modp1024();
  const crypto::DhKeyPair a = crypto::DhKeyPair::generate(group, rng);
  const crypto::DhKeyPair b = crypto::DhKeyPair::generate(group, rng);
  const util::Bytes sa = a.shared_secret(b.public_value());
  const util::Bytes sb = b.shared_secret(a.public_value());
  const double ms = ms_between(t0, Clock::now());
  if (sa != sb || sa.empty()) throw std::runtime_error("DH probe mismatch");
  return ms;
}

/// Seal + open of one 1400-byte record, microseconds per record over a
/// batch of 2000.
double aead_seal_open_us(util::Prng& rng) {
  util::Bytes key(crypto::kAeadKeyLen);
  util::Bytes plain(1400);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next());
  const util::Bytes ad(8, 0x5a);
  constexpr int kBatch = 2000;
  util::Bytes sealed;
  util::Bytes opened;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kBatch; ++i) {
    sealed.clear();
    opened.clear();
    const auto seq = static_cast<std::uint64_t>(i);
    crypto::aead_seal_append(key, seq, ad, plain, sealed);
    if (!crypto::aead_open_append(key, seq, ad, sealed, opened) ||
        opened != plain) {
      throw std::runtime_error("AEAD probe round trip failed");
    }
  }
  return ms_between(t0, Clock::now()) * 1e3 / kBatch;
}

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::string workload;
  std::uint64_t seed_base = 0;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t rounds = 0;
  std::string digest;
  std::string error;
  std::vector<Metric> metrics;
};

/// The round with the smallest cost. Every round replays the same
/// replicas, and host interference (other tenants, frequency changes) only
/// ever slows a round down, so the cheapest round is the one closest to
/// what the code itself costs.
template <typename Fn>
const RoundStats& cheapest(const std::vector<const RoundStats*>& rounds,
                           Fn&& cost) {
  const RoundStats* best = rounds.front();
  for (const RoundStats* r : rounds) {
    if (cost(*r) < cost(*best)) best = r;
  }
  return *best;
}

template <typename Fn>
double lowest(const std::vector<const RoundStats*>& rounds, Fn&& cost) {
  return cost(cheapest(rounds, cost));
}

/// A quantile of a per-replica cost within each round, in the cheapest round.
template <typename Fn>
double per_round(const std::vector<const RoundStats*>& rounds, double q,
                 Fn&& fn) {
  return lowest(rounds, [&](const RoundStats& r) {
    std::vector<double> v;
    v.reserve(r.samples.size());
    for (const Sample& s : r.samples) v.push_back(fn(s));
    return quantile(std::move(v), q);
  });
}

double host_ms_per_sim_s(const std::vector<const RoundStats*>& rounds) {
  return per_round(rounds, 0.5,
                   [](const Sample& s) { return ratio(s.wall_ms, s.sim_s); });
}

/// The round with the fewest allocations. Every round after the first makes
/// exactly the same allocations; the first also pays one-off static
/// initialisation, so the smallest round is the repeatable count.
const RoundStats& fewest_allocs(const std::vector<const RoundStats*>& rounds) {
  return cheapest(rounds, [](const RoundStats& r) {
    return static_cast<double>(r.allocs);
  });
}

void end_to_end_metrics(const Workload& w,
                        const std::vector<const RoundStats*>& rounds,
                        std::vector<Metric>& out) {
  const auto add = [&out](std::string name, double v, std::string unit) {
    out.push_back(Metric{std::move(name), v, std::move(unit)});
  };
  const auto replica_ms = [](const Sample& s) { return s.wall_ms; };
  add("host_ms_per_sim_s", host_ms_per_sim_s(rounds), "ms");
  add("replicas_per_s", 1e3 / lowest(rounds, [](const RoundStats& r) {
        return ratio(r.wall_ms, static_cast<double>(r.replicas));
      }),
      "1/s");
  add("replica_ms_p50", per_round(rounds, 0.5, replica_ms), "ms");
  add("replica_ms_tail", per_round(rounds, w.tail_q, replica_ms), "ms");
  // A round's set-up is sub-millisecond work per replica, so one interrupt
  // would double a replica's share of a plain sum: take the median
  // replica's set-up times the replicas set up, and the median over rounds.
  std::vector<double> setup_s;
  for (const RoundStats* r : rounds) {
    setup_s.push_back(median(r->setup_ms) *
                      static_cast<double>(r->setup_ms.size()) / 1e3);
  }
  add("setup_s", median(setup_s), "s");
  // Per simulated second, like host time: allocations in the DH-bound
  // workloads follow the handshakes, not the event count, which swings
  // with TCP dynamics from seed to seed.
  const RoundStats& a = fewest_allocs(rounds);
  add("allocs_per_sim_s", ratio(static_cast<double>(a.allocs), a.sim_s),
      "count/sim_s");
}

void per_layer_metrics(const std::vector<const RoundStats*>& untraced,
                       const std::vector<const RoundStats*>& traced,
                       double dh_ms, double aead_us, std::vector<Metric>& out) {
  const auto add = [&out](std::string name, double v, std::string unit) {
    out.push_back(Metric{std::move(name), v, std::move(unit)});
  };
  // Stats counters are deterministic per seed base: read them from one
  // round. Allocation counts come from the untraced rounds, since the
  // profiler's report allocates inside the counted window.
  const RoundStats& c = *traced.front();
  const double n = static_cast<double>(std::max<std::size_t>(c.replicas, 1));
  const auto mean = [&](std::string_view name) {
    const auto it = c.counters.find(std::string(name));
    return it == c.counters.end() ? 0.0 : it->second / n;
  };
  const RoundStats& a = fewest_allocs(untraced);
  // Host times, per wrapped replica, all come from the traced round with
  // the shortest episodes, so the self times add up against its episode.
  const RoundStats& t = cheapest(traced, [](const RoundStats& r) {
    return r.phase_ms[kEpisode];
  });
  const double wrapped = static_cast<double>(t.wrapped);
  const auto phase = [&](Phase p) { return ratio(t.phase_ms[p], wrapped); };
  const auto self = [&](std::string_view scope) {
    const auto it = t.self_ms.find(std::string(scope));
    return it == t.self_ms.end() ? 0.0 : ratio(it->second, wrapped);
  };
  const double episode = phase(kEpisode);
  double scoped = 0.0;
  for (const std::string_view scope : kScopes) scoped += self(scope);

  add("scenario.build_ms", phase(kBuild), "ms");
  add("scenario.configure_ms", phase(kConfigure), "ms");
  add("scenario.start_ms", phase(kStart), "ms");
  add("scenario.episode_ms", episode, "ms");
  add("scenario.collect_ms", phase(kCollect), "ms");
  add("scenario.unscoped_ms", episode - scoped, "ms");
  add("scenario.unscoped_share", ratio(episode - scoped, episode), "ratio");
  add("runner.report_ms",
      lowest(untraced, [](const RoundStats& r) { return r.report_ms; }),
      "ms");

  const double attempts = mean("vpn.client.connect_attempts");
  add("crypto.dh_handshake_ms", dh_ms, "ms");
  add("crypto.aead_seal_open_us", aead_us, "us");
  add("crypto.dh_share_est", ratio(attempts * dh_ms, episode), "ratio");

  add("sim.events_fired", mean("sim.events_fired"), "count");
  add("sim.events_per_s", 1e3 / per_round(untraced, 0.5, [](const Sample& s) {
        return ratio(s.wall_ms, s.events);
      }),
      "1/s");
  add("sim.cancels", mean("sim.cancels"), "count");
  add("sim.heap_peak", mean("sim.heap_peak"), "count");
  add("sim.pool.reuse_ratio",
      ratio(mean("sim.pool.reuses"), mean("sim.pool.acquires")), "ratio");
  add("alloc.per_replica",
      ratio(static_cast<double>(a.allocs), static_cast<double>(a.replicas)),
      "count");
  add("alloc.per_event", ratio(static_cast<double>(a.allocs), a.events),
      "count");

  add("phy.tx_frames", mean("phy.tx_frames"), "count");
  add("phy.delivered", mean("phy.delivered"), "count");
  add("phy.collisions", mean("phy.collisions"), "count");
  add("phy.csma_deferrals", mean("phy.csma_deferrals"), "count");
  add("phy.rssi_cache_hit_ratio",
      ratio(mean("phy.rssi_cache_hits"),
            mean("phy.rssi_cache_hits") + mean("phy.rssi_cache_misses")),
      "ratio");
  const auto rebuilds = t.scope_calls.find("phy.plan_rebuild");
  add("phy.plan_rebuild.calls",
      rebuilds == t.scope_calls.end() ? 0.0 : ratio(rebuilds->second, wrapped),
      "count");

  add("dot11.sta.rx_frames",
      mean("dot11.sta.rx_data") + mean("dot11.sta.rx_mgmt"), "count");
  add("dot11.ap.rx_frames",
      mean("dot11.ap.rx_data") + mean("dot11.ap.rx_mgmt"), "count");
  add("dot11.sta.associations", mean("dot11.sta.associations"), "count");

  add("net.ip.sent", mean("net.ip.sent"), "count");
  add("net.tcp.segments_sent", mean("net.tcp.segments_sent"), "count");
  add("net.tcp.retransmit_ratio",
      ratio(mean("net.tcp.retransmits"), mean("net.tcp.segments_sent")),
      "ratio");

  add("vpn.client.connect_attempts", attempts, "count");
  add("vpn.handshake_success_ratio",
      ratio(mean("vpn.client.sessions_established"), attempts), "ratio");
  add("vpn.records",
      mean("vpn.client.records_out") + mean("vpn.client.records_in"),
      "count");

  add("detect.alerts", ratio(c.wids_alerts, n), "count");

  for (const std::string_view scope : kScopes) {
    const double ms = self(scope);
    add(std::string(scope) + ".self_ms", ms, "ms");
    add(std::string(scope) + ".self_share", ratio(ms, episode), "ratio");
  }

  add("obs.traced_overhead",
      ratio(host_ms_per_sim_s(traced), host_ms_per_sim_s(untraced)), "ratio");
}

// ---- Chrome trace of the benchmark's own spans -----------------------------

util::Json span_event(std::string_view name, double ts_us, double dur_us,
                      util::Json args) {
  util::Json e = util::Json::object();
  e.set("name", name);
  e.set("ph", "X");
  e.set("ts", ts_us);
  e.set("dur", dur_us);
  e.set("pid", 1);
  e.set("tid", 1);
  e.set("args", std::move(args));
  return e;
}

bool write_chrome_trace(const std::string& path, const Workload& w,
                        const std::deque<ReplicaTiming>& log) {
  util::Json events = util::Json::array();
  util::Json meta = util::Json::object();
  meta.set("name", "process_name");
  meta.set("ph", "M");
  meta.set("pid", 1);
  util::Json meta_args = util::Json::object();
  meta_args.set("name", "bench_e2e " + std::string(w.name));
  meta.set("args", std::move(meta_args));
  events.push_back(std::move(meta));
  for (const ReplicaTiming& rec : log) {
    const double begin = rec.start_us[kBuild];
    const double end = rec.start_us[kCollect] + rec.ms[kCollect] * 1e3;
    util::Json args = util::Json::object();
    args.set("variant", rec.variant);
    args.set("seed", rec.seed);
    events.push_back(span_event("replica", begin, end - begin, args));
    for (int p = 0; p < kPhases; ++p) {
      events.push_back(span_event(kPhaseNames[p], rec.start_us[p],
                                  rec.ms[p] * 1e3, util::Json::object()));
    }
  }
  util::Json doc = util::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream f(path);
  f << doc.dump() << '\n';
  return static_cast<bool>(f);
}

// ---- driving one workload --------------------------------------------------

Result run_workload(const Workload& w, const RunOptions& opt) {
  Result res;
  res.workload = std::string(w.name);
  res.seed_base = opt.seed_base;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  // Crypto probes run once after every round of a traced run, so they
  // see the same host conditions as the episodes they are compared with.
  util::Prng probe_rng(opt.seed_base);
  std::vector<double> dh_ms;
  std::vector<double> aead_us;

  // Untraced rounds always run; a traced run alternates untraced and
  // traced rounds so the overhead ratio compares like with like. A new
  // round starts only if the slowest one so far would still end in time.
  std::deque<RoundStats> rounds;
  std::deque<ReplicaTiming> log;
  double longest_ms = 0.0;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    const bool traced = opt.traced && rounds.size() % 2 == 1;
    rounds.push_back(run_round(w, opt, traced, log));
    const RoundStats& r = rounds.back();
    if (opt.traced) {
      dh_ms.push_back(dh_handshake_ms(probe_rng));
      aead_us.push_back(aead_seal_open_us(probe_rng));
    }
    std::fprintf(stderr, "%.*s round %zu%s: %zu replicas, %.1f ms, %.6g host ms/sim s\n",
                 static_cast<int>(w.name.size()), w.name.data(), rounds.size(),
                 traced ? " (traced)" : "", r.replicas, r.wall_ms,
                 host_ms_per_sim_s({&r}));
    // The first traced round's spans become the Chrome trace.
    if (traced && rounds.size() == 2 && !opt.trace_out.empty() &&
        !write_chrome_trace(opt.trace_out, w, log)) {
      res.error = "cannot write " + opt.trace_out;
    }
    const Clock::time_point t1 = Clock::now();
    longest_ms = std::max(longest_ms, ms_between(t0, t1));
    const bool have_all = !opt.traced || rounds.size() >= 2;
    const auto next_end =
        t1 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(longest_ms));
    if (have_all && (opt.smoke || next_end > deadline)) break;
  }
  res.rounds = rounds.size();

  std::vector<const RoundStats*> untraced;
  std::vector<const RoundStats*> traced;
  for (const RoundStats& r : rounds) {
    (r.traced ? traced : untraced).push_back(&r);
    res.attempted += r.replicas;
    res.failed += r.failed;
    if (res.digest.empty()) res.digest = r.digest;
    if (r.digest != res.digest && res.error.empty()) {
      res.error = "report bytes differ between rounds of the same seeds";
    }
    if (!r.check_error.empty() && res.error.empty()) res.error = r.check_error;
  }
  if (res.failed > 0 && res.error.empty()) res.error = "replicas failed";

  if (!opt.traced || opt.smoke) end_to_end_metrics(w, untraced, res.metrics);
  if (opt.traced) {
    per_layer_metrics(untraced, traced, median(dh_ms), median(aead_us),
                      res.metrics);
    // Self times plus unscoped time account for the episode by definition;
    // what can break is a scope open outside the episode, which would make
    // the scoped total exceed the episode's wall time.
    for (const Metric& m : res.metrics) {
      if (m.name == "scenario.unscoped_share" && m.value < -0.05) {
        res.error = "profiler scopes exceed episode time";
      }
    }
  }
  if (!res.error.empty()) {
    res.correct = false;
    res.failed = res.attempted;  // a wrong report fails the whole workload
  }
  return res;
}

util::Json result_json(const Result& r) {
  util::Json metrics = util::Json::object();
  for (const Metric& m : r.metrics) {
    util::Json v = util::Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  util::Json j = util::Json::object();
  j.set("workload", r.workload);
  j.set("seed_base", r.seed_base);
  j.set("correct", r.correct);
  j.set("attempted", r.attempted);
  j.set("failed", r.failed);
  j.set("rounds", static_cast<std::uint64_t>(r.rounds));
  j.set("digest", r.digest);
  if (!r.error.empty()) j.set("error", r.error);
  j.set("metrics", std::move(metrics));
  return j;
}

std::optional<Result> result_from_json(const util::Json& j) {
  const util::Json* name = j.find("workload");
  const util::Json* metrics = j.find("metrics");
  if (name == nullptr || metrics == nullptr) return std::nullopt;
  Result r;
  r.workload = name->as_string();
  r.seed_base = static_cast<std::uint64_t>(j.find("seed_base")->as_int());
  r.correct = j.find("correct")->as_bool();
  r.attempted = static_cast<std::uint64_t>(j.find("attempted")->as_int());
  r.failed = static_cast<std::uint64_t>(j.find("failed")->as_int());
  r.rounds = static_cast<std::size_t>(j.find("rounds")->as_int());
  r.digest = j.find("digest")->as_string();
  if (const util::Json* e = j.find("error")) r.error = e->as_string();
  for (const util::Json::Member& m : metrics->members()) {
    r.metrics.push_back(Metric{m.first, m.second.find("value")->as_double(),
                               m.second.find("unit")->as_string()});
  }
  return r;
}

/// Run one workload in a fork()ed child: the child streams its result JSON
/// through a pipe, and wait4() gives the child's own peak RSS.
Result run_in_child(const Workload& w, const RunOptions& opt) {
  Result failed;
  failed.workload = std::string(w.name);
  failed.seed_base = opt.seed_base;
  failed.correct = false;
  int fds[2];
  if (pipe(fds) != 0) {
    failed.error = std::string("pipe: ") + std::strerror(errno);
    return failed;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    failed.error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return failed;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string text;
    try {
      const Result r = run_workload(w, opt);
      text = result_json(r).dump();
    } catch (const std::exception& e) {
      Result r = failed;
      r.error = e.what();
      text = result_json(r).dump();
      code = 1;
    }
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) {
        code = 1;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  const std::optional<util::Json> doc = util::Json::parse(text);
  std::optional<Result> r = doc ? result_from_json(*doc) : std::nullopt;
  if (!r) {
    failed.error = "workload child exited without a result";
    return failed;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) r->correct = false;
  if (!opt.traced || opt.smoke) {
    // ru_maxrss is in KiB on Linux.
    r->metrics.push_back(Metric{
        "peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
  }
  return *r;
}

// ---- spec and golden files -------------------------------------------------
// The build compiles in the repository's BENCHMARK.json and this
// directory's golden.json, so every run is checked against them.

std::optional<util::Json> read_json(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::stringstream ss;
  ss << f.rdbuf();
  return util::Json::parse(ss.str());
}

/// Metric names BENCHMARK.json declares under `section`.
std::set<std::string> declared(const util::Json& spec, std::string_view section) {
  std::set<std::string> names;
  if (const util::Json* list = spec.find(section)) {
    for (const util::Json& m : list->items()) {
      names.insert(m.find("name")->as_string());
    }
  }
  return names;
}

/// Emitted metric names must equal the declared ones exactly.
std::string check_names(const Result& r, const std::set<std::string>& want) {
  std::set<std::string> got;
  for (const Metric& m : r.metrics) got.insert(m.name);
  for (const std::string& n : want) {
    if (got.count(n) == 0) return "metric missing: " + n;
  }
  for (const std::string& n : got) {
    if (want.count(n) == 0) return "metric not declared: " + n;
  }
  return "";
}

void print_table(const Result& r) {
  std::fprintf(stderr, "%s: %s, %llu replicas in %zu rounds, digest %.16s%s%s\n",
               r.workload.c_str(), r.correct ? "ok" : "FAILED",
               static_cast<unsigned long long>(r.attempted), r.rounds,
               r.digest.c_str(), r.error.empty() ? "" : " — ",
               r.error.c_str());
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload NAME]... [--seed-base N] [--seconds S]\n"
               "          [--traced] [--out F] [--trace-out F] [--smoke]\n"
               "workloads:",
               argv0);
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::vector<const Workload*> selected;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--workload") {
      const char* v = value();
      const Workload* w = v != nullptr ? find_workload(v) : nullptr;
      if (w == nullptr) return usage(argv[0]);
      selected.push_back(w);
    } else if (arg == "--seed-base") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.seed_base = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--out" || arg == "--trace-out") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      (arg == "--out" ? out_path : opt.trace_out) = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (selected.empty()) {
    for (const Workload& w : workloads()) selected.push_back(&w);
  }
  if (opt.smoke) {
    // One seed of one variant per ladder plus one tournament replica, with
    // both metric sets, so the smoke run covers every name the spec has.
    opt.traced = true;
    opt.seed_base = 1;
  }
  if (opt.seed_base == 0 || opt.seconds < 0.0) return usage(argv[0]);

  const std::optional<util::Json> spec = read_json(BENCH_SPEC);
  const std::optional<util::Json> golden = read_json(BENCH_GOLDEN);
  if (!spec || !golden) {
    std::fprintf(stderr, "cannot read %s\n", spec ? BENCH_GOLDEN : BENCH_SPEC);
    return 2;
  }

  std::vector<Result> results;
  for (const Workload* w : selected) {
    RunOptions wopt = opt;
    if (!opt.trace_out.empty() && selected.size() > 1) {
      wopt.trace_out = opt.trace_out + "." + std::string(w->name) + ".json";
    }
    Result r = run_in_child(*w, wopt);
    std::set<std::string> names;
    if (!opt.traced || opt.smoke) names = declared(*spec, "end_to_end");
    if (opt.traced) {
      for (const std::string& n : declared(*spec, "per_layer")) names.insert(n);
    }
    std::string why = check_names(r, names);
    // Golden digests pin the report bytes at the golden seed base, and
    // those of the smoke scale.
    if (why.empty()) {
      const util::Json* seed = golden->find("seed_base");
      const bool pinned =
          opt.smoke || (seed != nullptr &&
                        static_cast<std::uint64_t>(seed->as_int()) == opt.seed_base);
      const util::Json* digests = golden->find(opt.smoke ? "smoke" : "digests");
      const util::Json* want = digests ? digests->find(w->name) : nullptr;
      if (pinned && want == nullptr) {
        why = "golden file has no digest for " + std::string(w->name);
      } else if (pinned && want->as_string() != r.digest) {
        why = "report digest " + r.digest + " != golden " + want->as_string();
      }
    }
    if (!why.empty()) {
      r.correct = false;
      r.failed = r.attempted;
      if (r.error.empty()) r.error = why;
    }
    print_table(r);
    std::printf("%s\n", result_json(r).dump().c_str());
    std::fflush(stdout);
    results.push_back(std::move(r));
  }

  bool ok = true;
  for (const Result& r : results) ok = ok && r.correct;
  if (!out_path.empty()) {
    util::Json doc = util::Json::object();
    doc.set("seed_base", opt.seed_base);
    doc.set("seconds", opt.seconds);
    doc.set("traced", opt.traced);
    util::Json list = util::Json::array();
    for (const Result& r : results) list.push_back(result_json(r));
    doc.set("workloads", std::move(list));
    std::ofstream f(out_path);
    f << doc.dump(2) << '\n';
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}
