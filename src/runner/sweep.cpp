#include "runner/sweep.hpp"

#include <chrono>
#include <exception>
#include <map>
#include <utility>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace rogue::runner {

ExperimentRunner::ExperimentRunner(SweepConfig config)
    : config_(std::move(config)) {}

void ExperimentRunner::add_variant(std::string name, WorldFactory make) {
  ROGUE_ASSERT_MSG(make != nullptr, "variant needs a factory");
  variants_.push_back(Variant{std::move(name), std::move(make)});
}

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

VariantSummary summarize(const Variant& variant, const RunMetrics* runs,
                         std::size_t count) {
  VariantSummary s;
  s.name = variant.name;
  s.runs = count;
  std::size_t captured = 0, downloaded = 0, deceived = 0, detected = 0,
              vpn_up = 0;
  // Ordered map -> the per-name aggregates come out sorted, so the report
  // bytes cannot depend on which replica interned a metric first.
  std::map<std::string, util::Summary> stats_agg;
  for (std::size_t i = 0; i < count; ++i) {
    if (runs[i].failed) {
      ++s.failed;
      continue;  // default-constructed metrics would poison the aggregates
    }
    const scenario::Metrics& m = runs[i].metrics;
    m.stats.for_each_row([&](const std::string& name, std::uint64_t v) {
      stats_agg[name].add(static_cast<double>(v));
    });
    if (m.victim_captured) {
      ++captured;
      s.time_to_capture_s.add(m.time_to_capture_s);
    }
    if (m.download_completed) ++downloaded;
    if (m.victim_deceived) ++deceived;
    if (m.rogue_detected) {
      ++detected;
      if (m.detection_latency_s >= 0.0) {
        s.detection_latency_s.add(m.detection_latency_s);
      }
    }
    if (m.vpn_established) {
      ++vpn_up;
      s.vpn_goodput_kbps.add(m.vpn_goodput_kbps);
      s.vpn_overhead_ratio.add(m.vpn_overhead_ratio);
    }
    // Robustness: aggregate over replicas whose tunnel ever existed (up at
    // the end, or observed losing a session), so variants without a VPN
    // phase report empty summaries rather than a wall of zeros.
    if (m.vpn_established || m.vpn_tunnel_losses > 0) {
      s.vpn_reconnects.add(static_cast<double>(m.vpn_reconnects));
      s.vpn_downtime_s.add(m.vpn_downtime_s);
      s.clear_packets.add(static_cast<double>(m.clear_packets));
      if (m.vpn_recover_p95_s >= 0.0) {
        s.time_to_recover_s.add(m.vpn_recover_p95_s);
      }
    }
    if (m.faults_injected > 0) {
      s.faults_injected.add(static_cast<double>(m.faults_injected));
    }
    if (m.metro_enabled) {
      ++s.metro_runs;
      s.metro_associations.add(static_cast<double>(m.metro_associations));
      s.metro_roams.add(static_cast<double>(m.metro_roams));
      if (m.metro_roam_p95_s >= 0.0) s.metro_roam_p95_s.add(m.metro_roam_p95_s);
      s.metro_promiscuous_rate.add(m.metro_promiscuous_rate);
      s.metro_assoc_fraction.add(m.metro_assoc_fraction);
    }
    s.events_fired.add(static_cast<double>(m.events_fired));
    s.sim_time_s.add(m.sim_time_s);
  }
  const double n = count > 0 ? static_cast<double>(count) : 1.0;
  s.capture_rate = static_cast<double>(captured) / n;
  s.download_rate = static_cast<double>(downloaded) / n;
  s.deception_rate = static_cast<double>(deceived) / n;
  s.detection_rate = static_cast<double>(detected) / n;
  s.vpn_rate = static_cast<double>(vpn_up) / n;
  s.stats.assign(stats_agg.begin(), stats_agg.end());
  return s;
}

/// The report header every report file starts with.
util::Json header_json(const SweepConfig& config) {
  util::Json j = util::Json::object();
  j.set("scenario", config.scenario);
  j.set("seed_base", config.seed_base);
  j.set("runs_per_variant", static_cast<std::uint64_t>(config.runs));
  return j;
}

util::Json layer_stats_json(const VariantSummary& s) {
  util::Json j = util::Json::object();
  for (const auto& [stat_name, summary] : s.stats) {
    j.set(stat_name, summary_json(summary));
  }
  return j;
}

}  // namespace

util::Json summary_json(const util::Summary& s) {
  const bool any = s.count() > 0;
  util::Json j = util::Json::object();
  j.set("count", static_cast<std::uint64_t>(s.count()));
  j.set("mean", any ? s.mean() : 0.0);
  j.set("p50", any ? s.percentile(0.5) : 0.0);
  j.set("p95", any ? s.percentile(0.95) : 0.0);
  return j;
}

SweepReport ExperimentRunner::run() {
  ROGUE_ASSERT_MSG(!variants_.empty(), "add_variant() before run()");
  ROGUE_ASSERT_MSG(config_.runs > 0, "sweep needs runs > 0");

  const std::size_t per_variant = config_.runs;
  const std::size_t total = variants_.size() * per_variant;
  const auto sweep_start = std::chrono::steady_clock::now();

  util::ThreadPool pool(config_.jobs);
  std::vector<RunMetrics> runs = util::parallel_map<RunMetrics>(
      pool, total, [&](std::size_t i) {
        const Variant& variant = variants_[i / per_variant];
        const std::uint64_t seed =
            config_.seed_base + static_cast<std::uint64_t>(i % per_variant);
        const auto replica_start = std::chrono::steady_clock::now();

        RunMetrics run;
        run.scenario = config_.scenario;
        run.variant = variant.name;
        run.seed = seed;
        // One faulty replica must not take down the other N-1: report it
        // as failed (the JSON carries variant/seed/error) and keep going.
        // `world` outlives the try so a throwing episode still surrenders
        // its flight-recorder tail.
        std::unique_ptr<scenario::World> world;
        try {
          world = variant.make(seed);
          if (config_.trace) {
            world->simulator().tracer().enable(config_.trace_ring_events);
          }
          if (config_.pool.slab_buffers > 0) {
            // Warm the replica's arena before configure() can serialize
            // anything, so the slab — not the heap — serves first traffic.
            world->simulator().configure_buffer_pool(config_.pool);
          }
          world->configure(seed);
          if (config_.timeseries_dt_s > 0.0) {
            // Scheduled after configure() (reseed needs a pristine
            // simulator) and before run_episode(); fires only while the
            // episode drives the clock, so the series self-terminates.
            sim::Simulator& sim = world->simulator();
            const auto dt = static_cast<sim::Time>(
                config_.timeseries_dt_s * static_cast<double>(sim::kSecond));
            sim.every(dt, [&sim, &run] {
              run.timeseries.push_back(RunMetrics::TimeSample{
                  static_cast<double>(sim.now()) /
                      static_cast<double>(sim::kSecond),
                  sim.stats().snapshot()});
            });
          }
          world->run_episode();
          run.metrics = world->collect_metrics();
        } catch (const std::exception& e) {
          run.failed = true;
          run.error = e.what();
        } catch (...) {
          run.failed = true;
          run.error = "unknown exception";
        }
        if (config_.trace && world != nullptr) {
          run.trace = std::make_shared<obs::TracerDump>(
              world->simulator().tracer().dump());
        }
        run.wall_ms = elapsed_ms(replica_start);
        return run;
      });

  SweepReport report;
  report.config = config_;
  report.runs = std::move(runs);
  report.wall_ms = elapsed_ms(sweep_start);
  report.summaries.reserve(variants_.size());
  for (std::size_t v = 0; v < variants_.size(); ++v) {
    report.summaries.push_back(summarize(
        variants_[v], report.runs.data() + v * per_variant, per_variant));
  }
  return report;
}

util::Json SweepReport::to_json() const {
  util::Json j = header_json(config);
  util::Json variants = util::Json::array();
  for (std::size_t v = 0; v < summaries.size(); ++v) {
    const VariantSummary& s = summaries[v];
    util::Json agg = util::Json::object();
    agg.set("runs", static_cast<std::uint64_t>(s.runs));
    agg.set("failed", static_cast<std::uint64_t>(s.failed));
    agg.set("capture_rate", s.capture_rate);
    agg.set("time_to_capture_s", summary_json(s.time_to_capture_s));
    agg.set("download_rate", s.download_rate);
    agg.set("deception_rate", s.deception_rate);
    agg.set("detection_rate", s.detection_rate);
    agg.set("detection_latency_s", summary_json(s.detection_latency_s));
    agg.set("vpn_rate", s.vpn_rate);
    agg.set("vpn_goodput_kbps", summary_json(s.vpn_goodput_kbps));
    agg.set("vpn_overhead_ratio", summary_json(s.vpn_overhead_ratio));
    agg.set("faults_injected", summary_json(s.faults_injected));
    agg.set("vpn_reconnects", summary_json(s.vpn_reconnects));
    agg.set("vpn_downtime_s", summary_json(s.vpn_downtime_s));
    agg.set("time_to_recover_s", summary_json(s.time_to_recover_s));
    agg.set("clear_packets", summary_json(s.clear_packets));
    agg.set("events_fired", summary_json(s.events_fired));
    agg.set("sim_time_s", summary_json(s.sim_time_s));
    // Gated like the per-replica metro block: present only when a metro
    // episode contributed, so legacy reports keep their exact bytes.
    if (s.metro_runs > 0) {
      util::Json metro = util::Json::object();
      metro.set("runs", static_cast<std::uint64_t>(s.metro_runs));
      metro.set("associations", summary_json(s.metro_associations));
      metro.set("roams", summary_json(s.metro_roams));
      metro.set("roam_p95_s", summary_json(s.metro_roam_p95_s));
      metro.set("promiscuous_rate", summary_json(s.metro_promiscuous_rate));
      metro.set("assoc_fraction", summary_json(s.metro_assoc_fraction));
      agg.set("metro", std::move(metro));
    }
    agg.set("stats", layer_stats_json(s));

    util::Json entry = util::Json::object();
    entry.set("name", s.name);
    entry.set("aggregate", std::move(agg));
    entry.set("runs", runs_json(v));
    variants.push_back(std::move(entry));
  }
  j.set("variants", std::move(variants));
  // Failures surfaced at top level so operators (and CI) need not walk
  // every replica record to find them.
  j.set("failures", failures_json());
  return j;
}

util::Json SweepReport::runs_json(std::size_t v) const {
  util::Json replicas = util::Json::array();
  for (std::size_t i = v * config.runs;
       i < (v + 1) * config.runs && i < runs.size(); ++i) {
    replicas.push_back(runner::to_json(runs[i], /*include_wall=*/false));
  }
  return replicas;
}

util::Json SweepReport::failures_json() const {
  util::Json failures = util::Json::array();
  for (const RunMetrics& run : runs) {
    if (!run.failed) continue;
    util::Json f = util::Json::object();
    f.set("variant", run.variant);
    f.set("seed", run.seed);
    f.set("error", run.error);
    // With tracing on, a failed replica carries its flight-recorder tail:
    // the last records before the throw, capped so one crashed replica
    // cannot balloon the report. Gated on tracing, so legacy bytes hold.
    if (run.trace != nullptr && !run.trace->empty()) {
      constexpr std::size_t kFailureTailEvents = 256;
      obs::TracerDump tail = *run.trace;
      if (tail.events.size() > kFailureTailEvents) {
        tail.dropped += tail.events.size() - kFailureTailEvents;
        tail.events.erase(tail.events.begin(),
                          tail.events.end() - kFailureTailEvents);
      }
      f.set("flight_recorder", obs::flight_recorder_json(tail));
    }
    failures.push_back(std::move(f));
  }
  return failures;
}

void SweepReport::write_chrome_trace(obs::ChromeTraceWriter& out) const {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunMetrics& run = runs[i];
    if (run.trace == nullptr || run.trace->empty()) continue;
    out.process(*run.trace, i, run.variant + " seed=" + std::to_string(run.seed));
  }
}

std::string SweepReport::timeseries_jsonl() const {
  std::string out;
  for (const RunMetrics& run : runs) {
    for (const RunMetrics::TimeSample& sample : run.timeseries) {
      util::Json stats = util::Json::object();
      sample.stats.for_each_row([&](const std::string& name, std::uint64_t v) {
        stats.set(name, v);
      });
      util::Json line = util::Json::object();
      line.set("variant", run.variant);
      line.set("seed", run.seed);
      line.set("t_s", sample.t_s);
      line.set("stats", std::move(stats));
      out += line.dump();
      out += '\n';
    }
  }
  return out;
}

util::Json SweepReport::stats_json() const {
  util::Json j = header_json(config);
  util::Json variants = util::Json::array();
  for (const VariantSummary& s : summaries) {
    util::Json entry = util::Json::object();
    entry.set("name", s.name);
    entry.set("stats", layer_stats_json(s));
    variants.push_back(std::move(entry));
  }
  j.set("variants", std::move(variants));
  return j;
}

std::size_t SweepReport::failed_count() const {
  std::size_t n = 0;
  for (const RunMetrics& run : runs) {
    if (run.failed) ++n;
  }
  return n;
}

std::string SweepReport::table() const {
  util::Table t({"variant", "runs", "failed", "captured", "t_cap p50(s)",
                 "deceived", "detected", "vpn", "goodput(kbps)", "reconn",
                 "ttr p95(s)", "clear", "events mean"});
  for (const VariantSummary& s : summaries) {
    t.add_row({
        s.name,
        std::to_string(s.runs),
        std::to_string(s.failed),
        util::fmt_percent(s.capture_rate),
        s.time_to_capture_s.count() > 0
            ? util::fmt_double(s.time_to_capture_s.percentile(0.5))
            : "-",
        util::fmt_percent(s.deception_rate),
        util::fmt_percent(s.detection_rate),
        util::fmt_percent(s.vpn_rate),
        s.vpn_goodput_kbps.count() > 0
            ? util::fmt_double(s.vpn_goodput_kbps.mean(), 1)
            : "-",
        s.vpn_reconnects.count() > 0
            ? util::fmt_double(s.vpn_reconnects.mean(), 1)
            : "-",
        s.time_to_recover_s.count() > 0
            ? util::fmt_double(s.time_to_recover_s.percentile(0.95))
            : "-",
        s.clear_packets.count() > 0
            ? util::fmt_double(s.clear_packets.mean(), 0)
            : "-",
        util::fmt_double(s.events_fired.mean(), 0),
    });
  }
  return t.to_string();
}

}  // namespace rogue::runner
