// EXP-C5 scaling driver: one metro replica per population size, reporting
// wall-clock, simulated event throughput, and the roaming metrics. This is
// the tool that produced the scaling table in EXPERIMENTS.md.
//
//   metro_scale [--full]
//
// The default ladder tops out at 8192 STAs so the example stays in
// seconds; --full adds the city-scale points (up to 50k STAs / 210 APs,
// CPU-minutes territory).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "scenario/metro_world.hpp"
#include "sim/simulator.hpp"

using namespace rogue;

namespace {

struct Point {
  std::size_t ap_cols;
  std::size_t ap_rows;
  std::size_t stas;
};

void run_point(const Point& pt) {
  scenario::MetroConfig cfg;
  cfg.ap_cols = pt.ap_cols;
  cfg.ap_rows = pt.ap_rows;
  cfg.sta_count = pt.stas;
  cfg.rogue_count = 4;
  cfg.episode_duration = 10 * sim::kSecond;

  scenario::MetroWorld world(cfg);
  world.configure(1);
  const auto t0 = std::chrono::steady_clock::now();
  world.run_episode();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  const auto m = world.collect_metrics();
  std::printf(
      "aps=%-4zu stas=%-6zu wall=%9.1fms events/s=%10.0f "
      "assoc=%.3f roam_p50=%.2fs promiscuous=%.3f\n",
      pt.ap_cols * pt.ap_rows, pt.stas, wall_ms,
      static_cast<double>(m.events_fired) / (wall_ms / 1000.0),
      m.metro_assoc_fraction, m.metro_roam_p50_s, m.metro_promiscuous_rate);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;

  std::vector<Point> ladder = {
      {6, 4, 512},  // neighborhood
      {6, 4, 2048},
      {10, 8, 8192},  // district
  };
  if (full) {
    ladder.push_back({15, 14, 20'000});  // city
    ladder.push_back({15, 14, 50'000});
  }

  for (const Point& pt : ladder) run_point(pt);
  return 0;
}
