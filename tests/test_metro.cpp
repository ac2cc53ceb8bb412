// Spatial-grid medium + metro world tests: pinned delivery and report
// digests (the grid is an indexing structure, not a physics change — a
// world that fits in one cell neighborhood must reproduce the digests an
// unbucketed medium produced), cell membership consistency under churn,
// localized plan invalidation, chaos-delayed delivery revalidation, and
// the metro ladder's evil-twin outcome. Its jobs determinism is checked
// with the other stock ladders in test_jobs_determinism.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "phy/medium.hpp"
#include "runner/scenarios.hpp"
#include "runner/sweep.hpp"
#include "scenario/corp_world.hpp"
#include "scenario/hotspot.hpp"
#include "scenario/metro_world.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/prng.hpp"

namespace rogue {
namespace {

using phy::Medium;
using phy::Position;
using phy::Radio;
using runner::ExperimentRunner;
using runner::SweepConfig;
using util::to_bytes;

// ---- Pinned digests -----------------------------------------------------
//
// Each digest below was captured from a medium that walked every radio on
// the channel (no cells). The grid only changes *which plan entries
// exist*, never the RNG draw sequence, and in a world that fits in one
// cell neighborhood the entry sets coincide — so these must never move.

std::string sweep_digest(ExperimentRunner& exp) {
  return crypto::sha256_hex(util::to_bytes(exp.run().to_json().dump(2)));
}

// A dense single-neighborhood world: same receivers, in the same order,
// with the same post-noise RSSI, and the same collisions.
TEST(GridEquivalence, DenseWorldDeliveryLogPinned) {
  sim::Simulator sim{42};
  Medium medium(sim);

  std::vector<std::string> log;
  std::deque<Radio> radios;
  util::Prng layout(7);
  for (int i = 0; i < 16; ++i) {
    Radio& r = radios.emplace_back(medium, "r" + std::to_string(i));
    r.set_position({layout.uniform01() * 100.0, layout.uniform01() * 100.0});
    if (i % 5 == 0) r.set_channel(6);  // a few off-channel radios
    r.set_receive_handler([&log, i, &sim](util::ByteView frame,
                                          const phy::RxInfo& info) {
      char line[96];
      std::snprintf(line, sizeof line, "rx=%d len=%zu rssi=%.6f t=%llu", i,
                    frame.size(), info.rssi_dbm,
                    static_cast<unsigned long long>(sim.now()));
      log.emplace_back(line);
    });
  }
  // Spaced transmissions (no CSMA overlap) plus one same-instant pair so
  // the collision path is exercised identically too.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 16; ++i) {
      const sim::Time at =
          static_cast<sim::Time>(round * 16 + i) * 5'000 + 1'000;
      sim.at(at, [&radios, idx = static_cast<std::size_t>(i)] {
        radios[idx].transmit(to_bytes("payload"));
      });
    }
  }
  sim.at(400'000, [&radios] {
    radios[1].transmit(to_bytes("overlap-a"));
    radios[2].transmit(to_bytes("overlap-b"));
  });
  sim.run();
  log.push_back("tx=" + std::to_string(medium.frames_transmitted()) +
                " col=" + std::to_string(medium.collisions()));
  ASSERT_EQ(log.size(), 326u);  // the world actually delivered traffic
  std::string joined;
  for (const std::string& line : log) joined += line + "\n";
  EXPECT_EQ(crypto::sha256_hex(util::to_bytes(joined)),
            "1350f1cba6dafc3cc20babaa4a353d211d1de92d1d4a4228d6794b0114349088");
}

// Whole-report digest at sweep level: the corp ladder (an office-sized
// world), serialized byte for byte.
TEST(GridEquivalence, CorpReportBytesPinned) {
  SweepConfig cfg;
  cfg.scenario = "corp";
  cfg.seed_base = 3;
  cfg.runs = 2;
  cfg.jobs = 2;
  ExperimentRunner exp(cfg);
  exp.add_variant("baseline", [](std::uint64_t) {
    return std::make_unique<scenario::CorpWorld>(scenario::CorpConfig{});
  });
  scenario::CorpConfig rogue;
  rogue.deploy_rogue = true;
  exp.add_variant("rogue", [rogue](std::uint64_t) {
    return std::make_unique<scenario::CorpWorld>(rogue);
  });
  EXPECT_EQ(sweep_digest(exp),
            "bf5bf79a4663c0843335a5805432829662a85b34fd907cd2aa004f8a4076f5f4");
}

// Same contract on the hostile-hotspot world.
TEST(GridEquivalence, HotspotReportBytesPinned) {
  SweepConfig cfg;
  cfg.scenario = "hotspot";
  cfg.seed_base = 11;
  cfg.runs = 2;
  cfg.jobs = 2;
  ExperimentRunner exp(cfg);
  scenario::HotspotConfig hostile;
  hostile.hostile = true;
  exp.add_variant("hostile", [hostile](std::uint64_t) {
    return std::make_unique<scenario::HotspotWorld>(hostile);
  });
  EXPECT_EQ(sweep_digest(exp),
            "eff577a85f48cbf74d037830eb3e301edf16f14e38cb53a07da08151caf290c5");
}

// ---- Cell membership under churn ----------------------------------------

// Property test: after an arbitrary attach/detach/move/retune/channel-hop
// history, every live radio is findable in exactly the cell its position
// maps to, and no cell holds radios that do not map back to it.
TEST(Grid, CellMembershipMatchesBruteForce) {
  sim::Simulator sim{5};
  Medium medium(sim);
  ASSERT_GT(medium.grid_cell_size_m(), 0.0);

  std::vector<std::unique_ptr<Radio>> radios;
  std::set<std::pair<std::int32_t, std::int32_t>> coords_ever;
  util::Prng rng(99);
  const auto random_pos = [&rng] {
    return Position{rng.uniform01() * 2000.0 - 500.0,
                    rng.uniform01() * 2000.0 - 500.0};
  };

  const auto verify = [&] {
    // Forward direction: each live radio is a member of its own cell,
    // exactly once.
    std::map<std::pair<std::int32_t, std::int32_t>, std::size_t> expect_count;
    for (const auto& r : radios) {
      if (!r) continue;
      const auto c = medium.grid_coords(r->position());
      ++expect_count[c];
      const auto members = medium.cell_members(c.first, c.second);
      std::size_t hits = 0;
      for (const Radio* m : members) {
        if (m == r.get()) ++hits;
      }
      EXPECT_EQ(hits, 1u) << r->name() << " not exactly once in its cell";
    }
    // Reverse direction: every cell ever occupied holds exactly the
    // radios that currently map to it (stale members would show here).
    for (const auto& c : coords_ever) {
      const auto members = medium.cell_members(c.first, c.second);
      const auto it = expect_count.find(c);
      const std::size_t expected = it == expect_count.end() ? 0 : it->second;
      EXPECT_EQ(members.size(), expected)
          << "cell (" << c.first << "," << c.second << ") stale membership";
    }
  };

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.uniform_u64(0, 9);
    if (op <= 2 || radios.empty()) {  // attach
      auto r = std::make_unique<Radio>(medium,
                                       "p" + std::to_string(step));
      r->set_position(random_pos());
      coords_ever.insert(medium.grid_coords(r->position()));
      radios.push_back(std::move(r));
    } else {
      const std::size_t idx = rng.uniform_u64(0, radios.size() - 1);
      if (!radios[idx]) continue;
      Radio& r = *radios[idx];
      if (op <= 5) {  // move (often within-cell, sometimes across)
        Position p = r.position();
        if (rng.chance(0.5)) {
          p.x += rng.uniform01() * 10.0 - 5.0;
          p.y += rng.uniform01() * 10.0 - 5.0;
        } else {
          p = random_pos();
        }
        r.set_position(p);
        coords_ever.insert(medium.grid_coords(p));
      } else if (op == 6) {  // channel hop (membership is channel-blind)
        r.set_channel(r.channel() == 1 ? 11 : 1);
      } else if (op == 7) {  // retune within the configured bounds
        r.set_sensitivity_dbm(-85.0 + rng.uniform01() * 20.0);
      } else {  // detach
        radios[idx].reset();
      }
    }
    if (step % 40 == 0) verify();
  }
  verify();
}

// ---- Localized invalidation ---------------------------------------------

// The point of per-cell epochs: churn far outside a sender's neighborhood
// must not invalidate its delivery plan.
TEST(Grid, FarAwayMovementKeepsPlansValid) {
  sim::Simulator sim{9};
  Medium medium(sim);
  Radio tx(medium, "tx");
  Radio rx(medium, "rx");
  rx.set_position({5.0, 0.0});
  rx.set_receive_handler([](util::ByteView, const phy::RxInfo&) {});
  Radio far1(medium, "far1");
  far1.set_position({50'000.0, 50'000.0});
  Radio far2(medium, "far2");
  far2.set_position({50'010.0, 50'000.0});

  sim.at(1'000, [&] { tx.transmit(to_bytes("one")); });
  // Distant churn between the two transmissions.
  sim.at(10'000, [&] { far1.set_position({50'020.0, 50'000.0}); });
  sim.at(11'000, [&] { far2.set_position({50'030.0, 50'010.0}); });
  sim.at(20'000, [&] { tx.transmit(to_bytes("two")); });
  sim.run();
  // One build for the sender, still valid after the far churn.
  EXPECT_EQ(medium.plan_rebuilds(), 1u);
}

// Each cell reaches its neighborhood through an index array: cells
// created after (0, 0) must patch themselves into its array, and fill their
// own from the cells already there. A hub in (0, 0) and one radio just
// across each of its eight edges and corners must hear each other.
TEST(Grid, NeighborIndicesCoverCellsCreatedLater) {
  sim::Simulator sim{23};
  Medium medium(sim);
  const double half = medium.grid_cell_size_m() / 2.0;
  Radio hub(medium, "hub");
  hub.set_position({half, half});  // centre of cell (0, 0), created first
  std::map<std::string, int> hub_heard;
  hub.set_receive_handler([&hub_heard](util::ByteView f, const phy::RxInfo&) {
    ++hub_heard[std::string(f.begin(), f.end())];
  });

  std::deque<Radio> ring;
  std::vector<int> ring_heard(8, 0);
  for (int k = 0; k < 9; ++k) {
    if (k == 4) continue;  // the hub's own cell
    const int dx = k % 3 - 1;
    const int dy = k / 3 - 1;
    const std::size_t idx = ring.size();
    Radio& r = ring.emplace_back(medium, "n" + std::to_string(k));
    r.set_position({half + dx * (half + 1.0), half + dy * (half + 1.0)});
    ASSERT_EQ(medium.grid_coords(r.position()), std::make_pair(dx, dy));
    r.set_receive_handler([&ring_heard, idx](util::ByteView f, const phy::RxInfo&) {
      if (std::string(f.begin(), f.end()) == "hub") ++ring_heard[idx];
    });
  }
  for (int t = 0; t < 20; ++t) {
    const sim::Time at = static_cast<sim::Time>(t) * 10'000;
    sim.at(at, [&hub] { hub.transmit(to_bytes("hub")); });
    for (std::size_t i = 0; i < ring.size(); ++i) {
      sim.at(at + (i + 1) * 1'000,
             [&ring, i] { ring[i].transmit(to_bytes(ring[i].name())); });
    }
  }
  sim.run();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_GT(ring_heard[i], 0) << ring[i].name() << " never heard the hub";
    EXPECT_GT(hub_heard[ring[i].name()], 0) << "hub never heard " << ring[i].name();
  }
}

// Movement *inside* the neighborhood must still invalidate.
TEST(Grid, NearbyMovementInvalidatesPlan) {
  sim::Simulator sim{9};
  Medium medium(sim);
  Radio tx(medium, "tx");
  Radio rx(medium, "rx");
  rx.set_position({5.0, 0.0});
  int received = 0;
  rx.set_receive_handler(
      [&received](util::ByteView, const phy::RxInfo&) { ++received; });

  sim.at(1'000, [&] { tx.transmit(to_bytes("one")); });
  sim.at(10'000, [&] { rx.set_position({8.0, 0.0}); });  // same cell
  sim.at(20'000, [&] { tx.transmit(to_bytes("two")); });
  sim.run();
  EXPECT_EQ(medium.plan_rebuilds(), 2u);
  EXPECT_EQ(received, 2);
}

// ---- Chaos-delayed delivery across cell migration -----------------------

// Regression for the deliver_late() re-validation: a frame held back by
// transport chaos must not land on a receiver that migrated out of the
// sender's 3x3 neighborhood while the frame was in flight.
TEST(Grid, ChaosDelayedFrameDroppedAfterCellMigration) {
  const auto run_once = [](bool migrate) {
    sim::Simulator sim{17};
    Medium medium(sim);
    medium.set_reorder(1.0);  // every delivery goes through deliver_late
    Radio tx(medium, "tx");
    Radio rx(medium, "rx");
    rx.set_position({5.0, 0.0});
    int received = 0;
    rx.set_receive_handler(
        [&received](util::ByteView, const phy::RxInfo&) { ++received; });

    sim.at(0, [&] { tx.transmit(to_bytes("held")); });
    // The hold is 500..3000 us past the ~300 us delivery event; at 400 us
    // the frame is in flight. Teleport the receiver ten-plus cells away.
    if (migrate) {
      sim.at(400, [&] { rx.set_position({5'000.0, 5'000.0}); });
    } else {
      sim.at(400, [&] { rx.set_position({8.0, 0.0}); });  // same cell
    }
    sim.run();
    return received;
  };

  EXPECT_EQ(run_once(false), 1);  // control: within-cell move still lands
  EXPECT_EQ(run_once(true), 0);   // migrated: audibility re-check drops it
}

// ---- Metro world --------------------------------------------------------

scenario::MetroConfig small_metro(std::size_t rogues) {
  scenario::MetroConfig cfg;
  cfg.ap_cols = 3;
  cfg.ap_rows = 2;
  cfg.sta_count = 96;
  cfg.rogue_count = rogues;
  cfg.episode_duration = 6 * sim::kSecond;
  return cfg;
}

// The scenario's reason to exist: evil twins advertising the ESS attract
// real associations (network promiscuity at scale), while a rogue-free
// world shows none; and the population mostly ends up associated.
TEST(Metro, EvilTwinsAttractPromiscuousAssociations) {
  scenario::MetroWorld benign(small_metro(0));
  benign.configure(1);
  benign.run_episode();
  const auto base = benign.collect_metrics();
  ASSERT_TRUE(base.metro_enabled);
  EXPECT_EQ(base.metro_promiscuous_assocs, 0u);
  EXPECT_GT(base.metro_assoc_fraction, 0.5);
  EXPECT_GT(base.metro_associations, 0u);

  scenario::MetroWorld hostile(small_metro(4));
  hostile.configure(1);
  hostile.run_episode();
  const auto twin = hostile.collect_metrics();
  EXPECT_GT(twin.metro_promiscuous_assocs, 0u);
  EXPECT_GT(twin.metro_promiscuous_rate, 0.0);
}

// The stock ladders resolve and expose the acceptance-scale city config.
TEST(Metro, StockVariantsRegistered) {
  const auto metro = runner::stock_variants("metro", 0.0);
  ASSERT_EQ(metro.size(), 2u);
  EXPECT_EQ(metro[0].name, "baseline");
  EXPECT_EQ(metro[1].name, "evil-twin");

  const auto city = runner::stock_variants("metro-city", 0.0);
  ASSERT_EQ(city.size(), 1u);
  EXPECT_EQ(city[0].name, "city");
}

}  // namespace
}  // namespace rogue
