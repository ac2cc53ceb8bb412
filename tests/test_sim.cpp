// Simulation-kernel tests: deterministic ordering, cancellation, periodic
// events, the trace tally and frame capture.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace rogue::sim {
namespace {

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  Time fired_at = 0;
  sim.at(100, [&] {
    sim.after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const TimerHandle h = sim.at(10, [&] { fired = true; });
  sim.cancel(h);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelAfterFireIsHarmless) {
  Simulator sim;
  int count = 0;
  const TimerHandle h = sim.at(10, [&] { ++count; });
  sim.run();
  sim.cancel(h);
  sim.at(20, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  int count = 0;
  sim.every(10, [&] { ++count; });
  sim.run_until(95);
  EXPECT_EQ(count, 9);  // t = 10..90
}

TEST(Simulator, PeriodicWithPhase) {
  Simulator sim;
  std::vector<Time> times;
  sim.every(10, 0, [&] { times.push_back(sim.now()); });
  sim.run_until(25);
  EXPECT_EQ(times, (std::vector<Time>{0, 10, 20}));
}

TEST(Simulator, PeriodicCancelStopsSeries) {
  Simulator sim;
  int count = 0;
  const TimerHandle h = sim.every(10, [&] { ++count; });
  sim.at(35, [&, h] { sim.cancel(h); });
  sim.run_until(200);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000u);
}

TEST(Simulator, RunUntilDoesNotFireLaterEvents) {
  Simulator sim;
  bool fired = false;
  sim.at(100, [&] { fired = true; });
  sim.run_until(99);
  EXPECT_FALSE(fired);
  sim.run_until(100);
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.after(1, recurse);
  };
  sim.after(1, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RngDeterministicPerSeed) {
  Simulator a(99);
  Simulator b(99);
  EXPECT_EQ(a.rng().next(), b.rng().next());
}

TEST(Simulator, MaxEventsBound) {
  Simulator sim;
  int count = 0;
  std::function<void()> forever = [&] {
    ++count;
    sim.after(1, forever);
  };
  sim.after(1, forever);
  sim.run(50);
  EXPECT_EQ(count, 50);
}

TEST(Simulator, CancelAfterFireKeepsPendingExact) {
  Simulator sim;
  TimerHandle h = sim.at(10, [] {});
  sim.at(20, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.run_until(10);
  EXPECT_EQ(sim.pending(), 1u);
  // Regression: cancelling an already-fired timer used to insert its id
  // into the tombstone set and wrap the pending() size subtraction.
  sim.cancel(h);
  sim.cancel(h);
  sim.cancel(TimerHandle{});  // default-constructed handle is inert
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  sim.cancel(h);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ScheduledTracksLifecycle) {
  Simulator sim;
  TimerHandle h = sim.at(10, [] {});
  EXPECT_TRUE(sim.scheduled(h));
  sim.run_until(10);
  EXPECT_FALSE(sim.scheduled(h));
  TimerHandle h2 = sim.at(20, [] {});
  EXPECT_TRUE(sim.scheduled(h2));
  sim.cancel(h2);
  EXPECT_FALSE(sim.scheduled(h2));
  EXPECT_FALSE(sim.scheduled(TimerHandle{}));
}

TEST(Simulator, RunUntilIgnoresCancelledTombstoneAtTop) {
  Simulator sim;
  bool later_fired = false;
  TimerHandle a = sim.at(10, [] { FAIL() << "cancelled event fired"; });
  sim.at(200, [&] { later_fired = true; });
  sim.cancel(a);
  // Regression: the cancelled entry at t=10 sat at the heap top, and
  // run_until(100) stepped past it and fired the t=200 event early.
  sim.run_until(100);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_FALSE(later_fired);
  sim.run_until(200);
  EXPECT_TRUE(later_fired);
}

TEST(Simulator, RunUntilWithInterleavedCancels) {
  Simulator sim;
  std::vector<Time> fires;
  std::vector<TimerHandle> handles;
  for (Time t = 10; t <= 100; t += 10) {
    handles.push_back(sim.at(t, [&fires, &sim] { fires.push_back(sim.now()); }));
  }
  sim.cancel(handles[0]);  // t=10
  sim.cancel(handles[4]);  // t=50
  sim.run_until(55);
  EXPECT_EQ(sim.now(), 55u);
  EXPECT_EQ(fires, (std::vector<Time>{20, 30, 40}));
  sim.cancel(handles[6]);  // t=70
  sim.run_until(1000);
  EXPECT_EQ(fires, (std::vector<Time>{20, 30, 40, 60, 80, 90, 100}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, PeriodicCancelFromInsideCallbackStops) {
  Simulator sim;
  int ticks = 0;
  TimerHandle h;
  h = sim.every(10, [&] {
    if (++ticks == 3) sim.cancel(h);
  });
  sim.run_until(1000);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, StaleHandleDoesNotCancelRecycledSlot) {
  Simulator sim;
  TimerHandle old = sim.at(10, [] {});
  sim.run();  // fires; the slot is freed and eligible for reuse
  bool fired = false;
  TimerHandle fresh = sim.at(20, [&] { fired = true; });
  sim.cancel(old);  // stale generation: must not touch the recycled slot
  EXPECT_TRUE(sim.scheduled(fresh));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CompactionSurvivesMassCancellation) {
  // Enough cancellations to trip the stale-entry compaction threshold,
  // with live events interleaved; order and count must be unaffected.
  Simulator sim;
  std::vector<Time> fires;
  std::vector<TimerHandle> doomed;
  for (Time t = 1; t <= 500; ++t) {
    TimerHandle h = sim.at(t, [&fires, &sim] { fires.push_back(sim.now()); });
    if (t % 2 == 0) doomed.push_back(h);
  }
  for (TimerHandle h : doomed) sim.cancel(h);
  EXPECT_EQ(sim.pending(), 250u);
  sim.run();
  ASSERT_EQ(fires.size(), 250u);
  for (std::size_t i = 0; i < fires.size(); ++i) {
    EXPECT_EQ(fires[i], 2 * i + 1);
  }
}

namespace {

// Runs a self-modifying random workload — events that schedule, cancel,
// and start periodic series based on the simulator's own PRNG — and
// returns the (time, fire-index) log. Only the public API is used, so two
// identically-seeded runs must produce byte-identical logs no matter how
// the kernel arranges its heap internally.
std::vector<std::pair<Time, std::uint64_t>> stress_fire_log(std::uint64_t seed) {
  Simulator sim(seed);
  std::vector<std::pair<Time, std::uint64_t>> log;
  std::vector<TimerHandle> handles;
  std::uint64_t next_id = 0;

  std::function<void()> body = [&] {
    log.emplace_back(sim.now(), next_id++);
    const std::uint32_t roll = sim.rng().uniform_u32(10);
    if (roll < 6) {
      handles.push_back(sim.after(1 + sim.rng().uniform_u32(50), body));
    }
    if (roll < 3 && !handles.empty()) {
      const auto pick = sim.rng().uniform_u32(static_cast<std::uint32_t>(handles.size()));
      sim.cancel(handles[pick]);  // often already fired/cancelled: no-op
    }
    if (roll == 7) {
      handles.push_back(sim.every(2 + sim.rng().uniform_u32(20), body));
    }
  };

  for (int i = 0; i < 64; ++i) {
    handles.push_back(sim.after(sim.rng().uniform_u32(100), body));
  }
  sim.run(5000);
  log.emplace_back(sim.now(), ~0ULL);  // closing timestamp
  return log;
}

}  // namespace

TEST(Simulator, DeterminismStressIdenticalFireLogs) {
  const auto a = stress_fire_log(0xfeed);
  const auto b = stress_fire_log(0xfeed);
  EXPECT_EQ(a, b);
  ASSERT_GT(a.size(), 64u);  // the script actually exercised the kernel
  for (std::size_t i = 1; i + 1 < a.size(); ++i) {
    ASSERT_LE(a[i - 1].first, a[i].first) << "time went backwards at fire " << i;
  }
  const auto c = stress_fire_log(0xbeef);
  EXPECT_NE(a, c);  // the log is actually seed-sensitive
}

TEST(Trace, NoteTalliesEventsAndWarnings) {
  Trace trace;
  for (int i = 0; i < 5; ++i) trace.note(Severity::kInfo);
  for (int i = 0; i < 3; ++i) trace.note(Severity::kWarn);
  EXPECT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace.warnings(), 3u);
  EXPECT_TRUE(trace.frames().empty());
}

TEST(Trace, CaptureKeepsFramesVerbatimInOrder) {
  Trace trace;
  const util::Bytes beacon = {0x80, 0x00, 0x01};
  const util::Bytes ack = {0xd4, 0x00};
  trace.capture_frame(10, beacon);
  trace.capture_frame(25, ack);
  ASSERT_EQ(trace.frames().size(), 2u);
  EXPECT_EQ(trace.frames()[0].time, 10u);
  EXPECT_EQ(trace.frames()[0].bytes, beacon);
  EXPECT_EQ(trace.frames()[1].time, 25u);
  EXPECT_EQ(trace.frames()[1].bytes, ack);
  EXPECT_EQ(trace.size(), 0u);  // captured frames are not noted events
}

TEST(Simulator, ReseedRebasesRootSeedBeforeUse) {
  Simulator sim(1);
  EXPECT_EQ(sim.seed(), 1u);
  sim.reseed(777);
  EXPECT_EQ(sim.seed(), 777u);
  Simulator fresh(777);
  // Reseeded simulator draws the same stream as one built with the seed.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sim.rng().next(), fresh.rng().next());
}

TEST(Simulator, DeriveRngIsStableNamedAndSeedSensitive) {
  Simulator sim(42);
  util::Prng a = sim.derive_rng("phy.noise");
  util::Prng a2 = sim.derive_rng("phy.noise");
  util::Prng b = sim.derive_rng("dot11.backoff");
  // Same (seed, name) -> same stream; different name -> different stream.
  EXPECT_EQ(a.next(), a2.next());
  EXPECT_NE(a.next(), b.next());
  // Deriving is order-independent: interleaved rng() draws don't shift it.
  sim.rng().next();
  util::Prng a3 = sim.derive_rng("phy.noise");
  util::Prng a4 = sim.derive_rng("phy.noise");
  EXPECT_EQ(a3.next(), a4.next());

  Simulator other(43);
  util::Prng c = sim.derive_rng("phy.noise");
  util::Prng d = other.derive_rng("phy.noise");
  EXPECT_NE(c.next(), d.next());
}

}  // namespace
}  // namespace rogue::sim
