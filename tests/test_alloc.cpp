// Steady-state allocation tests: once a world is warm, the management-frame
// transmit paths write into recycled radio buffers and touch the heap not
// at all. This binary replaces the global operator new with a counter, so
// it is built as its own executable rather than linked into the others.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "attack/deauth.hpp"
#include "dot11/ap.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
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

namespace rogue {
namespace {

constexpr sim::Time kWarmUp = 2 * sim::kSecond;
constexpr sim::Time kWindow = 10 * sim::kSecond;

/// A radio that counts what it hears, 5 m from the origin on channel 1.
struct Listener {
  explicit Listener(phy::Medium& medium) : radio(medium, "listener") {
    radio.set_position({5.0, 0.0});
    radio.set_receive_handler(
        [this](util::ByteView, const phy::RxInfo&) { ++heard; });
  }
  phy::Radio radio;
  std::uint64_t heard = 0;
};

/// Heap allocations while `sim` runs on for kWindow.
std::uint64_t allocs_over_window(sim::Simulator& sim) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  sim.run_until(sim.now() + kWindow);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(SteadyStateAllocs, BeaconingApAllocatesNothing) {
  sim::Simulator sim(7);
  phy::Medium medium(sim);
  dot11::ApConfig cfg;
  cfg.bssid = net::MacAddr::from_id(0xA9);
  dot11::AccessPoint ap(sim, medium, cfg);
  Listener listener(medium);
  ap.start();

  sim.run_until(kWarmUp);
  const std::uint64_t beacons_before = ap.counters().beacons_sent;
  const std::uint64_t allocs = allocs_over_window(sim);
  const std::uint64_t beacons = ap.counters().beacons_sent - beacons_before;
  EXPECT_GE(beacons, 97u);
  EXPECT_EQ(allocs, 0u) << "over " << beacons << " beacons";
  EXPECT_GE(listener.heard, beacons);
}

TEST(SteadyStateAllocs, DeauthFloodAllocatesNothing) {
  sim::Simulator sim(7);
  phy::Medium medium(sim);
  attack::DeauthAttacker attacker(sim, medium, 1, net::MacAddr::from_id(0xA9),
                                  net::MacAddr::from_id(0x51));
  Listener listener(medium);
  // One forgery every 2 ms: the flood's sequence numbers run past 4095
  // inside the window.
  attacker.start(2 * sim::kMillisecond);

  sim.run_until(kWarmUp);
  const std::uint64_t sent_before = attacker.frames_sent();
  const std::uint64_t allocs = allocs_over_window(sim);
  const std::uint64_t sent = attacker.frames_sent() - sent_before;
  EXPECT_GE(attacker.frames_sent(), 4096u);
  EXPECT_EQ(allocs, 0u) << "over " << sent << " forged deauths";
  EXPECT_GT(listener.heard, sent / 2);
}

}  // namespace
}  // namespace rogue
