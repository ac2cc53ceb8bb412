// PHY tests: propagation, channelization, loss behaviour, collisions.
#include <gtest/gtest.h>

#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace rogue::phy {
namespace {

using util::Bytes;
using util::to_bytes;

struct World {
  sim::Simulator sim{1};
  MediumConfig cfg;
  std::unique_ptr<Medium> medium;

  explicit World(MediumConfig c = {}) : cfg(c) {
    medium = std::make_unique<Medium>(sim, cfg);
  }
};

TEST(Medium, AirtimeScalesWithSize) {
  World w;
  const sim::Time small = w.medium->airtime(100);
  const sim::Time large = w.medium->airtime(1500);
  EXPECT_GT(large, small);
  // 1500 B at 11 Mb/s ~ 1091 us + 192 preamble.
  EXPECT_NEAR(static_cast<double>(large), 192 + 1091, 5);
}

TEST(Medium, RssiMonotoneInDistance) {
  World w;
  EXPECT_GT(w.medium->rssi_at(15.0, 1.0), w.medium->rssi_at(15.0, 10.0));
  EXPECT_GT(w.medium->rssi_at(15.0, 10.0), w.medium->rssi_at(15.0, 100.0));
  // Clamped near-field: no singularity below 0.5 m.
  EXPECT_EQ(w.medium->rssi_at(15.0, 0.0), w.medium->rssi_at(15.0, 0.4));
}

TEST(Medium, DeliversInRange) {
  World w;
  Radio tx(*w.medium, "tx");
  Radio rx(*w.medium, "rx");
  rx.set_position({5.0, 0.0});
  int received = 0;
  rx.set_receive_handler([&](util::ByteView frame, const RxInfo& info) {
    ++received;
    EXPECT_EQ(util::to_string(frame), "ping");
    EXPECT_GT(info.rssi_dbm, rx.sensitivity_dbm());
  });
  for (int i = 0; i < 50; ++i) {
    w.sim.after(static_cast<sim::Time>(i) * 10'000, [&] { tx.transmit(to_bytes("ping")); });
  }
  w.sim.run();
  EXPECT_GT(received, 45);  // tiny residual loss allowed
}

TEST(Medium, OutOfRangeSilent) {
  World w;
  Radio tx(*w.medium, "tx");
  Radio rx(*w.medium, "rx");
  rx.set_position({10'000.0, 0.0});
  int received = 0;
  rx.set_receive_handler([&](util::ByteView, const RxInfo&) { ++received; });
  for (int i = 0; i < 20; ++i) tx.transmit(to_bytes("x"));
  w.sim.run();
  EXPECT_EQ(received, 0);
}

TEST(Medium, ChannelsIsolate) {
  World w;
  Radio tx(*w.medium, "tx");
  tx.set_channel(1);
  Radio rx1(*w.medium, "rx1");
  rx1.set_channel(1);
  rx1.set_position({2, 0});
  Radio rx6(*w.medium, "rx6");
  rx6.set_channel(6);
  rx6.set_position({2, 0});
  int on1 = 0;
  int on6 = 0;
  rx1.set_receive_handler([&](util::ByteView, const RxInfo&) { ++on1; });
  rx6.set_receive_handler([&](util::ByteView, const RxInfo&) { ++on6; });
  for (int i = 0; i < 20; ++i) {
    w.sim.after(static_cast<sim::Time>(i) * 5'000, [&] { tx.transmit(to_bytes("x")); });
  }
  w.sim.run();
  EXPECT_GT(on1, 15);
  EXPECT_EQ(on6, 0);
}

TEST(Medium, SenderDoesNotHearItself) {
  World w;
  Radio tx(*w.medium, "tx");
  int received = 0;
  tx.set_receive_handler([&](util::ByteView, const RxInfo&) { ++received; });
  tx.transmit(to_bytes("x"));
  w.sim.run();
  EXPECT_EQ(received, 0);
}

TEST(Medium, SimultaneousTransmissionsMostlyAvertedByCsma) {
  // Two radios repeatedly key up at the same instant. The random
  // contention slot deconflicts most pairs; the carrier-sense blind
  // window still lets an occasional pair collide.
  World w;
  Radio a(*w.medium, "a");
  Radio b(*w.medium, "b");
  b.set_position({1, 0});
  Radio rx(*w.medium, "rx");
  rx.set_position({0.5, 0.5});
  int received = 0;
  rx.set_receive_handler([&](util::ByteView, const RxInfo&) { ++received; });
  for (int i = 0; i < 200; ++i) {
    w.sim.at(static_cast<sim::Time>(i) * 5'000, [&] {
      a.transmit(Bytes(500));
      b.transmit(Bytes(500));
    });
  }
  w.sim.run();
  EXPECT_GT(received, 300);                 // most frames get through
  EXPECT_GT(w.medium->collisions(), 0u);    // but some pairs do collide
  EXPECT_GT(a.frames_deferred() + b.frames_deferred(), 50u);
}

TEST(Medium, NonOverlappingTransmissionsSurvive) {
  World w;
  Radio a(*w.medium, "a");
  Radio rx(*w.medium, "rx");
  rx.set_position({1, 0});
  int received = 0;
  rx.set_receive_handler([&](util::ByteView, const RxInfo&) { ++received; });
  a.transmit(Bytes(100));
  w.sim.after(10'000, [&] { a.transmit(Bytes(100)); });
  w.sim.run();
  EXPECT_EQ(received, 2);
}

TEST(Medium, DifferentChannelsDoNotCollide) {
  World w;
  Radio a(*w.medium, "a");
  a.set_channel(1);
  Radio b(*w.medium, "b");
  b.set_channel(6);
  Radio rx(*w.medium, "rx");
  rx.set_channel(1);
  rx.set_position({1, 0});
  int received = 0;
  rx.set_receive_handler([&](util::ByteView, const RxInfo&) { ++received; });
  a.transmit(Bytes(500));
  b.transmit(Bytes(500));
  w.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Medium, BaseLossDegradesDelivery) {
  MediumConfig cfg;
  cfg.base_loss_prob = 0.5;
  World w(cfg);
  Radio tx(*w.medium, "tx");
  Radio rx(*w.medium, "rx");
  rx.set_position({1, 0});
  int received = 0;
  rx.set_receive_handler([&](util::ByteView, const RxInfo&) { ++received; });
  for (int i = 0; i < 400; ++i) {
    w.sim.after(static_cast<sim::Time>(i) * 2'000, [&] { tx.transmit(to_bytes("x")); });
  }
  w.sim.run();
  EXPECT_GT(received, 120);
  EXPECT_LT(received, 280);  // ~50% expected
}

TEST(Medium, CountersTrack) {
  World w;
  Radio tx(*w.medium, "tx");
  Radio rx(*w.medium, "rx");
  rx.set_position({1, 0});
  rx.set_receive_handler([](util::ByteView, const RxInfo&) {});
  tx.transmit(to_bytes("x"));
  w.sim.run();
  EXPECT_EQ(tx.frames_sent(), 1u);
  EXPECT_EQ(rx.frames_received(), 1u);
  EXPECT_EQ(w.medium->frames_transmitted(), 1u);
}

TEST(Medium, DetachedRadioFrameDropped) {
  World w;
  auto tx = std::make_unique<Radio>(*w.medium, "tx");
  Radio rx(*w.medium, "rx");
  rx.set_position({1, 0});
  int received = 0;
  rx.set_receive_handler([&](util::ByteView, const RxInfo&) { ++received; });
  tx->transmit(to_bytes("x"));
  tx.reset();  // destroyed mid-flight
  w.sim.run();
  EXPECT_EQ(received, 0);
}


TEST(Medium, RssiCacheInvalidatedOnMove) {
  // The pairwise path-loss cache must recompute after set_position: a
  // receiver that moves away sees the weaker RSSI, not a stale cached one.
  World w;
  Radio tx(*w.medium, "tx");
  Radio rx(*w.medium, "rx");
  rx.set_position({5.0, 0.0});
  double last_rssi = 0.0;
  int received = 0;
  rx.set_receive_handler([&](util::ByteView, const RxInfo& info) {
    ++received;
    last_rssi = info.rssi_dbm;
  });

  // Prime the cache with several deliveries at 5 m.
  for (int i = 0; i < 20; ++i) {
    w.sim.after(static_cast<sim::Time>(i) * 10'000,
                [&] { tx.transmit(to_bytes("ping")); });
  }
  w.sim.run();
  ASSERT_GT(received, 0);
  const double near_rssi = last_rssi;

  rx.set_position({25.0, 0.0});
  received = 0;
  for (int i = 0; i < 20; ++i) {
    w.sim.after(static_cast<sim::Time>(i) * 10'000,
                [&] { tx.transmit(to_bytes("ping")); });
  }
  w.sim.run();
  ASSERT_GT(received, 0);
  // 5 m -> 25 m is ~14 dB of extra path loss; noise jitter is ~1 dB.
  EXPECT_LT(last_rssi, near_rssi - 10.0);
}

TEST(Medium, DeliveryPlanRebuildsOncePerSenderWhenStatic) {
  // A static world must settle at one fan-out plan rebuild per active
  // sender, regardless of how many frames it transmits.
  World w;
  Radio tx(*w.medium, "tx");
  Radio rx1(*w.medium, "rx1");
  Radio rx2(*w.medium, "rx2");
  rx1.set_position({5.0, 0.0});
  rx2.set_position({0.0, 5.0});

  for (int i = 0; i < 30; ++i) {
    w.sim.after(static_cast<sim::Time>(i) * 10'000,
                [&] { tx.transmit(to_bytes("ping")); });
  }
  w.sim.run();
  EXPECT_EQ(w.medium->plan_rebuilds(), 1u);
}

TEST(Medium, DeliveryPlanInvalidatedByWorldChanges) {
  // Every world mutation that can change who hears whom must stale the
  // sender's plan: a transmit after each mutation triggers exactly one
  // more rebuild, however many mutations queued up before it.
  World w;
  Radio tx(*w.medium, "tx");
  Radio rx(*w.medium, "rx");
  rx.set_position({5.0, 0.0});

  const auto send_once = [&] {
    w.sim.after(0, [&] { tx.transmit(to_bytes("ping")); });
    w.sim.run();
  };

  std::uint64_t expected = 0;
  const auto expect_rebuilt = [&](const char* what) {
    send_once();
    EXPECT_EQ(w.medium->plan_rebuilds(), ++expected) << what;
  };

  expect_rebuilt("first transmit");
  rx.set_position({10.0, 0.0});
  expect_rebuilt("set_position");
  rx.set_sensitivity_dbm(-80.0);
  expect_rebuilt("set_sensitivity_dbm");
  // Louder than any radio so far: widens the grid's cells (a regrid).
  const double cell_before = w.medium->grid_cell_size_m();
  tx.set_tx_power_dbm(18.0);
  EXPECT_GT(w.medium->grid_cell_size_m(), cell_before);
  expect_rebuilt("set_tx_power_dbm");
  rx.set_channel(6);
  expect_rebuilt("set_channel");
  rx.set_channel(1);
  rx.set_position({12.0, 0.0});
  expect_rebuilt("several changes, one rebuild");
  {
    Radio late(*w.medium, "late");
    expect_rebuilt("attach");
  }
  expect_rebuilt("detach");

  // Re-sending with no further changes reuses the plan.
  send_once();
  EXPECT_EQ(w.medium->plan_rebuilds(), expected);
}

}  // namespace
}  // namespace rogue::phy
