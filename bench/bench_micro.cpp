// EXP-M1: google-benchmark microbenchmarks for the substrate primitives —
// crypto throughput, frame/packet codecs, the event queue, and an in-sim
// TCP transfer. Engineering numbers, not paper claims.
//
// Run `bench_micro --smoke` for a quick pass (tiny min-time per benchmark),
// used as a CI sanity check that every scenario still executes.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/crc32.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "crypto/md5.hpp"
#include "crypto/rc4.hpp"
#include "crypto/sha256.hpp"
#include "crypto/wep.hpp"
#include "dot11/ap.hpp"
#include "dot11/frame.hpp"
#include "net/host.hpp"
#include "obs/tracer.hpp"
#include "phy/medium.hpp"
#include "vpn/protocol.hpp"
#include "net/link.hpp"
#include "net/tcp.hpp"
#include "sim/simulator.hpp"
#include "util/prng.hpp"

using namespace rogue;

namespace {

util::Bytes random_bytes(std::size_t n, std::uint64_t seed = 1) {
  util::Bytes out(n);
  util::Prng rng(seed);
  rng.fill(out);
  return out;
}

void BM_Rc4(benchmark::State& state) {
  const util::Bytes key = random_bytes(16);
  util::Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::Rc4 rc4(key);
    rc4.process(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Rc4)->Arg(64)->Arg(1500)->Arg(65536);

void BM_ChaCha20(benchmark::State& state) {
  const util::Bytes key = random_bytes(32);
  const util::Bytes nonce = random_bytes(12);
  util::Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::ChaCha20 cipher(key, nonce);
    cipher.process(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(1500)->Arg(65536);

// Per-kernel variants: force one backend for the run, restore auto after.
// Keeps the scalar/SSE2/AVX2 trajectory visible side by side in the gate,
// and skips (rather than silently falls back) where a kernel can't run.
void chacha20_backend_bench(benchmark::State& state,
                            crypto::ChaChaBackend backend) {
  if (crypto::chacha20_set_backend(backend) != backend) {
    crypto::chacha20_set_backend(crypto::ChaChaBackend::kAuto);
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  const util::Bytes key = random_bytes(32);
  const util::Bytes nonce = random_bytes(12);
  util::Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::ChaCha20 cipher(key, nonce);
    cipher.process(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  crypto::chacha20_set_backend(crypto::ChaChaBackend::kAuto);
}

void BM_ChaCha20Scalar(benchmark::State& state) {
  chacha20_backend_bench(state, crypto::ChaChaBackend::kScalar);
}
BENCHMARK(BM_ChaCha20Scalar)->Arg(1500)->Arg(65536);

void BM_ChaCha20Sse2(benchmark::State& state) {
  chacha20_backend_bench(state, crypto::ChaChaBackend::kSse2);
}
BENCHMARK(BM_ChaCha20Sse2)->Arg(1500)->Arg(65536);

void BM_ChaCha20Avx2(benchmark::State& state) {
  chacha20_backend_bench(state, crypto::ChaChaBackend::kAvx2);
}
BENCHMARK(BM_ChaCha20Avx2)->Arg(1500)->Arg(65536);

void BM_Md5(benchmark::State& state) {
  const util::Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::md5(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md5)->Arg(1500)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  const util::Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1500)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const util::Bytes key = random_bytes(32);
  const util::Bytes data = random_bytes(1500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_HmacSha256);

void BM_Crc32(benchmark::State& state) {
  const util::Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1500)->Arg(65536);

void BM_WepEncryptDecrypt(benchmark::State& state) {
  const util::Bytes key = util::to_bytes("SECRETWEPKEY1");
  const util::Bytes msdu = random_bytes(1400);
  crypto::WepIvGenerator gen(crypto::WepIvPolicy::kSequential, key.size(), 1);
  for (auto _ : state) {
    const util::Bytes body = crypto::wep_encrypt(gen.next(), key, msdu);
    benchmark::DoNotOptimize(crypto::wep_decrypt(body, key));
  }
  state.SetBytesProcessed(state.iterations() * 1400);
}
BENCHMARK(BM_WepEncryptDecrypt);

void BM_AeadSealOpen(benchmark::State& state) {
  const util::Bytes key = random_bytes(crypto::kAeadKeyLen);
  const util::Bytes msg = random_bytes(1400);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const util::Bytes sealed = crypto::aead_seal(key, ++seq, {}, msg);
    benchmark::DoNotOptimize(crypto::aead_open(key, seq, {}, sealed));
  }
  state.SetBytesProcessed(state.iterations() * 1400);
}
BENCHMARK(BM_AeadSealOpen);

void BM_DhHandshake(benchmark::State& state) {
  util::Prng rng(1);
  const auto& group = crypto::DhGroup::modp1024();
  for (auto _ : state) {
    const auto a = crypto::DhKeyPair::generate(group, rng);
    const auto b = crypto::DhKeyPair::generate(group, rng);
    benchmark::DoNotOptimize(a.shared_secret(b.public_value()));
  }
}
BENCHMARK(BM_DhHandshake);

void BM_FrameSerializeParse(benchmark::State& state) {
  dot11::Frame f;
  f.type = dot11::FrameType::kData;
  f.to_ds = true;
  f.addr1 = net::MacAddr::from_id(1);
  f.addr2 = net::MacAddr::from_id(2);
  f.addr3 = net::MacAddr::from_id(3);
  f.body = random_bytes(1400);
  for (auto _ : state) {
    const util::Bytes raw = f.serialize();
    benchmark::DoNotOptimize(dot11::Frame::parse(raw));
  }
  state.SetBytesProcessed(state.iterations() * 1400);
}
BENCHMARK(BM_FrameSerializeParse);

void BM_Ipv4SerializeParse(benchmark::State& state) {
  net::Ipv4Packet p;
  p.protocol = net::kProtoTcp;
  p.src = net::Ipv4Addr(10, 0, 0, 1);
  p.dst = net::Ipv4Addr(10, 0, 0, 2);
  p.payload = random_bytes(1400);
  for (auto _ : state) {
    const util::Bytes raw = p.serialize();
    benchmark::DoNotOptimize(net::Ipv4Packet::parse(raw));
  }
  state.SetBytesProcessed(state.iterations() * 1400);
}
BENCHMARK(BM_Ipv4SerializeParse);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.at(static_cast<sim::Time>(i % 97), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_fired());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_EventScheduleCancel(benchmark::State& state) {
  // Schedule 1000 timers, cancel them all, then drain: measures the cost
  // of cancellation plus tombstone/stale-entry cleanup in the queue.
  std::vector<sim::TimerHandle> handles;
  handles.reserve(1000);
  for (auto _ : state) {
    sim::Simulator sim;
    handles.clear();
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.at(static_cast<sim::Time>(i % 97), [] {}));
    }
    for (const auto& h : handles) sim.cancel(h);
    sim.run();
    benchmark::DoNotOptimize(sim.events_fired());
  }
  state.SetItemsProcessed(state.iterations() * 2000);  // schedule + cancel
}
BENCHMARK(BM_EventScheduleCancel);

void BM_EventChurn(benchmark::State& state) {
  // Rolling-timer pattern typical of protocol stacks: every fired event
  // cancels a pending "retransmit" timer, re-arms it, and schedules its
  // own successor — a steady schedule/cancel/fire mix.
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::TimerHandle> rtx(16);
    std::uint64_t fired = 0;
    std::function<void(std::size_t)> work = [&](std::size_t lane) {
      ++fired;
      sim.cancel(rtx[lane]);
      rtx[lane] = sim.after(500, [] {});  // re-armed, normally never fires
      if (fired < 4000) sim.after(7 + lane, [&work, lane] { work(lane); });
    };
    for (std::size_t lane = 0; lane < rtx.size(); ++lane) {
      rtx[lane] = sim.after(500, [] {});
      sim.after(1 + lane, [&work, lane] { work(lane); });
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_fired());
  }
  state.SetItemsProcessed(state.iterations() * 4000 * 2);
}
BENCHMARK(BM_EventChurn);

void BM_BeaconStorm(benchmark::State& state) {
  // Eight co-channel APs beaconing for one simulated second: exercises the
  // periodic-event machinery, CSMA timer churn, and per-frame buffer
  // traffic through phy + dot11 with zero payload work.
  for (auto _ : state) {
    sim::Simulator sim(42);
    phy::Medium medium(sim);
    std::vector<std::unique_ptr<dot11::AccessPoint>> aps;
    for (int i = 0; i < 8; ++i) {
      dot11::ApConfig cfg;
      cfg.ssid = "CORP-" + std::to_string(i);
      cfg.bssid = net::MacAddr::from_id(static_cast<std::uint64_t>(i) + 1);
      cfg.channel = 1;
      auto ap = std::make_unique<dot11::AccessPoint>(sim, medium, cfg);
      ap->radio().set_position({static_cast<double>(i % 3) * 4.0,
                                static_cast<double>(i / 3) * 4.0});
      ap->start();
      aps.push_back(std::move(ap));
    }
    sim.run_until(1 * sim::kSecond);
    std::uint64_t beacons = 0;
    for (const auto& ap : aps) beacons += ap->counters().beacons_sent;
    benchmark::DoNotOptimize(beacons);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 * 10);
}
BENCHMARK(BM_BeaconStorm);

void BM_VpnSealOpen(benchmark::State& state) {
  // Pooled tunnel-record round trip: seal_record_into encrypts in place in
  // a reused wire buffer, open_record_append decrypts into a second one —
  // the per-packet datapath of the VPN client and concentrator.
  const util::Bytes key = random_bytes(crypto::kAeadKeyLen);
  const util::Bytes pkt = random_bytes(1400);
  util::Bytes record;
  util::Bytes inner;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    vpn::seal_record_into(key, ++seq, pkt, record);
    inner.clear();
    std::uint64_t got_seq = 0;
    benchmark::DoNotOptimize(vpn::open_record_append(key, record, &got_seq, inner));
  }
  state.SetBytesProcessed(state.iterations() * 1400);
}
BENCHMARK(BM_VpnSealOpen);

void BM_MediumDeliver(benchmark::State& state) {
  // N co-channel radios taking turns transmitting: stresses the per-channel
  // radio index, the pairwise RSSI cache, and active-transmission tracking.
  const int n = static_cast<int>(state.range(0));
  const util::Bytes frame = random_bytes(256);
  for (auto _ : state) {
    sim::Simulator sim(9);
    phy::Medium medium(sim);
    std::vector<std::unique_ptr<phy::Radio>> radios;
    std::uint64_t delivered = 0;
    for (int i = 0; i < n; ++i) {
      auto r = std::make_unique<phy::Radio>(medium, "r" + std::to_string(i));
      r->set_position({static_cast<double>(i % 4) * 2.0,
                       static_cast<double>(i / 4) * 2.0});
      r->set_receive_handler(
          [&delivered](util::ByteView, const phy::RxInfo&) { ++delivered; });
      radios.push_back(std::move(r));
    }
    for (int t = 0; t < 200; ++t) {
      sim.after(static_cast<sim::Time>(t) * 2000, [&radios, &frame, t, n] {
        radios[static_cast<std::size_t>(t % n)]->transmit(frame);
      });
    }
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 200 * (n - 1));
}
BENCHMARK(BM_MediumDeliver)->Arg(4)->Arg(16);

void BM_MediumDenseDeliver(benchmark::State& state) {
  // Dense fan-out: N co-channel radios in a tight grid, every one within
  // range of every other, senders rotating through the whole population so
  // all N^2 (sender, receiver) pairs stay live. This is the metro-world
  // delivery profile: one transmission, N-1 receiver visits.
  //
  // Each iteration is one full replica lifecycle — build the world, run a
  // burst of traffic, tear it down — because that is exactly what the sweep
  // runner does per replica. The pre-change cost here was dominated by
  // per-pair RSSI cache node churn (allocate on miss, free ~N^2 hash nodes
  // at teardown), which the delivery-plan + flat-map path eliminates.
  const int n = static_cast<int>(state.range(0));
  const int kTx = 4 * n;  // every radio transmits ~4 times: steady state,
                          // not just world-construction + first delivery
  const util::Bytes frame = random_bytes(256);
  const int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  for (auto _ : state) {
    sim::Simulator sim(11);
    phy::Medium medium(sim);
    std::vector<std::unique_ptr<phy::Radio>> radios;
    std::uint64_t delivered = 0;
    for (int i = 0; i < n; ++i) {
      auto r = std::make_unique<phy::Radio>(medium, "r" + std::to_string(i));
      r->set_position({static_cast<double>(i % side) * 3.0,
                       static_cast<double>(i / side) * 3.0});
      r->set_receive_handler(
          [&delivered](util::ByteView, const phy::RxInfo&) { ++delivered; });
      radios.push_back(std::move(r));
    }
    for (int t = 0; t < kTx; ++t) {
      // Stride through the population so consecutive transmissions come
      // from different senders (worst case for per-sender caching).
      sim.after(static_cast<sim::Time>(t) * 2000, [&radios, &frame, t, n] {
        radios[static_cast<std::size_t>((t * 7) % n)]->transmit(frame);
      });
    }
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * kTx * (n - 1));
}
BENCHMARK(BM_MediumDenseDeliver)->Arg(64)->Arg(256)->Arg(1024);

void BM_MediumRoamChurn(benchmark::State& state) {
  // Metro mobility profile: a city-sized co-channel population where every
  // step moves one radio and then another one transmits, so each delivery
  // pays whatever plan invalidation the move caused — which the grid keeps
  // to the 3x3 neighborhood of the mover's cell.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim(13);
  phy::MediumConfig cfg;
  cfg.pair_rssi_cache = false;  // the metro medium profile
  phy::Medium medium(sim, cfg);
  const std::size_t side =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<std::unique_ptr<phy::Radio>> radios;
  radios.reserve(n);
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto r = std::make_unique<phy::Radio>(medium, "r" + std::to_string(i));
    r->set_position({static_cast<double>(i % side) * 30.0,
                     static_cast<double>(i / side) * 30.0});
    r->set_receive_handler(
        [&delivered](util::ByteView, const phy::RxInfo&) { ++delivered; });
    radios.push_back(std::move(r));
  }
  const util::Bytes frame = random_bytes(128);
  util::Prng rng(77);
  constexpr int kSteps = 64;
  for (auto _ : state) {
    for (int s = 0; s < kSteps; ++s) {
      phy::Radio& mover = *radios[rng.uniform_u64(0, n - 1)];
      phy::Position p = mover.position();
      p.x += rng.uniform01() * 12.0 - 6.0;
      p.y += rng.uniform01() * 12.0 - 6.0;
      mover.set_position(p);
      sim.after(2'000, [&radios, &frame, idx = rng.uniform_u64(0, n - 1)] {
        radios[idx]->transmit(frame);
      });
      sim.run();
    }
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * kSteps);
}
BENCHMARK(BM_MediumRoamChurn)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_MetroDeliver(benchmark::State& state) {
  // Steady-state metro delivery throughput: N radios on a street-scale
  // lattice cycling the {1, 6, 11} channel plan, senders striding through
  // the population. Measures the per-transmission cost of the 3x3 gather +
  // plan revalidation up to city-sized populations (65536 radios).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim(15);
  phy::MediumConfig cfg;
  cfg.pair_rssi_cache = false;
  phy::Medium medium(sim, cfg);
  const std::size_t side =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  constexpr phy::Channel kPlan[3] = {1, 6, 11};
  std::vector<std::unique_ptr<phy::Radio>> radios;
  radios.reserve(n);
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto r = std::make_unique<phy::Radio>(medium, "r" + std::to_string(i));
    r->set_position({static_cast<double>(i % side) * 25.0,
                     static_cast<double>(i / side) * 25.0});
    r->set_channel(kPlan[i % 3]);
    r->set_receive_handler(
        [&delivered](util::ByteView, const phy::RxInfo&) { ++delivered; });
    radios.push_back(std::move(r));
  }
  const util::Bytes frame = random_bytes(256);
  constexpr int kTx = 64;
  std::size_t sender = 0;
  for (auto _ : state) {
    for (int t = 0; t < kTx; ++t) {
      sender = (sender + n / 2 + 7) % n;  // stride across the city
      sim.after(2'000, [&radios, &frame, sender] {
        radios[sender]->transmit(frame);
      });
      sim.run();
    }
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * kTx);
}
BENCHMARK(BM_MetroDeliver)->Arg(4096)->Arg(65536)->Unit(benchmark::kMicrosecond);

void BM_ArenaAcquireRelease(benchmark::State& state) {
  // Steady-state frame-buffer traffic: acquire a pooled buffer, serialize a
  // frame-sized payload into it, hand it back. The depth-16 working set
  // mimics in-flight frames queued across radios and sockets; the arena is
  // pre-warmed so every acquire is a freelist pop, never a heap allocation.
  util::BufferPoolConfig cfg;
  cfg.slab_buffers = 32;
  cfg.buffer_capacity = 2048;
  util::BufferPool pool(cfg);
  std::vector<util::Bytes> live;
  live.reserve(16);
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      util::Bytes b = pool.acquire(1500);
      b.resize(256);
      b[0] = static_cast<std::uint8_t>(i);
      live.push_back(std::move(b));
    }
    for (auto& b : live) pool.release(std::move(b));
    live.clear();
    benchmark::DoNotOptimize(pool.pooled());
  }
  state.SetItemsProcessed(state.iterations() * 32);  // acquire + release
}
BENCHMARK(BM_ArenaAcquireRelease);

void BM_TracerRecord(benchmark::State& state) {
  // Causal-tracer hot path with the ring enabled: one POD store per
  // record into the preallocated flight-recorder ring, no allocation.
  obs::Tracer tracer;
  tracer.set_seed(1);
  std::uint64_t clock = 0;
  tracer.bind_clock(&clock);
  const obs::TraceNameId name = tracer.name("phy.rx");
  const obs::TraceActorId actor = tracer.actor("sta:51");
  tracer.enable(1 << 16);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 1000; ++i) {
      clock = i;
      tracer.instant(name, actor, obs::TraceLayer::kPhy, i | 1, i);
    }
    benchmark::DoNotOptimize(tracer.recorded());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TracerRecord);

void BM_TraceDisabled(benchmark::State& state) {
  // The price every datapath pays when tracing is off: must stay a single
  // predictable branch per call. Gated tightly (<= 3%) by perf_gate.py —
  // this is the "observability is free until you turn it on" contract.
  obs::Tracer tracer;
  tracer.set_seed(1);
  std::uint64_t clock = 0;
  tracer.bind_clock(&clock);
  const obs::TraceNameId name = tracer.name("phy.rx");
  const obs::TraceActorId actor = tracer.actor("sta:51");
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 1000; ++i) {
      tracer.instant(name, actor, obs::TraceLayer::kPhy, i | 1, i);
      // A datapath stores between instants, so it re-reads the enabled
      // flag on every call; without the clobber the loop folds away.
      benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(tracer.recorded());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TraceDisabled);

void BM_SimTcpTransfer(benchmark::State& state) {
  // Full in-sim TCP transfer of 100 KiB between two wired hosts:
  // measures simulator events/second end to end.
  for (auto _ : state) {
    sim::Simulator sim(7);
    net::Switch lan(sim);
    net::Host a(sim, "a");
    a.add_wired("eth0", lan, net::MacAddr::from_id(1));
    a.configure("eth0", net::Ipv4Addr(10, 0, 0, 1), 24);
    net::Host b(sim, "b");
    b.add_wired("eth0", lan, net::MacAddr::from_id(2));
    b.configure("eth0", net::Ipv4Addr(10, 0, 0, 2), 24);
    std::size_t received = 0;
    b.tcp_listen(80, [&](net::TcpConnectionPtr c) {
      c->set_on_data([&](util::ByteView d) { received += d.size(); });
    });
    const util::Bytes payload = random_bytes(100 * 1024);
    auto conn = a.tcp_connect(net::Ipv4Addr(10, 0, 0, 2), 80);
    conn->set_on_connect([&, conn] { conn->send(payload); });
    sim.run_until(30 * sim::kSecond);
    benchmark::DoNotOptimize(received);
  }
  state.SetBytesProcessed(state.iterations() * 100 * 1024);
}
BENCHMARK(BM_SimTcpTransfer);

}  // namespace

// BENCHMARK_MAIN() plus a `--smoke` flag: rewrites the flag into a tiny
// --benchmark_min_time so CI can verify every benchmark still runs in
// seconds rather than minutes.
int main(int argc, char** argv) {
  std::string smoke_flag = "--benchmark_min_time=0.01";
  std::vector<char*> args(argv, argv + argc);
  for (char*& arg : args) {
    if (std::string_view(arg) == "--smoke") arg = smoke_flag.data();
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
