// EXP-C1 (§1.1): eavesdropping exposure, wired vs wireless.
//
// A fixed client/server HTTP workload runs over five media; a co-located
// passive adversary reports how much of the foreign application traffic
// it could read. This quantifies the paper's §1.1 argument: switched
// wired LANs resist casual sniffing, wireless broadcasts everything.
#include <cstdio>

#include "apps/download.hpp"
#include "apps/http.hpp"
#include "attack/sniffer.hpp"
#include "dot11/ap.hpp"
#include "dot11/sta.hpp"
#include "exp_common.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "util/fmt.hpp"

using namespace rogue;

namespace {

constexpr std::size_t kPageSize = 8 * 1024;
constexpr int kRequests = 5;

struct Result {
  bool workload_ok = false;
  std::uint64_t workload_bytes = 0;   ///< application bytes transferred
  std::uint64_t observed_bytes = 0;   ///< foreign L3+ bytes adversary captured
};

// Count IPv4-carrying payload bytes not addressed to/from the adversary.
struct ByteCounter {
  std::uint64_t bytes = 0;
};

Result run_wired(std::uint64_t seed, bool use_switch) {
  sim::Simulator sim(seed);
  std::unique_ptr<net::L2Segment> lan;
  if (use_switch) {
    lan = std::make_unique<net::Switch>(sim);
  } else {
    lan = std::make_unique<net::Hub>(sim);
  }

  net::Host client(sim, "client");
  client.add_wired("eth0", *lan, net::MacAddr::from_id(0xC1));
  client.configure("eth0", net::Ipv4Addr(10, 0, 0, 1), 24);
  net::Host server(sim, "server");
  server.add_wired("eth0", *lan, net::MacAddr::from_id(0x51));
  server.configure("eth0", net::Ipv4Addr(10, 0, 0, 2), 24);

  // The adversary: an ordinary jack on the same segment, NIC in
  // promiscuous mode (counts every frame its port receives).
  auto counter = std::make_shared<ByteCounter>();
  net::SegmentPort adversary(*lan, "adversary");
  adversary.set_rx([counter](const net::L2Frame& frame) {
    if (frame.ethertype == dot11::kEtherTypeIpv4) {
      counter->bytes += frame.payload.size();
    }
  });
  // The adversary also generates a little traffic so the switch learns its
  // port (a silent port would receive floods forever).
  sim.every(500'000, [&adversary] {
    adversary.send(net::L2Frame{net::MacAddr::from_id(0xFE),
                                net::MacAddr::from_id(0xAD), 0x0800, {}});
  });

  apps::HttpServer http(server, 80);
  const util::Bytes page = apps::make_release_blob(1, kPageSize);
  http.route("/page", [&page](const apps::HttpRequest&) {
    apps::HttpResponse resp;
    resp.body = page;
    return resp;
  });

  int completed = 0;
  for (int i = 0; i < kRequests; ++i) {
    sim.after(static_cast<sim::Time>(i + 1) * sim::kSecond, [&] {
      apps::HttpClient::get(client, net::Ipv4Addr(10, 0, 0, 2), 80, "/page",
                            [&](const apps::HttpResult& r) {
                              if (r.ok) ++completed;
                            });
    });
  }
  sim.run_until(60 * sim::kSecond);

  Result r;
  r.workload_ok = completed == kRequests;
  r.workload_bytes = static_cast<std::uint64_t>(kRequests) * kPageSize;
  r.observed_bytes = counter->bytes;
  return r;
}

Result run_wireless(std::uint64_t seed, bool wep, bool adversary_has_key) {
  sim::Simulator sim(seed);
  phy::Medium medium(sim);
  const util::Bytes key = util::to_bytes("SECRETWEPKEY1");

  dot11::ApConfig apc;
  apc.ssid = "CORP";
  apc.bssid = net::MacAddr::from_id(0xA9);
  apc.channel = 1;
  apc.security = wep ? dot11::SecurityMode::kWep : dot11::SecurityMode::kOpen;
  apc.wep_key = wep ? key : util::Bytes{};
  dot11::AccessPoint ap(sim, medium, apc);
  ap.radio().set_position({5, 0});

  dot11::StationConfig stc;
  stc.mac = net::MacAddr::from_id(0x51);
  stc.target_ssid = "CORP";
  stc.scan_channels = {1};
  stc.security = apc.security;
  stc.wep_key = wep ? key : util::Bytes{};
  dot11::Station sta(sim, medium, stc);

  // Client host on the station; server host behind the AP.
  net::Host client(sim, "client");
  client.attach(std::make_unique<net::StationIf>("wlan0", sta));
  client.configure("wlan0", net::Ipv4Addr(10, 0, 0, 1), 24);

  net::Switch wired(sim);
  net::ApBridge bridge(ap, wired, "uplink");
  net::Host server(sim, "server");
  server.add_wired("eth0", wired, net::MacAddr::from_id(0x52));
  server.configure("eth0", net::Ipv4Addr(10, 0, 0, 2), 24);

  apps::HttpServer http(server, 80);
  const util::Bytes page = apps::make_release_blob(1, kPageSize);
  http.route("/page", [&page](const apps::HttpRequest&) {
    apps::HttpResponse resp;
    resp.body = page;
    return resp;
  });

  attack::SnifferConfig sc;
  sc.channel = 1;
  if (wep && adversary_has_key) sc.wep_key = key;
  attack::Sniffer sniffer(sim, medium, sc);
  sniffer.radio().set_position({2, 3});
  auto counter = std::make_shared<ByteCounter>();
  sniffer.set_msdu_handler([counter](net::MacAddr, net::MacAddr, std::uint16_t et,
                                     util::ByteView payload) {
    if (et == dot11::kEtherTypeIpv4) counter->bytes += payload.size();
  });

  ap.start();
  sta.start();
  int completed = 0;
  for (int i = 0; i < kRequests; ++i) {
    sim.after(static_cast<sim::Time>(i + 2) * sim::kSecond, [&] {
      apps::HttpClient::get(client, net::Ipv4Addr(10, 0, 0, 2), 80, "/page",
                            [&](const apps::HttpResult& r) {
                              if (r.ok) ++completed;
                            });
    });
  }
  sim.run_until(90 * sim::kSecond);

  Result r;
  r.workload_ok = completed == kRequests;
  r.workload_bytes = static_cast<std::uint64_t>(kRequests) * kPageSize;
  r.observed_bytes = counter->bytes;
  return r;
}

}  // namespace

int main() {
  bench::print_header("EXP-C1", "co-located adversary: observable foreign traffic",
                      "§1.1 \"Privacy in wireless and wired networks\"");
  bench::print_expectation(
      "switch: ~0% readable. hub (legacy wire): all readable. open wireless: "
      "all readable. WEP wireless: outsider ~0%, key-holder ~all — so WEP "
      "only gates on key possession, which insiders and FMS attackers have");

  constexpr std::size_t kTrials = 8;
  struct Medium {
    const char* name;
    std::function<Result(std::uint64_t)> run;
  };
  const Medium media[] = {
      {"wired, switched (corporate)", [](std::uint64_t s) { return run_wired(s, true); }},
      {"wired, hub (legacy)", [](std::uint64_t s) { return run_wired(s, false); }},
      {"wireless, open", [](std::uint64_t s) { return run_wireless(s, false, false); }},
      {"wireless, WEP, outsider", [](std::uint64_t s) { return run_wireless(s, true, false); }},
      {"wireless, WEP, key holder", [](std::uint64_t s) { return run_wireless(s, true, true); }},
  };

  util::Table table({"medium", "workload ok", "app bytes", "adversary saw",
                     "exposure"});
  std::uint64_t seed = 100;
  for (const auto& m : media) {
    const auto results = bench::run_trials<Result>(kTrials, m.run, seed);
    seed += 100;
    util::Summary observed;
    util::Summary workload;
    std::size_t ok = 0;
    for (const auto& r : results) {
      if (r.workload_ok) ++ok;
      observed.add(static_cast<double>(r.observed_bytes));
      workload.add(static_cast<double>(r.workload_bytes));
    }
    const double exposure = workload.mean() > 0 ? observed.mean() / workload.mean() : 0;
    table.add_row({m.name, util::format("{}/{}", ok, kTrials),
                   util::fmt_bytes(static_cast<std::uint64_t>(workload.mean())),
                   util::fmt_bytes(static_cast<std::uint64_t>(observed.mean())),
                   util::fmt_percent(std::min(exposure, 9.99))});
  }
  table.print();

  std::printf("\n(exposure > 100%% on broadcast media: the adversary sees TCP\n"
              "headers, retransmissions and both directions of the flow.)\n");
  return 0;
}
