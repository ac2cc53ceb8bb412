// Hostile Hotspot world (§1.2.2): a public hotspot whose *owner* is the
// attacker — no rogue AP needed, the infrastructure itself tampers with
// traffic. Models the "network promiscuity" threat (§3.2): a roaming
// client crosses administrative domains whose operators it cannot vet,
// and only an always-on VPN to its *home* network protects it everywhere.
#pragma once

#include <memory>
#include <optional>

#include "apps/http.hpp"
#include "apps/netsed.hpp"
#include "dot11/sta.hpp"
#include "net/link.hpp"
#include "scenario/client_kit.hpp"

namespace rogue::scenario {

/// The episode script (World::run_episode()) joins the hotspot, then runs
/// the EpisodeConfig phases: optionally the home VPN, then the download.
struct HotspotConfig : EpisodeConfig {
  HotspotConfig() { vpn_psk = util::to_bytes("home-vpn-preshared-authenticator"); }

  bool hostile = false;  ///< the hotspot owner tampers with traffic
};

struct HotspotAddresses {
  net::Ipv4Addr hotspot_lan{192, 168, 1, 1};
  net::Ipv4Addr client{192, 168, 1, 100};
  net::Ipv4Addr hotspot_wan{203, 0, 113, 200};
  net::Ipv4Addr web_server{203, 0, 113, 80};
  net::Ipv4Addr home_vpn{203, 0, 113, 5};
  std::uint16_t vpn_port = 7000;
};

class HotspotWorld final : public World {
 public:
  explicit HotspotWorld(HotspotConfig config = {});

  // ---- World interface -----------------------------------------------------
  [[nodiscard]] std::string_view name() const override { return "hotspot"; }
  void configure(std::uint64_t seed) override;
  void run_episode() override;
  [[nodiscard]] Metrics collect_metrics() const override;
  [[nodiscard]] sim::Simulator& simulator() override { return sim_; }
  [[nodiscard]] sim::Trace& trace() override { return trace_; }

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] const HotspotAddresses& addr() const { return addr_; }
  [[nodiscard]] const HotspotConfig& config() const { return config_; }

  /// Faults, WIDS, the home VPN tunnel, the download workload and the
  /// blobs. The hotspot operator (or a visiting auditor) watches its own
  /// airspace.
  [[nodiscard]] ClientKit& kit() { return kit_; }
  [[nodiscard]] const ClientKit& kit() const { return kit_; }

  void start() override;

  /// Record every radio frame into the trace (pcap export). Call before
  /// start().
  void enable_frame_capture() override { capture_frames_ = true; }

  bool attach_detector(std::string_view name) override {
    return kit_.attach_detector(name);
  }
  bool attach_attacker(std::string_view name) override {
    return kit_.attach_attacker(name);
  }

  void run_for(sim::Time duration) override {
    sim_.run_until(sim_.now() + duration);
  }

  [[nodiscard]] net::Host& client() { return *client_; }
  [[nodiscard]] dot11::Station& client_sta() { return *client_sta_; }
  [[nodiscard]] net::Host& hotspot_gw() { return *gw_; }

 private:
  /// The kit's view of this world: client, hotspot AP, home endpoint,
  /// channel 6 and where monitors and attackers sit.
  [[nodiscard]] ClientKit::Topology topology();

  HotspotConfig config_;
  HotspotAddresses addr_;
  sim::Simulator sim_;
  sim::Trace trace_;
  phy::Medium medium_;
  net::Switch internet_;

  std::unique_ptr<dot11::AccessPoint> ap_;
  std::unique_ptr<net::Host> gw_;
  std::unique_ptr<apps::Netsed> netsed_;
  std::unique_ptr<apps::HttpServer> trojan_server_;

  std::unique_ptr<net::Host> web_;
  std::unique_ptr<apps::HttpServer> web_http_;
  std::unique_ptr<net::Host> home_;
  std::unique_ptr<vpn::Endpoint> endpoint_;

  std::unique_ptr<dot11::Station> client_sta_;
  std::unique_ptr<net::Host> client_;

  bool started_ = false;
  bool capture_frames_ = false;
  std::optional<sim::Time> join_time_;  ///< capture event when hostile

  // Last member: destroyed first, while the hosts it taps still exist.
  ClientKit kit_;
};

}  // namespace rogue::scenario
