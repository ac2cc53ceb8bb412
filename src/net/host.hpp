// A simulated host: one or more NetIfs bound to an IPv4 stack with ARP,
// longest-prefix routing, optional IP forwarding (the rogue gateway flips
// this on — "echo 1 > /proc/sys/net/ipv4/ip_forward" in the paper's
// bridge script), netfilter hooks, and TCP/UDP socket layers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/arp.hpp"
#include "net/ipv4.hpp"
#include "net/link.hpp"
#include "net/netfilter.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "sim/simulator.hpp"

namespace rogue::net {

struct HostCounters {
  std::uint64_t ip_received = 0;
  std::uint64_t ip_delivered = 0;
  std::uint64_t ip_forwarded = 0;
  std::uint64_t ip_sent = 0;
  std::uint64_t ip_dropped_no_route = 0;
  std::uint64_t ip_dropped_ttl = 0;
  std::uint64_t ip_dropped_filter = 0;
  std::uint64_t arp_unresolved = 0;
  std::uint64_t icmp_echo_replies = 0;
};

class Host {
 public:
  /// Handler for raw IP protocols (e.g. the VPN's IP-in-IP transport).
  using ProtocolHandler =
      std::function<void(Ipv4Addr src, Ipv4Addr dst, util::ByteView payload)>;
  /// Observation tap: point is "rx", "tx", or "fwd".
  using PacketTap = std::function<void(std::string_view point, const Ipv4Packet& packet,
                                       std::string_view ifname)>;

  Host(sim::Simulator& simulator, std::string name, TcpConfig tcp_config = {});

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Attach an interface (host takes ownership) and return it.
  NetIf& attach(std::unique_ptr<NetIf> iface);
  /// Convenience: create + attach a wired interface on a segment.
  WiredIf& add_wired(const std::string& ifname, L2Segment& segment, MacAddr mac);

  [[nodiscard]] NetIf* interface(std::string_view ifname);
  [[nodiscard]] const std::vector<std::unique_ptr<NetIf>>& interfaces() const {
    return ifaces_;
  }
  [[nodiscard]] ArpCache& arp(std::string_view ifname);

  /// ifconfig <if> <ip> netmask /prefix  + connected route.
  void configure(std::string_view ifname, Ipv4Addr ip, unsigned prefix_len);

  void set_ip_forward(bool enabled) { ip_forward_ = enabled; }
  [[nodiscard]] bool ip_forward() const { return ip_forward_; }

  [[nodiscard]] RoutingTable& routes() { return routes_; }
  [[nodiscard]] Netfilter& netfilter() { return netfilter_; }
  [[nodiscard]] TcpStack& tcp() { return tcp_; }
  [[nodiscard]] UdpStack& udp() { return udp_; }
  [[nodiscard]] const HostCounters& counters() const { return counters_; }
  /// The net.ip.* and net.arp.unresolved tallies, read by the stats
  /// registry (the ARP caches and the TCP stack publish their own).
  void publish(obs::Tallies& out) const;

  [[nodiscard]] bool is_local_ip(Ipv4Addr ip) const;
  /// First configured interface address (convenience for single-homed hosts).
  [[nodiscard]] Ipv4Addr primary_ip() const;

  /// Open a TCP connection; source IP chosen by routing. nullptr if no route.
  [[nodiscard]] TcpConnectionPtr tcp_connect(Ipv4Addr dst, std::uint16_t port);
  bool tcp_listen(std::uint16_t port, TcpStack::AcceptHandler on_accept);
  [[nodiscard]] std::shared_ptr<UdpSocket> udp_open(std::uint16_t port);

  /// Send a transport payload (already serialized TCP/UDP/other) to dst.
  bool send_ip(Ipv4Addr dst, std::uint8_t protocol, util::ByteView payload);
  /// Send a fully-formed packet (src may be any()); used by tunnels.
  bool send_packet(Ipv4Packet packet);

  void register_protocol(std::uint8_t protocol, ProtocolHandler handler);
  void set_tap(PacketTap tap) { tap_ = std::move(tap); }

  /// ICMP echo; `done(rtt_us)` fires on reply, `done(nullopt)` on timeout.
  void ping(Ipv4Addr dst, std::function<void(std::optional<sim::Time>)> done,
            sim::Time timeout = sim::kSecond);

 private:
  void on_frame(NetIf& iface, const L2Frame& frame);
  void on_ip_packet(NetIf& iface, Ipv4Packet packet);
  void deliver_local(const Ipv4Packet& packet);
  /// Zero-copy variant of deliver_local for the rx fast path.
  void deliver_local_view(const Ipv4View& packet);
  void deliver_to_stack(Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol,
                        util::ByteView payload);
  void forward(NetIf& in_iface, Ipv4Packet packet);
  /// Route + ARP-resolve + hand to the interface.
  void transmit(Ipv4Packet packet, const Route& route);
  void handle_icmp(Ipv4Addr src, util::ByteView payload);

  sim::Simulator& sim_;
  std::string name_;
  std::vector<std::unique_ptr<NetIf>> ifaces_;
  std::unordered_map<std::string, std::unique_ptr<ArpCache>> arps_;
  RoutingTable routes_;
  Netfilter netfilter_;
  bool ip_forward_ = false;
  TcpStack tcp_;
  UdpStack udp_;
  std::unordered_map<std::uint8_t, ProtocolHandler> protocol_handlers_;
  PacketTap tap_;
  HostCounters counters_;
  std::uint16_t next_ip_id_ = 1;
  std::uint16_t next_ping_id_ = 1;
  std::unordered_map<std::uint16_t,
                     std::pair<sim::Time, std::function<void(std::optional<sim::Time>)>>>
      pending_pings_;
  obs::Publication publication_{sim_.stats(), *this};
};

}  // namespace rogue::net
