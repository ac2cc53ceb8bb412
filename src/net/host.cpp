#include "net/host.hpp"

#include "net/checksum.hpp"
#include "util/assert.hpp"

namespace rogue::net {

Host::Host(sim::Simulator& simulator, std::string name, TcpConfig tcp_config)
    : sim_(simulator),
      name_(std::move(name)),
      tcp_(simulator,
           [this](Ipv4Addr dst, std::uint8_t proto, util::ByteView payload) {
             return send_ip(dst, proto, payload);
           },
           tcp_config),
      udp_([this](Ipv4Addr dst, std::uint8_t proto, util::ByteView payload) {
        return send_ip(dst, proto, payload);
      }) {}

void Host::publish(obs::Tallies& out) const {
  out.counter("net.ip.sent", counters_.ip_sent);
  out.counter("net.ip.received", counters_.ip_received);
  out.counter("net.ip.delivered", counters_.ip_delivered);
  out.counter("net.ip.forwarded", counters_.ip_forwarded);
  out.counter("net.ip.drop_no_route", counters_.ip_dropped_no_route);
  out.counter("net.ip.drop_ttl", counters_.ip_dropped_ttl);
  out.counter("net.ip.drop_filter", counters_.ip_dropped_filter);
  out.counter("net.arp.unresolved", counters_.arp_unresolved);
}

NetIf& Host::attach(std::unique_ptr<NetIf> iface) {
  NetIf& ref = *iface;
  auto arp = std::make_unique<ArpCache>(
      sim_, ref.mac(), [this, iface_ptr = &ref](const ArpPacket& pkt) {
        const MacAddr dst = pkt.op == ArpOp::kRequest ? MacAddr::broadcast()
                                                      : pkt.target_mac;
        util::Bytes raw = sim_.buffer_pool().acquire(28);
        pkt.serialize_into(raw);
        iface_ptr->send(dst, dot11::kEtherTypeArp, raw);
        sim_.buffer_pool().release(std::move(raw));
      });
  arps_[ref.name()] = std::move(arp);
  iface->set_rx_callback(
      [this](NetIf& ifc, const L2Frame& frame) { on_frame(ifc, frame); });
  ifaces_.push_back(std::move(iface));
  return ref;
}

WiredIf& Host::add_wired(const std::string& ifname, L2Segment& segment, MacAddr mac) {
  auto iface = std::make_unique<WiredIf>(ifname, mac, segment);
  return static_cast<WiredIf&>(attach(std::move(iface)));
}

NetIf* Host::interface(std::string_view ifname) {
  for (const auto& iface : ifaces_) {
    if (iface->name() == ifname) return iface.get();
  }
  return nullptr;
}

ArpCache& Host::arp(std::string_view ifname) {
  const auto it = arps_.find(std::string(ifname));
  ROGUE_ASSERT_MSG(it != arps_.end(), "no such interface");
  return *it->second;
}

void Host::configure(std::string_view ifname, Ipv4Addr ip, unsigned prefix_len) {
  NetIf* iface = interface(ifname);
  ROGUE_ASSERT_MSG(iface != nullptr, "no such interface");
  const Ipv4Addr mask = netmask(prefix_len);
  iface->configure_ip(ip, mask);
  arp(ifname).set_own_ip(ip);
  routes_.add(Route{Ipv4Addr(ip.value() & mask.value()), mask, Ipv4Addr::any(),
                    iface->name(), 0});
}

bool Host::is_local_ip(Ipv4Addr ip) const {
  if (ip.is_broadcast()) return true;
  for (const auto& iface : ifaces_) {
    if (!iface->ip().is_any() && iface->ip() == ip) return true;
  }
  return false;
}

Ipv4Addr Host::primary_ip() const {
  for (const auto& iface : ifaces_) {
    if (!iface->ip().is_any()) return iface->ip();
  }
  return Ipv4Addr::any();
}

TcpConnectionPtr Host::tcp_connect(Ipv4Addr dst, std::uint16_t port) {
  const auto route = routes_.lookup(dst);
  if (!route) return nullptr;
  const NetIf* iface = interface(route->ifname);
  if (iface == nullptr || iface->ip().is_any()) return nullptr;
  return tcp_.connect(iface->ip(), dst, port);
}

bool Host::tcp_listen(std::uint16_t port, TcpStack::AcceptHandler on_accept) {
  return tcp_.listen(port, std::move(on_accept));
}

std::shared_ptr<UdpSocket> Host::udp_open(std::uint16_t port) {
  return udp_.open(port);
}

void Host::register_protocol(std::uint8_t protocol, ProtocolHandler handler) {
  protocol_handlers_[protocol] = std::move(handler);
}

bool Host::send_ip(Ipv4Addr dst, std::uint8_t protocol, util::ByteView payload) {
  Ipv4Packet packet;
  packet.protocol = protocol;
  packet.dst = dst;
  packet.id = next_ip_id_++;
  packet.payload.assign(payload.begin(), payload.end());
  return send_packet(std::move(packet));
}

bool Host::send_packet(Ipv4Packet packet) {
  const auto route = routes_.lookup(packet.dst);
  if (!route) {
    ++counters_.ip_dropped_no_route;
    return false;
  }
  NetIf* out_iface = interface(route->ifname);
  if (out_iface == nullptr) {
    ++counters_.ip_dropped_no_route;
    return false;
  }
  if (packet.src.is_any()) packet.src = out_iface->ip();
  fix_transport_checksum(packet);

  // Local loopback (including packets addressed to another of our IPs).
  if (is_local_ip(packet.dst) && !packet.dst.is_broadcast()) {
    sim_.after(1, [this, p = std::move(packet)]() mutable { deliver_local(p); });
    ++counters_.ip_sent;
    return true;
  }

  if (netfilter_.run(Hook::kOutput, packet, "", route->ifname, out_iface->ip()) ==
      Verdict::kDrop) {
    ++counters_.ip_dropped_filter;
    return false;
  }
  if (netfilter_.run(Hook::kPostrouting, packet, "", route->ifname,
                     out_iface->ip()) == Verdict::kDrop) {
    ++counters_.ip_dropped_filter;
    return false;
  }
  // NAT may have changed the destination: re-route.
  const auto final_route = routes_.lookup(packet.dst);
  if (!final_route) {
    ++counters_.ip_dropped_no_route;
    return false;
  }
  ++counters_.ip_sent;
  if (tap_) tap_("tx", packet, final_route->ifname);
  transmit(std::move(packet), *final_route);
  return true;
}

void Host::transmit(Ipv4Packet packet, const Route& route) {
  NetIf* iface = interface(route.ifname);
  if (iface == nullptr) return;
  const Ipv4Addr next_hop =
      route.gateway.is_any() ? packet.dst : route.gateway;

  if (packet.dst.is_broadcast() || !iface->needs_arp()) {
    util::Bytes raw = sim_.buffer_pool().acquire(20 + packet.payload.size());
    packet.serialize_into(raw);
    iface->send(MacAddr::broadcast(), dot11::kEtherTypeIpv4, raw);
    sim_.buffer_pool().release(std::move(raw));
    return;
  }

  arp(route.ifname)
      .resolve(next_hop, [this, iface, p = std::move(packet)](Ipv4Addr, MacAddr mac) {
        util::Bytes raw = sim_.buffer_pool().acquire(20 + p.payload.size());
        p.serialize_into(raw);
        const bool sent = iface->send(mac, dot11::kEtherTypeIpv4, raw);
        sim_.buffer_pool().release(std::move(raw));
        if (!sent) {
          ++counters_.arp_unresolved;
        }
      });
}

void Host::on_frame(NetIf& iface, const L2Frame& frame) {
  if (frame.ethertype == dot11::kEtherTypeArp) {
    const auto arp_packet = ArpPacket::parse(frame.payload);
    if (arp_packet) arp(iface.name()).on_packet(*arp_packet);
    return;
  }
  if (frame.ethertype != dot11::kEtherTypeIpv4) return;
  // Host stacks only accept frames addressed to them (or broadcast);
  // sniffers bypass this by reading the medium directly.
  if (frame.dst != iface.mac() && !frame.dst.is_broadcast()) return;

  const auto view = Ipv4View::parse(frame.payload);
  if (!view) return;
  // Zero-copy fast path: a locally-addressed packet with no tap and no
  // netfilter work on the rx hooks is delivered straight off the frame
  // buffer. Anything that can observe or mutate the packet (tap, rules,
  // conntrack, forwarding) takes the owning-copy slow path instead.
  if (!tap_ && netfilter_.quiescent(Hook::kPrerouting) &&
      netfilter_.quiescent(Hook::kInput) && is_local_ip(view->dst)) {
    ++counters_.ip_received;
    deliver_local_view(*view);
    return;
  }
  on_ip_packet(iface, view->to_packet());
}

void Host::on_ip_packet(NetIf& iface, Ipv4Packet packet) {
  ++counters_.ip_received;
  if (tap_) tap_("rx", packet, iface.name());

  if (netfilter_.run(Hook::kPrerouting, packet, iface.name(), "", iface.ip()) ==
      Verdict::kDrop) {
    ++counters_.ip_dropped_filter;
    return;
  }

  if (is_local_ip(packet.dst)) {
    if (netfilter_.run(Hook::kInput, packet, iface.name(), "", iface.ip()) ==
        Verdict::kDrop) {
      ++counters_.ip_dropped_filter;
      return;
    }
    deliver_local(packet);
    return;
  }

  if (!ip_forward_) {
    return;  // silently drop transit traffic; we are not a router
  }
  forward(iface, std::move(packet));
}

void Host::deliver_local(const Ipv4Packet& packet) {
  deliver_to_stack(packet.src, packet.dst, packet.protocol, packet.payload);
}

void Host::deliver_local_view(const Ipv4View& packet) {
  deliver_to_stack(packet.src, packet.dst, packet.protocol, packet.payload);
}

void Host::deliver_to_stack(Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol,
                            util::ByteView payload) {
  ++counters_.ip_delivered;
  switch (protocol) {
    case kProtoTcp:
      tcp_.on_packet(src, dst, payload);
      return;
    case kProtoUdp:
      udp_.on_packet(src, dst, payload);
      return;
    case kProtoIcmp:
      handle_icmp(src, payload);
      return;
    default:
      break;
  }
  const auto it = protocol_handlers_.find(protocol);
  if (it != protocol_handlers_.end()) {
    it->second(src, dst, payload);
  }
}

void Host::forward(NetIf& in_iface, Ipv4Packet packet) {
  if (packet.ttl <= 1) {
    ++counters_.ip_dropped_ttl;
    return;
  }
  packet.ttl -= 1;

  const auto route = routes_.lookup(packet.dst);
  if (!route) {
    ++counters_.ip_dropped_no_route;
    return;
  }
  NetIf* out_iface = interface(route->ifname);
  if (out_iface == nullptr) {
    ++counters_.ip_dropped_no_route;
    return;
  }

  if (netfilter_.run(Hook::kForward, packet, in_iface.name(), route->ifname,
                     out_iface->ip()) == Verdict::kDrop) {
    ++counters_.ip_dropped_filter;
    return;
  }
  if (netfilter_.run(Hook::kPostrouting, packet, in_iface.name(), route->ifname,
                     out_iface->ip()) == Verdict::kDrop) {
    ++counters_.ip_dropped_filter;
    return;
  }
  // DNAT in PREROUTING may have redirected to one of our own addresses.
  if (is_local_ip(packet.dst)) {
    deliver_local(packet);
    return;
  }
  const auto final_route = routes_.lookup(packet.dst);
  if (!final_route) {
    ++counters_.ip_dropped_no_route;
    return;
  }
  ++counters_.ip_forwarded;
  if (tap_) tap_("fwd", packet, final_route->ifname);
  transmit(std::move(packet), *final_route);
}

// ---- ICMP echo --------------------------------------------------------------

namespace {
constexpr std::uint8_t kIcmpEchoReply = 0;
constexpr std::uint8_t kIcmpEchoRequest = 8;

util::Bytes icmp_echo(std::uint8_t type, std::uint16_t id, std::uint16_t seq) {
  util::Bytes out;
  util::ByteWriter w(out);
  w.u8(type);
  w.u8(0);
  w.u16be(0);  // checksum placeholder
  w.u16be(id);
  w.u16be(seq);
  const std::uint16_t sum = internet_checksum(out);
  out[2] = static_cast<std::uint8_t>(sum >> 8);
  out[3] = static_cast<std::uint8_t>(sum);
  return out;
}
}  // namespace

void Host::handle_icmp(Ipv4Addr src, util::ByteView payload) {
  if (payload.size() < 8) return;
  const std::uint8_t type = payload[0];
  const auto id = static_cast<std::uint16_t>((payload[4] << 8) | payload[5]);
  const auto seq = static_cast<std::uint16_t>((payload[6] << 8) | payload[7]);

  if (type == kIcmpEchoRequest) {
    ++counters_.icmp_echo_replies;
    send_ip(src, kProtoIcmp, icmp_echo(kIcmpEchoReply, id, seq));
    return;
  }
  if (type == kIcmpEchoReply) {
    const auto it = pending_pings_.find(id);
    if (it == pending_pings_.end()) return;
    const sim::Time rtt = sim_.now() - it->second.first;
    auto done = std::move(it->second.second);
    pending_pings_.erase(it);
    done(rtt);
  }
}

void Host::ping(Ipv4Addr dst, std::function<void(std::optional<sim::Time>)> done,
                sim::Time timeout) {
  const std::uint16_t id = next_ping_id_++;
  pending_pings_[id] = {sim_.now(), std::move(done)};
  send_ip(dst, kProtoIcmp, icmp_echo(kIcmpEchoRequest, id, 1));
  sim_.after(timeout, [this, id] {
    const auto it = pending_pings_.find(id);
    if (it == pending_pings_.end()) return;
    auto cb = std::move(it->second.second);
    pending_pings_.erase(it);
    cb(std::nullopt);
  });
}

}  // namespace rogue::net
