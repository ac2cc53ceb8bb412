#include "net/arp.hpp"

#include <algorithm>

namespace rogue::net {

util::Bytes ArpPacket::serialize() const {
  util::Bytes out;
  serialize_into(out);
  return out;
}

void ArpPacket::serialize_into(util::Bytes& out) const {
  out.clear();
  out.reserve(28);
  util::ByteWriter w(out);
  w.u16be(1);       // htype: Ethernet
  w.u16be(0x0800);  // ptype: IPv4
  w.u8(6);
  w.u8(4);
  w.u16be(static_cast<std::uint16_t>(op));
  w.raw(util::ByteView(sender_mac.octets().data(), 6));
  w.u32be(sender_ip.value());
  w.raw(util::ByteView(target_mac.octets().data(), 6));
  w.u32be(target_ip.value());
}

std::optional<ArpPacket> ArpPacket::parse(util::ByteView raw) {
  if (raw.size() < 28) return std::nullopt;
  util::ByteReader r(raw);
  if (r.u16be() != 1 || r.u16be() != 0x0800) return std::nullopt;
  if (r.u8() != 6 || r.u8() != 4) return std::nullopt;
  ArpPacket p;
  const std::uint16_t op = r.u16be();
  if (op != 1 && op != 2) return std::nullopt;
  p.op = static_cast<ArpOp>(op);
  auto read_mac = [&r] {
    const auto v = r.raw(6);
    std::array<std::uint8_t, 6> o{};
    std::copy(v.begin(), v.end(), o.begin());
    return MacAddr(o);
  };
  p.sender_mac = read_mac();
  p.sender_ip = Ipv4Addr(r.u32be());
  p.target_mac = read_mac();
  p.target_ip = Ipv4Addr(r.u32be());
  if (!r.ok()) return std::nullopt;
  return p;
}

ArpCache::ArpCache(sim::Simulator& simulator, MacAddr own_mac, TxFn tx)
    : sim_(simulator), own_mac_(own_mac), tx_(std::move(tx)) {
  obs::Tracer& tracer = sim_.tracer();
  trace_actor_ = tracer.actor("arp:" + own_mac_.to_string());
  trace_request_ = tracer.name("net.arp.request");
  trace_reply_ = tracer.name("net.arp.reply");
}

void ArpCache::publish(obs::Tallies& out) const {
  out.counter("net.arp.requests", requests_sent_);
  out.counter("net.arp.replies", replies_sent_);
  out.counter("net.arp.failures", failures_);
}

std::optional<MacAddr> ArpCache::lookup(Ipv4Addr ip) const {
  const auto it = table_.find(ip);
  if (it == table_.end()) return std::nullopt;
  if (it->second.expires != 0 && it->second.expires <= sim_.now()) {
    return std::nullopt;  // aged out; next resolve() re-requests
  }
  return it->second.mac;
}

void ArpCache::insert(Ipv4Addr ip, MacAddr mac) {
  table_[ip] = Entry{mac, ttl_ == 0 ? 0 : sim_.now() + ttl_};
  const auto it = pending_.find(ip);
  if (it != pending_.end()) {
    sim_.cancel(it->second.timer);
    auto waiters = std::move(it->second.waiters);
    pending_.erase(it);
    for (auto& w : waiters) w(ip, mac);
  }
}

void ArpCache::flush() { table_.clear(); }

void ArpCache::resolve(Ipv4Addr ip, ResolvedFn done) {
  if (const auto mac = lookup(ip)) {
    done(ip, *mac);
    return;
  }
  auto& pending = pending_[ip];
  pending.waiters.push_back(std::move(done));
  if (pending.waiters.size() == 1) {
    pending.attempts = 1;
    send_request(ip);
    pending.timer = sim_.after(kRetryDelay, [this, ip] { on_timeout(ip); });
  }
}

void ArpCache::send_request(Ipv4Addr ip) {
  ArpPacket req;
  req.op = ArpOp::kRequest;
  req.sender_mac = own_mac_;
  req.sender_ip = own_ip_;
  req.target_mac = MacAddr{};
  req.target_ip = ip;
  ++requests_sent_;
  sim_.tracer().instant(trace_request_, trace_actor_, obs::TraceLayer::kNet, 0,
                        ip.value());
  tx_(req);
}

void ArpCache::on_timeout(Ipv4Addr ip) {
  const auto it = pending_.find(ip);
  if (it == pending_.end()) return;
  if (it->second.attempts >= kMaxAttempts) {
    ++failures_;
    pending_.erase(it);
    return;
  }
  ++it->second.attempts;
  send_request(ip);
  it->second.timer = sim_.after(kRetryDelay, [this, ip] { on_timeout(ip); });
}

void ArpCache::on_packet(const ArpPacket& packet) {
  if (observer_) observer_(packet);

  // Learn the sender mapping opportunistically (like real stacks).
  if (!packet.sender_ip.is_any()) {
    insert(packet.sender_ip, packet.sender_mac);
  }

  if (packet.op != ArpOp::kRequest) return;

  // Are we (or our proxy) the target?
  std::optional<MacAddr> answer;
  if (!own_ip_.is_any() && packet.target_ip == own_ip_) {
    answer = own_mac_;
  } else if (proxy_) {
    answer = proxy_(packet.target_ip);
  }
  if (!answer) return;

  ArpPacket reply;
  reply.op = ArpOp::kReply;
  reply.sender_mac = *answer;
  reply.sender_ip = packet.target_ip;
  reply.target_mac = packet.sender_mac;
  reply.target_ip = packet.sender_ip;
  ++replies_sent_;
  sim_.tracer().instant(trace_reply_, trace_actor_, obs::TraceLayer::kNet, 0,
                        packet.target_ip.value());
  tx_(reply);
}

}  // namespace rogue::net
