// ARP (RFC 826): wire format, per-interface resolution cache with pending
// packet queues. ARP trusts whoever answers first — the property the
// proxy-ARP bridge (and classic wired MITM) exploits.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/addr.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace rogue::net {

enum class ArpOp : std::uint16_t { kRequest = 1, kReply = 2 };

struct ArpPacket {
  ArpOp op = ArpOp::kRequest;
  MacAddr sender_mac;
  Ipv4Addr sender_ip;
  MacAddr target_mac;  ///< zero in requests
  Ipv4Addr target_ip;

  [[nodiscard]] util::Bytes serialize() const;
  /// serialize() into a caller-provided (typically pooled) buffer; `out`
  /// is cleared first and its capacity reused.
  void serialize_into(util::Bytes& out) const;
  [[nodiscard]] static std::optional<ArpPacket> parse(util::ByteView raw);
};

/// Per-interface ARP resolver. The owner provides the transmit hook and
/// feeds in received ARP packets; resolved callbacks fire with the MAC.
class ArpCache {
 public:
  using ResolvedFn = std::function<void(Ipv4Addr ip, MacAddr mac)>;
  using TxFn = std::function<void(const ArpPacket&)>;  ///< broadcast a request/reply

  ArpCache(sim::Simulator& simulator, MacAddr own_mac, TxFn tx);

  void set_own_ip(Ipv4Addr ip) { own_ip_ = ip; }

  /// Look up now; nullopt if unknown.
  [[nodiscard]] std::optional<MacAddr> lookup(Ipv4Addr ip) const;

  /// Resolve asynchronously: fires `done` immediately if cached, otherwise
  /// sends a request (with retries) and queues the callback. On failure
  /// after retries the callback fires with the broadcast MAC sentinel? No:
  /// failed resolutions are dropped silently and `failures()` increments.
  void resolve(Ipv4Addr ip, ResolvedFn done);

  /// Feed a received ARP packet. Replies/gratuitous ARPs populate the
  /// cache and release queued resolutions. Requests for `own_ip` trigger
  /// an automatic reply. `extra_responder` (if set) may claim additional
  /// IPs — this is the proxy-ARP hook used by bridge::ArpProxy.
  using ProxyFn = std::function<std::optional<MacAddr>(Ipv4Addr requested_ip)>;
  void on_packet(const ArpPacket& packet);
  void set_proxy(ProxyFn proxy) { proxy_ = std::move(proxy); }

  /// Insert a dynamic entry (subject to aging).
  void insert(Ipv4Addr ip, MacAddr mac);
  /// Entry lifetime; 0 disables aging. Default 60 s (Linux-ish).
  void set_entry_ttl(sim::Time ttl) { ttl_ = ttl; }
  /// Drop all dynamic entries (e.g. on link change / roam).
  void flush();

  [[nodiscard]] std::uint64_t requests_sent() const { return requests_sent_; }
  [[nodiscard]] std::uint64_t replies_sent() const { return replies_sent_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  /// The net.arp.* request/reply/failure tallies, read by the stats registry.
  void publish(obs::Tallies& out) const;

  /// Observer invoked for every ARP packet fed in (detection hooks).
  using ObserverFn = std::function<void(const ArpPacket&)>;
  void set_observer(ObserverFn obs) { observer_ = std::move(obs); }

 private:
  struct Pending {
    std::vector<ResolvedFn> waiters;
    unsigned attempts = 0;
    sim::TimerHandle timer;
  };

  void send_request(Ipv4Addr ip);
  void on_timeout(Ipv4Addr ip);

  struct Entry {
    MacAddr mac;
    sim::Time expires = 0;  ///< 0 == never
  };

  sim::Simulator& sim_;
  MacAddr own_mac_;
  Ipv4Addr own_ip_;
  TxFn tx_;
  ProxyFn proxy_;
  ObserverFn observer_;
  sim::Time ttl_ = 60 * sim::kSecond;
  std::unordered_map<Ipv4Addr, Entry> table_;
  std::unordered_map<Ipv4Addr, Pending> pending_;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t replies_sent_ = 0;
  std::uint64_t failures_ = 0;
  obs::TraceActorId trace_actor_;
  obs::TraceNameId trace_request_;
  obs::TraceNameId trace_reply_;
  obs::Publication publication_{sim_.stats(), *this};

  static constexpr unsigned kMaxAttempts = 3;
  static constexpr sim::Time kRetryDelay = 100'000;  // 100 ms
};

}  // namespace rogue::net
