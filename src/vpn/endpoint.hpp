// VPN endpoint (server side): lives on a host inside the trusted wired
// network (§5.2 requirement 3). Terminates client tunnels, assigns tunnel
// addresses, decrypts inbound records and routes the inner packets; return
// traffic for tunnel addresses is routed into a tun interface, sealed, and
// sent back down the right session. SNAT toward the wire makes the
// endpoint self-contained (no routes needed on other wired hosts) — and
// doubles as the paper's §5.3 note that "the client's traffic can also be
// anonymized for privacy reasons at the VPN endpoint".
//
// UDP-transport resilience: inbound records are policed by a sliding
// anti-replay window per epoch (reordering tolerated, duplicates
// rejected), sessions rotate keys via client-initiated kRekey exchanges
// with a grace period for the previous epoch's in-flight records, an
// established client that shows up from a new (addr, port) is re-bound to
// its session if the record authenticates (path migration), and UDP
// session state is reaped on handshake/idle timeouts so roaming plus
// half-open garbage can't grow it unboundedly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "net/host.hpp"
#include "vpn/protocol.hpp"
#include "vpn/virtual_if.hpp"

namespace rogue::vpn {

enum class Transport : std::uint8_t { kTcp, kUdp };

struct EndpointConfig {
  util::Bytes psk;             ///< pre-established authenticator
  std::uint16_t port = 7000;
  net::Ipv4Addr tunnel_network = net::Ipv4Addr(172, 16, 0, 0);
  unsigned tunnel_prefix = 24;
  bool snat_to_wire = true;    ///< masquerade tunnel clients behind our IP
  std::string egress_ifname = "eth0";

  // ---- Transport resilience knobs ----
  /// Anti-replay window width in record counters (rounded up to 64).
  std::size_t replay_window = 1024;
  /// Half-open UDP sessions that have not completed the handshake within
  /// this budget are reaped (0 = never).
  sim::Time handshake_timeout = 10 * sim::kSecond;
  /// Established UDP sessions with no authenticated traffic for this long
  /// are reaped and their tunnel IP released (0 = never).
  sim::Time idle_timeout = 60 * sim::kSecond;
  /// After a rekey, records sealed under the previous epoch's keys are
  /// still accepted for this long (loss-free rotation).
  sim::Time rekey_grace = 5 * sim::kSecond;
};

struct EndpointCounters {
  std::uint64_t sessions_established = 0;
  std::uint64_t auth_failures = 0;     ///< handshake transcript-MAC failures
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t records_bad = 0;       ///< total of the four classes below
  std::uint64_t records_replayed = 0;  ///< anti-replay window rejects
  std::uint64_t records_auth_fail = 0; ///< AEAD tag failures
  std::uint64_t records_spoofed_src = 0;  ///< inner src != assigned tunnel IP,
                                          ///< or unauthenticated roam attempts
  std::uint64_t records_stale_epoch = 0;  ///< epoch outside current/grace set
  std::uint64_t bytes_decrypted = 0;
  std::uint64_t bytes_sealed = 0;
  std::uint64_t keepalives_in = 0;     ///< liveness probes answered
  std::uint64_t rekeys = 0;            ///< completed epoch rotations
  std::uint64_t roams = 0;             ///< sessions re-bound to a new (addr, port)
  std::uint64_t sessions_reaped = 0;   ///< half-open + idle UDP sessions expired
};

class Endpoint {
 public:
  Endpoint(net::Host& host, EndpointConfig config);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Open the TCP listener and UDP socket, install tun routing + SNAT.
  /// Restart-safe: the tun/route/SNAT plumbing is installed once; a
  /// start() after stop() only reopens the transports.
  void start();

  /// Simulated process crash: close the transports and forget every
  /// session (a restarted endpoint has no session state — clients must
  /// re-handshake, which is exactly what dead-peer detection triggers).
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] const EndpointCounters& counters() const { return counters_; }
  /// The vpn.endpoint.* tallies, read by the stats registry.
  void publish(obs::Tallies& out) const;
  [[nodiscard]] std::size_t active_sessions() const { return by_tunnel_ip_.size(); }
  /// UDP session-table size including half-open entries (leak visibility).
  [[nodiscard]] std::size_t udp_session_count() const { return udp_sessions_.size(); }

 private:
  struct Session {
    SessionKeys keys;
    net::Ipv4Addr tunnel_ip;
    bool established = false;
    std::uint16_t key_epoch = 0;   ///< current key epoch (0 = handshake keys)
    std::uint64_t tx_counter = 0;  ///< per-epoch send counter
    ReplayWindow rx_window;        ///< current-epoch anti-replay window
    // Previous epoch, kept alive through the rekey grace period so records
    // sealed just before the switch still decrypt.
    SessionKeys prev_keys;
    ReplayWindow prev_window;
    sim::Time grace_until = 0;
    util::Bytes rekey_ack;     ///< cached ack (duplicate kRekeys resend it)
    util::Bytes client_hello;  ///< retained for transcript auth
    util::Bytes hello_reply;   ///< cached ServerHello (duplicate M1s resend it)
    util::Bytes assign_reply;  ///< cached Assign (duplicate auths resend it)
    std::optional<crypto::DhKeyPair> dh;  ///< fresh per session
    /// Incarnation of the endpoint that created this session; messages on
    /// sessions from a pre-crash incarnation are dropped (their transport
    /// closures may still be alive inside TCP connection callbacks).
    std::uint64_t epoch = 0;
    // Reap bookkeeping (UDP sessions only).
    sim::Time created_at = 0;
    sim::Time last_activity = 0;
    bool via_udp = false;
    std::pair<net::Ipv4Addr, std::uint16_t> udp_key;  ///< current transport binding
    // Transport binding: wire-encodes (type, payload) in a pooled buffer,
    // so sealed records are sent without an intermediate Message copy.
    std::function<void(MsgType type, util::ByteView payload)> send;
  };
  using SessionPtr = std::shared_ptr<Session>;
  using UdpKey = std::pair<net::Ipv4Addr, std::uint16_t>;

  /// How an inbound record fared against the session's epoch/window/key set.
  enum class OpenStatus { kOk, kAuthFail, kReplay, kStaleEpoch, kSpoofedSrc };

  void on_tcp_accept(net::TcpConnectionPtr conn);
  void on_udp_datagram(net::Ipv4Addr src, std::uint16_t sport, util::ByteView data);
  void handle_message(const SessionPtr& session, const Message& msg);
  void handle_client_hello(const SessionPtr& session, const Message& msg);
  void handle_client_auth(const SessionPtr& session, const Message& msg);
  void handle_data(const SessionPtr& session, const Message& msg);
  void handle_keepalive(const SessionPtr& session, const Message& msg);
  void handle_rekey(const SessionPtr& session, const Message& msg);
  bool tun_transmit(util::ByteView ip_packet);
  [[nodiscard]] std::optional<net::Ipv4Addr> allocate_tunnel_ip();

  /// Open a c2s record against the session's current epoch (or the
  /// previous one inside the rekey grace window), enforcing the
  /// anti-replay window. On kOk the inner plaintext is appended to `inner`
  /// and the window is advanced.
  OpenStatus open_session_record(Session& s, util::ByteView record,
                                 std::uint64_t* seq_out, util::Bytes& inner);
  /// Would this record authenticate on `s` (MAC + window), without
  /// consuming the window slot? Used by path-migration trial auth.
  [[nodiscard]] bool trial_authenticates(Session& s, util::ByteView record);
  /// Path migration: re-bind an established session to `key` if `msg`'s
  /// record authenticates; dispatches the message on success.
  void try_roam(const UdpKey& key, const Message& msg);
  void record_bad(OpenStatus status);
  [[nodiscard]] std::uint64_t next_tx_seq(Session& s) {
    return make_record_seq(s.key_epoch, ++s.tx_counter);
  }
  void schedule_reap();
  void reap_sessions();

  net::Host& host_;
  EndpointConfig config_;
  TunIf* tun_ = nullptr;  // owned by host_
  std::shared_ptr<net::UdpSocket> udp_;
  std::map<UdpKey, SessionPtr> udp_sessions_;
  std::unordered_map<net::Ipv4Addr, SessionPtr> by_tunnel_ip_;
  std::vector<net::Ipv4Addr> free_tunnel_ips_;  ///< released, reused LIFO
  std::uint32_t next_host_id_ = 2;
  bool running_ = false;
  bool plumbed_ = false;   ///< tun/route/SNAT installed (survives restarts)
  std::uint64_t epoch_ = 0;
  sim::TimerHandle reap_timer_;
  bool reap_scheduled_ = false;
  EndpointCounters counters_;
  obs::Profiler::ScopeId data_scope_;
  obs::Publication publication_{host_.simulator().stats(), *this};
};

}  // namespace rogue::vpn
