// VPN client: establishes an authenticated tunnel to the endpoint and —
// the paper's core prescription — repoints the host's *default route* into
// the tunnel so that ALL traffic (requirement 4, §5.2) traverses it. Only
// the pinned /32 route to the endpoint itself still uses the underlying
// (possibly hostile) wireless path.
//
// Self-healing (the robustness the paper's §5.3 admits is missing): with
// auto_reconnect enabled the client probes the endpoint with sealed
// keepalives, declares the session dead after dead_peer_timeout of
// silence, tears the tunnel down, and re-handshakes with capped
// exponential backoff + jitter. While the tunnel is down, fail_open
// restores the original default route (connectivity, but *in the clear*);
// fail-closed leaves traffic blackholed until the tunnel returns.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "net/host.hpp"
#include "util/prng.hpp"
#include "vpn/endpoint.hpp"  // Transport
#include "vpn/protocol.hpp"
#include "vpn/virtual_if.hpp"

namespace rogue::vpn {

struct ClientConfig {
  util::Bytes psk;
  net::Ipv4Addr endpoint_ip;
  std::uint16_t endpoint_port = 7000;
  Transport transport = Transport::kTcp;
  sim::Time handshake_timeout = 5 * sim::kSecond;
  sim::Time udp_retransmit = 500 * sim::kMillisecond;
  /// Route every non-endpoint packet through the tunnel once established.
  bool route_all_traffic = true;

  // ---- Self-healing knobs (off by default: legacy one-shot behaviour) ----
  /// Re-handshake after handshake failure or dead peer.
  bool auto_reconnect = false;
  /// Sealed liveness probe period while established (auto_reconnect only).
  sim::Time keepalive_interval = 1 * sim::kSecond;
  /// Silence from the endpoint before the session is declared dead.
  sim::Time dead_peer_timeout = 3500 * sim::kMillisecond;
  sim::Time reconnect_backoff_min = 250 * sim::kMillisecond;
  sim::Time reconnect_backoff_max = 8 * sim::kSecond;
  /// Tunnel down: true restores the saved default route (unprotected
  /// connectivity — exposure is measurable); false blackholes instead.
  bool fail_open = true;

  // ---- Anti-replay / rekey knobs ----
  /// Anti-replay window width in record counters (rounded up to 64).
  std::size_t replay_window = 1024;
  /// Rotate data keys after this many sealed records (0 = never).
  std::uint64_t rekey_after_records = 0;
  /// Rotate data keys after this much sim-time per epoch (0 = never;
  /// checked on sends and keepalive ticks, so a fully idle tunnel without
  /// keepalives only rotates when traffic resumes).
  sim::Time rekey_after_time = 0;
  /// kRekey retransmit period until the rotation is acknowledged.
  sim::Time rekey_retransmit = 500 * sim::kMillisecond;
  /// After committing a rekey, still accept the previous epoch's in-flight
  /// records for this long.
  sim::Time rekey_grace = 5 * sim::kSecond;
};

struct ClientCounters {
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t records_bad = 0;       ///< total of the three classes below
  std::uint64_t records_replayed = 0;  ///< anti-replay window rejects
  std::uint64_t records_auth_fail = 0; ///< AEAD tag failures
  std::uint64_t records_stale_epoch = 0;  ///< epoch outside the accepted set
  std::uint64_t rekeys = 0;            ///< committed epoch rotations
  std::uint64_t bytes_sealed = 0;
  std::uint64_t bytes_decrypted = 0;
  std::uint64_t keepalives_sent = 0;
  std::uint64_t keepalive_acks = 0;
  std::uint64_t dead_peer_events = 0;     ///< sessions torn down by DPD
  std::uint64_t connect_attempts = 0;     ///< handshakes started (incl. first)
  std::uint64_t sessions_established = 0; ///< successful handshakes
};

class ClientTunnel {
 public:
  /// done(true) once the tunnel is first up (routes installed); done(false)
  /// when the *initial* establishment fails (auth failure or timeout).
  /// Fires exactly once; later reconnect outcomes go to the session handler.
  using EstablishedHandler = std::function<void(bool ok)>;
  /// up=true on every (re-)establishment, up=false on every session loss.
  using SessionHandler = std::function<void(bool up)>;

  ClientTunnel(net::Host& host, ClientConfig config);
  ~ClientTunnel();

  ClientTunnel(const ClientTunnel&) = delete;
  ClientTunnel& operator=(const ClientTunnel&) = delete;

  void start(EstablishedHandler done);

  /// Simulate an address change mid-session (roaming): reopen the UDP
  /// transport on a fresh ephemeral port without touching session state.
  /// The next record that authenticates from the new (addr, port) makes
  /// the endpoint re-bind the session. No-op for TCP or while down.
  void migrate();

  /// Observe tunnel up/down transitions (robustness metrics).
  void set_session_handler(SessionHandler handler) {
    session_handler_ = std::move(handler);
  }

  [[nodiscard]] bool established() const { return established_; }
  /// True if the peer proved knowledge of the PSK (it is the real
  /// endpoint, not a rogue terminating our VPN).
  [[nodiscard]] bool server_authenticated() const { return server_authenticated_; }
  [[nodiscard]] net::Ipv4Addr tunnel_ip() const { return tunnel_ip_; }
  [[nodiscard]] const ClientCounters& counters() const { return counters_; }
  /// The vpn.client.* tallies, read by the stats registry.
  void publish(obs::Tallies& out) const;
  /// Sessions re-established after a loss (0 for an unbroken tunnel).
  [[nodiscard]] std::uint64_t reconnects() const {
    return counters_.sessions_established > 0
               ? counters_.sessions_established - 1
               : 0;
  }
  /// Carrier TCP statistics when transport == kTcp (the "unnecessary
  /// retransmission" §5.3 warns about); nullptr for UDP transport.
  [[nodiscard]] const net::TcpStats* tcp_transport_stats() const {
    return tcp_ ? &tcp_->stats() : nullptr;
  }

 private:
  void begin_attempt();
  void attempt_failed();
  void session_lost();
  void schedule_reconnect();
  void teardown_transport();
  void report_initial(bool ok);
  void send_message(const Message& msg);
  /// Hot-path variant: wire-encode (type, payload) in a pooled buffer.
  void send_payload(MsgType type, util::ByteView payload);
  void on_message(const Message& msg);
  void handle_server_hello(const Message& msg);
  void handle_assign(const Message& msg);
  void handle_data(const Message& msg);
  void handle_keepalive_ack(const Message& msg);
  void handle_rekey_ack(const Message& msg);
  void on_keepalive_tick();
  void bring_up_tun();

  /// How an inbound record fared against the epoch/window/key set.
  enum class OpenStatus { kOk, kAuthFail, kReplay, kStaleEpoch };
  /// Open an s2c record against the current epoch, the previous epoch
  /// inside the rekey grace window, or — if a rekey is pending — trial-open
  /// under the pending next-epoch keys (any success commits the rotation,
  /// which makes a lost kRekeyAck harmless). Advances the matching
  /// anti-replay window on kOk.
  OpenStatus open_incoming(util::ByteView record, std::uint64_t* seq_out,
                           util::Bytes& inner);
  void record_bad(OpenStatus status);
  [[nodiscard]] std::uint64_t next_tx_seq() {
    ++epoch_tx_records_;
    return make_record_seq(key_epoch_, ++tx_counter_);
  }
  void maybe_rekey();
  void start_rekey();
  void commit_rekey();
  void abandon_rekey();

  net::Host& host_;
  ClientConfig config_;
  EstablishedHandler done_;
  SessionHandler session_handler_;
  bool done_reported_ = false;

  net::TcpConnectionPtr tcp_;
  std::shared_ptr<net::UdpSocket> udp_;
  std::shared_ptr<MessageReader> reader_;

  util::Bytes client_hello_;
  Message last_auth_;  ///< resent when a duplicate ServerHello arrives
  std::optional<crypto::DhKeyPair> dh_;
  SessionKeys keys_;
  bool server_authenticated_ = false;
  bool established_ = false;
  bool failed_ = false;
  net::Ipv4Addr tunnel_ip_;
  std::uint16_t key_epoch_ = 0;   ///< current key epoch (0 = handshake keys)
  std::uint64_t tx_counter_ = 0;  ///< per-epoch send counter
  std::uint64_t epoch_tx_records_ = 0;  ///< records sealed this epoch
  sim::Time epoch_started_ = 0;
  ReplayWindow rx_window_;        ///< current-epoch anti-replay window
  // Previous epoch, alive through the rekey grace period.
  SessionKeys prev_keys_;
  ReplayWindow prev_window_;
  sim::Time grace_until_ = 0;
  // Pending rekey: initiated, waiting for proof the endpoint switched
  // (its ack or any record under the next epoch's keys).
  bool rekey_pending_ = false;
  SessionKeys pending_keys_;
  util::Bytes pending_rekey_record_;  ///< retransmitted until committed

  TunIf* tun_ = nullptr;  // owned by host_
  bool pinned_route_ = false;  ///< our /32 endpoint pin is installed
  std::optional<net::Route> saved_default_;  ///< pre-VPN default route
  sim::Time last_peer_activity_ = 0;
  sim::Time backoff_ = 0;
  util::Prng reconnect_rng_;  ///< jitter stream (derive_rng, never wall clock)
  sim::TimerHandle timeout_timer_;
  sim::TimerHandle retransmit_timer_;
  sim::TimerHandle keepalive_timer_;
  sim::TimerHandle reconnect_timer_;
  sim::TimerHandle rekey_timer_;
  ClientCounters counters_;
  obs::TraceActorId trace_actor_;
  obs::TraceNameId trace_session_;
  obs::TraceNameId trace_rekey_;
  obs::TraceNameId trace_record_bad_;
  obs::Profiler::ScopeId data_scope_;
  obs::Publication publication_{host_.simulator().stats(), *this};
};

}  // namespace rogue::vpn
