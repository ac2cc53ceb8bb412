// TCP over the simulated IPv4 stack: 3-way handshake, sequence/ack
// bookkeeping, Jacobson/Karels RTO with exponential backoff, fast
// retransmit on triple duplicate ACKs, slow start + congestion avoidance,
// and orderly FIN teardown.
//
// The retransmission machinery is load-bearing for the paper: §5.3 notes
// that the tested PPP-over-SSH VPN suffers because "any UDP traffic is
// subject to unnecessary retransmission by TCP" — the classic
// TCP-over-TCP meltdown that bench_claim_tcp_over_tcp quantifies.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "net/addr.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace rogue::net {

// TCP header flags.
inline constexpr std::uint8_t kTcpFin = 0x01;
inline constexpr std::uint8_t kTcpSyn = 0x02;
inline constexpr std::uint8_t kTcpRst = 0x04;
inline constexpr std::uint8_t kTcpPsh = 0x08;
inline constexpr std::uint8_t kTcpAck = 0x10;

/// Non-owning parsed segment for the rx hot path: `payload` views the
/// delivered IP payload buffer. Copies happen only where the stack
/// genuinely takes ownership (out-of-order reassembly buffering).
struct TcpSegmentView {
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  util::ByteView payload;

  [[nodiscard]] bool has(std::uint8_t flag) const { return (flags & flag) != 0; }
  /// Verifies the pseudo-header checksum, like TcpSegment::parse.
  [[nodiscard]] static std::optional<TcpSegmentView> parse(Ipv4Addr src, Ipv4Addr dst,
                                                           util::ByteView raw);
};

struct TcpSegment {
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  util::Bytes payload;

  [[nodiscard]] bool has(std::uint8_t flag) const { return (flags & flag) != 0; }
  /// 20-byte header + payload; checksum over the pseudo-header.
  [[nodiscard]] util::Bytes serialize(Ipv4Addr src, Ipv4Addr dst) const;
  /// serialize() into a caller-provided (typically pooled) buffer; `out`
  /// is cleared first and its capacity reused.
  void serialize_into(Ipv4Addr src, Ipv4Addr dst, util::Bytes& out) const;
  [[nodiscard]] static std::optional<TcpSegment> parse(Ipv4Addr src, Ipv4Addr dst,
                                                       util::ByteView raw);
};

/// Modulo-2^32 sequence comparison helpers.
[[nodiscard]] inline bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
[[nodiscard]] inline bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

enum class TcpState : std::uint8_t {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kClosing,
  kTimeWait,
  kCloseWait,
  kLastAck,
};

struct TcpConfig {
  std::size_t mss = 1400;
  std::uint32_t initial_window_segments = 2;  ///< initial cwnd (in MSS)
  sim::Time rto_initial = 1 * sim::kSecond;
  sim::Time rto_min = 200 * sim::kMillisecond;
  sim::Time rto_max = 60 * sim::kSecond;
  sim::Time time_wait = 1 * sim::kSecond;
  unsigned syn_retries = 5;
  unsigned max_retransmits = 12;
};

struct TcpStats {
  std::uint64_t bytes_sent = 0;          ///< app payload handed to send()
  std::uint64_t bytes_acked = 0;
  std::uint64_t bytes_received = 0;      ///< in-order payload delivered up
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rto_events = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t dup_acks = 0;
  std::uint64_t reassembly_buffered = 0;  ///< out-of-order segments held
};

class TcpStack;

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  using DataHandler = std::function<void(util::ByteView data)>;
  using EventHandler = std::function<void()>;

  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] bool established() const { return state_ == TcpState::kEstablished; }
  [[nodiscard]] Ipv4Addr local_ip() const { return local_ip_; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  [[nodiscard]] Ipv4Addr remote_ip() const { return remote_ip_; }
  [[nodiscard]] std::uint16_t remote_port() const { return remote_port_; }
  [[nodiscard]] const TcpStats& stats() const { return stats_; }
  /// This connection's net.tcp.* tallies, read by the stats registry; a
  /// closed connection's counts stay in the totals.
  void publish(obs::Tallies& out) const;
  [[nodiscard]] std::size_t unsent_bytes() const { return send_buf_.size(); }
  [[nodiscard]] std::size_t bytes_in_flight() const;

  /// Queue application data for transmission.
  void send(util::ByteView data);
  /// Graceful close (FIN after the send buffer drains).
  void close();
  /// Hard reset.
  void abort();

  void set_on_connect(EventHandler handler) { on_connect_ = std::move(handler); }
  void set_on_data(DataHandler handler) { on_data_ = std::move(handler); }
  /// Fired once, at the first of: peer FIN received (EOF), clean local
  /// teardown completing, a RST, or retransmission exhaustion. After a
  /// peer FIN the connection can still send (CLOSE_WAIT) until close().
  void set_on_close(EventHandler handler) { on_close_ = std::move(handler); }

 private:
  friend class TcpStack;

  TcpConnection(TcpStack& stack, Ipv4Addr local_ip, std::uint16_t local_port,
                Ipv4Addr remote_ip, std::uint16_t remote_port);

  void start_connect();
  void start_accept(const TcpSegmentView& syn);
  void on_segment(const TcpSegmentView& seg);
  void process_ack(const TcpSegmentView& seg);
  void process_payload(const TcpSegmentView& seg);
  void try_send();
  void send_segment(std::uint8_t flags, std::uint32_t seq, util::Bytes payload);
  void send_ack();
  void maybe_send_fin();
  void arm_rtx_timer();
  void cancel_rtx_timer();
  void on_rtx_timeout();
  void enter_time_wait();
  void notify_close();
  void finish(bool notify);

  TcpStack& stack_;
  Ipv4Addr local_ip_;
  std::uint16_t local_port_;
  Ipv4Addr remote_ip_;
  std::uint16_t remote_port_;

  TcpState state_ = TcpState::kClosed;

  // Send side.
  std::deque<std::uint8_t> send_buf_;  ///< unsent application bytes
  util::Bytes inflight_;               ///< sent-but-unacked bytes [snd_una, snd_nxt)
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t peer_window_ = 65535;
  double cwnd_ = 0.0;
  double ssthresh_ = 65535.0 * 16;
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;
  unsigned consecutive_rtx_ = 0;

  // RTT estimation (Jacobson/Karels, Karn's rule).
  bool srtt_valid_ = false;
  double srtt_us_ = 0.0;
  double rttvar_us_ = 0.0;
  sim::Time rto_;
  std::optional<std::pair<std::uint32_t, sim::Time>> rtt_sample_;  // (seq, t_sent)

  // Receive side.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, util::Bytes> out_of_order_;
  std::uint32_t last_ack_sent_ = 0;
  unsigned dup_ack_count_ = 0;

  sim::TimerHandle rtx_timer_;
  sim::TimerHandle time_wait_timer_;

  DataHandler on_data_;
  EventHandler on_connect_;
  EventHandler on_close_;
  TcpStats stats_;
  bool finished_ = false;
  bool close_notified_ = false;
  obs::Publication publication_;
};

using TcpConnectionPtr = std::shared_ptr<TcpConnection>;

/// Per-host TCP layer: demultiplexes segments to connections, owns
/// listeners, and allocates ephemeral ports.
class TcpStack {
 public:
  using SendIpFn = std::function<bool(Ipv4Addr dst, std::uint8_t protocol,
                                      util::ByteView payload)>;
  using AcceptHandler = std::function<void(TcpConnectionPtr conn)>;

  TcpStack(sim::Simulator& simulator, SendIpFn send_ip, TcpConfig config = {});
  ~TcpStack();

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const TcpConfig& config() const { return config_; }

  /// Active open. `local_ip` is the host-selected source address.
  [[nodiscard]] TcpConnectionPtr connect(Ipv4Addr local_ip, Ipv4Addr remote_ip,
                                         std::uint16_t remote_port);
  /// Passive open on a port (any local address). Returns false if taken.
  bool listen(std::uint16_t port, AcceptHandler on_accept);
  void close_listener(std::uint16_t port);

  /// Host feeds received TCP payloads here.
  void on_packet(Ipv4Addr src, Ipv4Addr dst, util::ByteView payload);

  [[nodiscard]] std::size_t active_connections() const { return connections_.size(); }
  /// Lists the net.tcp.* names from the stack's construction on; the
  /// counts are the connections' own.
  void publish(obs::Tallies& out) const;

 private:
  friend class TcpConnection;

  struct FlowKey {
    Ipv4Addr local_ip;
    std::uint16_t local_port;
    Ipv4Addr remote_ip;
    std::uint16_t remote_port;
    friend bool operator==(const FlowKey&, const FlowKey&) = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      std::uint64_t v = (static_cast<std::uint64_t>(k.local_ip.value()) << 32) |
                        k.remote_ip.value();
      v ^= (static_cast<std::uint64_t>(k.local_port) << 48) |
           (static_cast<std::uint64_t>(k.remote_port) << 16);
      return std::hash<std::uint64_t>{}(v);
    }
  };

  bool transmit(Ipv4Addr src, Ipv4Addr dst, const TcpSegment& seg);
  void send_rst(Ipv4Addr src, Ipv4Addr dst, const TcpSegmentView& offending);
  void remove(TcpConnection* conn);
  [[nodiscard]] std::uint16_t ephemeral_port();
  [[nodiscard]] std::uint32_t initial_sequence();

  sim::Simulator& sim_;
  SendIpFn send_ip_;
  TcpConfig config_;
  std::unordered_map<FlowKey, TcpConnectionPtr, FlowKeyHash> connections_;
  std::unordered_map<std::uint16_t, AcceptHandler> listeners_;
  std::uint16_t next_ephemeral_ = 40000;
  // Tracer lifecycle records; connections reach these through the stack
  // (arg packs local<<16|remote port to tell connections apart).
  obs::TraceActorId trace_actor_tcp_;
  obs::TraceNameId trace_syn_sent_;
  obs::TraceNameId trace_established_;
  obs::TraceNameId trace_time_wait_;
  obs::TraceNameId trace_closed_;
  obs::Publication publication_{sim_.stats(), *this};
};

}  // namespace rogue::net
