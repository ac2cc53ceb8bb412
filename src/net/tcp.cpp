#include "net/tcp.hpp"

#include <algorithm>

#include "net/checksum.hpp"
#include "net/ipv4.hpp"
#include "util/assert.hpp"

namespace rogue::net {

util::Bytes TcpSegment::serialize(Ipv4Addr src, Ipv4Addr dst) const {
  util::Bytes out;
  serialize_into(src, dst, out);
  return out;
}

void TcpSegment::serialize_into(Ipv4Addr src, Ipv4Addr dst, util::Bytes& out) const {
  out.clear();
  out.reserve(20 + payload.size());
  util::ByteWriter w(out);
  w.u16be(sport);
  w.u16be(dport);
  w.u32be(seq);
  w.u32be(ack);
  w.u8(0x50);  // data offset 5 words, no options
  w.u8(flags);
  w.u16be(window);
  w.u16be(0);  // checksum placeholder
  w.u16be(0);  // urgent pointer
  w.raw(payload);
  const std::uint16_t sum = transport_checksum(src, dst, kProtoTcp, out);
  out[16] = static_cast<std::uint8_t>(sum >> 8);
  out[17] = static_cast<std::uint8_t>(sum);
}

std::optional<TcpSegmentView> TcpSegmentView::parse(Ipv4Addr src, Ipv4Addr dst,
                                                    util::ByteView raw) {
  if (raw.size() < 20) return std::nullopt;
  if (transport_checksum(src, dst, kProtoTcp, raw) != 0) return std::nullopt;
  util::ByteReader r(raw);
  TcpSegmentView s;
  s.sport = r.u16be();
  s.dport = r.u16be();
  s.seq = r.u32be();
  s.ack = r.u32be();
  const std::uint8_t offset_words = static_cast<std::uint8_t>(r.u8() >> 4);
  s.flags = r.u8();
  s.window = r.u16be();
  (void)r.u16be();
  (void)r.u16be();
  const std::size_t header_len = static_cast<std::size_t>(offset_words) * 4;
  if (header_len < 20 || header_len > raw.size()) return std::nullopt;
  s.payload = raw.subspan(header_len);
  return s;
}

std::optional<TcpSegment> TcpSegment::parse(Ipv4Addr src, Ipv4Addr dst,
                                            util::ByteView raw) {
  const auto view = TcpSegmentView::parse(src, dst, raw);
  if (!view) return std::nullopt;
  TcpSegment s;
  s.sport = view->sport;
  s.dport = view->dport;
  s.seq = view->seq;
  s.ack = view->ack;
  s.flags = view->flags;
  s.window = view->window;
  s.payload.assign(view->payload.begin(), view->payload.end());
  return s;
}

// ---- TcpConnection ----------------------------------------------------------

TcpConnection::TcpConnection(TcpStack& stack, Ipv4Addr local_ip,
                             std::uint16_t local_port, Ipv4Addr remote_ip,
                             std::uint16_t remote_port)
    : stack_(stack),
      local_ip_(local_ip),
      local_port_(local_port),
      remote_ip_(remote_ip),
      remote_port_(remote_port),
      rto_(stack.config().rto_initial),
      publication_(stack.sim_.stats(), *this) {}

TcpConnection::~TcpConnection() {
  stack_.simulator().cancel(rtx_timer_);
  stack_.simulator().cancel(time_wait_timer_);
}

std::size_t TcpConnection::bytes_in_flight() const { return inflight_.size(); }

void TcpConnection::start_connect() {
  iss_ = stack_.initial_sequence();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  state_ = TcpState::kSynSent;
  stack_.sim_.tracer().instant(stack_.trace_syn_sent_, stack_.trace_actor_tcp_,
                               obs::TraceLayer::kNet, 0,
                               (static_cast<std::uint64_t>(local_port_) << 16) |
                                   remote_port_);
  send_segment(kTcpSyn, iss_, {});
  arm_rtx_timer();
}

void TcpConnection::start_accept(const TcpSegmentView& syn) {
  irs_ = syn.seq;
  rcv_nxt_ = syn.seq + 1;
  peer_window_ = syn.window;
  iss_ = stack_.initial_sequence();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  state_ = TcpState::kSynReceived;
  send_segment(kTcpSyn | kTcpAck, iss_, {});
  arm_rtx_timer();
}

void TcpConnection::send(util::ByteView data) {
  if (finished_ || fin_pending_ || fin_sent_) return;
  stats_.bytes_sent += data.size();
  send_buf_.insert(send_buf_.end(), data.begin(), data.end());
  try_send();
}

void TcpConnection::close() {
  if (finished_ || fin_pending_ || fin_sent_) return;
  fin_pending_ = true;
  try_send();
}

void TcpConnection::abort() {
  if (finished_) return;
  TcpSegment rst;
  rst.flags = kTcpRst | kTcpAck;
  rst.seq = snd_nxt_;
  rst.ack = rcv_nxt_;
  rst.sport = local_port_;
  rst.dport = remote_port_;
  stack_.transmit(local_ip_, remote_ip_, rst);
  finish(true);
}

void TcpConnection::send_segment(std::uint8_t flags, std::uint32_t seq,
                                 util::Bytes payload) {
  TcpSegment s;
  s.sport = local_port_;
  s.dport = remote_port_;
  s.seq = seq;
  s.flags = flags;
  if (state_ != TcpState::kSynSent || (flags & kTcpSyn) == 0) {
    s.flags |= kTcpAck;
    s.ack = rcv_nxt_;
  }
  // The initial SYN carries no ACK.
  if ((flags & kTcpSyn) != 0 && (flags & kTcpAck) == 0) {
    s.flags = kTcpSyn;
    s.ack = 0;
  }
  s.payload = std::move(payload);
  last_ack_sent_ = rcv_nxt_;
  ++stats_.segments_sent;
  stack_.transmit(local_ip_, remote_ip_, s);
}

void TcpConnection::send_ack() { send_segment(kTcpAck, snd_nxt_, {}); }

void TcpConnection::try_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return;
  }
  const std::size_t mss = stack_.config().mss;
  const auto window =
      static_cast<std::size_t>(std::min<double>(cwnd_, peer_window_));
  while (!send_buf_.empty() && inflight_.size() < window) {
    const std::size_t room = window - inflight_.size();
    const std::size_t n = std::min({mss, room, send_buf_.size()});
    if (n == 0) break;
    util::Bytes chunk(send_buf_.begin(),
                      send_buf_.begin() + static_cast<std::ptrdiff_t>(n));
    send_buf_.erase(send_buf_.begin(),
                    send_buf_.begin() + static_cast<std::ptrdiff_t>(n));
    const std::uint32_t seq = snd_nxt_;
    inflight_.insert(inflight_.end(), chunk.begin(), chunk.end());
    snd_nxt_ += static_cast<std::uint32_t>(n);
    if (!rtt_sample_) {
      rtt_sample_ = {snd_nxt_, stack_.simulator().now()};
    }
    send_segment(kTcpPsh, seq, std::move(chunk));
  }
  maybe_send_fin();
  if (inflight_.empty() && !fin_sent_) {
    // Nothing outstanding; timer only needed once data/FIN is in flight.
  } else {
    arm_rtx_timer();
  }
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_ || !send_buf_.empty() || !inflight_.empty()) {
    return;
  }
  // RFC-permitted: FIN may be sent with data outstanding, but draining
  // first keeps the state machine simple and the wire behaviour sane.
  fin_sent_ = true;
  fin_seq_ = snd_nxt_;
  snd_nxt_ = fin_seq_ + 1;
  send_segment(kTcpFin, fin_seq_, {});
  if (state_ == TcpState::kEstablished) {
    state_ = TcpState::kFinWait1;
  } else if (state_ == TcpState::kCloseWait) {
    state_ = TcpState::kLastAck;
  }
  arm_rtx_timer();
}

void TcpConnection::arm_rtx_timer() {
  stack_.simulator().cancel(rtx_timer_);
  std::weak_ptr<TcpConnection> weak = weak_from_this();
  rtx_timer_ = stack_.simulator().after(rto_, [weak] {
    if (const auto self = weak.lock()) self->on_rtx_timeout();
  });
}

void TcpConnection::cancel_rtx_timer() { stack_.simulator().cancel(rtx_timer_); }

void TcpConnection::on_rtx_timeout() {
  if (finished_) return;
  ++stats_.rto_events;
  ++consecutive_rtx_;

  const bool connecting =
      state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived;
  const unsigned limit = connecting ? stack_.config().syn_retries
                                    : stack_.config().max_retransmits;
  if (consecutive_rtx_ > limit) {
    finish(true);
    return;
  }

  rtt_sample_.reset();  // Karn: never sample a retransmitted segment
  const std::size_t mss = stack_.config().mss;
  ssthresh_ = std::max(static_cast<double>(inflight_.size()) / 2.0,
                       2.0 * static_cast<double>(mss));
  cwnd_ = static_cast<double>(mss);
  rto_ = std::min<sim::Time>(rto_ * 2, stack_.config().rto_max);

  ++stats_.retransmits;
  if (state_ == TcpState::kSynSent) {
    send_segment(kTcpSyn, iss_, {});
  } else if (state_ == TcpState::kSynReceived) {
    send_segment(kTcpSyn | kTcpAck, iss_, {});
  } else if (!inflight_.empty()) {
    const std::size_t n = std::min(mss, inflight_.size());
    util::Bytes chunk(inflight_.begin(),
                      inflight_.begin() + static_cast<std::ptrdiff_t>(n));
    send_segment(kTcpPsh, snd_una_, std::move(chunk));
  } else if (fin_sent_) {
    send_segment(kTcpFin, fin_seq_, {});
  }
  arm_rtx_timer();
}

void TcpConnection::on_segment(const TcpSegmentView& seg) {
  if (finished_) return;
  ++stats_.segments_received;
  peer_window_ = seg.window;

  if (seg.has(kTcpRst)) {
    finish(true);
    return;
  }

  if (state_ == TcpState::kSynSent) {
    if (seg.has(kTcpSyn) && seg.has(kTcpAck) && seg.ack == snd_nxt_) {
      snd_una_ = seg.ack;
      irs_ = seg.seq;
      rcv_nxt_ = seg.seq + 1;
      consecutive_rtx_ = 0;
      rto_ = stack_.config().rto_initial;
      cancel_rtx_timer();
      state_ = TcpState::kEstablished;
      stack_.sim_.tracer().instant(
          stack_.trace_established_, stack_.trace_actor_tcp_,
          obs::TraceLayer::kNet, 0,
          (static_cast<std::uint64_t>(local_port_) << 16) | remote_port_);
      cwnd_ = static_cast<double>(stack_.config().initial_window_segments *
                                  stack_.config().mss);
      send_ack();
      if (on_connect_) on_connect_();
      try_send();
    }
    return;
  }

  if (state_ == TcpState::kSynReceived) {
    if (seg.has(kTcpAck) && seg.ack == snd_nxt_) {
      snd_una_ = seg.ack;
      consecutive_rtx_ = 0;
      cancel_rtx_timer();
      state_ = TcpState::kEstablished;
      stack_.sim_.tracer().instant(
          stack_.trace_established_, stack_.trace_actor_tcp_,
          obs::TraceLayer::kNet, 0,
          (static_cast<std::uint64_t>(local_port_) << 16) | remote_port_);
      cwnd_ = static_cast<double>(stack_.config().initial_window_segments *
                                  stack_.config().mss);
      if (on_connect_) on_connect_();
      // Fall through: the ACK may carry data.
    } else if (seg.has(kTcpSyn)) {
      // Duplicate SYN: re-answer.
      send_segment(kTcpSyn | kTcpAck, iss_, {});
      return;
    } else {
      return;
    }
  }

  if (seg.has(kTcpAck)) process_ack(seg);
  if (finished_) return;
  if (!seg.payload.empty() || seg.has(kTcpFin)) process_payload(seg);
}

void TcpConnection::process_ack(const TcpSegmentView& seg) {
  const std::uint32_t ack = seg.ack;

  if (seq_lt(snd_una_, ack) && seq_le(ack, snd_nxt_)) {
    // New data acknowledged.
    const std::uint32_t inflight_end =
        snd_una_ + static_cast<std::uint32_t>(inflight_.size());
    const std::uint32_t data_acked =
        seq_le(ack, inflight_end) ? ack - snd_una_ : inflight_end - snd_una_;
    inflight_.erase(inflight_.begin(),
                    inflight_.begin() + static_cast<std::ptrdiff_t>(data_acked));
    stats_.bytes_acked += data_acked;
    snd_una_ = ack;
    consecutive_rtx_ = 0;
    dup_ack_count_ = 0;
    // Forward progress unwinds exponential RTO backoff (Linux-style);
    // without this a loss streak strands the flow at rto_max forever.
    if (srtt_valid_) {
      const double rto_us = srtt_us_ + std::max(4.0 * rttvar_us_, 1000.0);
      rto_ = std::clamp(static_cast<sim::Time>(rto_us),
                        stack_.config().rto_min, stack_.config().rto_max);
    } else {
      rto_ = stack_.config().rto_initial;
    }

    if (rtt_sample_ && seq_le(rtt_sample_->first, ack)) {
      const double rtt =
          static_cast<double>(stack_.simulator().now() - rtt_sample_->second);
      rtt_sample_.reset();
      if (!srtt_valid_) {
        srtt_us_ = rtt;
        rttvar_us_ = rtt / 2.0;
        srtt_valid_ = true;
      } else {
        const double err = rtt - srtt_us_;
        srtt_us_ += 0.125 * err;
        rttvar_us_ += 0.25 * (std::abs(err) - rttvar_us_);
      }
      const double rto_us = srtt_us_ + std::max(4.0 * rttvar_us_, 1000.0);
      rto_ = std::clamp(static_cast<sim::Time>(rto_us),
                        stack_.config().rto_min, stack_.config().rto_max);
    }

    // Congestion window growth.
    const auto mss = static_cast<double>(stack_.config().mss);
    if (cwnd_ < ssthresh_) {
      cwnd_ += mss;  // slow start
    } else {
      cwnd_ += mss * mss / cwnd_;  // congestion avoidance
    }

    // FIN acknowledged?
    if (fin_sent_ && ack == fin_seq_ + 1) {
      if (state_ == TcpState::kFinWait1) {
        state_ = TcpState::kFinWait2;
      } else if (state_ == TcpState::kClosing) {
        enter_time_wait();
      } else if (state_ == TcpState::kLastAck) {
        finish(true);
        return;
      }
    }

    if (inflight_.empty() && (!fin_sent_ || ack == fin_seq_ + 1)) {
      cancel_rtx_timer();
    } else {
      arm_rtx_timer();
    }
    try_send();
    return;
  }

  if (ack == snd_una_ && !inflight_.empty() && seg.payload.empty() &&
      !seg.has(kTcpSyn) && !seg.has(kTcpFin)) {
    ++stats_.dup_acks;
    if (++dup_ack_count_ == 3) {
      // Fast retransmit.
      ++stats_.fast_retransmits;
      ++stats_.retransmits;
      const auto mss = static_cast<double>(stack_.config().mss);
      ssthresh_ = std::max(static_cast<double>(inflight_.size()) / 2.0, 2.0 * mss);
      cwnd_ = ssthresh_;
      const std::size_t n = std::min(stack_.config().mss, inflight_.size());
      util::Bytes chunk(inflight_.begin(),
                        inflight_.begin() + static_cast<std::ptrdiff_t>(n));
      send_segment(kTcpPsh, snd_una_, std::move(chunk));
      arm_rtx_timer();
    }
  }
}

void TcpConnection::process_payload(const TcpSegmentView& seg) {
  std::uint32_t seq = seg.seq;
  util::ByteView data(seg.payload);

  // Trim already-received prefix.
  if (seq_lt(seq, rcv_nxt_)) {
    const std::uint32_t overlap = rcv_nxt_ - seq;
    if (overlap >= data.size() && !seg.has(kTcpFin)) {
      send_ack();  // pure duplicate
      return;
    }
    if (overlap >= data.size()) {
      data = {};
      seq = rcv_nxt_;
    } else {
      data = data.subspan(overlap);
      seq = rcv_nxt_;
    }
  }

  if (seq == rcv_nxt_) {
    if (!data.empty()) {
      rcv_nxt_ += static_cast<std::uint32_t>(data.size());
      stats_.bytes_received += data.size();
      if (on_data_) on_data_(data);
      if (finished_) return;
      // Drain any contiguous out-of-order segments.
      auto it = out_of_order_.begin();
      while (it != out_of_order_.end() && seq_le(it->first, rcv_nxt_)) {
        const std::uint32_t start = it->first;
        const util::Bytes buffered = std::move(it->second);
        it = out_of_order_.erase(it);
        if (seq_lt(start + static_cast<std::uint32_t>(buffered.size()), rcv_nxt_) ||
            start + static_cast<std::uint32_t>(buffered.size()) == rcv_nxt_) {
          continue;  // fully duplicate
        }
        const std::uint32_t skip = rcv_nxt_ - start;
        const util::ByteView tail =
            util::ByteView(buffered).subspan(skip);
        rcv_nxt_ += static_cast<std::uint32_t>(tail.size());
        stats_.bytes_received += tail.size();
        if (on_data_) on_data_(tail);
        if (finished_) return;
        it = out_of_order_.begin();
      }
    }

    // FIN processing (only once all data before it is consumed).
    if (seg.has(kTcpFin)) {
      const std::uint32_t fin_seq = seg.seq + static_cast<std::uint32_t>(seg.payload.size());
      if (fin_seq == rcv_nxt_) {
        rcv_nxt_ += 1;
        send_ack();
        switch (state_) {
          case TcpState::kEstablished:
            state_ = TcpState::kCloseWait;
            notify_close();
            break;
          case TcpState::kFinWait1:
            state_ = TcpState::kClosing;
            break;
          case TcpState::kFinWait2:
            enter_time_wait();
            break;
          default:
            break;
        }
        return;
      }
    }
    send_ack();
    return;
  }

  // Future segment: buffer and send a duplicate ACK.
  if (!data.empty() && out_of_order_.size() < 256) {
    out_of_order_.emplace(seq, util::Bytes(data.begin(), data.end()));
    ++stats_.reassembly_buffered;
  }
  send_ack();
}

void TcpConnection::enter_time_wait() {
  if (state_ == TcpState::kTimeWait) return;
  state_ = TcpState::kTimeWait;
  stack_.sim_.tracer().instant(stack_.trace_time_wait_, stack_.trace_actor_tcp_,
                               obs::TraceLayer::kNet, 0,
                               (static_cast<std::uint64_t>(local_port_) << 16) |
                                   remote_port_);
  cancel_rtx_timer();
  std::weak_ptr<TcpConnection> weak = weak_from_this();
  time_wait_timer_ = stack_.simulator().after(stack_.config().time_wait, [weak] {
    if (const auto self = weak.lock()) self->finish(false);
  });
  notify_close();
}

void TcpConnection::notify_close() {
  if (close_notified_) return;
  close_notified_ = true;
  if (on_close_) on_close_();
}

void TcpConnection::finish(bool notify) {
  if (finished_) return;
  finished_ = true;
  cancel_rtx_timer();
  stack_.simulator().cancel(time_wait_timer_);
  state_ = TcpState::kClosed;
  stack_.sim_.tracer().instant(stack_.trace_closed_, stack_.trace_actor_tcp_,
                               obs::TraceLayer::kNet, 0,
                               (static_cast<std::uint64_t>(local_port_) << 16) |
                                   remote_port_);
  if (notify) notify_close();
  // Handlers routinely capture this connection's own shared_ptr (both the
  // tests and the apps do), which would form a reference cycle and leak
  // the connection. Hand them to the simulator to destroy instead of
  // dropping them here: finish() may be running *inside* one of these
  // handlers, and destroying an executing closure is not an option. The
  // no-op event releases them from the run loop (or the simulator's own
  // teardown), where no connection callback is on the stack.
  stack_.simulator().after(0, [data = std::move(on_data_),
                              connect = std::move(on_connect_),
                              close = std::move(on_close_)] {});
  on_data_ = nullptr;
  on_connect_ = nullptr;
  on_close_ = nullptr;
  stack_.remove(this);
}

namespace {
void publish_stats(obs::Tallies& out, const TcpStats& s) {
  out.counter("net.tcp.segments_sent", s.segments_sent);
  out.counter("net.tcp.segments_received", s.segments_received);
  out.counter("net.tcp.retransmits", s.retransmits);
  out.counter("net.tcp.rto_events", s.rto_events);
  out.counter("net.tcp.fast_retransmits", s.fast_retransmits);
  out.counter("net.tcp.dup_acks", s.dup_acks);
  out.counter("net.tcp.reassembly_buffered", s.reassembly_buffered);
}
}  // namespace

void TcpConnection::publish(obs::Tallies& out) const {
  publish_stats(out, stats_);
}

// ---- TcpStack ---------------------------------------------------------------

void TcpStack::publish(obs::Tallies& out) const {
  publish_stats(out, TcpStats{});
}

TcpStack::TcpStack(sim::Simulator& simulator, SendIpFn send_ip, TcpConfig config)
    : sim_(simulator), send_ip_(std::move(send_ip)), config_(config) {
  obs::Tracer& tracer = sim_.tracer();
  trace_actor_tcp_ = tracer.actor("tcp");
  trace_syn_sent_ = tracer.name("net.tcp.syn-sent");
  trace_established_ = tracer.name("net.tcp.established");
  trace_time_wait_ = tracer.name("net.tcp.time-wait");
  trace_closed_ = tracer.name("net.tcp.closed");
}

TcpStack::~TcpStack() {
  // Connections abandoned mid-stream may be kept alive solely by the
  // handler-capture cycles described in finish(); break them so teardown
  // reclaims everything. No callback is executing during stack teardown,
  // so dropping the handlers directly is safe here.
  for (auto& [key, conn] : connections_) {
    conn->on_data_ = nullptr;
    conn->on_connect_ = nullptr;
    conn->on_close_ = nullptr;
  }
}

std::uint16_t TcpStack::ephemeral_port() {
  // Linear probe; fine at simulation scale.
  for (int tries = 0; tries < 65536; ++tries) {
    const std::uint16_t p = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 60999 ? 40000
                                               : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    bool taken = false;
    for (const auto& [key, conn] : connections_) {
      if (key.local_port == p) {
        taken = true;
        break;
      }
    }
    if (!taken) return p;
  }
  ROGUE_ASSERT_MSG(false, "ephemeral port space exhausted");
  return 0;
}

std::uint32_t TcpStack::initial_sequence() {
  return static_cast<std::uint32_t>(sim_.rng().next());
}

TcpConnectionPtr TcpStack::connect(Ipv4Addr local_ip, Ipv4Addr remote_ip,
                                   std::uint16_t remote_port) {
  const std::uint16_t local_port = ephemeral_port();
  auto conn = TcpConnectionPtr(
      new TcpConnection(*this, local_ip, local_port, remote_ip, remote_port));
  connections_[FlowKey{local_ip, local_port, remote_ip, remote_port}] = conn;
  conn->start_connect();
  return conn;
}

bool TcpStack::listen(std::uint16_t port, AcceptHandler on_accept) {
  if (listeners_.contains(port)) return false;
  listeners_[port] = std::move(on_accept);
  return true;
}

void TcpStack::close_listener(std::uint16_t port) { listeners_.erase(port); }

bool TcpStack::transmit(Ipv4Addr src, Ipv4Addr dst, const TcpSegment& seg) {
  // Segment construction is the TCP hot path: build the wire bytes in a
  // pooled buffer and recycle it as soon as the IP layer has copied them.
  util::Bytes raw = sim_.buffer_pool().acquire(20 + seg.payload.size());
  seg.serialize_into(src, dst, raw);
  const bool sent = send_ip_(dst, kProtoTcp, raw);
  sim_.buffer_pool().release(std::move(raw));
  return sent;
}

void TcpStack::send_rst(Ipv4Addr src, Ipv4Addr dst,
                        const TcpSegmentView& offending) {
  if (offending.has(kTcpRst)) return;
  TcpSegment rst;
  rst.sport = offending.dport;
  rst.dport = offending.sport;
  rst.flags = kTcpRst | kTcpAck;
  rst.seq = offending.has(kTcpAck) ? offending.ack : 0;
  rst.ack = offending.seq + static_cast<std::uint32_t>(offending.payload.size()) +
            (offending.has(kTcpSyn) ? 1 : 0) + (offending.has(kTcpFin) ? 1 : 0);
  transmit(src, dst, rst);
}

void TcpStack::on_packet(Ipv4Addr src, Ipv4Addr dst, util::ByteView payload) {
  const auto seg = TcpSegmentView::parse(src, dst, payload);
  if (!seg) return;

  const FlowKey key{dst, seg->dport, src, seg->sport};
  if (const auto it = connections_.find(key); it != connections_.end()) {
    const TcpConnectionPtr conn = it->second;  // keep alive during dispatch
    conn->on_segment(*seg);
    return;
  }

  if (seg->has(kTcpSyn) && !seg->has(kTcpAck)) {
    const auto listener = listeners_.find(seg->dport);
    if (listener != listeners_.end()) {
      auto conn = TcpConnectionPtr(
          new TcpConnection(*this, dst, seg->dport, src, seg->sport));
      connections_[key] = conn;
      listener->second(conn);  // app wires callbacks before handshake done
      conn->start_accept(*seg);
      return;
    }
  }
  send_rst(dst, src, *seg);
}

void TcpStack::remove(TcpConnection* conn) {
  const FlowKey key{conn->local_ip(), conn->local_port(), conn->remote_ip(),
                    conn->remote_port()};
  connections_.erase(key);
}

}  // namespace rogue::net
