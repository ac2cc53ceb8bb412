#include "vpn/client.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rogue::vpn {

ClientTunnel::ClientTunnel(net::Host& host, ClientConfig config)
    : host_(host),
      config_(std::move(config)),
      reconnect_rng_(
          host.simulator().derive_rng("vpn.reconnect." + host.name())) {
  data_scope_ = host_.simulator().profiler().intern("vpn.client.data");
  obs::Tracer& tracer = host_.simulator().tracer();
  trace_actor_ = tracer.actor("vpn:" + host_.name());
  trace_session_ = tracer.name("vpn.session");
  trace_rekey_ = tracer.name("vpn.rekey");
  trace_record_bad_ = tracer.name("vpn.record-bad");
}

ClientTunnel::~ClientTunnel() {
  host_.simulator().cancel(timeout_timer_);
  host_.simulator().cancel(retransmit_timer_);
  host_.simulator().cancel(keepalive_timer_);
  host_.simulator().cancel(reconnect_timer_);
  host_.simulator().cancel(rekey_timer_);
}

void ClientTunnel::publish(obs::Tallies& out) const {
  out.counter("vpn.client.records_out", counters_.records_out);
  out.counter("vpn.client.records_in", counters_.records_in);
  out.counter("vpn.client.records_bad", counters_.records_bad);
  out.counter("vpn.client.keepalives_sent", counters_.keepalives_sent);
  out.counter("vpn.client.keepalive_acks", counters_.keepalive_acks);
  out.counter("vpn.client.dead_peer_events", counters_.dead_peer_events);
  out.counter("vpn.client.sessions_established",
              counters_.sessions_established);
  out.counter("vpn.client.reconnects", reconnects());
  out.counter("vpn.client.connect_attempts", counters_.connect_attempts);
  // The resilience tallies join only once non-zero, so snapshots of runs
  // that never replay, forge or rekey keep their exact names.
  out.lazy_counter("vpn.client.records_replayed", counters_.records_replayed);
  out.lazy_counter("vpn.client.records_auth_fail", counters_.records_auth_fail);
  out.lazy_counter("vpn.client.records_stale_epoch",
                   counters_.records_stale_epoch);
  out.lazy_counter("vpn.client.rekeys", counters_.rekeys);
}

void ClientTunnel::start(EstablishedHandler done) {
  done_ = std::move(done);
  done_reported_ = false;
  backoff_ = config_.reconnect_backoff_min;
  begin_attempt();
}

void ClientTunnel::begin_attempt() {
  ++counters_.connect_attempts;
  failed_ = false;
  established_ = false;
  server_authenticated_ = false;
  last_auth_ = {};
  key_epoch_ = 0;
  tx_counter_ = 0;
  epoch_tx_records_ = 0;
  rx_window_ = ReplayWindow(config_.replay_window);
  grace_until_ = 0;
  abandon_rekey();
  host_.simulator().cancel(timeout_timer_);
  host_.simulator().cancel(retransmit_timer_);
  teardown_transport();

  // Pin the endpoint itself to the underlying path so tunnel transport
  // packets do not recurse into the tunnel once the default moves. The
  // pin survives session loss: reconnect handshakes must reach the
  // endpoint even while fail-closed blackholes everything else.
  const auto underlying = host_.routes().lookup(config_.endpoint_ip);
  if (!underlying) {
    attempt_failed();
    return;
  }
  if (!pinned_route_ && underlying->mask.value() != 0xffffffffu) {
    host_.routes().add(net::Route{config_.endpoint_ip,
                                  net::Ipv4Addr(0xffffffffu),
                                  underlying->gateway, underlying->ifname, 0});
    pinned_route_ = true;
  }

  // ClientHello (fresh DH keypair + random per attempt).
  const auto& group = crypto::DhGroup::modp1024();
  dh_ = crypto::DhKeyPair::generate(group, host_.simulator().rng());
  util::Bytes client_random(kRandomLen);
  host_.simulator().rng().fill(client_random);
  client_hello_.clear();
  util::append(client_hello_, client_random);
  const util::Bytes pub = dh_->public_bytes();
  util::append(client_hello_, pub);

  Message hello;
  hello.type = MsgType::kClientHello;
  hello.payload = client_hello_;

  timeout_timer_ = host_.simulator().after(config_.handshake_timeout, [this] {
    if (!established_) attempt_failed();
  });

  if (config_.transport == Transport::kTcp) {
    tcp_ = host_.tcp_connect(config_.endpoint_ip, config_.endpoint_port);
    if (!tcp_) {
      attempt_failed();
      return;
    }
    reader_ = std::make_shared<MessageReader>();
    auto reader = reader_;
    tcp_->set_on_connect([this, hello] { send_message(hello); });
    tcp_->set_on_data([this, reader](util::ByteView data) {
      reader->feed(data);
      while (const auto msg = reader->next()) on_message(*msg);
    });
    tcp_->set_on_close([this] {
      if (established_) {
        ++counters_.dead_peer_events;
        session_lost();
      } else {
        attempt_failed();
      }
    });
  } else {
    udp_ = host_.udp_open(0);
    if (!udp_) {
      attempt_failed();
      return;
    }
    udp_->set_rx([this](net::Ipv4Addr, std::uint16_t, util::ByteView data) {
      const auto msg = Message::from_datagram(data);
      if (msg) on_message(*msg);
    });
    send_message(hello);
    // Handshake datagrams may be lost; retransmit the hello until done.
    retransmit_timer_ = host_.simulator().every(config_.udp_retransmit, [this, hello] {
      if (!established_ && !failed_) send_message(hello);
    });
  }
}

void ClientTunnel::migrate() {
  if (config_.transport != Transport::kUdp || !established_ || !udp_) return;
  // Swap to a fresh ephemeral port; the old socket's destruction is
  // deferred one delta in case a datagram for it is already in flight
  // through our own callbacks.
  host_.simulator().after(0, [old = std::move(udp_)] {});
  udp_ = host_.udp_open(0);
  if (!udp_) return;
  udp_->set_rx([this](net::Ipv4Addr, std::uint16_t, util::ByteView data) {
    const auto msg = Message::from_datagram(data);
    if (msg) on_message(*msg);
  });
}

void ClientTunnel::teardown_transport() {
  // This runs from inside the transport's own rx/close callbacks (a bad
  // auth tag is detected mid on_data). Destroying those std::functions —
  // or the socket that owns them — while one is executing is
  // use-after-free, so detach and abort on the next simulator delta. The
  // handlers that could fire in between are guarded by failed_ /
  // established_, which are already set by the time we get here.
  if (tcp_ || udp_) {
    host_.simulator().after(0, [tcp = std::move(tcp_), udp = std::move(udp_)] {
      if (tcp) {
        tcp->set_on_connect(nullptr);
        tcp->set_on_data(nullptr);
        tcp->set_on_close(nullptr);
        tcp->abort();
      }
    });
    tcp_.reset();
    udp_.reset();
  }
  reader_.reset();
}

void ClientTunnel::send_message(const Message& msg) {
  send_payload(msg.type, msg.payload);
}

void ClientTunnel::send_payload(MsgType type, util::ByteView payload) {
  // Per-record hot path: wire encoding is built in a pooled buffer so
  // steady-state tunnel traffic allocates nothing.
  util::BufferPool& pool = host_.simulator().buffer_pool();
  util::Bytes wire = pool.acquire(5 + payload.size());
  if (config_.transport == Transport::kTcp) {
    if (tcp_) {
      frame_into(type, payload, wire);
      tcp_->send(wire);
    }
  } else {
    if (udp_) {
      datagram_into(type, payload, wire);
      udp_->send_to(config_.endpoint_ip, config_.endpoint_port, wire);
    }
  }
  pool.release(std::move(wire));
}

void ClientTunnel::report_initial(bool ok) {
  if (done_reported_) return;
  done_reported_ = true;
  if (done_) done_(ok);
}

void ClientTunnel::attempt_failed() {
  if (failed_ || established_) return;
  failed_ = true;
  host_.simulator().cancel(timeout_timer_);
  host_.simulator().cancel(retransmit_timer_);
  teardown_transport();
  // Roll back the pinned /32 so a failed start() leaves the routing table
  // exactly as it found it (the pin is only load-bearing while a session
  // exists or a reconnect is pending).
  if (pinned_route_ && !config_.auto_reconnect) {
    host_.routes().remove_host(config_.endpoint_ip);
    pinned_route_ = false;
  }
  report_initial(false);
  if (config_.auto_reconnect) schedule_reconnect();
}

void ClientTunnel::session_lost() {
  if (!established_) return;
  established_ = false;
  host_.simulator().tracer().end(trace_session_, trace_actor_,
                                 obs::TraceLayer::kVpn);
  server_authenticated_ = false;
  host_.simulator().cancel(keepalive_timer_);
  abandon_rekey();
  teardown_transport();
  if (tun_ != nullptr) tun_->set_up(false);
  if (config_.route_all_traffic && config_.fail_open) {
    // Fail open: put the pre-VPN default back so the host keeps working —
    // unprotected. The exposure window is exactly what chaos runs measure.
    host_.routes().remove_by_interface("tun0");
    if (saved_default_) host_.routes().add(*saved_default_);
  }
  if (session_handler_) session_handler_(false);
  if (config_.auto_reconnect) schedule_reconnect();
}

void ClientTunnel::schedule_reconnect() {
  if (host_.simulator().scheduled(reconnect_timer_)) return;
  const sim::Time base = backoff_;
  const sim::Time jitter =
      base >= 2 ? reconnect_rng_.uniform_u64(0, base / 2) : 0;
  backoff_ = std::min(base * 2, config_.reconnect_backoff_max);
  reconnect_timer_ =
      host_.simulator().after(base + jitter, [this] { begin_attempt(); });
}

void ClientTunnel::on_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kServerHello: handle_server_hello(msg); return;
    case MsgType::kAssign: handle_assign(msg); return;
    case MsgType::kData: handle_data(msg); return;
    case MsgType::kKeepaliveAck: handle_keepalive_ack(msg); return;
    case MsgType::kRekeyAck: handle_rekey_ack(msg); return;
    default: return;
  }
}

void ClientTunnel::handle_server_hello(const Message& msg) {
  if (failed_ || established_) return;
  if (server_authenticated_) {
    // Our ClientAuth was probably lost: the server re-answered our
    // retransmitted hello. Resend the auth (it is deterministic).
    if (!last_auth_.payload.empty()) send_message(last_auth_);
    return;
  }
  const auto& group = crypto::DhGroup::modp1024();
  if (msg.payload.size() != kRandomLen + group.byte_len + 32) return;

  const util::ByteView server_random = util::ByteView(msg.payload).subspan(0, kRandomLen);
  const util::ByteView server_public =
      util::ByteView(msg.payload).subspan(kRandomLen, group.byte_len);
  const util::ByteView tag =
      util::ByteView(msg.payload).subspan(kRandomLen + group.byte_len);

  // Endpoint authentication: only the holder of the PSK can compute this.
  // A rogue AP terminating our VPN handshake fails right here (§5.2).
  const crypto::Sha256Digest expected =
      server_auth_tag(config_.psk, client_hello_, server_public);
  if (!util::equal_ct(tag, util::ByteView(expected.data(), expected.size()))) {
    attempt_failed();
    return;
  }
  server_authenticated_ = true;

  const util::Bytes shared = dh_->shared_secret_bytes(server_public);
  if (shared.empty()) {
    attempt_failed();
    return;
  }
  const util::ByteView client_random = util::ByteView(client_hello_).subspan(0, kRandomLen);
  keys_ = derive_keys(config_.psk, shared, client_random, server_random);

  Message auth;
  auth.type = MsgType::kClientAuth;
  const crypto::Sha256Digest tag_out =
      client_auth_tag(config_.psk, client_hello_, server_public);
  auth.payload.assign(tag_out.begin(), tag_out.end());
  last_auth_ = auth;
  send_message(auth);
}

void ClientTunnel::handle_assign(const Message& msg) {
  if (established_ || failed_ || !server_authenticated_) return;
  if (msg.payload.size() != 4) return;
  tunnel_ip_ = net::Ipv4Addr((static_cast<std::uint32_t>(msg.payload[0]) << 24) |
                             (static_cast<std::uint32_t>(msg.payload[1]) << 16) |
                             (static_cast<std::uint32_t>(msg.payload[2]) << 8) |
                             msg.payload[3]);
  established_ = true;
  ++counters_.sessions_established;
  host_.simulator().tracer().begin(trace_session_, trace_actor_,
                                   obs::TraceLayer::kVpn, 0,
                                   counters_.sessions_established);
  host_.simulator().cancel(timeout_timer_);
  host_.simulator().cancel(retransmit_timer_);
  bring_up_tun();
  backoff_ = config_.reconnect_backoff_min;
  last_peer_activity_ = host_.simulator().now();
  epoch_started_ = last_peer_activity_;
  if (config_.auto_reconnect && config_.keepalive_interval > 0) {
    keepalive_timer_ = host_.simulator().every(config_.keepalive_interval,
                                               [this] { on_keepalive_tick(); });
  }
  report_initial(true);
  if (session_handler_) session_handler_(true);
}

void ClientTunnel::bring_up_tun() {
  if (tun_ == nullptr) {
    auto tun = std::make_unique<TunIf>("tun0", [this](util::ByteView pkt) {
      util::BufferPool& pool = host_.simulator().buffer_pool();
      util::Bytes record = pool.acquire(8 + pkt.size() + crypto::kAeadTagLen);
      seal_record_into(keys_.client_to_server, next_tx_seq(), pkt, record);
      counters_.bytes_sealed += pkt.size();
      ++counters_.records_out;
      send_payload(MsgType::kData, record);
      pool.release(std::move(record));
      maybe_rekey();
      return true;
    });
    tun_ = tun.get();
    host_.attach(std::move(tun));
  }
  tun_->set_up(true);
  // Reconnects usually get the previous tunnel address back (the endpoint
  // reuses released IPs), but a different one is possible — reconfigure.
  tun_->configure_ip(tunnel_ip_, net::netmask(32));

  if (config_.route_all_traffic) {
    // The paper's requirement 4: the VPN "must handle all client traffic".
    if (!saved_default_) {
      for (const net::Route& route : host_.routes().entries()) {
        if (route.mask == net::Ipv4Addr::any() && route.ifname != "tun0") {
          saved_default_ = route;
          break;
        }
      }
    }
    host_.routes().remove_default();
    host_.routes().add(net::Route{net::Ipv4Addr::any(), net::Ipv4Addr::any(),
                                  net::Ipv4Addr::any(), "tun0", 50});
  }
}

void ClientTunnel::on_keepalive_tick() {
  if (!established_) return;
  const sim::Time now = host_.simulator().now();
  if (now - last_peer_activity_ >= config_.dead_peer_timeout) {
    ++counters_.dead_peer_events;
    session_lost();
    return;
  }
  static const util::Bytes kProbeBody = {'k', 'a'};
  util::BufferPool& pool = host_.simulator().buffer_pool();
  util::Bytes record = pool.acquire(8 + kProbeBody.size() + crypto::kAeadTagLen);
  seal_record_into(keys_.client_to_server, next_tx_seq(), kProbeBody, record);
  ++counters_.keepalives_sent;
  send_payload(MsgType::kKeepalive, record);
  pool.release(std::move(record));
  maybe_rekey();
}

ClientTunnel::OpenStatus ClientTunnel::open_incoming(util::ByteView record,
                                                     std::uint64_t* seq_out,
                                                     util::Bytes& inner) {
  if (record.size() < 8 + crypto::kAeadTagLen) return OpenStatus::kAuthFail;
  util::ByteReader r(record);
  const std::uint64_t seq = r.u64be();
  if (seq_out != nullptr) *seq_out = seq;
  const std::uint16_t ep = record_epoch(seq);
  const std::uint64_t counter = record_counter(seq);
  const sim::Time now = host_.simulator().now();

  if (ep == key_epoch_) {
    // Window check before the AEAD: a replayed record carries a valid
    // tag, so freshness — not the MAC — is what rejects it.
    if (!rx_window_.check(counter)) return OpenStatus::kReplay;
    if (!open_record_append(keys_.server_to_client, record, seq_out, inner)) {
      return OpenStatus::kAuthFail;
    }
    rx_window_.accept(counter);
    return OpenStatus::kOk;
  }
  if (key_epoch_ > 0 && ep + 1 == key_epoch_ && now < grace_until_) {
    if (!prev_window_.check(counter)) return OpenStatus::kReplay;
    if (!open_record_append(prev_keys_.server_to_client, record, seq_out, inner)) {
      return OpenStatus::kAuthFail;
    }
    prev_window_.accept(counter);
    return OpenStatus::kOk;
  }
  if (rekey_pending_ && ep == key_epoch_ + 1) {
    // The endpoint already switched epochs; its ack may have been lost,
    // but any record that authenticates under the pending keys is equal
    // proof — commit and accept.
    if (!open_record_append(pending_keys_.server_to_client, record, seq_out,
                            inner)) {
      return OpenStatus::kAuthFail;
    }
    commit_rekey();
    rx_window_.accept(counter);
    return OpenStatus::kOk;
  }
  return OpenStatus::kStaleEpoch;
}

void ClientTunnel::record_bad(OpenStatus status) {
  ++counters_.records_bad;
  host_.simulator().tracer().instant(trace_record_bad_, trace_actor_,
                                     obs::TraceLayer::kVpn, 0,
                                     static_cast<std::uint64_t>(status));
  switch (status) {
    case OpenStatus::kReplay: ++counters_.records_replayed; break;
    case OpenStatus::kAuthFail: ++counters_.records_auth_fail; break;
    case OpenStatus::kStaleEpoch: ++counters_.records_stale_epoch; break;
    case OpenStatus::kOk: break;
  }
}

void ClientTunnel::maybe_rekey() {
  if (!established_ || rekey_pending_) return;
  const bool by_count = config_.rekey_after_records > 0 &&
                        epoch_tx_records_ >= config_.rekey_after_records;
  const bool by_time =
      config_.rekey_after_time > 0 &&
      host_.simulator().now() - epoch_started_ >= config_.rekey_after_time;
  if (by_count || by_time) start_rekey();
}

void ClientTunnel::start_rekey() {
  rekey_pending_ = true;
  host_.simulator().tracer().begin(trace_rekey_, trace_actor_,
                                   obs::TraceLayer::kVpn, 0, key_epoch_);
  pending_keys_ = next_epoch_keys(keys_);
  // The proposal itself is an ordinary record of the *current* epoch: it
  // burns one counter and is windowed/authenticated like any other. The
  // exact bytes are retained so retransmits don't burn further counters.
  static const util::Bytes kRekeyBody = {'r', 'k'};
  seal_record_into(keys_.client_to_server, next_tx_seq(), kRekeyBody,
                   pending_rekey_record_);
  send_payload(MsgType::kRekey, pending_rekey_record_);
  rekey_timer_ = host_.simulator().every(config_.rekey_retransmit, [this] {
    if (rekey_pending_ && established_) {
      send_payload(MsgType::kRekey, pending_rekey_record_);
    }
  });
}

void ClientTunnel::commit_rekey() {
  prev_keys_ = std::move(keys_);
  prev_window_ = std::move(rx_window_);
  grace_until_ = host_.simulator().now() + config_.rekey_grace;
  keys_ = std::move(pending_keys_);
  key_epoch_ = static_cast<std::uint16_t>(key_epoch_ + 1);
  tx_counter_ = 0;
  epoch_tx_records_ = 0;
  epoch_started_ = host_.simulator().now();
  rx_window_ = ReplayWindow(config_.replay_window);
  host_.simulator().tracer().end(trace_rekey_, trace_actor_,
                                 obs::TraceLayer::kVpn, 0, key_epoch_);
  abandon_rekey();
  ++counters_.rekeys;
}

void ClientTunnel::abandon_rekey() {
  rekey_pending_ = false;
  pending_rekey_record_.clear();
  host_.simulator().cancel(rekey_timer_);
}

void ClientTunnel::handle_rekey_ack(const Message& msg) {
  if (!established_) return;
  std::uint64_t seq = 0;
  util::BufferPool& pool = host_.simulator().buffer_pool();
  util::Bytes inner = pool.acquire(msg.payload.size());
  // The ack is sealed under the next epoch's s2c key, so the pending-epoch
  // branch of open_incoming both verifies it and commits the rotation.
  const OpenStatus status = open_incoming(msg.payload, &seq, inner);
  pool.release(std::move(inner));
  if (status != OpenStatus::kOk) {
    record_bad(status);
    return;
  }
  last_peer_activity_ = host_.simulator().now();
}

void ClientTunnel::handle_keepalive_ack(const Message& msg) {
  if (!established_) return;
  std::uint64_t seq = 0;
  util::BufferPool& pool = host_.simulator().buffer_pool();
  util::Bytes inner = pool.acquire(msg.payload.size());
  const OpenStatus status = open_incoming(msg.payload, &seq, inner);
  pool.release(std::move(inner));
  if (status != OpenStatus::kOk) {
    record_bad(status);
    return;
  }
  ++counters_.keepalive_acks;
  last_peer_activity_ = host_.simulator().now();
}

void ClientTunnel::handle_data(const Message& msg) {
  if (!established_) return;
  const obs::Profiler::Scope scope(host_.simulator().profiler(), data_scope_);
  ++counters_.records_in;
  std::uint64_t seq = 0;
  util::BufferPool& pool = host_.simulator().buffer_pool();
  util::Bytes inner = pool.acquire(msg.payload.size());
  const OpenStatus status = open_incoming(msg.payload, &seq, inner);
  if (status != OpenStatus::kOk) {
    pool.release(std::move(inner));
    record_bad(status);
    return;
  }
  last_peer_activity_ = host_.simulator().now();
  counters_.bytes_decrypted += inner.size();
  // inject() copies at the L2Frame ownership boundary, so the pooled
  // buffer can be released immediately after.
  tun_->inject(inner);
  pool.release(std::move(inner));
}

}  // namespace rogue::vpn
