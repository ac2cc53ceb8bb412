#include "vpn/endpoint.hpp"

#include "util/assert.hpp"

namespace rogue::vpn {

namespace {
/// Period of the lazy UDP-session reaper; only runs while sessions exist.
constexpr sim::Time kReapPeriod = 1 * sim::kSecond;
}  // namespace

Endpoint::Endpoint(net::Host& host, EndpointConfig config)
    : host_(host), config_(std::move(config)) {
  data_scope_ = host_.simulator().profiler().intern("vpn.endpoint.data");
}

Endpoint::~Endpoint() { host_.simulator().cancel(reap_timer_); }

void Endpoint::publish(obs::Tallies& out) const {
  out.counter("vpn.endpoint.sessions_established",
              counters_.sessions_established);
  out.counter("vpn.endpoint.auth_failures", counters_.auth_failures);
  out.counter("vpn.endpoint.records_in", counters_.records_in);
  out.counter("vpn.endpoint.records_out", counters_.records_out);
  out.counter("vpn.endpoint.records_bad", counters_.records_bad);
  out.counter("vpn.endpoint.keepalives_in", counters_.keepalives_in);
  // The resilience tallies and the UDP session gauge join only once
  // non-zero, so snapshots of TCP-only and clean runs keep their names.
  out.lazy_counter("vpn.endpoint.records_replayed", counters_.records_replayed);
  out.lazy_counter("vpn.endpoint.records_auth_fail",
                   counters_.records_auth_fail);
  out.lazy_counter("vpn.endpoint.records_spoofed_src",
                   counters_.records_spoofed_src);
  out.lazy_counter("vpn.endpoint.records_stale_epoch",
                   counters_.records_stale_epoch);
  out.lazy_counter("vpn.endpoint.rekeys", counters_.rekeys);
  out.lazy_counter("vpn.endpoint.roams", counters_.roams);
  out.lazy_counter("vpn.endpoint.sessions_reaped", counters_.sessions_reaped);
  out.gauge("vpn.endpoint.sessions_active", udp_sessions_.size());
}

void Endpoint::start() {
  if (running_) return;
  running_ = true;
  ++epoch_;

  if (!plumbed_) {
    plumbed_ = true;
    // tun device: return traffic for the tunnel network lands here.
    auto tun = std::make_unique<TunIf>(
        "vpn-tun", [this](util::ByteView pkt) { return tun_transmit(pkt); });
    tun_ = tun.get();
    host_.attach(std::move(tun));
    // The tun itself holds the network's .1 address.
    const net::Ipv4Addr tun_ip(config_.tunnel_network.value() | 1u);
    host_.interface("vpn-tun")->configure_ip(tun_ip,
                                             net::netmask(config_.tunnel_prefix));
    host_.routes().add(net::Route{config_.tunnel_network,
                                  net::netmask(config_.tunnel_prefix),
                                  net::Ipv4Addr::any(), "vpn-tun", 0});
    host_.set_ip_forward(true);

    if (config_.snat_to_wire) {
      const net::NetIf* egress = host_.interface(config_.egress_ifname);
      ROGUE_ASSERT_MSG(egress != nullptr, "VPN endpoint: egress interface missing");
      net::Rule snat;
      snat.match.src = config_.tunnel_network;
      snat.match.src_mask = net::netmask(config_.tunnel_prefix);
      snat.match.out_iface = config_.egress_ifname;
      snat.target = net::RuleTarget::kSnat;
      snat.nat_ip = egress->ip();
      host_.netfilter().append(net::Hook::kPostrouting, snat);
    }
  }
  tun_->set_up(true);

  host_.tcp_listen(config_.port,
                   [this](net::TcpConnectionPtr conn) { on_tcp_accept(conn); });

  udp_ = host_.udp_open(config_.port);
  ROGUE_ASSERT_MSG(udp_ != nullptr, "VPN endpoint: UDP port taken");
  udp_->set_rx([this](net::Ipv4Addr src, std::uint16_t sport, util::ByteView data) {
    on_udp_datagram(src, sport, data);
  });
}

void Endpoint::stop() {
  if (!running_) return;
  running_ = false;
  ++epoch_;
  host_.tcp().close_listener(config_.port);
  udp_.reset();
  udp_sessions_.clear();
  by_tunnel_ip_.clear();
  host_.simulator().cancel(reap_timer_);
  reap_scheduled_ = false;
  // A restarted endpoint hands out addresses from the top of the pool
  // again, so the first client back gets its old tunnel IP and stalled
  // flows pinned to it resume.
  free_tunnel_ips_.clear();
  next_host_id_ = 2;
  if (tun_ != nullptr) tun_->set_up(false);
}

std::optional<net::Ipv4Addr> Endpoint::allocate_tunnel_ip() {
  // Prefer recently released addresses: a client that dropped its session
  // and re-handshakes gets the same tunnel IP back, which keeps transport
  // connections that survived the gap (stalled, not closed) usable.
  if (!free_tunnel_ips_.empty()) {
    const net::Ipv4Addr ip = free_tunnel_ips_.back();
    free_tunnel_ips_.pop_back();
    return ip;
  }
  const std::uint32_t host_bits = 32 - config_.tunnel_prefix;
  if (next_host_id_ >= (1u << host_bits) - 1) return std::nullopt;
  return net::Ipv4Addr(config_.tunnel_network.value() | next_host_id_++);
}

void Endpoint::on_tcp_accept(net::TcpConnectionPtr conn) {
  if (!running_) return;
  auto session = std::make_shared<Session>();
  session->epoch = epoch_;
  session->rx_window = ReplayWindow(config_.replay_window);
  std::weak_ptr<net::TcpConnection> weak = conn;
  session->send = [this, weak](MsgType type, util::ByteView payload) {
    if (const auto c = weak.lock()) {
      util::BufferPool& pool = host_.simulator().buffer_pool();
      util::Bytes wire = pool.acquire(5 + payload.size());
      frame_into(type, payload, wire);
      c->send(wire);
      pool.release(std::move(wire));
    }
  };

  auto reader = std::make_shared<MessageReader>();
  conn->set_on_data([this, session, reader](util::ByteView data) {
    reader->feed(data);
    while (const auto msg = reader->next()) {
      handle_message(session, *msg);
    }
  });
  conn->set_on_close([this, session] {
    if (session->established && session->epoch == epoch_) {
      by_tunnel_ip_.erase(session->tunnel_ip);
      free_tunnel_ips_.push_back(session->tunnel_ip);
    }
  });
}

void Endpoint::on_udp_datagram(net::Ipv4Addr src, std::uint16_t sport,
                               util::ByteView data) {
  const auto msg = Message::from_datagram(data);
  if (!msg) return;

  if (!running_) return;
  const UdpKey key{src, sport};
  const auto it = udp_sessions_.find(key);
  if (it != udp_sessions_.end()) {
    handle_message(it->second, *msg);
    return;
  }
  // Unknown (addr, port). Only a ClientHello creates session state —
  // anything else is either a roaming client (re-bind on trial auth) or
  // noise; creating sessions for arbitrary datagrams is how the old
  // udp_sessions_ table leaked.
  if (msg->type == MsgType::kClientHello) {
    auto session = std::make_shared<Session>();
    session->epoch = epoch_;
    session->rx_window = ReplayWindow(config_.replay_window);
    session->via_udp = true;
    session->udp_key = key;
    session->created_at = host_.simulator().now();
    session->last_activity = session->created_at;
    auto socket = udp_;
    // The raw pointer is owned by the session holding this closure; the
    // indirection through udp_key is what lets a roam re-target the reply
    // path without rebuilding the closure.
    Session* raw = session.get();
    session->send = [this, socket, raw](MsgType type, util::ByteView payload) {
      util::BufferPool& pool = host_.simulator().buffer_pool();
      util::Bytes wire = pool.acquire(1 + payload.size());
      datagram_into(type, payload, wire);
      socket->send_to(raw->udp_key.first, raw->udp_key.second, wire);
      pool.release(std::move(wire));
    };
    udp_sessions_.emplace(key, session);
    schedule_reap();
    handle_message(session, *msg);
    return;
  }
  if (msg->type == MsgType::kData || msg->type == MsgType::kKeepalive ||
      msg->type == MsgType::kRekey) {
    try_roam(key, *msg);
  }
}

bool Endpoint::trial_authenticates(Session& s, util::ByteView record) {
  if (record.size() < 8 + crypto::kAeadTagLen) return false;
  util::ByteReader r(record);
  const std::uint64_t seq = r.u64be();
  const std::uint16_t ep = record_epoch(seq);
  const std::uint64_t counter = record_counter(seq);
  const sim::Time now = host_.simulator().now();
  const SessionKeys* keys = nullptr;
  const ReplayWindow* window = nullptr;
  if (ep == s.key_epoch) {
    keys = &s.keys;
    window = &s.rx_window;
  } else if (ep + 1 == s.key_epoch && now < s.grace_until) {
    keys = &s.prev_keys;
    window = &s.prev_window;
  } else {
    return false;
  }
  // A replayed-but-authentic record must NOT trigger a re-bind, or a
  // captured datagram replayed from an attacker address would steal the
  // session's reply path.
  if (!window->check(counter)) return false;
  util::BufferPool& pool = host_.simulator().buffer_pool();
  util::Bytes scratch = pool.acquire(record.size());
  std::uint64_t seq_out = 0;
  const bool ok = open_record_append(keys->client_to_server, record, &seq_out, scratch);
  pool.release(std::move(scratch));
  return ok;
}

void Endpoint::try_roam(const UdpKey& key, const Message& msg) {
  // WireGuard-style path migration: an established client whose source
  // address changed keeps its session iff the record authenticates.
  SessionPtr roamed;
  for (auto& [old_key, session] : udp_sessions_) {
    if (!session->established || session->epoch != epoch_) continue;
    if (trial_authenticates(*session, msg.payload)) {
      roamed = session;
      break;
    }
  }
  if (!roamed) {
    ++counters_.records_spoofed_src;
    ++counters_.records_bad;
    return;
  }
  udp_sessions_.erase(roamed->udp_key);
  roamed->udp_key = key;
  udp_sessions_.emplace(key, roamed);
  ++counters_.roams;
  handle_message(roamed, msg);
}

void Endpoint::schedule_reap() {
  if (reap_scheduled_ || udp_sessions_.empty()) return;
  reap_scheduled_ = true;
  reap_timer_ = host_.simulator().after(kReapPeriod, [this] {
    reap_scheduled_ = false;
    reap_sessions();
  });
}

void Endpoint::reap_sessions() {
  const sim::Time now = host_.simulator().now();
  for (auto it = udp_sessions_.begin(); it != udp_sessions_.end();) {
    Session& s = *it->second;
    bool dead = s.epoch != epoch_;
    if (!dead && !s.established) {
      dead = config_.handshake_timeout > 0 &&
             now - s.created_at >= config_.handshake_timeout;
    } else if (!dead) {
      dead = config_.idle_timeout > 0 &&
             now - s.last_activity >= config_.idle_timeout;
    }
    if (dead) {
      if (s.established && s.epoch == epoch_) {
        by_tunnel_ip_.erase(s.tunnel_ip);
        free_tunnel_ips_.push_back(s.tunnel_ip);
      }
      ++counters_.sessions_reaped;
      it = udp_sessions_.erase(it);
    } else {
      ++it;
    }
  }
  if (running_) schedule_reap();
}

void Endpoint::handle_message(const SessionPtr& session, const Message& msg) {
  if (!running_ || session->epoch != epoch_) return;
  switch (msg.type) {
    case MsgType::kClientHello:
      handle_client_hello(session, msg);
      return;
    case MsgType::kClientAuth:
      handle_client_auth(session, msg);
      return;
    case MsgType::kData:
      handle_data(session, msg);
      return;
    case MsgType::kKeepalive:
      handle_keepalive(session, msg);
      return;
    case MsgType::kRekey:
      handle_rekey(session, msg);
      return;
    default:
      return;
  }
}

void Endpoint::handle_client_hello(const SessionPtr& session, const Message& msg) {
  const auto& group = crypto::DhGroup::modp1024();
  if (msg.payload.size() != kRandomLen + group.byte_len) return;
  // Idempotence under datagram loss: a retransmitted identical hello must
  // get the *same* ServerHello back, or the client (already committed to
  // our first reply) can never complete the handshake.
  if (!session->hello_reply.empty() &&
      session->client_hello.size() >= msg.payload.size() &&
      std::equal(msg.payload.begin(), msg.payload.end(),
                 session->client_hello.begin())) {
    session->send(MsgType::kServerHello, session->hello_reply);
    return;
  }
  session->client_hello = msg.payload;

  session->dh = crypto::DhKeyPair::generate(group, host_.simulator().rng());
  const util::Bytes server_public = session->dh->public_bytes();

  util::Bytes server_random(kRandomLen);
  host_.simulator().rng().fill(server_random);

  const util::ByteView client_random =
      util::ByteView(session->client_hello).subspan(0, kRandomLen);
  const util::ByteView client_public =
      util::ByteView(session->client_hello).subspan(kRandomLen);
  const util::Bytes shared = session->dh->shared_secret_bytes(client_public);
  if (shared.empty()) return;  // degenerate public value

  session->keys = derive_keys(config_.psk, shared, client_random, server_random);

  const crypto::Sha256Digest tag =
      server_auth_tag(config_.psk, session->client_hello, server_public);

  session->hello_reply.clear();
  util::ByteWriter w(session->hello_reply);
  w.raw(server_random);
  w.raw(server_public);
  w.raw(util::ByteView(tag.data(), tag.size()));
  // Stash server_public for verifying the client's auth tag.
  session->client_hello.insert(session->client_hello.end(), server_public.begin(),
                               server_public.end());
  session->send(MsgType::kServerHello, session->hello_reply);
}

void Endpoint::handle_client_auth(const SessionPtr& session, const Message& msg) {
  if (session->established) {
    // Duplicate auth after our Assign was lost: resend it.
    if (!session->assign_reply.empty()) {
      session->send(MsgType::kAssign, session->assign_reply);
    }
    return;
  }
  if (session->client_hello.empty()) return;
  const auto& group = crypto::DhGroup::modp1024();
  const std::size_t hello_len = kRandomLen + group.byte_len;
  if (session->client_hello.size() != hello_len + group.byte_len) return;

  const util::ByteView hello =
      util::ByteView(session->client_hello).subspan(0, hello_len);
  const util::ByteView server_public =
      util::ByteView(session->client_hello).subspan(hello_len);
  const crypto::Sha256Digest expected =
      client_auth_tag(config_.psk, hello, server_public);
  if (!util::equal_ct(msg.payload, util::ByteView(expected.data(), expected.size()))) {
    ++counters_.auth_failures;
    return;
  }

  const auto tunnel_ip = allocate_tunnel_ip();
  if (!tunnel_ip) return;
  session->tunnel_ip = *tunnel_ip;
  session->established = true;
  session->last_activity = host_.simulator().now();
  by_tunnel_ip_[*tunnel_ip] = session;
  ++counters_.sessions_established;

  session->assign_reply.clear();
  util::ByteWriter w(session->assign_reply);
  w.u32be(tunnel_ip->value());
  session->send(MsgType::kAssign, session->assign_reply);
}

Endpoint::OpenStatus Endpoint::open_session_record(Session& s, util::ByteView record,
                                                   std::uint64_t* seq_out,
                                                   util::Bytes& inner) {
  if (record.size() < 8 + crypto::kAeadTagLen) return OpenStatus::kAuthFail;
  util::ByteReader r(record);
  const std::uint64_t seq = r.u64be();
  if (seq_out != nullptr) *seq_out = seq;
  const std::uint16_t ep = record_epoch(seq);
  const std::uint64_t counter = record_counter(seq);
  const sim::Time now = host_.simulator().now();

  SessionKeys* keys = nullptr;
  ReplayWindow* window = nullptr;
  if (ep == s.key_epoch) {
    keys = &s.keys;
    window = &s.rx_window;
  } else if (ep + 1 == s.key_epoch && now < s.grace_until) {
    keys = &s.prev_keys;
    window = &s.prev_window;
  } else {
    return OpenStatus::kStaleEpoch;
  }
  // Window check before the AEAD: a replayed record carries a valid tag,
  // so freshness — not the MAC — is what rejects it.
  if (!window->check(counter)) return OpenStatus::kReplay;
  if (!open_record_append(keys->client_to_server, record, seq_out, inner)) {
    return OpenStatus::kAuthFail;
  }
  window->accept(counter);
  return OpenStatus::kOk;
}

void Endpoint::record_bad(OpenStatus status) {
  ++counters_.records_bad;
  switch (status) {
    case OpenStatus::kReplay: ++counters_.records_replayed; break;
    case OpenStatus::kAuthFail: ++counters_.records_auth_fail; break;
    case OpenStatus::kStaleEpoch: ++counters_.records_stale_epoch; break;
    case OpenStatus::kSpoofedSrc: ++counters_.records_spoofed_src; break;
    case OpenStatus::kOk: break;
  }
}

void Endpoint::handle_data(const SessionPtr& session, const Message& msg) {
  if (!session->established) return;
  const obs::Profiler::Scope scope(host_.simulator().profiler(), data_scope_);
  ++counters_.records_in;

  std::uint64_t seq = 0;
  util::BufferPool& pool = host_.simulator().buffer_pool();
  util::Bytes inner = pool.acquire(msg.payload.size());
  const OpenStatus status = open_session_record(*session, msg.payload, &seq, inner);
  if (status != OpenStatus::kOk) {
    record_bad(status);
    pool.release(std::move(inner));
    return;
  }
  session->last_activity = host_.simulator().now();
  const auto view = net::Ipv4View::parse(inner);
  // Anti-spoofing: the inner source must be the assigned tunnel address.
  if (view && view->src == session->tunnel_ip) {
    counters_.bytes_decrypted += inner.size();
    // to_packet() copies: the packet's ownership transfers to the host's
    // forwarding path while the pooled buffer is recycled.
    host_.send_packet(view->to_packet());
  } else {
    record_bad(OpenStatus::kSpoofedSrc);
  }
  pool.release(std::move(inner));
}

void Endpoint::handle_keepalive(const SessionPtr& session, const Message& msg) {
  if (!session->established) return;
  std::uint64_t seq = 0;
  util::BufferPool& pool = host_.simulator().buffer_pool();
  util::Bytes inner = pool.acquire(msg.payload.size());
  const OpenStatus status = open_session_record(*session, msg.payload, &seq, inner);
  pool.release(std::move(inner));
  if (status != OpenStatus::kOk) {
    record_bad(status);
    return;
  }
  session->last_activity = host_.simulator().now();
  ++counters_.keepalives_in;

  static const util::Bytes kProbeBody = {'k', 'a'};
  util::Bytes record = pool.acquire(8 + kProbeBody.size() + crypto::kAeadTagLen);
  seal_record_into(session->keys.server_to_client, next_tx_seq(*session),
                   kProbeBody, record);
  session->send(MsgType::kKeepaliveAck, record);
  pool.release(std::move(record));
}

void Endpoint::handle_rekey(const SessionPtr& session, const Message& msg) {
  if (!session->established) return;
  if (msg.payload.size() < 8 + crypto::kAeadTagLen) {
    record_bad(OpenStatus::kAuthFail);
    return;
  }
  util::ByteReader r(msg.payload);
  const std::uint16_t ep = record_epoch(r.u64be());
  const sim::Time now = host_.simulator().now();
  util::BufferPool& pool = host_.simulator().buffer_pool();

  if (ep + 1 == session->key_epoch && now < session->grace_until) {
    // The client retransmitted the kRekey that already rotated us (our ack
    // was lost). The record's counter was consumed by the first copy, so
    // it can't pass the window — verify the MAC under the previous keys
    // directly and resend the cached ack.
    util::Bytes scratch = pool.acquire(msg.payload.size());
    std::uint64_t seq = 0;
    const bool ok = open_record_append(session->prev_keys.client_to_server,
                                       msg.payload, &seq, scratch);
    pool.release(std::move(scratch));
    if (ok && !session->rekey_ack.empty()) {
      session->send(MsgType::kRekeyAck, session->rekey_ack);
    } else if (!ok) {
      record_bad(OpenStatus::kAuthFail);
    }
    return;
  }

  std::uint64_t seq = 0;
  util::Bytes inner = pool.acquire(msg.payload.size());
  const OpenStatus status = open_session_record(*session, msg.payload, &seq, inner);
  pool.release(std::move(inner));
  if (status != OpenStatus::kOk) {
    record_bad(status);
    return;
  }
  if (record_epoch(seq) != session->key_epoch) {
    // A grace-window record of the previous epoch can't propose a rotation
    // we already performed.
    return;
  }
  session->last_activity = now;

  // Rotate: current becomes previous (kept through the grace window so
  // in-flight old-epoch records still decrypt), ratchet forward, reset the
  // per-epoch counter and window.
  session->prev_keys = std::move(session->keys);
  session->prev_window = std::move(session->rx_window);
  session->grace_until = now + config_.rekey_grace;
  session->keys = next_epoch_keys(session->prev_keys);
  session->key_epoch = static_cast<std::uint16_t>(session->key_epoch + 1);
  session->rx_window = ReplayWindow(config_.replay_window);
  session->tx_counter = 0;
  ++counters_.rekeys;

  // Ack sealed under the NEW epoch's s2c key: receiving it proves to the
  // client that we derived the same ratcheted keys.
  static const util::Bytes kRekeyBody = {'r', 'k'};
  session->rekey_ack.clear();
  seal_record_into(session->keys.server_to_client, next_tx_seq(*session),
                   kRekeyBody, session->rekey_ack);
  session->send(MsgType::kRekeyAck, session->rekey_ack);
}

bool Endpoint::tun_transmit(util::ByteView ip_packet) {
  // Ipv4View: only the header is inspected here; no reason to copy the
  // payload just to read the destination address.
  const auto view = net::Ipv4View::parse(ip_packet);
  if (!view) return false;
  const auto it = by_tunnel_ip_.find(view->dst);
  if (it == by_tunnel_ip_.end()) return false;
  Session& session = *it->second;

  util::BufferPool& pool = host_.simulator().buffer_pool();
  util::Bytes record = pool.acquire(8 + ip_packet.size() + crypto::kAeadTagLen);
  seal_record_into(session.keys.server_to_client, next_tx_seq(session), ip_packet,
                   record);
  counters_.bytes_sealed += ip_packet.size();
  ++counters_.records_out;
  session.send(MsgType::kData, record);
  pool.release(std::move(record));
  return true;
}

}  // namespace rogue::vpn
