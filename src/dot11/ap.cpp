#include "dot11/ap.hpp"

#include "util/assert.hpp"

namespace rogue::dot11 {

namespace {
/// ESS, plus the privacy bit on every network that is not open.
std::uint16_t capability(const ApConfig& config) {
  return kCapEss | (config.security != SecurityMode::kOpen ? kCapPrivacy : 0);
}
}  // namespace

AccessPoint::AccessPoint(sim::Simulator& simulator, phy::Medium& medium,
                         ApConfig config, sim::Trace* trace)
    : sim_(simulator),
      config_(std::move(config)),
      radio_(medium, "ap:" + config_.bssid.to_string()),
      trace_(trace) {
  if (config_.security == SecurityMode::kWep) {
    ROGUE_ASSERT_MSG(config_.wep_key.size() == crypto::kWep40KeyLen ||
                         config_.wep_key.size() == crypto::kWep104KeyLen,
                     "WEP enabled but key is not 5/13 bytes");
    iv_gen_.emplace(config_.iv_policy, config_.wep_key.size(),
                    sim_.rng().next());
  } else if (config_.security == SecurityMode::kWpaPsk) {
    ROGUE_ASSERT_MSG(!config_.wpa_psk.empty(), "WPA mode needs a PSK");
    pmk_ = wpa_pmk(config_.wpa_psk, config_.ssid);
    gtk_.resize(crypto::kAeadKeyLen);
    sim_.rng().fill(gtk_);
  } else if (config_.security == SecurityMode::kEap) {
    gtk_.resize(crypto::kAeadKeyLen);
    sim_.rng().fill(gtk_);
  }
  radio_.set_channel(config_.channel);
  radio_.set_receive_handler(
      [this](util::ByteView raw, const phy::RxInfo& info) { on_receive(raw, info); });

  rx_scope_ = sim_.profiler().intern("dot11.ap.rx");
  obs::Tracer& tracer = sim_.tracer();
  trace_auth_ = tracer.name("dot11.auth");
  trace_assoc_ = tracer.name("dot11.assoc");
  trace_assoc_reject_ = tracer.name("dot11.assoc-reject");
  trace_deauth_rx_ = tracer.name("dot11.deauth-rx");
  trace_deauth_tx_ = tracer.name("dot11.deauth-tx");
  trace_wpa_span_ = tracer.name("dot11.wpa");
  trace_wpa_m2_ = tracer.name("dot11.wpa.m2");
  trace_wpa_m3_ = tracer.name("dot11.wpa.m3");
}

void AccessPoint::publish(obs::Tallies& out) const {
  out.counter("dot11.ap.rx_mgmt", counters_.rx_mgmt);
  out.counter("dot11.ap.rx_data", counters_.rx_data);
  out.counter("dot11.ap.rx_retry", counters_.rx_retry);
  out.counter("dot11.ap.deauth_rx", counters_.deauths_received);
  out.counter("dot11.ap.deauth_tx", counters_.deauths_sent);
  out.counter("dot11.ap.beacons_tx", counters_.beacons_sent);
}

void AccessPoint::start() {
  if (running_) return;
  running_ = true;
  send_beacon();
  beacon_timer_ = sim_.every(config_.beacon_interval, [this] { send_beacon(); });
}

void AccessPoint::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(beacon_timer_);
  authenticated_.clear();
  pending_challenges_.clear();
  associated_.clear();
}

bool AccessPoint::is_associated(net::MacAddr sta) const {
  return associated_.contains(sta);
}

bool AccessPoint::is_station_ready(net::MacAddr sta) const {
  if (!associated_.contains(sta)) return false;
  if (config_.security != SecurityMode::kWpaPsk &&
      config_.security != SecurityMode::kEap) {
    return true;
  }
  const auto it = wpa_.find(sta);
  return it != wpa_.end() && it->second.established;
}

std::optional<util::Bytes> AccessPoint::pmk_for(net::MacAddr sta) const {
  if (config_.security == SecurityMode::kWpaPsk) return pmk_;
  if (config_.security == SecurityMode::kEap) {
    for (const auto& [mac, key] : config_.eap_client_keys) {
      if (mac == sta) return wpa_pmk(key, config_.ssid);
    }
  }
  return std::nullopt;
}

std::vector<net::MacAddr> AccessPoint::associated_stations() const {
  std::vector<net::MacAddr> out;
  out.reserve(associated_.size());
  for (const auto& [mac, aid] : associated_) out.push_back(mac);
  return out;
}

void AccessPoint::note(sim::Severity severity) {
  if (trace_ != nullptr) trace_->note(severity);
}

bool AccessPoint::mac_allowed(net::MacAddr mac) const {
  if (!config_.mac_filtering) return true;
  for (const auto& allowed : config_.allowed_macs) {
    if (allowed == mac) return true;
  }
  return false;
}

void AccessPoint::transmit_frame(const Frame& frame) {
  util::Bytes raw = radio_.acquire_buffer(24 + frame.body.size());
  frame.serialize_into(raw);
  radio_.transmit(std::move(raw));
}

template <typename Body>
void AccessPoint::send_mgmt(MgmtSubtype subtype, net::MacAddr dst,
                            const Body& body) {
  transmit_mgmt(radio_,
                {.subtype = subtype, .addr1 = dst, .addr2 = config_.bssid,
                 .addr3 = config_.bssid, .sequence = tx_seq_++},
                body);
  tx_seq_ &= 0x0fff;
}

void AccessPoint::send_beacon() {
  if (!running_) return;
  BeaconBody b;
  b.timestamp = sim_.now();
  b.beacon_interval_tu =
      static_cast<std::uint16_t>(config_.beacon_interval / 1024);
  b.capability = capability(config_);
  b.ssid = config_.ssid;
  b.channel = config_.channel;
  send_mgmt(MgmtSubtype::kBeacon, net::MacAddr::broadcast(), b);
  ++counters_.beacons_sent;
}

void AccessPoint::on_receive(util::ByteView raw, const phy::RxInfo& info) {
  (void)info;
  if (!running_) return;
  const obs::Profiler::Scope scope(sim_.profiler(), rx_scope_);
  const auto frame = FrameView::parse(raw);
  if (!frame) return;
  ++(frame->type == FrameType::kData ? counters_.rx_data : counters_.rx_mgmt);
  if (frame->retry) ++counters_.rx_retry;
  // Only frames addressed to this BSS (or broadcast probes).
  if (frame->addr1 != config_.bssid && !frame->addr1.is_broadcast()) return;

  if (frame->type == FrameType::kManagement) {
    switch (frame->mgmt_subtype()) {
      case MgmtSubtype::kProbeReq: handle_probe_req(*frame); break;
      case MgmtSubtype::kAuth: handle_auth(*frame); break;
      case MgmtSubtype::kAssocReq: handle_assoc_req(*frame); break;
      case MgmtSubtype::kDeauth:
      case MgmtSubtype::kDisassoc: handle_deauth(*frame); break;
      default: break;
    }
  } else if (frame->is_data() && frame->to_ds && !frame->from_ds) {
    handle_data(*frame);
  }
}

void AccessPoint::handle_probe_req(const FrameView& frame) {
  const auto req = ProbeReqBody::decode(frame.body);
  if (!req) return;
  if (!req->ssid.empty() && req->ssid != config_.ssid) return;
  BeaconBody resp;
  resp.timestamp = sim_.now();
  resp.capability = capability(config_);
  resp.ssid = config_.ssid;
  resp.channel = config_.channel;
  send_mgmt(MgmtSubtype::kProbeResp, frame.addr2, resp);
}

void AccessPoint::handle_auth(const FrameView& frame) {
  // Shared-key transaction 3 arrives WEP-encapsulated (protected bit set);
  // everything else is cleartext.
  std::optional<AuthBody> auth;
  bool decrypted_ok = false;
  if (frame.protected_frame) {
    if (config_.security == SecurityMode::kOpen) return;
    const auto dec = crypto::wep_decrypt(frame.body, config_.wep_key);
    if (dec) {
      auth = AuthBody::decode(dec->plaintext);
      decrypted_ok = true;
    }
  } else {
    auth = AuthBody::decode(frame.body);
  }
  if (!auth && !frame.protected_frame) return;
  const net::MacAddr sta = frame.addr2;
  sim_.tracer().instant(trace_auth_, radio_.trace_actor(),
                        obs::TraceLayer::kDot11, 0,
                        auth ? auth->transaction_seq : 0);

  auto reject = [&](StatusCode code) {
    AuthBody resp;
    resp.algorithm = auth ? auth->algorithm : config_.auth_algorithm;
    resp.transaction_seq =
        auth ? static_cast<std::uint16_t>(auth->transaction_seq + 1) : 4;
    resp.status = code;
    send_mgmt(MgmtSubtype::kAuth, sta, resp);
    ++counters_.auth_rejected;
    note(sim::Severity::kWarn);
  };

  // A protected auth frame that failed to decrypt/parse: wrong WEP key.
  if (frame.protected_frame && !auth) {
    pending_challenges_.erase(sta);
    reject(StatusCode::kChallengeFailure);
    return;
  }

  if (auth->algorithm != config_.auth_algorithm) {
    reject(StatusCode::kUnspecifiedFailure);
    return;
  }
  if (!mac_allowed(sta)) {
    // Real APs commonly just ignore filtered MACs; an explicit reject leaks
    // less about whether filtering exists. We reject so tests can see it.
    reject(StatusCode::kUnspecifiedFailure);
    return;
  }

  if (config_.auth_algorithm == AuthAlgorithm::kOpenSystem) {
    if (auth->transaction_seq != 1) return;
    authenticated_.insert(sta);
    ++counters_.auth_ok;
    AuthBody resp;
    resp.algorithm = AuthAlgorithm::kOpenSystem;
    resp.transaction_seq = 2;
    resp.status = StatusCode::kSuccess;
    send_mgmt(MgmtSubtype::kAuth, sta, resp);
    note(sim::Severity::kInfo);
    return;
  }

  // Shared-key authentication (proves WEP key possession — and, as §2.1
  // notes, proves nothing about the *network* to the client).
  if (auth->transaction_seq == 1) {
    util::Bytes challenge(128);
    sim_.rng().fill(challenge);
    pending_challenges_[sta] = challenge;
    AuthBody resp;
    resp.algorithm = AuthAlgorithm::kSharedKey;
    resp.transaction_seq = 2;
    resp.status = StatusCode::kSuccess;
    resp.challenge = std::move(challenge);
    send_mgmt(MgmtSubtype::kAuth, sta, resp);
    return;
  }
  if (auth->transaction_seq == 3) {
    const auto it = pending_challenges_.find(sta);
    if (it == pending_challenges_.end()) return;
    // Transaction 3 must arrive WEP-protected with the echoed challenge;
    // the successful ICV check already proved key possession.
    const bool ok =
        frame.protected_frame && decrypted_ok && auth->challenge == it->second;
    pending_challenges_.erase(it);
    if (!ok) {
      reject(StatusCode::kChallengeFailure);
      return;
    }
    authenticated_.insert(sta);
    ++counters_.auth_ok;
    AuthBody resp;
    resp.algorithm = AuthAlgorithm::kSharedKey;
    resp.transaction_seq = 4;
    resp.status = StatusCode::kSuccess;
    send_mgmt(MgmtSubtype::kAuth, sta, resp);
    note(sim::Severity::kInfo);
  }
}

void AccessPoint::handle_assoc_req(const FrameView& frame) {
  const auto req = AssocReqBody::decode(frame.body);
  if (!req) return;
  const net::MacAddr sta = frame.addr2;

  AssocRespBody resp;
  resp.capability = capability(config_);

  if (req->ssid != config_.ssid || !authenticated_.contains(sta) ||
      !mac_allowed(sta)) {
    resp.status = StatusCode::kAssocDeniedUnspec;
    ++counters_.assoc_rejected;
    sim_.tracer().instant(trace_assoc_reject_, radio_.trace_actor(),
                          obs::TraceLayer::kDot11);
    send_mgmt(MgmtSubtype::kAssocResp, sta, resp);
    note(sim::Severity::kWarn);
    return;
  }

  const std::uint16_t aid = next_aid_++;
  associated_[sta] = aid;
  resp.status = StatusCode::kSuccess;
  resp.association_id = aid;
  ++counters_.assoc_ok;
  sim_.tracer().instant(trace_assoc_, radio_.trace_actor(),
                        obs::TraceLayer::kDot11, 0, aid);
  send_mgmt(MgmtSubtype::kAssocResp, sta, resp);
  note(sim::Severity::kInfo);
  if (event_handler_) event_handler_("assoc", sta);
  if (config_.security == SecurityMode::kWpaPsk ||
      config_.security == SecurityMode::kEap) {
    // A short beat so the station finishes processing the assoc response.
    sim_.after(2'000, [this, sta] {
      if (associated_.contains(sta)) start_wpa_handshake(sta);
    });
  }
}

void AccessPoint::handle_deauth(const FrameView& frame) {
  const net::MacAddr sta = frame.addr2;
  ++counters_.deauths_received;
  wpa_.erase(sta);
  if (associated_.erase(sta) > 0 || authenticated_.erase(sta) > 0) {
    sim_.tracer().instant(trace_deauth_rx_, radio_.trace_actor(),
                          obs::TraceLayer::kDot11);
    note(sim::Severity::kWarn);
    if (event_handler_) event_handler_("deauth", sta);
  }
}

void AccessPoint::handle_data(const FrameView& frame) {
  const net::MacAddr sta = frame.addr2;
  if (!associated_.contains(sta)) return;

  util::Bytes decrypted;  // owns the plaintext on the WEP/WPA paths
  util::ByteView msdu;    // open mode views the frame body directly
  switch (config_.security) {
    case SecurityMode::kWep: {
      if (!frame.protected_frame) {
        ++counters_.dropped_unencrypted;
        return;
      }
      auto dec = crypto::wep_decrypt(frame.body, config_.wep_key);
      if (!dec) {
        ++counters_.wep_icv_failures;
        return;
      }
      decrypted = std::move(dec->plaintext);
      msdu = decrypted;
      break;
    }
    case SecurityMode::kEap:
    case SecurityMode::kWpaPsk: {
      if (!frame.protected_frame) {
        // Only the EAPOL handshake may travel in the clear.
        const auto llc_clear = llc_decode(frame.body);
        if (llc_clear && llc_clear->ethertype == kEtherTypeEapol) {
          handle_eapol(sta, llc_clear->payload);
        } else {
          ++counters_.dropped_unencrypted;
        }
        return;
      }
      auto it = wpa_.find(sta);
      if (it == wpa_.end() || !it->second.established) return;
      auto opened = wpa_open(it->second.ptk.aead_key, frame.body);
      if (!opened) {
        ++counters_.wpa_open_failures;
        return;
      }
      // STA->AP packet numbers are odd and strictly increasing.
      if ((opened->pn & 1) == 0 || opened->pn <= it->second.rx_pn_max) {
        ++counters_.wpa_replays_dropped;
        return;
      }
      it->second.rx_pn_max = opened->pn;
      decrypted = std::move(opened->msdu);
      msdu = decrypted;
      break;
    }
    case SecurityMode::kOpen: {
      if (frame.protected_frame) return;  // we have no key to decrypt with
      msdu = frame.body;
      break;
    }
  }

  const auto llc = llc_decode(msdu);
  if (!llc) return;
  const net::MacAddr dst = frame.addr3;

  // Intra-BSS relay: destination is one of our stations (or broadcast).
  if (dst.is_broadcast()) {
    send_data_frame(dst, sta, msdu);
    ++counters_.data_up;
    if (ds_handler_) ds_handler_(sta, dst, llc->ethertype, llc->payload);
    return;
  }
  if (associated_.contains(dst)) {
    send_data_frame(dst, sta, msdu);
    ++counters_.data_down;
    return;
  }
  ++counters_.data_up;
  if (ds_handler_) ds_handler_(sta, dst, llc->ethertype, llc->payload);
}

void AccessPoint::send_data_frame(net::MacAddr dst, net::MacAddr src,
                                  util::ByteView msdu) {
  Frame f;
  f.type = FrameType::kData;
  f.subtype = 0;
  f.from_ds = true;
  f.addr1 = dst;
  f.addr2 = config_.bssid;
  f.addr3 = src;
  f.sequence = tx_seq_++;
  tx_seq_ &= 0x0fff;
  switch (config_.security) {
    case SecurityMode::kWep:
      f.protected_frame = true;
      f.body = crypto::wep_encrypt(iv_gen_->next(), config_.wep_key, msdu);
      break;
    case SecurityMode::kEap:
    case SecurityMode::kWpaPsk: {
      if (dst.is_broadcast() || dst.is_multicast()) {
        f.protected_frame = true;
        gtk_tx_pn_ += 2;  // group pn space: even, shared with AP unicast ok
        f.body = wpa_protect(gtk_, gtk_tx_pn_, msdu);
        break;
      }
      auto it = wpa_.find(dst);
      if (it == wpa_.end() || !it->second.established) return;  // not ready
      f.protected_frame = true;
      it->second.tx_pn += 2;  // AP->STA pns are even
      f.body = wpa_protect(it->second.ptk.aead_key, it->second.tx_pn, msdu);
      break;
    }
    case SecurityMode::kOpen:
      f.body.assign(msdu.begin(), msdu.end());
      break;
  }
  transmit_frame(f);
}

void AccessPoint::send_eapol(net::MacAddr sta, const WpaHandshakeFrame& hs) {
  Frame f;
  f.type = FrameType::kData;
  f.from_ds = true;
  f.addr1 = sta;
  f.addr2 = config_.bssid;
  f.addr3 = config_.bssid;
  f.sequence = tx_seq_++;
  tx_seq_ &= 0x0fff;
  f.body = llc_encode(kEtherTypeEapol, hs.encode());
  transmit_frame(f);
}

void AccessPoint::start_wpa_handshake(net::MacAddr sta) {
  auto& state = wpa_[sta];
  sim_.cancel(state.retry_timer);
  state.established = false;
  state.have_ptk = false;
  state.tx_pn = 0;
  state.rx_pn_max = 0;
  state.retries = 0;
  sim_.rng().fill(state.anonce);
  // Span: M1 send -> M4 verified. The M1 transmission below starts the
  // causal chain the whole 4-step exchange rides (each M inherits the
  // previous one's delivery context), with `arg` binding the span to the
  // station on APs juggling several handshakes.
  sim_.tracer().begin(trace_wpa_span_, radio_.trace_actor(),
                      obs::TraceLayer::kDot11, 0, sta.to_u64());
  WpaHandshakeFrame m1;
  m1.msg = WpaMsg::kM1;
  m1.nonce = state.anonce;
  send_eapol(sta, m1);
  note(sim::Severity::kInfo);
  schedule_eapol_retry(sta);
}

void AccessPoint::schedule_eapol_retry(net::MacAddr sta) {
  auto it = wpa_.find(sta);
  if (it == wpa_.end()) return;
  sim_.cancel(it->second.retry_timer);
  it->second.retry_timer = sim_.after(120'000, [this, sta] {
    auto it2 = wpa_.find(sta);
    if (it2 == wpa_.end() || it2->second.established) return;
    if (!associated_.contains(sta)) return;
    if (++it2->second.retries > 5) return;  // give up; station will roam
    if (it2->second.have_ptk) {
      send_m3(sta, it2->second);
    } else {
      WpaHandshakeFrame m1;
      m1.msg = WpaMsg::kM1;
      m1.nonce = it2->second.anonce;
      send_eapol(sta, m1);
    }
    schedule_eapol_retry(sta);
  });
}

void AccessPoint::send_m3(net::MacAddr sta, WpaStation& state) {
  WpaHandshakeFrame m3;
  m3.msg = WpaMsg::kM3;
  m3.sealed_gtk = crypto::aead_seal(state.ptk.aead_key, /*seq=*/0,
                                    util::to_bytes("gtk"), gtk_);
  m3.sign(state.ptk.kck);
  send_eapol(sta, m3);
}

void AccessPoint::handle_eapol(net::MacAddr sta, util::ByteView payload) {
  const auto hs = WpaHandshakeFrame::decode(payload);
  if (!hs) return;
  auto it = wpa_.find(sta);
  if (it == wpa_.end()) return;
  WpaStation& state = it->second;

  if (hs->msg == WpaMsg::kM2) {
    const auto pmk = pmk_for(sta);
    if (!pmk) {
      // kEap: no credential on file for this MAC (or, on a rogue AP,
      // for any client but the attacker's own) — handshake cannot proceed.
      note(sim::Severity::kWarn);
      return;
    }
    const WpaPtk ptk =
        wpa_ptk(*pmk, config_.bssid, sta, state.anonce, hs->nonce);
    if (!hs->verify(ptk.kck)) {
      note(sim::Severity::kWarn);
      return;  // wrong PSK on the station side
    }
    state.ptk = ptk;
    state.have_ptk = true;
    state.retries = 0;
    sim_.tracer().instant(trace_wpa_m2_, radio_.trace_actor(),
                          obs::TraceLayer::kDot11, 0, sta.to_u64());
    sim_.tracer().instant(trace_wpa_m3_, radio_.trace_actor(),
                          obs::TraceLayer::kDot11, 0, sta.to_u64());
    send_m3(sta, state);
    schedule_eapol_retry(sta);
    return;
  }
  if (hs->msg == WpaMsg::kM4) {
    if (state.ptk.kck.empty() || !hs->verify(state.ptk.kck)) return;
    sim_.cancel(state.retry_timer);
    state.established = true;
    ++counters_.wpa_handshakes_completed;
    sim_.tracer().end(trace_wpa_span_, radio_.trace_actor(),
                      obs::TraceLayer::kDot11, 0, sta.to_u64());
    note(sim::Severity::kInfo);
    if (event_handler_) event_handler_("wpa-up", sta);
  }
}

bool AccessPoint::send_to_station(net::MacAddr dst, net::MacAddr src,
                                  std::uint16_t ethertype, util::ByteView payload) {
  if (!running_) return false;
  if (!dst.is_broadcast() && !associated_.contains(dst)) return false;
  send_data_frame(dst, src, llc_encode(ethertype, payload));
  ++counters_.data_down;
  return true;
}

void AccessPoint::deauth_station(net::MacAddr sta, ReasonCode reason) {
  associated_.erase(sta);
  authenticated_.erase(sta);
  DeauthBody body;
  body.reason = reason;
  sim_.tracer().instant(trace_deauth_tx_, radio_.trace_actor(),
                        obs::TraceLayer::kDot11, 0,
                        static_cast<std::uint64_t>(reason));
  send_mgmt(MgmtSubtype::kDeauth, sta, body);
  ++counters_.deauths_sent;
  note(sim::Severity::kWarn);
  if (event_handler_) event_handler_("deauth", sta);
}

}  // namespace rogue::dot11
