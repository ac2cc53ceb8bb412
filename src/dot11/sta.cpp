#include "dot11/sta.hpp"

#include "util/assert.hpp"

namespace rogue::dot11 {

Station::Station(sim::Simulator& simulator, phy::Medium& medium,
                 StationConfig config, sim::Trace* trace)
    : sim_(simulator),
      config_(std::move(config)),
      radio_(medium, "sta:" + config_.mac.to_string()),
      trace_(trace) {
  if (config_.security == SecurityMode::kWep) {
    ROGUE_ASSERT_MSG(config_.wep_key.size() == crypto::kWep40KeyLen ||
                         config_.wep_key.size() == crypto::kWep104KeyLen,
                     "WEP enabled but key is not 5/13 bytes");
    iv_gen_.emplace(config_.iv_policy, config_.wep_key.size(), sim_.rng().next());
  } else if (config_.security == SecurityMode::kWpaPsk ||
             config_.security == SecurityMode::kEap) {
    ROGUE_ASSERT_MSG(!config_.wpa_psk.empty(), "WPA/EAP mode needs a credential");
    pmk_ = wpa_pmk(config_.wpa_psk, config_.target_ssid);
  }
  ROGUE_ASSERT_MSG(!config_.scan_channels.empty(), "station needs scan channels");
  radio_.set_receive_handler(
      [this](util::ByteView raw, const phy::RxInfo& info) { on_receive(raw, info); });

  rx_scope_ = sim_.profiler().intern("dot11.sta.rx");
  obs::Tracer& tracer = sim_.tracer();
  trace_scan_ = tracer.name("dot11.scan-start");
  trace_associated_ = tracer.name("dot11.associated");
  trace_disconnect_ = tracer.name("dot11.disconnect");
  trace_deauth_rx_ = tracer.name("dot11.deauth-rx");
  trace_wpa_m1_ = tracer.name("dot11.wpa.m1");
  trace_wpa_up_ = tracer.name("dot11.wpa-up");
}

void Station::publish(obs::Tallies& out) const {
  out.counter("dot11.sta.rx_mgmt", counters_.rx_mgmt);
  out.counter("dot11.sta.rx_data", counters_.rx_data);
  out.counter("dot11.sta.rx_retry", counters_.rx_retry);
  out.counter("dot11.sta.deauth_rx", counters_.deauths_received);
  out.counter("dot11.sta.scans", counters_.scans);
  out.counter("dot11.sta.associations", counters_.associations);
}

void Station::start() {
  if (running_) return;
  running_ = true;
  // Random start offset: the medium has no CSMA backoff, so simultaneous
  // stations would otherwise collide deterministically forever.
  scan_timer_ = sim_.after(sim_.rng().uniform_u64(0, 50'000), [this] { begin_scan(); });
}

void Station::stop() {
  running_ = false;
  sim_.cancel(scan_timer_);
  sim_.cancel(join_timer_);
  sim_.cancel(beacon_watchdog_);
  state_ = StationState::kIdle;
}

void Station::note(sim::Severity severity) {
  if (trace_ != nullptr) trace_->note(severity);
}

void Station::transmit_frame(const Frame& frame) {
  util::Bytes raw = radio_.acquire_buffer(24 + frame.body.size());
  frame.serialize_into(raw);
  radio_.transmit(std::move(raw));
}

template <typename Body>
void Station::send_mgmt(MgmtSubtype subtype, net::MacAddr dst, const Body& body,
                        bool protect) {
  const MgmtHeader header{.subtype = subtype, .addr1 = dst, .addr2 = config_.mac,
                          .addr3 = dst, .sequence = tx_seq_++};
  tx_seq_ &= 0x0fff;
  if (!protect) {
    transmit_mgmt(radio_, header, body);
    return;
  }
  // WEP encrypts the whole plaintext body, so this one management frame
  // is still built as a Frame around body.encode().
  ROGUE_ASSERT(config_.security == SecurityMode::kWep);
  Frame f;
  f.subtype = static_cast<std::uint8_t>(subtype);
  f.protected_frame = true;
  f.addr1 = dst;
  f.addr2 = config_.mac;
  f.addr3 = dst;
  f.sequence = header.sequence;
  f.body = crypto::wep_encrypt(iv_gen_->next(), config_.wep_key, body.encode());
  transmit_frame(f);
}

// ---- Scanning -------------------------------------------------------------

void Station::begin_scan() {
  if (!running_) return;
  state_ = StationState::kScanning;
  ++counters_.scans;
  scan_results_.clear();
  scan_channel_index_ = 0;
  sim_.tracer().instant(trace_scan_, radio_.trace_actor(),
                        obs::TraceLayer::kDot11);
  note(sim::Severity::kInfo);
  radio_.set_channel(config_.scan_channels[0]);
  scan_timer_ = sim_.after(config_.scan_dwell, [this] { scan_next_channel(); });
}

void Station::scan_next_channel() {
  if (!running_ || state_ != StationState::kScanning) return;
  ++scan_channel_index_;
  if (scan_channel_index_ >= config_.scan_channels.size()) {
    finish_scan();
    return;
  }
  radio_.set_channel(config_.scan_channels[scan_channel_index_]);
  scan_timer_ = sim_.after(config_.scan_dwell, [this] { scan_next_channel(); });
}

void Station::finish_scan() {
  const auto candidate = pick_candidate();
  if (!candidate) {
    note(sim::Severity::kInfo);
    scan_timer_ = sim_.after(next_rescan_delay(), [this] { begin_scan(); });
    return;
  }
  begin_join(*candidate);
}

sim::Time Station::next_rescan_delay() {
  // Exponential backoff with jitter: a station whose network has vanished
  // (AP outage, deauth storm) must not hammer the channel at a fixed
  // cadence — and synchronized victims would rescan in lockstep forever.
  const unsigned shift = std::min(failed_cycles_, 8u);
  const sim::Time base = std::min(config_.rescan_delay << shift,
                                  std::max(config_.rescan_delay,
                                           config_.rescan_backoff_max));
  ++failed_cycles_;
  if (base > config_.rescan_delay) ++counters_.scan_backoffs;
  return base + sim_.rng().uniform_u64(0, base / 2);
}

std::optional<BssInfo> Station::pick_candidate() {
  // Age out expired blocklist entries.
  std::erase_if(bss_blocklist_,
                [this](const auto& e) { return e.second <= sim_.now(); });
  std::vector<const BssInfo*> matching;
  for (const auto& [key, bss] : scan_results_) {
    if (bss.ssid != config_.target_ssid) continue;
    const bool wants_privacy = config_.security != SecurityMode::kOpen;
    if (bss.privacy != wants_privacy) continue;
    if (bss_blocklist_.contains({bss.bssid, bss.channel})) continue;
    matching.push_back(&bss);
  }
  if (matching.empty()) return std::nullopt;

  switch (config_.join_policy) {
    case JoinPolicy::kBestRssi: {
      const BssInfo* best = matching.front();
      for (const BssInfo* b : matching) {
        if (b->rssi_dbm > best->rssi_dbm) best = b;
      }
      return *best;
    }
    case JoinPolicy::kFirstHeard:
      return *matching.front();  // map order: lowest BSSID; stable stand-in
    case JoinPolicy::kRandom:
      return *matching[sim_.rng().uniform_u32(static_cast<std::uint32_t>(matching.size()))];
  }
  return *matching.front();
}

// ---- Joining ----------------------------------------------------------------

void Station::begin_join(const BssInfo& bss) {
  current_bss_ = bss;
  join_retries_ = 0;
  radio_.set_channel(bss.channel);
  note(sim::Severity::kInfo);
  send_auth_request();
}

void Station::send_auth_request() {
  state_ = StationState::kAuthenticating;
  AuthBody auth;
  auth.algorithm = config_.auth_algorithm;
  auth.transaction_seq = 1;
  send_mgmt(MgmtSubtype::kAuth, current_bss_.bssid, auth);
  sim_.cancel(join_timer_);
  // Jittered timeout: desynchronizes retries of colliding stations.
  join_timer_ = sim_.after(config_.response_timeout + sim_.rng().uniform_u64(0, 10'000),
                           [this] { on_join_timeout(); });
}

void Station::send_assoc_request() {
  state_ = StationState::kAssociating;
  AssocReqBody req;
  req.capability =
      kCapEss | (config_.security != SecurityMode::kOpen ? kCapPrivacy : 0);
  req.ssid = config_.target_ssid;
  send_mgmt(MgmtSubtype::kAssocReq, current_bss_.bssid, req);
  sim_.cancel(join_timer_);
  join_timer_ = sim_.after(config_.response_timeout, [this] { on_join_timeout(); });
}

void Station::on_join_timeout() {
  if (state_ != StationState::kAuthenticating && state_ != StationState::kAssociating) {
    return;
  }
  if (++join_retries_ < config_.max_join_retries) {
    send_auth_request();
    return;
  }
  note(sim::Severity::kWarn);
  scan_timer_ = sim_.after(next_rescan_delay(), [this] { begin_scan(); });
  state_ = StationState::kScanning;
}

void Station::become_associated() {
  sim_.cancel(join_timer_);
  state_ = StationState::kAssociated;
  failed_cycles_ = 0;
  wpa_established_ = false;
  m1_seen_ = false;
  wpa_rx_pn_max_ = 0;
  gtk_rx_pn_max_ = 0;
  wpa_tx_pn_ = 1;
  ++counters_.associations;
  last_beacon_time_ = sim_.now();
  arm_beacon_watchdog();
  if (wpa_like()) arm_wpa_watchdog();
  sim_.tracer().instant(trace_associated_, radio_.trace_actor(),
                        obs::TraceLayer::kDot11, 0,
                        current_bss_.bssid.to_u64());
  note(sim::Severity::kInfo);
  if (event_handler_) event_handler_("assoc", current_bss_);
}

void Station::arm_wpa_watchdog() {
  sim_.cancel(wpa_watchdog_);
  wpa_watchdog_ = sim_.after(config_.wpa_handshake_timeout, [this] {
    if (state_ != StationState::kAssociated || wpa_established_) return;
    // The network never proved key knowledge: treat this BSS as bogus for
    // a while (so a rogue that cannot finish the handshake loses us to
    // the legitimate AP instead of holding us in limbo).
    bss_blocklist_[{current_bss_.bssid, current_bss_.channel}] =
        sim_.now() + config_.bss_blocklist_duration;
    if (event_handler_) event_handler_("wpa-timeout", current_bss_);
    disconnect();
  });
}

void Station::disconnect() {
  sim_.cancel(beacon_watchdog_);
  sim_.cancel(join_timer_);
  sim_.cancel(wpa_watchdog_);
  sim_.tracer().instant(trace_disconnect_, radio_.trace_actor(),
                        obs::TraceLayer::kDot11);
  note(sim::Severity::kWarn);
  state_ = StationState::kIdle;
  if (running_) {
    scan_timer_ = sim_.after(next_rescan_delay(), [this] { begin_scan(); });
  }
}

void Station::arm_beacon_watchdog() {
  sim_.cancel(beacon_watchdog_);
  const sim::Time interval = 102'400;  // assume standard 100 TU beacons
  const sim::Time deadline = interval * config_.beacon_loss_intervals;
  beacon_watchdog_ = sim_.after(deadline, [this] {
    if (state_ != StationState::kAssociated) return;
    ++counters_.beacon_losses;
    if (event_handler_) event_handler_("beacon-loss", current_bss_);
    disconnect();
  });
}

// ---- Receive path -----------------------------------------------------------

void Station::on_receive(util::ByteView raw, const phy::RxInfo& info) {
  if (!running_) return;
  const obs::Profiler::Scope scope(sim_.profiler(), rx_scope_);
  const auto frame = FrameView::parse(raw);
  if (!frame) return;
  ++(frame->type == FrameType::kData ? counters_.rx_data : counters_.rx_mgmt);
  if (frame->retry) ++counters_.rx_retry;

  if (frame->is_mgmt(MgmtSubtype::kBeacon) || frame->is_mgmt(MgmtSubtype::kProbeResp)) {
    handle_beacon(*frame, info);
    return;
  }

  // Everything else must be addressed to us.
  if (frame->addr1 != config_.mac && !frame->addr1.is_broadcast()) return;

  if (frame->is_mgmt(MgmtSubtype::kAuth)) {
    handle_auth_resp(*frame);
  } else if (frame->is_mgmt(MgmtSubtype::kAssocResp)) {
    handle_assoc_resp(*frame);
  } else if (frame->is_mgmt(MgmtSubtype::kDeauth) ||
             frame->is_mgmt(MgmtSubtype::kDisassoc)) {
    handle_deauth(*frame);
  } else if (frame->is_data() && frame->from_ds && !frame->to_ds) {
    handle_data(*frame);
  }
}

void Station::handle_beacon(const FrameView& frame, const phy::RxInfo& info) {
  const auto beacon = BeaconBody::decode(frame.body);
  if (!beacon) return;

  if (state_ == StationState::kScanning) {
    auto& entry = scan_results_[{frame.addr2, beacon->channel}];
    if (entry.ssid.empty() || info.rssi_dbm > entry.rssi_dbm) {
      entry.ssid = beacon->ssid;
      entry.bssid = frame.addr2;
      entry.channel = beacon->channel;
      entry.privacy = beacon->privacy();
      entry.rssi_dbm = std::max(entry.rssi_dbm, info.rssi_dbm);
      entry.last_seq = frame.sequence;
    }
    return;
  }

  if (state_ == StationState::kAssociated && frame.addr2 == current_bss_.bssid) {
    last_beacon_time_ = sim_.now();
    arm_beacon_watchdog();
  }
}

void Station::handle_auth_resp(const FrameView& frame) {
  if (state_ != StationState::kAuthenticating) return;
  if (frame.addr2 != current_bss_.bssid) return;
  const auto auth = AuthBody::decode(frame.body);
  if (!auth) return;

  if (auth->status != StatusCode::kSuccess) {
    note(sim::Severity::kWarn);
    on_join_timeout();
    return;
  }

  if (config_.auth_algorithm == AuthAlgorithm::kOpenSystem) {
    if (auth->transaction_seq == 2) send_assoc_request();
    return;
  }

  // Shared key: transaction 2 carries the challenge; echo it encrypted.
  if (auth->transaction_seq == 2 && !auth->challenge.empty()) {
    AuthBody reply;
    reply.algorithm = AuthAlgorithm::kSharedKey;
    reply.transaction_seq = 3;
    reply.challenge = auth->challenge;
    send_mgmt(MgmtSubtype::kAuth, current_bss_.bssid, reply, /*protect=*/true);
    return;
  }
  if (auth->transaction_seq == 4) {
    send_assoc_request();
  }
}

void Station::handle_assoc_resp(const FrameView& frame) {
  if (state_ != StationState::kAssociating) return;
  if (frame.addr2 != current_bss_.bssid) return;
  const auto resp = AssocRespBody::decode(frame.body);
  if (!resp) return;
  if (resp->status != StatusCode::kSuccess) {
    note(sim::Severity::kWarn);
    on_join_timeout();
    return;
  }
  become_associated();
}

void Station::handle_deauth(const FrameView& frame) {
  // Note: no authentication of deauth frames in 802.11-1999 — anyone who
  // can forge addr2 == BSSID can kick us off (used by attack/deauth).
  if (state_ == StationState::kIdle || state_ == StationState::kScanning) return;
  if (frame.addr2 != current_bss_.bssid) return;
  ++counters_.deauths_received;
  sim_.tracer().instant(trace_deauth_rx_, radio_.trace_actor(),
                        obs::TraceLayer::kDot11);
  if (event_handler_) event_handler_("deauth", current_bss_);
  disconnect();
}

void Station::handle_data(const FrameView& frame) {
  if (state_ != StationState::kAssociated) return;
  if (frame.addr2 != current_bss_.bssid) return;

  util::Bytes decrypted;  // owns the plaintext on the WEP/WPA paths
  util::ByteView msdu;    // open mode views the frame body directly
  switch (config_.security) {
    case SecurityMode::kWep: {
      if (!frame.protected_frame) return;
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
        const auto llc_clear = llc_decode(frame.body);
        if (llc_clear && llc_clear->ethertype == kEtherTypeEapol) {
          handle_eapol(llc_clear->payload);
        }
        return;
      }
      if (!wpa_established_) return;
      const bool group = frame.addr1.is_broadcast() || frame.addr1.is_multicast();
      auto opened =
          wpa_open(group ? util::ByteView(gtk_) : util::ByteView(ptk_.aead_key),
                   frame.body);
      if (!opened) {
        ++counters_.wpa_open_failures;
        return;
      }
      std::uint64_t& high_water = group ? gtk_rx_pn_max_ : wpa_rx_pn_max_;
      if ((opened->pn & 1) != 0 || opened->pn <= high_water) {
        ++counters_.wpa_replays_dropped;  // AP pns are even + increasing
        return;
      }
      high_water = opened->pn;
      decrypted = std::move(opened->msdu);
      msdu = decrypted;
      break;
    }
    case SecurityMode::kOpen: {
      if (frame.protected_frame) return;
      msdu = frame.body;
      break;
    }
  }

  const auto llc = llc_decode(msdu);
  if (!llc) return;
  ++counters_.data_received;
  if (rx_handler_) {
    rx_handler_(frame.addr3, frame.addr1, llc->ethertype, llc->payload);
  }
}

bool Station::send(net::MacAddr dst, std::uint16_t ethertype, util::ByteView payload) {
  if (!ready()) return false;
  Frame f;
  f.type = FrameType::kData;
  f.subtype = 0;
  f.to_ds = true;
  f.addr1 = current_bss_.bssid;
  f.addr2 = config_.mac;
  f.addr3 = dst;
  f.sequence = tx_seq_++;
  tx_seq_ &= 0x0fff;
  const util::Bytes msdu = llc_encode(ethertype, payload);
  switch (config_.security) {
    case SecurityMode::kWep:
      f.protected_frame = true;
      f.body = crypto::wep_encrypt(iv_gen_->next(), config_.wep_key, msdu);
      break;
    case SecurityMode::kEap:
    case SecurityMode::kWpaPsk:
      f.protected_frame = true;
      f.body = wpa_protect(ptk_.aead_key, wpa_tx_pn_, msdu);
      wpa_tx_pn_ += 2;
      break;
    case SecurityMode::kOpen:
      f.body = msdu;
      break;
  }
  transmit_frame(f);
  ++counters_.data_sent;
  return true;
}

void Station::send_eapol(const WpaHandshakeFrame& hs) {
  Frame f;
  f.type = FrameType::kData;
  f.to_ds = true;
  f.addr1 = current_bss_.bssid;
  f.addr2 = config_.mac;
  f.addr3 = current_bss_.bssid;
  f.sequence = tx_seq_++;
  tx_seq_ &= 0x0fff;
  f.body = llc_encode(kEtherTypeEapol, hs.encode());
  transmit_frame(f);
}

void Station::handle_eapol(util::ByteView payload) {
  if (state_ != StationState::kAssociated) return;
  const auto hs = WpaHandshakeFrame::decode(payload);
  if (!hs) return;

  if (hs->msg == WpaMsg::kM1) {
    // Idempotent per anonce: an EAPOL retry must not change our snonce,
    // or the authenticator's PTK (derived from our first M2) desyncs.
    if (!m1_seen_ || hs->nonce != last_anonce_) {
      m1_seen_ = true;
      last_anonce_ = hs->nonce;
      sim_.rng().fill(snonce_);
      ptk_ = wpa_ptk(pmk_, current_bss_.bssid, config_.mac, hs->nonce, snonce_);
    }
    sim_.tracer().instant(trace_wpa_m1_, radio_.trace_actor(),
                          obs::TraceLayer::kDot11);
    WpaHandshakeFrame m2;
    m2.msg = WpaMsg::kM2;
    m2.nonce = snonce_;
    m2.sign(ptk_.kck);
    send_eapol(m2);
    return;
  }
  if (hs->msg == WpaMsg::kM3) {
    if (ptk_.kck.empty() || !hs->verify(ptk_.kck)) {
      note(sim::Severity::kWarn);  // wrong PSK on the AP side: abort
      return;
    }
    const auto gtk = crypto::aead_open(ptk_.aead_key, /*seq=*/0,
                                       util::to_bytes("gtk"), hs->sealed_gtk);
    if (!gtk) return;
    gtk_ = *gtk;
    WpaHandshakeFrame m4;
    m4.msg = WpaMsg::kM4;
    m4.sign(ptk_.kck);
    send_eapol(m4);
    wpa_established_ = true;
    sim_.cancel(wpa_watchdog_);
    sim_.tracer().instant(trace_wpa_up_, radio_.trace_actor(),
                          obs::TraceLayer::kDot11);
    note(sim::Severity::kInfo);
    if (event_handler_) event_handler_("wpa-up", current_bss_);
  }
}

}  // namespace rogue::dot11
