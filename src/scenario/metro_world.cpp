#include "scenario/metro_world.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/fmt.hpp"

namespace rogue::scenario {

namespace {

/// 802.11b non-overlapping channel plan.
constexpr phy::Channel kScanChannels[3] = {1, 6, 11};

constexpr std::uint64_t kApIdBase = 0xA0'0000'0000ull;
constexpr std::uint64_t kRogueIdBase = 0xE0'0000'0000ull;
constexpr std::uint64_t kStaIdBase = 0x50'0000'0000ull;

phy::MediumConfig metro_medium(const MetroConfig& cfg) {
  phy::MediumConfig m = cfg.medium;
  // Constant mobility stales pairwise-RSSI entries before reuse while the
  // per-sender slices cost real memory at 50k radios; compute directly.
  m.pair_rssi_cache = false;
  return m;
}

}  // namespace

MetroWorld::MetroWorld(MetroConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      medium_(sim_, metro_medium(config_)),
      layout_rng_(0) {
  ROGUE_ASSERT_MSG(config_.ap_cols > 0 && config_.ap_rows > 0,
                   "metro world needs at least one AP");
  world_w_m_ = static_cast<double>(config_.ap_cols) * config_.ap_spacing_m;
  world_h_m_ = static_cast<double>(config_.ap_rows) * config_.ap_spacing_m;
}

void MetroWorld::configure(std::uint64_t seed) {
  ROGUE_ASSERT_MSG(!started_, "configure() must precede start()");
  config_.seed = seed;
  sim_.reseed(seed);
}

void MetroWorld::start() {
  if (started_) return;
  started_ = true;
  if (capture_frames_) medium_.set_capture(&trace_);
  layout_rng_ = sim_.derive_rng("metro.layout");
  build_aps();
  build_stas();
  start_mobility();
  // Independent TBTT offsets, as on real hardware: phase-aligned beacon
  // timers would make every hidden co-channel AP pair contend on the exact
  // same tick each interval, inflating collision churn far beyond what a
  // deployed street grid sees.
  for (auto& ap : aps_) {
    const sim::Time phase =
        layout_rng_.uniform_u64(0, dot11::ApConfig{}.beacon_interval - 1);
    sim_.at(phase, [ap = ap.get()] { ap->start(); });
  }
}

void MetroWorld::build_aps() {
  // Legitimate infrastructure: one AP per street intersection, channels
  // cycling over the non-overlapping plan so same-channel neighbors sit
  // several cells apart.
  std::size_t i = 0;
  for (std::size_t row = 0; row < config_.ap_rows; ++row) {
    for (std::size_t col = 0; col < config_.ap_cols; ++col, ++i) {
      dot11::ApConfig ap_cfg;
      ap_cfg.ssid = config_.ssid;
      ap_cfg.bssid = net::MacAddr::from_id(kApIdBase + i);
      ap_cfg.channel = kScanChannels[(row + col) % 3];
      auto ap = std::make_unique<dot11::AccessPoint>(sim_, medium_, ap_cfg);
      ap->radio().set_position(
          {(static_cast<double>(col) + 0.5) * config_.ap_spacing_m,
           (static_cast<double>(row) + 0.5) * config_.ap_spacing_m});
      aps_.push_back(std::move(ap));
    }
  }
  // Evil twins: same SSID, open auth, parked wherever the seed drops them.
  // Nothing distinguishes them over the air — which is the experiment.
  for (std::size_t r = 0; r < config_.rogue_count; ++r) {
    dot11::ApConfig rogue_cfg;
    rogue_cfg.ssid = config_.ssid;
    rogue_cfg.bssid = net::MacAddr::from_id(kRogueIdBase + r);
    rogue_cfg.channel =
        kScanChannels[layout_rng_.uniform_u64(0, 2)];
    auto rogue = std::make_unique<dot11::AccessPoint>(sim_, medium_, rogue_cfg);
    rogue->radio().set_position({layout_rng_.uniform01() * world_w_m_,
                                 layout_rng_.uniform01() * world_h_m_});
    rogue_bssids_.insert(rogue_cfg.bssid);
    aps_.push_back(std::move(rogue));
  }
}

void MetroWorld::build_stas() {
  for (std::size_t i = 0; i < config_.sta_count; ++i) {
    Sta& sta = stas_.emplace_back(medium_, util::format("msta{}", i),
                                  net::MacAddr::from_id(kStaIdBase + i),
                                  layout_rng_.fork());
    sta.radio.set_position({sta.rng.uniform01() * world_w_m_,
                            sta.rng.uniform01() * world_h_m_});
    sta.waypoint = {sta.rng.uniform01() * world_w_m_,
                    sta.rng.uniform01() * world_h_m_};
    sta.speed_mps = config_.sta_speed_mps * (0.5 + sta.rng.uniform01());
    sta.radio.set_receive_handler(
        [this, &sta](util::ByteView raw, const phy::RxInfo& info) {
          on_sta_rx(sta, raw, info);
        });
    // Stagger first scans so 50k stations don't key up their first auth
    // inside one carrier-sense blind window.
    const sim::Time offset =
        config_.start_stagger > 0
            ? sta.rng.uniform_u64(0, config_.start_stagger)
            : 0;
    sta.timer = sim_.after(offset, [this, &sta] { enter_scan(sta); });
  }
}

void MetroWorld::start_mobility() {
  if (config_.sta_count == 0 || config_.mobility_tick == 0) return;
  // One world-level timer walks every STA: 50k per-STA motion timers would
  // put 50k near-simultaneous events in the heap for no behavioral gain.
  sim_.every(config_.mobility_tick, [this] { mobility_tick(); });
}

void MetroWorld::mobility_tick() {
  const double dt = static_cast<double>(config_.mobility_tick) / 1e6;
  for (Sta& sta : stas_) {
    const phy::Position& p = sta.radio.position();
    double dx = sta.waypoint.x - p.x;
    double dy = sta.waypoint.y - p.y;
    const double dist = std::sqrt(dx * dx + dy * dy);
    const double step = sta.speed_mps * dt;
    if (dist <= step) {
      sta.radio.set_position(sta.waypoint);
      sta.waypoint = {sta.rng.uniform01() * world_w_m_,
                      sta.rng.uniform01() * world_h_m_};
    } else {
      sta.radio.set_position({p.x + dx / dist * step, p.y + dy / dist * step});
    }
  }
}

// ---- STA state machine ------------------------------------------------------

void MetroWorld::enter_scan(Sta& sta) {
  sim_.cancel(sta.timer);
  sta.state = StaState::kScanning;
  sta.scan_idx = 0;
  sta.have_candidate = false;
  sta.cand_rssi = -200.0;
  sta.better_streak = 0;
  sta.radio.trim_tx_state();
  sta.radio.set_channel(kScanChannels[0]);
  sta.timer = sim_.after(config_.scan_dwell, [this, &sta] { scan_step(sta); });
}

void MetroWorld::scan_step(Sta& sta) {
  ++sta.scan_idx;
  if (sta.scan_idx < 3) {
    sta.radio.set_channel(kScanChannels[sta.scan_idx]);
    sta.timer = sim_.after(config_.scan_dwell, [this, &sta] { scan_step(sta); });
    return;
  }
  if (sta.have_candidate) {
    start_join(sta, sta.cand_bssid, sta.cand_channel);
  } else {
    // Out of coverage (or every beacon lost to noise): sweep again.
    enter_scan(sta);
  }
}

void MetroWorld::start_join(Sta& sta, net::MacAddr bssid, phy::Channel channel) {
  sim_.cancel(sta.timer);
  sta.state = StaState::kJoining;
  sta.bssid = bssid;
  sta.radio.set_channel(channel);
  dot11::AuthBody auth;
  auth.algorithm = dot11::AuthAlgorithm::kOpenSystem;
  auth.transaction_seq = 1;
  send_mgmt(sta, dot11::MgmtSubtype::kAuth, bssid, auth);
  sta.timer =
      sim_.after(config_.join_timeout, [this, &sta] { join_timed_out(sta); });
}

void MetroWorld::join_timed_out(Sta& sta) {
  ++join_failures_;
  enter_scan(sta);
}

void MetroWorld::enter_associated(Sta& sta) {
  sim_.cancel(sta.timer);
  sta.state = StaState::kAssociated;
  ++associations_;
  if (is_rogue(sta.bssid)) ++promiscuous_assocs_;
  if (sta.roaming) {
    roam_latency_s_.add(
        static_cast<double>(sim_.now() - sta.disassoc_time) / 1e6);
    sta.roaming = false;
  }
  sta.last_beacon = sim_.now();
  sta.better_streak = 0;
  // A metro STA transmits a handful of management frames per roam; holding
  // a neighborhood-sized delivery plan between roams costs ~100KB x 50k.
  sta.radio.trim_tx_state();
  sta.timer =
      sim_.after(config_.watchdog_period, [this, &sta] { watchdog_fire(sta); });
}

void MetroWorld::watchdog_fire(Sta& sta) {
  if (sim_.now() - sta.last_beacon > config_.beacon_loss_after) {
    ++beacon_losses_;
    connection_lost(sta);
    return;
  }
  sta.timer =
      sim_.after(config_.watchdog_period, [this, &sta] { watchdog_fire(sta); });
}

void MetroWorld::connection_lost(Sta& sta) {
  if (!sta.roaming) {
    sta.roaming = true;
    sta.disassoc_time = sim_.now();
  }
  enter_scan(sta);
}

void MetroWorld::on_sta_rx(Sta& sta, util::ByteView raw,
                           const phy::RxInfo& info) {
  const auto frame = dot11::FrameView::parse(raw);
  if (!frame) return;

  switch (sta.state) {
    case StaState::kScanning: {
      if (!frame->is_mgmt(dot11::MgmtSubtype::kBeacon)) return;
      if (info.rssi_dbm <= sta.cand_rssi) return;  // not an improvement
      const auto beacon = dot11::BeaconBody::decode(frame->body);
      if (!beacon || beacon->ssid != config_.ssid) return;
      sta.have_candidate = true;
      sta.cand_bssid = frame->addr2;
      sta.cand_channel = sta.radio.channel();
      sta.cand_rssi = info.rssi_dbm;
      return;
    }

    case StaState::kJoining: {
      if (frame->addr1 != sta.mac || frame->addr2 != sta.bssid) return;
      if (frame->is_mgmt(dot11::MgmtSubtype::kAuth)) {
        const auto auth = dot11::AuthBody::decode(frame->body);
        if (!auth || auth->transaction_seq != 2) return;
        if (auth->status != dot11::StatusCode::kSuccess) {
          ++join_failures_;
          enter_scan(sta);
          return;
        }
        dot11::AssocReqBody req;
        req.ssid = config_.ssid;
        send_mgmt(sta, dot11::MgmtSubtype::kAssocReq, sta.bssid, req);
        return;
      }
      if (frame->is_mgmt(dot11::MgmtSubtype::kAssocResp)) {
        const auto resp = dot11::AssocRespBody::decode(frame->body);
        if (!resp) return;
        if (resp->status != dot11::StatusCode::kSuccess) {
          ++join_failures_;
          enter_scan(sta);
          return;
        }
        sta.own_rssi = info.rssi_dbm;  // until the first beacon refreshes it
        enter_associated(sta);
        return;
      }
      if (frame->is_mgmt(dot11::MgmtSubtype::kDeauth)) enter_scan(sta);
      return;
    }

    case StaState::kAssociated: {
      if (frame->is_mgmt(dot11::MgmtSubtype::kBeacon)) {
        if (frame->addr2 == sta.bssid) {
          sta.last_beacon = info.time;
          sta.own_rssi = info.rssi_dbm;
          return;
        }
        // A co-channel neighbor. Roam only on a sustained, decisively
        // stronger signal — single-beacon fades would thrash.
        if (info.rssi_dbm < sta.own_rssi + config_.roam_hysteresis_db) {
          if (frame->addr2 == sta.better_bssid) sta.better_streak = 0;
          return;
        }
        const auto beacon = dot11::BeaconBody::decode(frame->body);
        if (!beacon || beacon->ssid != config_.ssid) return;
        if (frame->addr2 == sta.better_bssid) {
          ++sta.better_streak;
        } else {
          sta.better_bssid = frame->addr2;
          sta.better_streak = 1;
        }
        if (sta.better_streak < config_.roam_sightings) return;
        ++roams_;
        // Passive monitoring only hears co-channel APs, so the departure
        // deauth always goes out on the channel we're about to stay on.
        dot11::DeauthBody bye;
        bye.reason = dot11::ReasonCode::kDeauthLeaving;
        send_mgmt(sta, dot11::MgmtSubtype::kDeauth, sta.bssid, bye);
        sta.roaming = true;
        sta.disassoc_time = sim_.now();
        start_join(sta, sta.better_bssid, sta.radio.channel());
        return;
      }
      if ((frame->is_mgmt(dot11::MgmtSubtype::kDeauth) ||
           frame->is_mgmt(dot11::MgmtSubtype::kDisassoc)) &&
          frame->addr2 == sta.bssid &&
          (frame->addr1 == sta.mac || frame->addr1.is_broadcast())) {
        ++deauths_rx_;
        connection_lost(sta);
      }
      return;
    }
  }
}

template <typename Body>
void MetroWorld::send_mgmt(Sta& sta, dot11::MgmtSubtype subtype,
                           net::MacAddr dst, const Body& body) {
  dot11::transmit_mgmt(
      sta.radio,
      {.subtype = subtype, .addr1 = dst, .addr2 = sta.mac, .addr3 = sta.bssid,
       .sequence = static_cast<std::uint16_t>(sta.tx_seq++ & 0x0fff)},
      body);
}

// ---- Episode ----------------------------------------------------------------

void MetroWorld::run_episode() {
  start();
  run_for(config_.episode_duration);
}

std::size_t MetroWorld::associated_count() const {
  std::size_t n = 0;
  for (const Sta& sta : stas_) {
    if (sta.state == StaState::kAssociated) ++n;
  }
  return n;
}

Metrics MetroWorld::collect_metrics() const {
  Metrics m;
  m.metro_enabled = true;
  m.metro_stas = config_.sta_count;
  m.metro_aps = aps_.size();
  m.metro_associations = associations_;
  m.metro_roams = roams_;
  m.metro_beacon_losses = beacon_losses_;
  m.metro_join_failures = join_failures_;
  m.metro_deauths = deauths_rx_;
  m.metro_promiscuous_assocs = promiscuous_assocs_;
  m.metro_promiscuous_rate =
      associations_ > 0
          ? static_cast<double>(promiscuous_assocs_) /
                static_cast<double>(associations_)
          : 0.0;
  m.metro_assoc_fraction =
      config_.sta_count > 0
          ? static_cast<double>(associated_count()) /
                static_cast<double>(config_.sta_count)
          : 0.0;
  if (roam_latency_s_.count() > 0) {
    m.metro_roam_p50_s = roam_latency_s_.percentile(0.5);
    m.metro_roam_p95_s = roam_latency_s_.percentile(0.95);
  }
  m.sim_time_s = static_cast<double>(sim_.now()) / 1e6;
  m.events_fired = sim_.events_fired();
  m.trace_records = trace_.size();
  m.stats = sim_.stats_snapshot();
  return m;
}

}  // namespace rogue::scenario
