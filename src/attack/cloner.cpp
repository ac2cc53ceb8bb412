#include "attack/cloner.hpp"

namespace rogue::attack {

void FingerprintCloner::configure(const AttackerEnv& env) {
  Attacker::configure(env);
  // Seed the fingerprint from the records the attacker could guess, then
  // overwrite with whatever the real AP actually advertises.
  fingerprint_.ssid = env_.ssid;
  fingerprint_.beacon_interval_tu = env_.beacon_interval_tu;
  fingerprint_.capability = env_.capability;
  fingerprint_.channel = env_.legit_channel;

  radio_ = std::make_unique<phy::Radio>(*env_.medium, "cloner");
  radio_->set_channel(env_.legit_channel);
  radio_->set_position(env_.position);
  radio_->set_receive_handler(
      [this](util::ByteView raw, const phy::RxInfo& info) {
        const auto frame = dot11::FrameView::parse(raw);
        if (frame) on_receive(*frame, info);
      });
}

void FingerprintCloner::on_receive(const dot11::FrameView& frame,
                                   const phy::RxInfo& /*info*/) {
  if (frame.addr2 == env_.legit_bssid) {
    // Continue the AP's counter: every overheard frame re-anchors it, so
    // our next transmission is one plausible step ahead.
    last_seq_ = frame.sequence & 0x0fff;
    seq_seen_ = true;
    if (frame.is_mgmt(dot11::MgmtSubtype::kBeacon) ||
        frame.is_mgmt(dot11::MgmtSubtype::kProbeResp)) {
      if (const auto body = dot11::BeaconBody::decode(frame.body)) {
        fingerprint_ = *body;
        fingerprint_learned_ = true;
      }
    }
  }
  if (running_ && frame.is_mgmt(dot11::MgmtSubtype::kProbeReq)) {
    const auto req = dot11::ProbeReqBody::decode(frame.body);
    if (req && (req->ssid.empty() || req->ssid == fingerprint_.ssid)) {
      // Host-stack handling: answer after a few milliseconds, where real
      // firmware answers in microseconds. The jitter is seed-derived.
      const sim::Time delay = 3000 + env_.rng.uniform_u32(3001);
      const net::MacAddr dest = frame.addr2;
      env_.sim->after(delay, [this, dest] {
        if (running_) send_probe_response(dest);
      });
    }
  }
}

std::uint16_t FingerprintCloner::next_seq() {
  return seq_seen_ ? static_cast<std::uint16_t>((last_seq_ + 1) & 0x0fff) : 0;
}

void FingerprintCloner::send_beacon() {
  fingerprint_.timestamp = static_cast<std::uint64_t>(env_.sim->now());
  dot11::transmit_mgmt(*radio_,
                       {.subtype = dot11::MgmtSubtype::kBeacon,
                        .addr1 = net::MacAddr::broadcast(),
                        .addr2 = env_.legit_bssid,
                        .addr3 = env_.legit_bssid,
                        .sequence = next_seq()},
                       fingerprint_);
  ++beacons_sent_;
}

void FingerprintCloner::send_probe_response(net::MacAddr dest) {
  fingerprint_.timestamp = static_cast<std::uint64_t>(env_.sim->now());
  dot11::transmit_mgmt(*radio_,
                       {.subtype = dot11::MgmtSubtype::kProbeResp,
                        .addr1 = dest,
                        .addr2 = env_.legit_bssid,
                        .addr3 = env_.legit_bssid,
                        .sequence = next_seq()},
                       fingerprint_);
  ++responses_sent_;
}

void FingerprintCloner::start() {
  if (running_) return;
  running_ = true;
  const sim::Time interval =
      static_cast<sim::Time>(fingerprint_.beacon_interval_tu) * 1024;
  send_beacon();
  beacon_timer_ = env_.sim->every(interval, [this] { send_beacon(); });
}

void FingerprintCloner::stop() {
  if (!running_) return;
  running_ = false;
  env_.sim->cancel(beacon_timer_);
}

}  // namespace rogue::attack
