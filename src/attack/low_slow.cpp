#include "attack/low_slow.hpp"

namespace rogue::attack {

void LowSlowDeauth::configure(const AttackerEnv& env) {
  Attacker::configure(env);
  radio_ = std::make_unique<phy::Radio>(*env_.medium, "low-slow-deauth");
  radio_->set_channel(env_.legit_channel);
  radio_->set_position(env_.position);
  radio_->set_receive_handler(
      [this](util::ByteView raw, const phy::RxInfo& /*info*/) {
        const auto frame = dot11::FrameView::parse(raw);
        if (frame && frame->addr2 == env_.legit_bssid) {
          last_seq_ = frame->sequence & 0x0fff;
          seq_seen_ = true;
        }
      });
}

void LowSlowDeauth::send_once() {
  dot11::DeauthBody body;
  body.reason = dot11::ReasonCode::kPrevAuthExpired;
  // Sequence mimicry: one plausible step past the AP's last overheard
  // frame, indistinguishable from a retry to the gap/backstep rules.
  const auto sequence =
      static_cast<std::uint16_t>(seq_seen_ ? (last_seq_ + 1) & 0x0fff : 0);
  dot11::transmit_mgmt(*radio_,
                       {.subtype = dot11::MgmtSubtype::kDeauth,
                        .addr1 = env_.victim_mac,
                        .addr2 = env_.legit_bssid,
                        .addr3 = env_.legit_bssid,
                        .sequence = sequence},
                       body);
  ++sent_;
}

void LowSlowDeauth::schedule_next() {
  // 1.5–4 s between forgeries, far below any flood-rate threshold.
  const sim::Time gap =
      1'500'000 + static_cast<sim::Time>(env_.rng.uniform01() * 2'500'000.0);
  timer_ = env_.sim->after(gap, [this] {
    if (!running_) return;
    send_once();
    schedule_next();
  });
}

void LowSlowDeauth::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void LowSlowDeauth::stop() {
  if (!running_) return;
  running_ = false;
  env_.sim->cancel(timer_);
}

}  // namespace rogue::attack
