#include "attack/deauth.hpp"

namespace rogue::attack {

DeauthAttacker::DeauthAttacker(sim::Simulator& simulator, phy::Medium& medium,
                               phy::Channel channel, net::MacAddr spoofed_bssid,
                               net::MacAddr target) {
  AttackerEnv env;
  env.sim = &simulator;
  env.medium = &medium;
  env.legit_channel = channel;
  env.legit_bssid = spoofed_bssid;
  env.victim_mac = target;
  env.deauth_period = 50'000;
  configure(env);
}

void DeauthAttacker::configure(const AttackerEnv& env) {
  Attacker::configure(env);
  spoofed_bssid_ = env_.legit_bssid;
  target_ = env_.victim_mac;
  period_ = env_.deauth_period;
  radio_ = std::make_unique<phy::Radio>(*env_.medium, "deauth-attacker");
  radio_->set_channel(env_.legit_channel);
  radio_->set_position(env_.position);
}

void DeauthAttacker::send_once() {
  dot11::DeauthBody body;
  body.reason = dot11::ReasonCode::kPrevAuthExpired;
  // The forgery: we are not this AP. The sequence numbers are deliberately
  // implausible: real deauth forgery tools do not continue the AP's
  // counter, which is exactly what the sequence-control detector (detect/)
  // keys on.
  dot11::transmit_mgmt(*radio_,
                       {.subtype = dot11::MgmtSubtype::kDeauth,
                        .addr1 = target_,
                        .addr2 = spoofed_bssid_,
                        .addr3 = spoofed_bssid_,
                        .sequence = seq_++},
                       body);
  ++sent_;
}

void DeauthAttacker::start(sim::Time period) {
  if (running_) return;
  running_ = true;
  send_once();
  timer_ = env_.sim->every(period, [this] { send_once(); });
}

void DeauthAttacker::stop() {
  if (!running_) return;
  running_ = false;
  env_.sim->cancel(timer_);
}

}  // namespace rogue::attack
