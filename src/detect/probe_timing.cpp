#include "detect/probe_timing.hpp"

#include <string>

namespace rogue::detect {

void ProbeTimingDetector::attach(const DetectorEnv& env) {
  Detector::attach(env);
  open_radios(env);
  if (env.sim == nullptr) return;
  // Stagger channels so two probers never contend with each other; the
  // phases are fixed offsets, keeping the schedule a pure function of the
  // seed.
  for (std::size_t i = 0; i < radios().size(); ++i) {
    env.sim->every(config_.probe_period,
                   50 * sim::kMillisecond +
                       static_cast<sim::Time>(i) * 125 * sim::kMillisecond,
                   [this, i] { send_probe(i); });
  }
}

void ProbeTimingDetector::begin_transaction(phy::Channel channel, sim::Time at) {
  Txn& txn = txns_[channel];
  txn.open = true;
  txn.probe_time = at;
  txn.responders.clear();
}

void ProbeTimingDetector::send_probe(std::size_t radio_index) {
  phy::Radio& radio = *radios()[radio_index];
  begin_transaction(radio.channel(), sim()->now());

  dot11::transmit_mgmt(radio,
                       {.subtype = dot11::MgmtSubtype::kProbeReq,
                        .addr1 = net::MacAddr::broadcast(),
                        .addr2 = prober_mac_,
                        .addr3 = net::MacAddr::broadcast(),
                        .sequence = probe_seq_++},
                       dot11::ProbeReqBody{});  // wildcard
  ++probes_sent_;
}

void ProbeTimingDetector::observe(const dot11::FrameView& frame,
                                  const phy::RxInfo& info) {
  ++frames_;
  if (!frame.is_mgmt(dot11::MgmtSubtype::kProbeResp)) return;
  if (frame.addr1 != prober_mac_) return;

  const auto it = txns_.find(info.channel);
  if (it == txns_.end() || !it->second.open) return;
  Txn& txn = it->second;

  const sim::Time latency = info.time - txn.probe_time;
  const std::size_t responses = ++txn.responders[frame.addr2];
  if (responses >= 2 &&
      first_alert(frame.addr2, AlertKind::kDuplicateProbeResponse)) {
    emit({info.time, AlertKind::kDuplicateProbeResponse, frame.addr2,
          std::to_string(responses) + " responses to one probe on ch " +
              std::to_string(info.channel)});
  }
  if (latency > config_.skew_threshold &&
      first_alert(frame.addr2, AlertKind::kProbeTimingSkew)) {
    emit({info.time, AlertKind::kProbeTimingSkew, frame.addr2,
          "response after " + std::to_string(latency) + " us (threshold " +
              std::to_string(config_.skew_threshold) + " us)"});
  }
}

}  // namespace rogue::detect
