#include "detect/detector.hpp"

#include <string>

#include "detect/fingerprint.hpp"
#include "detect/probe_timing.hpp"
#include "detect/rssi_profile.hpp"
#include "detect/seqnum.hpp"
#include "detect/site_audit.hpp"
#include "detect/wired_monitor.hpp"

namespace rogue::detect {

std::string_view to_string(AlertKind kind) {
  switch (kind) {
    case AlertKind::kSeqAnomaly: return "seq-anomaly";
    case AlertKind::kFingerprintMismatch: return "fingerprint-mismatch";
    case AlertKind::kChannelMismatch: return "channel-mismatch";
    case AlertKind::kUnknownBssid: return "unknown-bssid";
    case AlertKind::kPrivacyMismatch: return "privacy-mismatch";
    case AlertKind::kUnknownSsid: return "unknown-ssid";
    case AlertKind::kRssiInconsistent: return "rssi-inconsistent";
    case AlertKind::kDuplicateProbeResponse: return "duplicate-probe-response";
    case AlertKind::kProbeTimingSkew: return "probe-timing-skew";
    case AlertKind::kWiredUnknownMac: return "wired-unknown-mac";
  }
  return "unknown";
}

void Detector::attach(const DetectorEnv& env) {
  sim_ = env.sim;
  trace_ = env.trace;
  if (sim_ != nullptr) {
    if (!publication_) {
      alerts_stat_ = "detect." + std::string(name()) + ".alerts";
      publication_.emplace(sim_->stats(), *this);
    }
    tracer_alert_ = sim_->tracer().name("detect.alert");
    tracer_actor_ = sim_->tracer().actor("detect:" + std::string(name()));
  }
}

void Detector::observe(const dot11::FrameView&, const phy::RxInfo&) {}

void Detector::publish(obs::Tallies& out) const {
  out.counter(alerts_stat_, alerts_.size());
}

void Detector::emit(Alert alert) {
  if (sim_ != nullptr) {
    // Runs inside the offending frame's delivery scope, so the alert
    // inherits the attack frame's trace id — chain reconstruction links
    // attacker tx -> monitor rx -> this alert with no extra plumbing.
    sim_->tracer().instant(tracer_alert_, tracer_actor_,
                           obs::TraceLayer::kDetect, 0,
                           static_cast<std::uint64_t>(alert.kind));
  }
  if (trace_ != nullptr) trace_->note(sim::Severity::kWarn);
  if (sink_) sink_(alert);
  alerts_.push_back(std::move(alert));
}

bool Detector::first_alert(net::MacAddr transmitter, AlertKind kind) {
  return emitted_.insert({transmitter, kind}).second;
}

void Detector::open_radios(const DetectorEnv& env) {
  for (const phy::Channel ch : env.channels) {
    auto radio = std::make_unique<phy::Radio>(
        *env.medium,
        std::string(name()) + "-monitor-ch" + std::to_string(ch));
    radio->set_channel(ch);
    radio->set_position(env.position);
    radio->set_receive_handler(
        [this](util::ByteView raw, const phy::RxInfo& info) {
          const auto frame = dot11::FrameView::parse(raw);
          if (frame) observe(*frame, info);
        });
    radios_.push_back(std::move(radio));
  }
}

std::vector<net::MacAddr> Detector::suspects(std::size_t min_alerts) const {
  std::vector<net::MacAddr> out;
  if (min_alerts == 0) min_alerts = 1;
  std::unordered_map<net::MacAddr, std::size_t> counts;
  for (const Alert& alert : alerts_) {
    if (++counts[alert.transmitter] == min_alerts) {
      out.push_back(alert.transmitter);
    }
  }
  return out;
}

// ---- CompositeDetector -----------------------------------------------------

CompositeDetector::CompositeDetector(
    std::vector<std::unique_ptr<Detector>> children)
    : children_(std::move(children)) {}

void CompositeDetector::attach(const DetectorEnv& env) {
  Detector::attach(env);
  for (auto& child : children_) {
    child->set_alert_sink([this](const Alert& alert) { emit(alert); });
    child->attach(env);
  }
}

void CompositeDetector::observe(const dot11::FrameView& frame,
                                const phy::RxInfo& info) {
  ++frames_;
  for (auto& child : children_) child->observe(frame, info);
}

// ---- Registry --------------------------------------------------------------

std::unique_ptr<Detector> make_detector(std::string_view name) {
  if (name == "seqnum") return std::make_unique<SeqNumMonitor>();
  if (name == "fingerprint") return std::make_unique<FingerprintDetector>();
  if (name == "rssi") return std::make_unique<RssiProfileDetector>();
  if (name == "probe-timing") return std::make_unique<ProbeTimingDetector>();
  if (name == "site-audit") return std::make_unique<SiteAudit>();
  if (name == "wired") return std::make_unique<WiredMonitor>();
  if (name == "composite") {
    std::vector<std::unique_ptr<Detector>> children;
    children.push_back(std::make_unique<SeqNumMonitor>());
    children.push_back(std::make_unique<FingerprintDetector>());
    children.push_back(std::make_unique<RssiProfileDetector>());
    children.push_back(std::make_unique<ProbeTimingDetector>());
    return std::make_unique<CompositeDetector>(std::move(children));
  }
  return nullptr;
}

std::vector<std::string_view> known_detectors() {
  return {"seqnum",     "fingerprint", "rssi",     "probe-timing",
          "site-audit", "wired",       "composite"};
}

}  // namespace rogue::detect
