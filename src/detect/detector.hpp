// Pluggable WIDS detector interface. Every §2.3-style monitor — sequence
// control, fingerprinting, RSSI profiling, probe timing, site audit, wired
// census — implements the same small surface:
//
//   auto d = detect::make_detector("fingerprint");
//   d->attach(env);            // radios on the World's channel plan
//   ... run the episode ...
//   for (const Alert& a : d->alerts()) ...
//
// attach() receives a DetectorEnv describing the defended network (channel
// plan, authorized-AP inventory, monitor position, wired segment), so a
// detector follows the World's layout instead of hard-coding channel 1.
// Alerts share one record shape across all detectors, which is what lets
// the tournament runner aggregate detection/FP/TTD per (attacker,
// detector) pair without caring which detector fired.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dot11/frame.hpp"
#include "net/addr.hpp"
#include "obs/stats.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace rogue::net {
class L2Segment;
}  // namespace rogue::net

namespace rogue::detect {

enum class AlertKind : std::uint8_t {
  kSeqAnomaly,             ///< implausible 802.11 sequence-control jump
  kFingerprintMismatch,    ///< advertised SSID/interval/capability off-book
  kChannelMismatch,        ///< our BSSID beaconing on a channel we don't use
  kUnknownBssid,           ///< our SSID advertised by a BSSID we don't own
  kPrivacyMismatch,        ///< our SSID advertised with the wrong privacy bit
  kUnknownSsid,            ///< foreign network in our airspace (informational)
  kRssiInconsistent,       ///< frame RSSI far from the transmitter's profile
  kDuplicateProbeResponse, ///< two responders answered one probe transaction
  kProbeTimingSkew,        ///< probe response far slower than the baseline
  kWiredUnknownMac,        ///< unregistered source MAC on the wired segment
};

[[nodiscard]] std::string_view to_string(AlertKind kind);

/// The one alert record every detector emits (satellite: SeqAnomaly and
/// friends unified). `detail` is a short human-readable explanation.
struct Alert {
  sim::Time time = 0;
  AlertKind kind = AlertKind::kSeqAnomaly;
  net::MacAddr transmitter;
  std::string detail;
};

/// One authorized AP in the administrator's records — the fingerprint the
/// detectors audit the air against.
struct TrustedAp {
  std::string ssid;
  net::MacAddr bssid;
  phy::Channel channel = 1;
  std::uint16_t beacon_interval_tu = 100;
  std::uint16_t capability = dot11::kCapEss;
};

/// Everything a World hands a detector at attach time. Radio-based
/// detectors open one monitor radio per entry of `channels` (the World's
/// channel plan — not a hard-coded channel 1), all at `position`.
struct DetectorEnv {
  sim::Simulator* sim = nullptr;
  phy::Medium* medium = nullptr;
  sim::Trace* trace = nullptr;
  std::vector<phy::Channel> channels;
  phy::Position position{};
  std::vector<TrustedAp> inventory;
  /// Wired-side context (WiredMonitor); nullptr when the scenario has no
  /// monitored segment.
  net::L2Segment* wired = nullptr;
  std::vector<net::MacAddr> known_wired_macs;
};

class Detector {
 public:
  using AlertSink = std::function<void(const Alert&)>;

  Detector() = default;
  virtual ~Detector() = default;

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  /// Registry name, e.g. "seqnum" or "fingerprint".
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Bind to a world. The default implementation records the environment
  /// and interns this detector's stats and Tracer handles; subclasses
  /// extend it (open radios, install taps) and must call
  /// Detector::attach() first.
  virtual void attach(const DetectorEnv& env);

  /// Feed one frame (offline traces, unit tests; radio-based detectors
  /// route their receive handlers here too).
  virtual void observe(const dot11::FrameView& frame, const phy::RxInfo& info);

  [[nodiscard]] const std::vector<Alert>& alerts() const { return alerts_; }
  /// Transmitters with at least `min_alerts` alerts, in the order they
  /// crossed the threshold (deterministic).
  [[nodiscard]] std::vector<net::MacAddr> suspects(std::size_t min_alerts = 1) const;
  [[nodiscard]] std::uint64_t frames_observed() const { return frames_; }
  /// detect.<name>.alerts, read by the stats registry once attached.
  void publish(obs::Tallies& out) const;

  /// Forward every alert as it fires (the composite detector's plumbing).
  void set_alert_sink(AlertSink sink) { sink_ = std::move(sink); }

 protected:
  /// Publish an alert: Tracer instant, a kWarn note in the world's trace,
  /// the sink, then the alert list (the stats tally), in that order.
  void emit(Alert alert);
  /// True the first time (transmitter, kind) is seen — detectors that
  /// would otherwise re-alert on every frame gate emit() on this.
  [[nodiscard]] bool first_alert(net::MacAddr transmitter, AlertKind kind);
  /// Open one monitor radio per env channel at env.position, all feeding
  /// observe(). Call from attach() in radio-based detectors.
  void open_radios(const DetectorEnv& env);

  [[nodiscard]] sim::Simulator* sim() { return sim_; }
  [[nodiscard]] const std::vector<std::unique_ptr<phy::Radio>>& radios() const {
    return radios_;
  }

  std::uint64_t frames_ = 0;

 private:
  sim::Simulator* sim_ = nullptr;
  sim::Trace* trace_ = nullptr;
  obs::TraceNameId tracer_alert_;
  obs::TraceActorId tracer_actor_;
  std::vector<std::unique_ptr<phy::Radio>> radios_;
  std::vector<Alert> alerts_;
  std::set<std::pair<net::MacAddr, AlertKind>> emitted_;
  AlertSink sink_;
  std::string alerts_stat_;  ///< "detect.<name>.alerts"
  std::optional<obs::Publication> publication_;  ///< from attach() on
};

/// Runs a panel of child detectors as one: children's alerts surface
/// through the composite (chronologically interleaved as they fire), so a
/// tournament cell can score "all of the above" like any single detector.
class CompositeDetector final : public Detector {
 public:
  explicit CompositeDetector(std::vector<std::unique_ptr<Detector>> children);

  [[nodiscard]] std::string_view name() const override { return "composite"; }
  void attach(const DetectorEnv& env) override;
  void observe(const dot11::FrameView& frame, const phy::RxInfo& info) override;

  [[nodiscard]] const std::vector<std::unique_ptr<Detector>>& children() const {
    return children_;
  }

 private:
  std::vector<std::unique_ptr<Detector>> children_;
};

/// Registry, mirroring runner::stock_variants(): plain name -> instance
/// lookup, no static-initialization tricks. nullptr for unknown names.
[[nodiscard]] std::unique_ptr<Detector> make_detector(std::string_view name);
/// Names accepted by make_detector().
[[nodiscard]] std::vector<std::string_view> known_detectors();

}  // namespace rogue::detect
