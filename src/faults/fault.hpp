// Deterministic fault injection: seed-derived chaos plans applied to a
// running scenario. The paper's §5 countermeasure (tunnel everything to a
// trusted endpoint) is evaluated only on the happy path; this subsystem
// supplies the churn — AP crashes, channel degradation, VPN endpoint
// outages, link flaps, deauth storms — against which the recovery
// machinery (vpn::ClientTunnel keepalive/reconnect, dot11::Station rescan
// backoff) is measured.
//
// Determinism contract: a Plan is a pure function of (PlanConfig, Prng
// state). Worlds derive the Prng from Simulator::derive_rng("faults.plan"),
// so the schedule is reproducible from the replica seed alone — never wall
// clock — and sweep reports stay byte-identical at any --jobs value.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "util/prng.hpp"

namespace rogue::faults {

enum class FaultKind : std::uint8_t {
  kApOutage = 0,        ///< legitimate AP powers off, then restarts
  kChannelDegrade = 1,  ///< raised floor loss on the phy::Medium
  kEndpointOutage = 2,  ///< VPN endpoint process crash + restart
  kLinkFlap = 3,        ///< endpoint uplink admin-down window
  kDeauthStorm = 4,     ///< forged deauth flood against the victim
  // Transport-chaos kinds (default-disabled so pre-existing plans draw
  // identically): datagram-level mangling on the phy::Medium that the
  // tunnel's anti-replay window must absorb.
  kReorder = 5,    ///< fraction of deliveries delayed past their successors
  kDuplicate = 6,  ///< fraction of deliveries delivered twice
  kJitter = 7,     ///< random extra delivery latency
};

inline constexpr std::uint8_t kFaultKindCount = 8;

[[nodiscard]] const char* to_string(FaultKind kind);

/// One scheduled fault window: the condition holds during
/// [at, at + duration), then lifts.
struct FaultEvent {
  FaultKind kind = FaultKind::kApOutage;
  sim::Time at = 0;
  sim::Time duration = 0;
  /// Kind-specific magnitude; for kChannelDegrade this is the extra loss
  /// probability layered onto MediumConfig::base_loss_prob.
  double severity = 0.0;
};

struct PlanConfig {
  /// Expected fault events per simulated minute of [start, horizon).
  double intensity = 1.0;
  /// Events are scheduled in [start, horizon); 0 horizon = "caller fills
  /// in the episode length" (worlds derive it from their phase windows).
  sim::Time start = 0;
  sim::Time horizon = 0;
  sim::Time min_duration = 200 * sim::kMillisecond;
  sim::Time max_duration = 3 * sim::kSecond;
  /// Extra loss probability for channel-degradation windows.
  double degrade_loss = 0.85;
  /// Per-delivery reorder probability during kReorder windows.
  double reorder_prob = 0.25;
  /// Per-delivery duplication probability during kDuplicate windows.
  double duplicate_prob = 0.15;
  /// Max extra delivery latency (milliseconds) during kJitter windows.
  double jitter_ms = 4.0;
  // Per-kind enables (a corp chaos run may e.g. disable link flaps).
  bool ap_outage = true;
  bool channel_degrade = true;
  bool endpoint_outage = true;
  bool link_flap = true;
  bool deauth_storm = true;
  // Transport-chaos kinds are opt-in: enabling a kind changes how many
  // draws generate() makes, so defaults stay off to keep pre-existing
  // seeded plans byte-identical.
  bool reorder = false;
  bool duplicate = false;
  bool jitter = false;
};

/// A deterministic schedule of fault windows, sorted by start time.
class Plan {
 public:
  /// Draw a schedule from `rng`. When the budget (intensity x minutes)
  /// allows, every enabled kind appears at least once — a chaos run that
  /// never crashes the endpoint would not exercise the recovery path it
  /// exists to measure.
  [[nodiscard]] static Plan generate(util::Prng& rng, const PlanConfig& config);

  /// Wrap an explicit schedule (scripted chaos, tests). Events are sorted
  /// by start time; overlapping windows are fine — the Injector collapses
  /// them per kind.
  [[nodiscard]] static Plan from_events(std::vector<FaultEvent> events);

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

 private:
  std::vector<FaultEvent> events_;
};

/// What a world must expose for faults to land on it. Each hook is edge
/// triggered: the injector calls it once when a condition begins and once
/// when it ends, with overlapping windows of the same kind collapsed
/// (depth counted) so a world never sees "begin" twice without an "end".
class FaultTarget {
 public:
  virtual ~FaultTarget() = default;

  virtual void fault_ap(bool down) = 0;
  virtual void fault_endpoint(bool down) = 0;
  /// `extra_loss` is the strongest active degradation (0 = none).
  virtual void fault_channel(double extra_loss) = 0;
  virtual void fault_link(bool down) = 0;
  virtual void fault_deauth_storm(bool active) = 0;
  // Transport-chaos hooks carry the strongest active severity (0 = off).
  virtual void fault_reorder(double probability) = 0;
  virtual void fault_duplicate(double probability) = 0;
  virtual void fault_jitter(double max_ms) = 0;
};

/// Schedules a Plan's begin/end transitions on the simulator and folds
/// overlapping windows before invoking the target's hooks.
class Injector {
 public:
  Injector(sim::Simulator& simulator, FaultTarget& target);
  ~Injector();

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Schedule every event in the plan (idempotent per event; call once).
  void install(Plan plan);

  [[nodiscard]] const Plan& plan() const { return plan_; }
  /// Fault windows whose begin edge has fired so far.
  [[nodiscard]] std::uint64_t injected() const { return injected_; }

 private:
  void begin(const FaultEvent& event);
  void end(const FaultEvent& event);
  /// Severity-stacked kinds: the target sees the max active severity on
  /// every edge, and 0 when the last window lifts.
  void push_severity(std::vector<double>& stack, FaultKind kind, double severity);
  void pop_severity(std::vector<double>& stack, FaultKind kind, double severity);
  void apply_severity(FaultKind kind, const std::vector<double>& stack);

  sim::Simulator& sim_;
  FaultTarget& target_;
  Plan plan_;
  std::vector<sim::TimerHandle> timers_;
  std::uint64_t injected_ = 0;
  int depth_[kFaultKindCount] = {};
  obs::TraceActorId trace_actor_;
  obs::TraceNameId trace_names_[kFaultKindCount];
  std::vector<double> degrade_active_;
  std::vector<double> reorder_active_;
  std::vector<double> duplicate_active_;
  std::vector<double> jitter_active_;
};

}  // namespace rogue::faults
