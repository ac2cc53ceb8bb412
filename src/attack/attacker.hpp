// Pluggable attacker interface — the offensive mirror of
// detect::Detector. Every attack the tournament can field implements the
// same small surface:
//
//   auto a = attack::make_attacker("low-slow-deauth");
//   a->configure(env);   // target identity, position, seeded Prng
//   a->start();          // go hostile
//   a->stop();
//
// configure() receives an AttackerEnv describing the victim network (the
// identity to impersonate, the victim to kick, channels, and a Prng
// derived from the replica seed so every behavioural jitter is a pure
// function of that seed). Scenario-owned attacks that need a whole
// network stack (attack::RogueGateway) plug in through the env's
// deploy/stop hooks instead of rebuilding it here.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dot11/frame.hpp"
#include "net/addr.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/prng.hpp"

namespace rogue::attack {

/// Everything a World hands an attacker at configure() time.
struct AttackerEnv {
  sim::Simulator* sim = nullptr;
  phy::Medium* medium = nullptr;

  // The identity being attacked / impersonated.
  std::string ssid = "CORP";
  net::MacAddr legit_bssid;
  net::MacAddr victim_mac;
  phy::Channel legit_channel = 1;
  phy::Channel rogue_channel = 6;
  std::uint16_t beacon_interval_tu = 100;
  std::uint16_t capability = dot11::kCapEss;

  /// Where the attacker's radio sits.
  phy::Position position{};
  /// Flood cadence for the noisy deauth attacker.
  sim::Time deauth_period = 100 * sim::kMillisecond;
  /// Seed-derived stream: all behavioural randomness (jitter, delays)
  /// must come from here so a replica is a pure function of its seed.
  util::Prng rng;

  /// Scenario hooks for the full rogue-gateway stack (built by the World,
  /// since it owns IP plans and wired segments).
  std::function<void()> deploy_rogue;
  std::function<void()> stop_rogue;
};

class Attacker {
 public:
  Attacker() = default;
  virtual ~Attacker() = default;

  Attacker(const Attacker&) = delete;
  Attacker& operator=(const Attacker&) = delete;

  /// Registry name, e.g. "deauth-flood" or "cloner".
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Bind to a world. The default implementation stores the env;
  /// subclasses extend it (open radios etc.) after calling it.
  virtual void configure(const AttackerEnv& env) { env_ = env; }
  virtual void start() = 0;
  virtual void stop() = 0;

 protected:
  AttackerEnv env_;
};

/// The control row of the tournament matrix: never transmits, so every
/// alert scored against it is a false positive.
class NullAttacker final : public Attacker {
 public:
  [[nodiscard]] std::string_view name() const override { return "none"; }
  void start() override {}
  void stop() override {}
};

/// Adapter putting the scenario-owned attack::RogueGateway stack behind
/// the Attacker interface via the env's deploy/stop hooks.
class ScriptedRogue final : public Attacker {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "rogue-gateway";
  }
  void start() override {
    if (env_.deploy_rogue) env_.deploy_rogue();
  }
  void stop() override {
    if (env_.stop_rogue) env_.stop_rogue();
  }
};

/// Registry, mirroring detect::make_detector(): nullptr for unknown
/// names. (ArpSpoofer is Attacker-shaped too but needs a net::Host, so
/// Worlds construct it directly rather than via the registry.)
[[nodiscard]] std::unique_ptr<Attacker> make_attacker(std::string_view name);
/// Names accepted by make_attacker().
[[nodiscard]] std::vector<std::string_view> known_attackers();

}  // namespace rogue::attack
