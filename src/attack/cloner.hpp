// Fingerprint-cloning rogue AP (arXiv 2512.10470's evil-twin stealth
// class): passively learns the legitimate AP's on-air identity — SSID,
// BSSID, channel, beacon interval, capability bits — and replays it
// exactly, including continuing the AP's 802.11 sequence counter from the
// last overheard frame so sequence-control monitoring sees one plausible
// stream. What it cannot clone is physics: its frames arrive at the
// monitor with the wrong RSSI, and its host-stack probe responses are
// milliseconds slower than AP firmware (and duplicate the real AP's
// answer), which is what the RSSI-profile and probe-timing detectors key
// on.
#pragma once

#include <cstdint>
#include <memory>

#include "attack/attacker.hpp"

namespace rogue::attack {

class FingerprintCloner final : public Attacker {
 public:
  FingerprintCloner() = default;

  [[nodiscard]] std::string_view name() const override { return "cloner"; }
  /// Opens the listening radio immediately: the clone learns its
  /// fingerprint during the quiet window before start().
  void configure(const AttackerEnv& env) override;
  void start() override;
  void stop() override;

  [[nodiscard]] std::uint64_t beacons_sent() const { return beacons_sent_; }
  [[nodiscard]] std::uint64_t probe_responses_sent() const {
    return responses_sent_;
  }

 private:
  void on_receive(const dot11::FrameView& frame, const phy::RxInfo& info);
  void send_beacon();
  void send_probe_response(net::MacAddr dest);
  [[nodiscard]] std::uint16_t next_seq();

  std::unique_ptr<phy::Radio> radio_;
  bool running_ = false;
  bool seq_seen_ = false;
  std::uint16_t last_seq_ = 0;
  dot11::BeaconBody fingerprint_;
  bool fingerprint_learned_ = false;
  sim::TimerHandle beacon_timer_;
  std::uint64_t beacons_sent_ = 0;
  std::uint64_t responses_sent_ = 0;
};

}  // namespace rogue::attack
