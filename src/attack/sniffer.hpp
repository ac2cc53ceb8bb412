// Monitor-mode sniffer: a radio that keeps every frame it can hear, the
// tool behind the paper's claims that "wireless networks allow clients to
// sniff other people's packets" (§1.1) and that valid MACs "can be sniffed
// from the network" (§2.1). With the shared WEP key it decrypts everything
// (insider threat); without it, it still harvests IVs for the FMS attack.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "attack/fms.hpp"
#include "obs/pcap.hpp"
#include "dot11/wpa.hpp"
#include "dot11/frame.hpp"
#include "net/addr.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"

namespace rogue::attack {

struct ObservedBss {
  std::string ssid;
  net::MacAddr bssid;
  phy::Channel channel = 1;
  bool privacy = false;
  std::uint64_t beacons = 0;
  double last_rssi_dbm = -100.0;
};

struct SnifferCounters {
  std::uint64_t frames = 0;
  std::uint64_t mgmt_frames = 0;
  std::uint64_t data_frames = 0;
  std::uint64_t wep_data_frames = 0;
  std::uint64_t data_bytes_on_air = 0;     ///< data frame body bytes seen
  std::uint64_t plaintext_bytes = 0;       ///< MSDU bytes readable in clear
  std::uint64_t decrypted_bytes = 0;       ///< MSDU bytes decrypted with a key
  std::uint64_t wep_decrypt_failures = 0;
  std::uint64_t wpa_handshakes_observed = 0;
  std::uint64_t wpa_decrypt_failures = 0;
};

struct SnifferConfig {
  phy::Channel channel = 1;
  /// Channels to hop across (empty = stay on `channel`).
  std::vector<phy::Channel> hop_channels;
  sim::Time hop_dwell = 250'000;
  /// Shared WEP key if the adversary has it (insider / post-FMS).
  std::optional<util::Bytes> wep_key;
  /// Key length assumed when harvesting FMS samples.
  std::size_t fms_key_len = crypto::kWep40KeyLen;
  /// WPA-PSK credentials if the adversary has them (§2.2: any valid
  /// client). With these + a captured 4-way handshake, pairwise traffic
  /// decrypts offline.
  std::optional<util::Bytes> wpa_psk;
  std::string wpa_ssid = "CORP";
};

class Sniffer {
 public:
  /// Recovered MSDU observer (cleartext or decrypted): src, dst,
  /// ethertype, payload.
  using MsduHandler = std::function<void(net::MacAddr src, net::MacAddr dst,
                                         std::uint16_t ethertype,
                                         util::ByteView payload)>;

  Sniffer(sim::Simulator& simulator, phy::Medium& medium, SnifferConfig config);

  Sniffer(const Sniffer&) = delete;
  Sniffer& operator=(const Sniffer&) = delete;

  [[nodiscard]] phy::Radio& radio() { return radio_; }
  [[nodiscard]] const SnifferCounters& counters() const { return counters_; }
  [[nodiscard]] FmsCracker& fms() { return fms_; }
  /// Present when wpa_psk was configured.
  [[nodiscard]] dot11::WpaPassiveDecryptor* wpa() { return wpa_ ? &*wpa_ : nullptr; }

  /// BSS census built from beacons (keyed by BSSID + channel, so a rogue
  /// cloning the BSSID on another channel shows up separately).
  [[nodiscard]] std::vector<ObservedBss> observed_bss() const;
  /// Client MACs seen transmitting to-DS data or association traffic —
  /// the pool a MAC-spoofing attacker picks from.
  [[nodiscard]] const std::set<net::MacAddr>& observed_clients() const {
    return clients_;
  }

  void set_msdu_handler(MsduHandler handler) { on_msdu_ = std::move(handler); }

  /// Attach a pcap writer: every raw frame heard is appended (airodump
  /// style). The writer must outlive the sniffer.
  void set_pcap(obs::PcapWriter* writer) { pcap_ = writer; }

  /// Give the sniffer a key later (e.g. after FMS recovery succeeds).
  void set_wep_key(util::Bytes key) { config_.wep_key = std::move(key); }

 private:
  void on_receive(util::ByteView raw, const phy::RxInfo& info);
  void handle_data(const dot11::FrameView& frame);

  sim::Simulator& sim_;
  SnifferConfig config_;
  phy::Radio radio_;
  FmsCracker fms_;
  std::optional<dot11::WpaPassiveDecryptor> wpa_;
  obs::PcapWriter* pcap_ = nullptr;
  std::size_t hop_index_ = 0;
  std::map<std::pair<net::MacAddr, phy::Channel>, ObservedBss> bss_;
  std::set<net::MacAddr> clients_;
  MsduHandler on_msdu_;
  SnifferCounters counters_;
};

}  // namespace rogue::attack
