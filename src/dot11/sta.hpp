// 802.11 Station (client) MAC. Scans passively, picks the strongest AP
// advertising its target SSID, authenticates, associates, and roams on
// deauthentication or beacon loss. There is no way for it to verify *which*
// network it joined — the vulnerability the whole paper is about: "clients
// could inadvertently connect to one of these Rogue APs" (§1.2.1).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/wep.hpp"
#include "dot11/wpa.hpp"
#include "dot11/frame.hpp"
#include "net/addr.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace rogue::dot11 {

/// A BSS discovered while scanning.
struct BssInfo {
  std::string ssid;
  net::MacAddr bssid;
  phy::Channel channel = 1;
  bool privacy = false;
  double rssi_dbm = -100.0;   ///< strongest sample seen this scan
  std::uint16_t last_seq = 0; ///< sequence number of the last beacon heard
};

/// How a station chooses among candidate APs with the matching SSID.
/// kBestRssi is what consumer supplicants did (and still mostly do) —
/// which is precisely what a rogue with a stronger signal exploits.
enum class JoinPolicy : std::uint8_t { kBestRssi, kFirstHeard, kRandom };

enum class StationState : std::uint8_t {
  kIdle,
  kScanning,
  kAuthenticating,
  kAssociating,
  kAssociated,
};

struct StationConfig {
  net::MacAddr mac;
  std::string target_ssid = "CORP";

  util::Bytes wep_key;        ///< 5 or 13 bytes when security == kWep
  crypto::WepIvPolicy iv_policy = crypto::WepIvPolicy::kSequential;
  AuthAlgorithm auth_algorithm = AuthAlgorithm::kOpenSystem;

  SecurityMode security = SecurityMode::kOpen;
  /// kWpaPsk: the network passphrase. kEap: this client's personal
  /// credential (which the authenticator also holds).
  util::Bytes wpa_psk;
  /// Give up on a BSS whose WPA/EAP handshake does not complete within
  /// this window, and avoid it for `bss_blocklist_duration`.
  sim::Time wpa_handshake_timeout = 1 * sim::kSecond;
  sim::Time bss_blocklist_duration = 30 * sim::kSecond;

  JoinPolicy join_policy = JoinPolicy::kBestRssi;
  std::vector<phy::Channel> scan_channels = {1, 6, 11};
  sim::Time scan_dwell = 120'000;          ///< per-channel listen time (us)
  sim::Time rescan_delay = 50'000;         ///< idle time between scan sweeps
  /// Consecutive failed scan/join cycles back the rescan delay off
  /// exponentially (with jitter) up to this cap; reset on association.
  sim::Time rescan_backoff_max = 2 * sim::kSecond;
  sim::Time response_timeout = 20'000;     ///< auth/assoc response timeout
  unsigned max_join_retries = 3;
  /// Beacon-loss disconnect threshold (multiples of the beacon interval).
  unsigned beacon_loss_intervals = 8;
};

struct StationCounters {
  std::uint64_t scans = 0;
  std::uint64_t scan_backoffs = 0;  ///< rescans delayed beyond the base delay
  std::uint64_t associations = 0;
  std::uint64_t deauths_received = 0;
  std::uint64_t beacon_losses = 0;
  std::uint64_t data_sent = 0;
  std::uint64_t data_received = 0;
  std::uint64_t wep_icv_failures = 0;
  std::uint64_t wpa_open_failures = 0;
  std::uint64_t wpa_replays_dropped = 0;
  std::uint64_t rx_mgmt = 0;  ///< management frames heard, any address
  std::uint64_t rx_data = 0;  ///< data frames heard, any address
  std::uint64_t rx_retry = 0;  ///< of those, marked as retransmissions
};

class Station {
 public:
  /// Upcall with a received MSDU: (src, dst, ethertype, payload).
  using RxHandler = std::function<void(net::MacAddr src, net::MacAddr dst,
                                       std::uint16_t ethertype, util::ByteView payload)>;
  /// Association lifecycle observer: "assoc"/"deauth"/"beacon-loss".
  using EventHandler = std::function<void(std::string_view event, const BssInfo& bss)>;

  Station(sim::Simulator& simulator, phy::Medium& medium, StationConfig config,
          sim::Trace* trace = nullptr);

  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  /// Kick off scanning + joining.
  void start();
  /// Drop any association and stop all activity.
  void stop();

  [[nodiscard]] const StationConfig& config() const { return config_; }
  [[nodiscard]] const StationCounters& counters() const { return counters_; }
  /// The dot11.sta.* tallies, read by the stats registry.
  void publish(obs::Tallies& out) const;
  [[nodiscard]] StationState state() const { return state_; }
  [[nodiscard]] bool associated() const { return state_ == StationState::kAssociated; }
  /// Data path live: associated, and (under WPA) handshake complete.
  [[nodiscard]] bool ready() const {
    return associated() && (!wpa_like() || wpa_established_);
  }
  /// BSS currently associated to (valid only when associated()).
  [[nodiscard]] const BssInfo& bss() const { return current_bss_; }
  [[nodiscard]] phy::Radio& radio() { return radio_; }

  /// Send an MSDU into the BSS toward `dst` (L3 stacks sit on top of this).
  /// Returns false when not associated.
  bool send(net::MacAddr dst, std::uint16_t ethertype, util::ByteView payload);

  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }
  void set_event_handler(EventHandler handler) { event_handler_ = std::move(handler); }

 private:
  void on_receive(util::ByteView raw, const phy::RxInfo& info);
  void handle_beacon(const FrameView& frame, const phy::RxInfo& info);
  void handle_auth_resp(const FrameView& frame);
  void handle_assoc_resp(const FrameView& frame);
  void handle_deauth(const FrameView& frame);
  void handle_data(const FrameView& frame);
  void handle_eapol(util::ByteView payload);
  void send_eapol(const WpaHandshakeFrame& frame);

  [[nodiscard]] bool wpa_like() const {
    return config_.security == SecurityMode::kWpaPsk ||
           config_.security == SecurityMode::kEap;
  }
  void arm_wpa_watchdog();
  void begin_scan();
  void scan_next_channel();
  void finish_scan();
  [[nodiscard]] std::optional<BssInfo> pick_candidate();
  void begin_join(const BssInfo& bss);
  void send_auth_request();
  void send_assoc_request();
  void on_join_timeout();
  void become_associated();
  void disconnect();
  /// Next rescan delay under exponential backoff + jitter; bumps the
  /// failed-cycle count.
  [[nodiscard]] sim::Time next_rescan_delay();
  void arm_beacon_watchdog();
  /// `protect` WEP-encapsulates the body (the shared-key reply).
  template <typename Body>
  void send_mgmt(MgmtSubtype subtype, net::MacAddr dst, const Body& body,
                 bool protect = false);
  /// Serialize into a pooled buffer and hand it to the radio.
  void transmit_frame(const Frame& frame);
  /// Count one lifecycle event in the world's trace, if one is attached.
  void note(sim::Severity severity);

  sim::Simulator& sim_;
  StationConfig config_;
  phy::Radio radio_;
  sim::Trace* trace_ = nullptr;

  StationState state_ = StationState::kIdle;
  bool running_ = false;
  std::uint16_t tx_seq_ = 0;
  std::optional<crypto::WepIvGenerator> iv_gen_;

  // Scanning state. Keyed by (BSSID, channel), as real supplicants key by
  // (BSSID, frequency) — otherwise a cloned-BSSID rogue on another channel
  // would shadow the legitimate entry.
  std::size_t scan_channel_index_ = 0;
  std::map<std::pair<net::MacAddr, phy::Channel>, BssInfo> scan_results_;
  sim::TimerHandle scan_timer_;
  unsigned failed_cycles_ = 0;  ///< scan/join failures since last association

  // Join state.
  BssInfo current_bss_;
  unsigned join_retries_ = 0;
  sim::TimerHandle join_timer_;

  // Associated state.
  sim::TimerHandle beacon_watchdog_;
  sim::Time last_beacon_time_ = 0;

  // WPA-PSK session state.
  util::Bytes pmk_;
  bool wpa_established_ = false;
  bool m1_seen_ = false;
  WpaNonce last_anonce_{};
  WpaNonce snonce_{};
  WpaPtk ptk_;
  util::Bytes gtk_;
  std::uint64_t wpa_tx_pn_ = 1;       ///< STA->AP pns are odd
  std::uint64_t wpa_rx_pn_max_ = 0;   ///< AP->STA unicast high-water mark
  std::uint64_t gtk_rx_pn_max_ = 0;
  sim::TimerHandle wpa_watchdog_;
  /// BSSes whose handshake failed: (bssid, channel) -> retry-after time.
  std::map<std::pair<net::MacAddr, phy::Channel>, sim::Time> bss_blocklist_;

  RxHandler rx_handler_;
  EventHandler event_handler_;
  StationCounters counters_;

  obs::Profiler::ScopeId rx_scope_;
  obs::TraceNameId trace_scan_;
  obs::TraceNameId trace_associated_;
  obs::TraceNameId trace_disconnect_;
  obs::TraceNameId trace_deauth_rx_;
  obs::TraceNameId trace_wpa_m1_;
  obs::TraceNameId trace_wpa_up_;
  obs::Publication publication_{sim_.stats(), *this};
};

}  // namespace rogue::dot11
