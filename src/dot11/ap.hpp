// 802.11 Access Point MAC. Implements exactly the mechanisms the paper
// shows to be insufficient: SSID announcement, open/shared-key
// authentication, WEP encryption, and MAC-address filtering — none of
// which lets a *client* authenticate the *network* (§3.1), which is why a
// rogue AP configured with the same SSID/WEP key is indistinguishable.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/wep.hpp"
#include "dot11/wpa.hpp"
#include "dot11/frame.hpp"
#include "net/addr.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace rogue::dot11 {

struct ApConfig {
  std::string ssid = "CORP";
  net::MacAddr bssid;
  phy::Channel channel = 1;

  /// Any mode but kOpen sets the privacy capability bit.
  SecurityMode security = SecurityMode::kOpen;
  util::Bytes wep_key;        ///< 5 or 13 bytes when security == kWep
  crypto::WepIvPolicy iv_policy = crypto::WepIvPolicy::kSequential;
  util::Bytes wpa_psk;        ///< passphrase when security == kWpaPsk
  /// security == kEap: the authenticator's credential database (RADIUS
  /// stand-in). A rogue AP knows at most its own entry.
  std::vector<std::pair<net::MacAddr, util::Bytes>> eap_client_keys;

  AuthAlgorithm auth_algorithm = AuthAlgorithm::kOpenSystem;

  bool mac_filtering = false;  ///< only `allowed_macs` may associate
  std::vector<net::MacAddr> allowed_macs;

  sim::Time beacon_interval = 102'400;  ///< 100 TU in microseconds
};

struct ApCounters {
  std::uint64_t beacons_sent = 0;
  std::uint64_t auth_ok = 0;
  std::uint64_t auth_rejected = 0;
  std::uint64_t assoc_ok = 0;
  std::uint64_t assoc_rejected = 0;
  std::uint64_t data_up = 0;        ///< MSDUs delivered to the DS
  std::uint64_t data_down = 0;      ///< MSDUs sent toward stations
  std::uint64_t wep_icv_failures = 0;
  std::uint64_t dropped_unencrypted = 0;
  std::uint64_t wpa_handshakes_completed = 0;
  std::uint64_t wpa_open_failures = 0;
  std::uint64_t wpa_replays_dropped = 0;
  std::uint64_t rx_mgmt = 0;  ///< management frames heard, any address
  std::uint64_t rx_data = 0;  ///< data frames heard, any address
  std::uint64_t rx_retry = 0;  ///< of those, marked as retransmissions
  std::uint64_t deauths_received = 0;  ///< deauth/disassoc to this BSS
  std::uint64_t deauths_sent = 0;
};

class AccessPoint {
 public:
  /// Called for MSDUs leaving the BSS toward the distribution system
  /// (the wired uplink / router behind the AP).
  using DsHandler = std::function<void(net::MacAddr src, net::MacAddr dst,
                                       std::uint16_t ethertype, util::ByteView payload)>;
  /// Observer for association table changes ("assoc"/"deauth" + MAC).
  using EventHandler = std::function<void(std::string_view event, net::MacAddr sta)>;

  AccessPoint(sim::Simulator& simulator, phy::Medium& medium, ApConfig config,
              sim::Trace* trace = nullptr);

  AccessPoint(const AccessPoint&) = delete;
  AccessPoint& operator=(const AccessPoint&) = delete;

  /// Begin beaconing and serving stations.
  void start();
  /// Stop beaconing and drop all associations (silently).
  void stop();

  [[nodiscard]] const ApConfig& config() const { return config_; }
  [[nodiscard]] const ApCounters& counters() const { return counters_; }
  /// The dot11.ap.* tallies, read by the stats registry.
  void publish(obs::Tallies& out) const;
  [[nodiscard]] phy::Radio& radio() { return radio_; }

  [[nodiscard]] bool is_associated(net::MacAddr sta) const;
  /// With WPA: associated AND 4-way handshake complete (data-path live).
  [[nodiscard]] bool is_station_ready(net::MacAddr sta) const;
  [[nodiscard]] std::vector<net::MacAddr> associated_stations() const;

  /// Inject an MSDU from the distribution system toward a station (or
  /// broadcast). Returns false if dst is neither broadcast nor associated.
  bool send_to_station(net::MacAddr dst, net::MacAddr src, std::uint16_t ethertype,
                       util::ByteView payload);

  /// Administratively kick a station (sends a deauthentication frame).
  void deauth_station(net::MacAddr sta, ReasonCode reason);

  void set_ds_handler(DsHandler handler) { ds_handler_ = std::move(handler); }
  void set_event_handler(EventHandler handler) { event_handler_ = std::move(handler); }

  void allow_mac(net::MacAddr mac) { config_.allowed_macs.push_back(mac); }

 private:
  struct WpaStation {
    WpaNonce anonce{};
    WpaPtk ptk;
    bool established = false;
    bool have_ptk = false;
    std::uint64_t tx_pn = 0;      ///< AP->STA packet numbers (even)
    std::uint64_t rx_pn_max = 0;  ///< highest STA->AP pn accepted
    unsigned retries = 0;
    sim::TimerHandle retry_timer;
  };

  void on_receive(util::ByteView raw, const phy::RxInfo& info);
  void handle_probe_req(const FrameView& frame);
  void handle_auth(const FrameView& frame);
  void handle_assoc_req(const FrameView& frame);
  void handle_data(const FrameView& frame);
  void handle_deauth(const FrameView& frame);
  void start_wpa_handshake(net::MacAddr sta);
  /// EAPOL frames are unacknowledged; the authenticator retransmits the
  /// current message (M1 or M3) until the next one arrives or it gives up.
  void schedule_eapol_retry(net::MacAddr sta);
  void send_m3(net::MacAddr sta, WpaStation& state);
  /// PMK for a station under the configured mode; nullopt if unknown
  /// client in kEap mode.
  [[nodiscard]] std::optional<util::Bytes> pmk_for(net::MacAddr sta) const;
  void handle_eapol(net::MacAddr sta, util::ByteView payload);
  void send_eapol(net::MacAddr sta, const WpaHandshakeFrame& frame);

  template <typename Body>
  void send_mgmt(MgmtSubtype subtype, net::MacAddr dst, const Body& body);
  /// Serialize into a pooled buffer and hand it to the radio.
  void transmit_frame(const Frame& frame);
  void send_beacon();
  /// Encrypt (if WEP) and transmit a from-DS data frame.
  void send_data_frame(net::MacAddr dst, net::MacAddr src, util::ByteView msdu);
  [[nodiscard]] bool mac_allowed(net::MacAddr mac) const;
  /// Count one lifecycle event in the world's trace, if one is attached.
  void note(sim::Severity severity);

  sim::Simulator& sim_;
  ApConfig config_;
  phy::Radio radio_;
  sim::Trace* trace_ = nullptr;

  bool running_ = false;
  sim::TimerHandle beacon_timer_;
  std::uint16_t tx_seq_ = 0;
  std::uint16_t next_aid_ = 1;
  std::optional<crypto::WepIvGenerator> iv_gen_;

  std::unordered_set<net::MacAddr> authenticated_;
  std::unordered_map<net::MacAddr, util::Bytes> pending_challenges_;
  std::unordered_map<net::MacAddr, std::uint16_t> associated_;  // MAC -> AID

  // WPA-PSK state.
  util::Bytes pmk_;
  util::Bytes gtk_;              ///< group key (broadcast frames)
  std::uint64_t gtk_tx_pn_ = 0;
  std::unordered_map<net::MacAddr, WpaStation> wpa_;

  DsHandler ds_handler_;
  EventHandler event_handler_;
  ApCounters counters_;

  obs::Profiler::ScopeId rx_scope_;
  obs::TraceNameId trace_auth_;
  obs::TraceNameId trace_assoc_;
  obs::TraceNameId trace_assoc_reject_;
  obs::TraceNameId trace_deauth_rx_;
  obs::TraceNameId trace_deauth_tx_;
  obs::TraceNameId trace_wpa_span_;
  obs::TraceNameId trace_wpa_m2_;
  obs::TraceNameId trace_wpa_m3_;
  obs::Publication publication_{sim_.stats(), *this};
};

}  // namespace rogue::dot11
