// 802.11 MAC frame formats (management + data subset used by 802.11b
// infrastructure networks), with real byte-level serialization so that
// monitor-mode sniffers, WEP, and the FMS attack all operate on genuine
// wire bytes rather than structs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "net/addr.hpp"
#include "phy/medium.hpp"
#include "util/bytes.hpp"

namespace rogue::dot11 {

enum class FrameType : std::uint8_t { kManagement = 0, kControl = 1, kData = 2 };

/// Management subtypes (802.11-1999 table 1).
enum class MgmtSubtype : std::uint8_t {
  kAssocReq = 0,
  kAssocResp = 1,
  kProbeReq = 4,
  kProbeResp = 5,
  kBeacon = 8,
  kDisassoc = 10,
  kAuth = 11,
  kDeauth = 12,
};

/// 802.11 reason codes (subset).
enum class ReasonCode : std::uint16_t {
  kUnspecified = 1,
  kPrevAuthExpired = 2,
  kDeauthLeaving = 3,
  kDisassocInactivity = 4,
};

/// 802.11 status codes (subset).
enum class StatusCode : std::uint16_t {
  kSuccess = 0,
  kUnspecifiedFailure = 1,
  kChallengeFailure = 15,
  kAssocDeniedUnspec = 17,
};

enum class AuthAlgorithm : std::uint16_t { kOpenSystem = 0, kSharedKey = 1 };

/// Link-layer protection deployed in a BSS. kWep is the paper's setting;
/// kWpaPsk models the §2.2 "interim solution" (WPA with a pre-shared
/// key) — stronger crypto, same fundamental flaw: every key holder can
/// impersonate the network.
/// kEap models 802.1X-style per-client credentials on top of the WPA
/// machinery: the PMK derives from a per-station key the authenticator
/// looks up, so completing the 4-way handshake proves the *network* knows
/// this client's secret — the mutual authentication whose absence (§3.1)
/// enables the whole rogue-AP attack class.
enum class SecurityMode : std::uint8_t { kOpen, kWep, kWpaPsk, kEap };

/// The 24-byte MAC header. Address semantics (infrastructure mode):
///   to-DS   (STA->AP):  addr1=BSSID, addr2=source STA, addr3=final dest
///   from-DS (AP->STA):  addr1=dest STA, addr2=BSSID, addr3=original src
///   management:         addr1=dest, addr2=source, addr3=BSSID
struct FrameHeader {
  FrameType type = FrameType::kManagement;
  std::uint8_t subtype = 0;
  bool to_ds = false;
  bool from_ds = false;
  bool retry = false;
  bool protected_frame = false;  ///< WEP bit; body is WEP-encapsulated

  net::MacAddr addr1;
  net::MacAddr addr2;
  net::MacAddr addr3;

  std::uint16_t sequence = 0;  ///< 12-bit sequence number
  std::uint8_t fragment = 0;   ///< 4-bit fragment number

  [[nodiscard]] MgmtSubtype mgmt_subtype() const {
    return static_cast<MgmtSubtype>(subtype);
  }
  [[nodiscard]] bool is_mgmt(MgmtSubtype s) const {
    return type == FrameType::kManagement && mgmt_subtype() == s;
  }
  [[nodiscard]] bool is_data() const { return type == FrameType::kData; }

  /// Append the header's wire bytes to `out`. The one place the 802.11
  /// header is laid out: Frame::serialize_into and write_mgmt both use it.
  void write(util::Bytes& out) const;
};

/// Parsed MAC header + body.
struct Frame : FrameHeader {
  util::Bytes body;

  [[nodiscard]] util::Bytes serialize() const;
  /// serialize() into a caller-provided (typically pooled) buffer; `out`
  /// is cleared first and its capacity reused.
  void serialize_into(util::Bytes& out) const;
  [[nodiscard]] static std::optional<Frame> parse(util::ByteView raw);
};

/// Non-owning variant of Frame for rx hot paths: header fields are
/// decoded, `body` views the delivered buffer. Valid only while that
/// buffer lives — copy (to_frame / explicit assign) at ownership
/// boundaries such as queues.
struct FrameView : FrameHeader {
  util::ByteView body;

  /// Owning copy (the body is materialised).
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static std::optional<FrameView> parse(util::ByteView raw);
};

/// What a management transmitter picks: a management frame's flags and
/// fragment number are always zero.
struct MgmtHeader {
  MgmtSubtype subtype = MgmtSubtype::kBeacon;
  net::MacAddr addr1;  ///< destination
  net::MacAddr addr2;  ///< transmitter
  net::MacAddr addr3;  ///< BSSID
  /// Sent as Frame::sequence is: shifted into the 16-bit sequence-control
  /// field, so bits past the 12th fall off.
  std::uint16_t sequence = 0;
};

/// Capacity asked of a pooled buffer for a management frame. It holds
/// every one the simulator sends (the largest, a shared-key challenge, is
/// 160 bytes), so a warm pool serves them without growing a buffer.
inline constexpr std::size_t kMgmtFrameCapacity = 256;

/// The one management-frame writer: clears `out`, writes the header with
/// FrameHeader::write and appends the body with Body::encode_into. The
/// bytes equal Frame::serialize() of the same fields around body.encode().
template <typename Body>
void write_mgmt(util::Bytes& out, const MgmtHeader& header, const Body& body) {
  out.clear();
  FrameHeader{.subtype = static_cast<std::uint8_t>(header.subtype),
              .addr1 = header.addr1,
              .addr2 = header.addr2,
              .addr3 = header.addr3,
              .sequence = header.sequence}
      .write(out);
  body.encode_into(out);
}

/// write_mgmt into the radio's pooled buffer, then queue it for the air.
template <typename Body>
void transmit_mgmt(phy::Radio& radio, const MgmtHeader& header, const Body& body) {
  util::Bytes frame = radio.acquire_buffer(kMgmtFrameCapacity);
  write_mgmt(frame, header, body);
  radio.transmit(std::move(frame));
}

// ---- Management frame bodies -------------------------------------------

/// Capability bits (subset): privacy == WEP required.
inline constexpr std::uint16_t kCapEss = 0x0001;
inline constexpr std::uint16_t kCapPrivacy = 0x0010;

/// Information element ids (subset).
inline constexpr std::uint8_t kIeSsid = 0;
inline constexpr std::uint8_t kIeDsParam = 3;
inline constexpr std::uint8_t kIeChallenge = 16;

/// Each body appends its wire bytes to a frame with encode_into(); this
/// base gives it encode(), the same bytes in a buffer of their own.
template <typename Body>
struct MgmtBody {
  [[nodiscard]] util::Bytes encode() const {
    util::Bytes out;
    static_cast<const Body&>(*this).encode_into(out);
    return out;
  }
};

struct BeaconBody : MgmtBody<BeaconBody> {  // also used for probe responses
  std::uint64_t timestamp = 0;
  std::uint16_t beacon_interval_tu = 100;
  std::uint16_t capability = kCapEss;
  std::string ssid;
  std::uint8_t channel = 1;

  [[nodiscard]] bool privacy() const { return (capability & kCapPrivacy) != 0; }
  void encode_into(util::Bytes& out) const;
  [[nodiscard]] static std::optional<BeaconBody> decode(util::ByteView body);
};

struct ProbeReqBody : MgmtBody<ProbeReqBody> {
  std::string ssid;  ///< empty == wildcard probe

  void encode_into(util::Bytes& out) const;
  [[nodiscard]] static std::optional<ProbeReqBody> decode(util::ByteView body);
};

struct AuthBody : MgmtBody<AuthBody> {
  AuthAlgorithm algorithm = AuthAlgorithm::kOpenSystem;
  std::uint16_t transaction_seq = 1;
  StatusCode status = StatusCode::kSuccess;
  util::Bytes challenge;  ///< present in shared-key transactions 2 and 3

  void encode_into(util::Bytes& out) const;
  [[nodiscard]] static std::optional<AuthBody> decode(util::ByteView body);
};

struct AssocReqBody : MgmtBody<AssocReqBody> {
  std::uint16_t capability = kCapEss;
  std::string ssid;

  void encode_into(util::Bytes& out) const;
  [[nodiscard]] static std::optional<AssocReqBody> decode(util::ByteView body);
};

struct AssocRespBody : MgmtBody<AssocRespBody> {
  std::uint16_t capability = kCapEss;
  StatusCode status = StatusCode::kSuccess;
  std::uint16_t association_id = 0;

  void encode_into(util::Bytes& out) const;
  [[nodiscard]] static std::optional<AssocRespBody> decode(util::ByteView body);
};

struct DeauthBody : MgmtBody<DeauthBody> {  // also disassociation
  ReasonCode reason = ReasonCode::kUnspecified;

  void encode_into(util::Bytes& out) const;
  [[nodiscard]] static std::optional<DeauthBody> decode(util::ByteView body);
};

// ---- Data frame payload (MSDU) -------------------------------------------

/// EtherTypes carried over LLC/SNAP.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeArp = 0x0806;

/// LLC/SNAP header prepended to every data MSDU; its first byte (0xAA) is
/// the known plaintext the FMS attack relies on.
inline constexpr std::size_t kLlcSnapLen = 8;

/// ethertype + payload -> LLC/SNAP-encapsulated MSDU bytes.
[[nodiscard]] util::Bytes llc_encode(std::uint16_t ethertype, util::ByteView payload);

struct LlcPayload {
  std::uint16_t ethertype = 0;
  util::ByteView payload;  ///< view into the input buffer
};
[[nodiscard]] std::optional<LlcPayload> llc_decode(util::ByteView msdu);

}  // namespace rogue::dot11
