#include "dot11/frame.hpp"

#include "util/assert.hpp"

namespace rogue::dot11 {

namespace {

void write_mac(util::ByteWriter& w, const net::MacAddr& mac) {
  w.raw(util::ByteView(mac.octets().data(), mac.octets().size()));
}

[[nodiscard]] net::MacAddr read_mac(util::ByteReader& r) {
  const util::ByteView v = r.raw(6);
  if (v.size() != 6) return {};
  std::array<std::uint8_t, 6> o{};
  std::copy(v.begin(), v.end(), o.begin());
  return net::MacAddr(o);
}

void write_ie(util::ByteWriter& w, std::uint8_t id, util::ByteView value) {
  ROGUE_ASSERT(value.size() <= 255);
  w.u8(id);
  w.u8(static_cast<std::uint8_t>(value.size()));
  w.raw(value);
}

void write_ie(util::ByteWriter& w, std::uint8_t id, std::string_view text) {
  write_ie(w, id,
           {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

/// Iterate IEs in `data`, calling cb(id, value); returns false on truncation.
template <typename Cb>
[[nodiscard]] bool for_each_ie(util::ByteReader& r, Cb&& cb) {
  while (r.remaining() > 0) {
    const std::uint8_t id = r.u8();
    const std::uint8_t len = r.u8();
    const util::ByteView value = r.raw(len);
    if (!r.ok()) return false;
    cb(id, value);
  }
  return true;
}

}  // namespace

void FrameHeader::write(util::Bytes& out) const {
  util::ByteWriter w(out);
  // Frame control: subtype(4) | type(2) | version(2), then flags.
  const auto fc0 = static_cast<std::uint8_t>(
      (subtype << 4) | (static_cast<std::uint8_t>(type) << 2));
  std::uint8_t fc1 = 0;
  if (to_ds) fc1 |= 0x01;
  if (from_ds) fc1 |= 0x02;
  if (retry) fc1 |= 0x08;
  if (protected_frame) fc1 |= 0x40;
  w.u8(fc0);
  w.u8(fc1);
  w.u16le(0);  // duration (unused by the simulation)
  write_mac(w, addr1);
  write_mac(w, addr2);
  write_mac(w, addr3);
  w.u16le(static_cast<std::uint16_t>((sequence << 4) | (fragment & 0x0f)));
}

util::Bytes Frame::serialize() const {
  util::Bytes out;
  serialize_into(out);
  return out;
}

void Frame::serialize_into(util::Bytes& out) const {
  out.clear();
  out.reserve(24 + body.size());
  write(out);
  util::append(out, body);
}

std::optional<Frame> Frame::parse(util::ByteView raw) {
  const auto view = FrameView::parse(raw);
  if (!view) return std::nullopt;
  return view->to_frame();
}

Frame FrameView::to_frame() const {
  return Frame{*this, util::Bytes(body.begin(), body.end())};
}

std::optional<FrameView> FrameView::parse(util::ByteView raw) {
  util::ByteReader r(raw);
  FrameView f;
  const std::uint8_t fc0 = r.u8();
  const std::uint8_t fc1 = r.u8();
  if ((fc0 & 0x03) != 0) return std::nullopt;  // protocol version must be 0
  f.type = static_cast<FrameType>((fc0 >> 2) & 0x03);
  f.subtype = static_cast<std::uint8_t>(fc0 >> 4);
  f.to_ds = (fc1 & 0x01) != 0;
  f.from_ds = (fc1 & 0x02) != 0;
  f.retry = (fc1 & 0x08) != 0;
  f.protected_frame = (fc1 & 0x40) != 0;
  (void)r.u16le();  // duration
  f.addr1 = read_mac(r);
  f.addr2 = read_mac(r);
  f.addr3 = read_mac(r);
  const std::uint16_t seq_ctrl = r.u16le();
  f.sequence = static_cast<std::uint16_t>(seq_ctrl >> 4);
  f.fragment = static_cast<std::uint8_t>(seq_ctrl & 0x0f);
  f.body = r.take_rest();
  if (!r.ok()) return std::nullopt;
  return f;
}

void BeaconBody::encode_into(util::Bytes& out) const {
  util::ByteWriter w(out);
  w.u64be(timestamp);
  w.u16le(beacon_interval_tu);
  w.u16le(capability);
  write_ie(w, kIeSsid, ssid);
  const std::uint8_t ch = channel;
  write_ie(w, kIeDsParam, util::ByteView(&ch, 1));
}

std::optional<BeaconBody> BeaconBody::decode(util::ByteView body) {
  util::ByteReader r(body);
  BeaconBody b;
  b.timestamp = r.u64be();
  b.beacon_interval_tu = r.u16le();
  b.capability = r.u16le();
  if (!r.ok()) return std::nullopt;
  const bool ok = for_each_ie(r, [&](std::uint8_t id, util::ByteView value) {
    if (id == kIeSsid) b.ssid = util::to_string(value);
    if (id == kIeDsParam && !value.empty()) b.channel = value[0];
  });
  if (!ok) return std::nullopt;
  return b;
}

void ProbeReqBody::encode_into(util::Bytes& out) const {
  util::ByteWriter w(out);
  write_ie(w, kIeSsid, ssid);
}

std::optional<ProbeReqBody> ProbeReqBody::decode(util::ByteView body) {
  util::ByteReader r(body);
  ProbeReqBody b;
  const bool ok = for_each_ie(r, [&](std::uint8_t id, util::ByteView value) {
    if (id == kIeSsid) b.ssid = util::to_string(value);
  });
  if (!ok) return std::nullopt;
  return b;
}

void AuthBody::encode_into(util::Bytes& out) const {
  util::ByteWriter w(out);
  w.u16le(static_cast<std::uint16_t>(algorithm));
  w.u16le(transaction_seq);
  w.u16le(static_cast<std::uint16_t>(status));
  if (!challenge.empty()) write_ie(w, kIeChallenge, challenge);
}

std::optional<AuthBody> AuthBody::decode(util::ByteView body) {
  util::ByteReader r(body);
  AuthBody b;
  b.algorithm = static_cast<AuthAlgorithm>(r.u16le());
  b.transaction_seq = r.u16le();
  b.status = static_cast<StatusCode>(r.u16le());
  if (!r.ok()) return std::nullopt;
  const bool ok = for_each_ie(r, [&](std::uint8_t id, util::ByteView value) {
    if (id == kIeChallenge) b.challenge.assign(value.begin(), value.end());
  });
  if (!ok) return std::nullopt;
  return b;
}

void AssocReqBody::encode_into(util::Bytes& out) const {
  util::ByteWriter w(out);
  w.u16le(capability);
  write_ie(w, kIeSsid, ssid);
}

std::optional<AssocReqBody> AssocReqBody::decode(util::ByteView body) {
  util::ByteReader r(body);
  AssocReqBody b;
  b.capability = r.u16le();
  if (!r.ok()) return std::nullopt;
  const bool ok = for_each_ie(r, [&](std::uint8_t id, util::ByteView value) {
    if (id == kIeSsid) b.ssid = util::to_string(value);
  });
  if (!ok) return std::nullopt;
  return b;
}

void AssocRespBody::encode_into(util::Bytes& out) const {
  util::ByteWriter w(out);
  w.u16le(capability);
  w.u16le(static_cast<std::uint16_t>(status));
  w.u16le(association_id);
}

std::optional<AssocRespBody> AssocRespBody::decode(util::ByteView body) {
  util::ByteReader r(body);
  AssocRespBody b;
  b.capability = r.u16le();
  b.status = static_cast<StatusCode>(r.u16le());
  b.association_id = r.u16le();
  if (!r.ok()) return std::nullopt;
  return b;
}

void DeauthBody::encode_into(util::Bytes& out) const {
  util::ByteWriter w(out);
  w.u16le(static_cast<std::uint16_t>(reason));
}

std::optional<DeauthBody> DeauthBody::decode(util::ByteView body) {
  util::ByteReader r(body);
  DeauthBody b;
  b.reason = static_cast<ReasonCode>(r.u16le());
  if (!r.ok()) return std::nullopt;
  return b;
}

util::Bytes llc_encode(std::uint16_t ethertype, util::ByteView payload) {
  util::Bytes out;
  out.reserve(kLlcSnapLen + payload.size());
  util::ByteWriter w(out);
  w.u8(0xaa);  // DSAP: SNAP
  w.u8(0xaa);  // SSAP: SNAP
  w.u8(0x03);  // control: UI
  w.u8(0x00);  // OUI
  w.u8(0x00);
  w.u8(0x00);
  w.u16be(ethertype);
  w.raw(payload);
  return out;
}

std::optional<LlcPayload> llc_decode(util::ByteView msdu) {
  if (msdu.size() < kLlcSnapLen) return std::nullopt;
  if (msdu[0] != 0xaa || msdu[1] != 0xaa || msdu[2] != 0x03) return std::nullopt;
  LlcPayload out;
  out.ethertype = static_cast<std::uint16_t>((msdu[6] << 8) | msdu[7]);
  out.payload = msdu.subspan(kLlcSnapLen);
  return out;
}

}  // namespace rogue::dot11
