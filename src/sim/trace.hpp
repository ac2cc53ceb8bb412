// Per-world event tally and frame capture. Components note() each
// lifecycle event (auth, assoc, rejection, disconnect, detector alert) so
// a report can say how many happened and how many were warnings; what the
// event was and on which causal chain lives in the obs::Tracer. When the
// world attaches the trace to its medium (Medium::set_capture), every
// frame on the air is kept verbatim for pcap export — the paper's
// tcpdump/ethereal capture.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace rogue::sim {

enum class Severity : std::uint8_t {
  kInfo,  ///< normal lifecycle events
  kWarn,  ///< rejections, failures, disconnects, detector alerts
};

/// One over-the-air frame kept verbatim; obs::PcapWriter turns a run's
/// captured frames into a Wireshark-readable .pcap.
struct CapturedFrame {
  Time time = 0;
  util::Bytes bytes;
};

class Trace {
 public:
  /// Count one event.
  void note(Severity severity) {
    ++size_;
    if (severity == Severity::kWarn) ++warnings_;
  }
  /// Events noted so far.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Events noted at Severity::kWarn.
  [[nodiscard]] std::size_t warnings() const { return warnings_; }

  /// Store one frame. Only a medium the world attached this trace to
  /// (Medium::set_capture) calls it, so an unattached trace stays empty.
  void capture_frame(Time t, util::ByteView frame) {
    frames_.push_back(CapturedFrame{t, util::Bytes(frame.begin(), frame.end())});
  }
  [[nodiscard]] const std::vector<CapturedFrame>& frames() const {
    return frames_;
  }

 private:
  std::size_t size_ = 0;
  std::size_t warnings_ = 0;
  std::vector<CapturedFrame> frames_;
};

}  // namespace rogue::sim
