#include "obs/tracer.hpp"

#include <cstdio>
#include <ostream>

#include "util/prng.hpp"

namespace rogue::obs {
namespace {

std::uint32_t intern_label(std::string_view label,
                           std::vector<std::string>& table,
                           std::unordered_map<std::string, std::uint32_t>& index) {
  const auto it = index.find(std::string(label));
  if (it != index.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(table.size());
  table.emplace_back(label);
  index.emplace(table.back(), id);
  return id;
}

std::string hex_id(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

std::string_view phase_letter(TracePhase phase) {
  switch (phase) {
    case TracePhase::kBegin:
      return "B";
    case TracePhase::kEnd:
      return "E";
    case TracePhase::kInstant:
      break;
  }
  return "i";
}

}  // namespace

std::string_view to_string(TraceLayer layer) {
  switch (layer) {
    case TraceLayer::kSim:
      return "sim";
    case TraceLayer::kPhy:
      return "phy";
    case TraceLayer::kDot11:
      return "dot11";
    case TraceLayer::kNet:
      return "net";
    case TraceLayer::kVpn:
      return "vpn";
    case TraceLayer::kDetect:
      return "detect";
    case TraceLayer::kFaults:
      return "faults";
  }
  return "?";
}

TraceNameId Tracer::name(std::string_view label) {
  return TraceNameId{intern_label(label, names_, name_index_)};
}

TraceActorId Tracer::actor(std::string_view label) {
  return TraceActorId{intern_label(label, actors_, actor_index_)};
}

void Tracer::enable(std::size_t ring_events) {
  if (ring_events == 0) ring_events = 1;
  ring_.assign(ring_events, TraceEvent{});
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
  recorded_ = 0;
  enabled_ = true;
}

std::uint64_t Tracer::new_trace_id() {
  if (!enabled_) return 0;
  // splitmix64 over (root seed, frame counter): ids are a pure function of
  // the seed and the global frame-injection order, both deterministic.
  std::uint64_t state = seed_ ^ (0x9E3779B97F4A7C15ULL * ++frames_);
  const std::uint64_t id = util::splitmix64(state);
  return id != 0 ? id : 1;
}

TracerDump Tracer::dump() const {
  TracerDump out;
  out.events.reserve(count_);
  const std::size_t cap = ring_.size();
  if (cap != 0) {
    // head_ is the next write position; the oldest live record sits
    // count_ slots behind it.
    std::size_t pos = (head_ + cap - count_) % cap;
    for (std::size_t i = 0; i < count_; ++i) {
      out.events.push_back(ring_[pos]);
      if (++pos == cap) pos = 0;
    }
  }
  out.names = names_;
  out.actors = actors_;
  out.dropped = dropped_;
  out.recorded = recorded_;
  return out;
}

void Tracer::reset() {
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
  recorded_ = 0;
  current_ = 0;
  frames_ = 0;
}

std::vector<Span> build_spans(const TracerDump& dump) {
  std::vector<Span> spans;
  // Innermost open span per actor (index into `spans`), plus a stack so an
  // end pops back to the enclosing span of the same actor.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> open;
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    const TraceEvent& e = dump.events[i];
    auto& stack = open[e.actor];
    switch (e.phase) {
      case TracePhase::kBegin: {
        Span s;
        s.name = e.name;
        s.actor = e.actor;
        s.trace_id = e.trace_id;
        s.start_us = e.time_us;
        s.parent = stack.empty() ? -1 : static_cast<int>(stack.back());
        const std::size_t index = spans.size();
        if (s.parent >= 0) spans[static_cast<std::size_t>(s.parent)].children.push_back(index);
        spans.push_back(std::move(s));
        stack.push_back(index);
        break;
      }
      case TracePhase::kEnd: {
        if (stack.empty()) break;  // begin evicted by ring wraparound
        Span& s = spans[stack.back()];
        s.end_us = e.time_us;
        s.closed = true;
        stack.pop_back();
        break;
      }
      case TracePhase::kInstant: {
        if (!stack.empty()) spans[stack.back()].instants.push_back(i);
        break;
      }
    }
  }
  return spans;
}

std::vector<TraceEvent> causal_chain(const TracerDump& dump,
                                     std::uint64_t trace_id) {
  std::vector<TraceEvent> chain;
  for (const TraceEvent& e : dump.events) {
    if (e.trace_id == trace_id) chain.push_back(e);
  }
  return chain;
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream& out) : out_(out) {
  out_ << "{\"traceEvents\":[";
}

void ChromeTraceWriter::event(const util::Json& e) {
  if (!first_) out_ << ',';
  first_ = false;
  out_ << e.dump();
}

void ChromeTraceWriter::finish() { out_ << "],\"displayTimeUnit\":\"ms\"}"; }

void ChromeTraceWriter::process(const TracerDump& dump, std::uint64_t pid,
                                std::string_view process_name) {
  util::Json meta = util::Json::object();
  meta.set("name", util::Json("process_name"));
  meta.set("ph", util::Json("M"));
  meta.set("pid", util::Json(pid));
  util::Json args = util::Json::object();
  args.set("name", util::Json(std::string(process_name)));
  meta.set("args", std::move(args));
  event(meta);

  // Thread (track) metadata for every actor that actually appears, in
  // interning order so the output is a pure function of the dump.
  std::vector<bool> used(dump.actors.size(), false);
  for (const TraceEvent& e : dump.events) used[e.actor] = true;
  for (std::size_t tid = 0; tid < used.size(); ++tid) {
    if (!used[tid]) continue;
    util::Json t = util::Json::object();
    t.set("name", util::Json("thread_name"));
    t.set("ph", util::Json("M"));
    t.set("pid", util::Json(pid));
    t.set("tid", util::Json(static_cast<std::uint64_t>(tid)));
    util::Json targs = util::Json::object();
    targs.set("name", util::Json(dump.actors[tid]));
    t.set("args", std::move(targs));
    event(t);
  }

  for (const TraceEvent& e : dump.events) {
    util::Json row = util::Json::object();
    row.set("name", util::Json(dump.names[e.name]));
    row.set("cat", util::Json(std::string(to_string(e.layer))));
    row.set("ph", util::Json(std::string(phase_letter(e.phase))));
    row.set("ts", util::Json(e.time_us));
    row.set("pid", util::Json(pid));
    row.set("tid", util::Json(static_cast<std::uint64_t>(e.actor)));
    if (e.phase == TracePhase::kInstant) row.set("s", util::Json("t"));
    util::Json rargs = util::Json::object();
    rargs.set("trace", util::Json(hex_id(e.trace_id)));
    rargs.set("v", util::Json(e.arg));
    row.set("args", std::move(rargs));
    event(row);
  }
}

util::Json flight_recorder_json(const TracerDump& dump) {
  util::Json rows = util::Json::array();
  for (const TraceEvent& e : dump.events) {
    util::Json row = util::Json::object();
    row.set("t_us", util::Json(e.time_us));
    row.set("layer", util::Json(std::string(to_string(e.layer))));
    row.set("actor", util::Json(dump.actors[e.actor]));
    row.set("name", util::Json(dump.names[e.name]));
    row.set("phase", util::Json(std::string(phase_letter(e.phase))));
    row.set("trace", util::Json(hex_id(e.trace_id)));
    row.set("arg", util::Json(e.arg));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace rogue::obs
