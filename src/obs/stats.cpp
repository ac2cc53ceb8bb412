#include "obs/stats.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rogue::obs {

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

void Tallies::counter(std::string_view name, std::uint64_t total) {
  StatsRegistry::Metric& m =
      *registry_.metric(name, MetricKind::kCounter, /*create=*/true);
  (retiring_ ? m.retired : m.live) += total;
}

void Tallies::gauge(std::string_view name, std::uint64_t level) {
  if (retiring_) return;  // a destroyed component holds no level
  StatsRegistry::Metric* m =
      registry_.metric(name, MetricKind::kGauge, /*create=*/level != 0);
  if (m != nullptr) m->live += level;
}

namespace {
// Scrap for default-constructed HistogramIds: one bucket, count and sum.
constexpr std::size_t kScrapSlots = 3;
}  // namespace

StatsRegistry::StatsRegistry() {
  // Up-front capacity for a typical simulation, so the first snapshot's
  // names and the world's registrations don't reallocate repeatedly.
  metrics_.reserve(64);
  publishers_.reserve(64);
  values_.resize(kScrapSlots, 0);
}

StatsRegistry::Metric* StatsRegistry::metric(std::string_view name,
                                             MetricKind kind,
                                             bool create) const {
  const auto it = std::lower_bound(
      metrics_.begin(), metrics_.end(), name,
      [](const Metric& m, std::string_view n) { return m.name < n; });
  if (it != metrics_.end() && it->name == name) {
    ROGUE_ASSERT_MSG(it->kind == kind, "metric published with another kind");
    return &*it;
  }
  if (!create) return nullptr;
  ROGUE_ASSERT_MSG(!name.empty(), "metric needs a name");
  Metric m;
  m.name = std::string(name);
  m.kind = kind;
  return &*metrics_.insert(it, std::move(m));
}

HistogramId StatsRegistry::histogram(std::string_view name,
                                     std::vector<std::uint64_t> bounds) {
  ROGUE_ASSERT_MSG(!bounds.empty(), "histogram needs at least one bound");
  ROGUE_ASSERT_MSG(std::is_sorted(bounds.begin(), bounds.end()) &&
                       std::adjacent_find(bounds.begin(), bounds.end()) ==
                           bounds.end(),
                   "histogram bounds must be strictly increasing");
  const std::size_t known = metrics_.size();
  Metric& m = *metric(name, MetricKind::kHistogram, /*create=*/true);
  if (metrics_.size() == known) {
    ROGUE_ASSERT_MSG(m.bound_count == bounds.size(),
                     "histogram re-interned with different bounds");
    return HistogramId{m.slot, m.bound_count + 1, m.bound_offset};
  }
  // buckets + count + sum slots; bounds packed into the shared pool.
  const std::uint32_t buckets = static_cast<std::uint32_t>(bounds.size()) + 1;
  m.slot = static_cast<std::uint32_t>(values_.size());
  m.bound_count = buckets - 1;
  m.bound_offset = static_cast<std::uint32_t>(bucket_bounds_.size());
  values_.resize(values_.size() + buckets + 2, 0);
  bucket_bounds_.insert(bucket_bounds_.end(), bounds.begin(), bounds.end());
  return HistogramId{m.slot, buckets, m.bound_offset};
}

std::uint32_t StatsRegistry::add_publisher(const void* owner, PublishFn fn) {
  if (free_publishers_.empty()) {
    publishers_.push_back(Publisher{owner, fn});
    return static_cast<std::uint32_t>(publishers_.size() - 1);
  }
  const std::uint32_t slot = free_publishers_.back();
  free_publishers_.pop_back();
  publishers_[slot] = Publisher{owner, fn};
  return slot;
}

void StatsRegistry::retire(std::uint32_t slot) {
  Publisher& p = publishers_[slot];
  Tallies out(*this, /*retiring=*/true);
  p.publish(p.owner, out);
  p = Publisher{};
  free_publishers_.push_back(slot);
}

StatsSnapshot StatsRegistry::snapshot() const {
  Tallies out(*this, /*retiring=*/false);
  for (const Publisher& p : publishers_) {
    if (p.owner != nullptr) p.publish(p.owner, out);
  }
  StatsSnapshot snap;
  snap.entries.reserve(metrics_.size());
  for (Metric& m : metrics_) {
    StatsSnapshot::Entry& e = snap.entries.emplace_back();
    e.name = m.name;
    e.kind = m.kind;
    switch (m.kind) {
      case MetricKind::kCounter:
        e.value = m.retired + m.live;
        break;
      case MetricKind::kGauge:
        m.high_water = std::max(m.high_water, m.live);
        e.value = m.live;
        e.high_water = m.high_water;
        break;
      case MetricKind::kHistogram: {
        const std::uint32_t buckets = m.bound_count + 1;
        e.hist.bounds.assign(bucket_bounds_.begin() + m.bound_offset,
                             bucket_bounds_.begin() + m.bound_offset +
                                 m.bound_count);
        e.hist.buckets.assign(values_.begin() + m.slot,
                              values_.begin() + m.slot + buckets);
        e.hist.count = values_[m.slot + buckets];
        e.hist.sum = values_[m.slot + buckets + 1];
        break;
      }
    }
    m.live = 0;
  }
  return snap;
}

void StatsSnapshot::sort() {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
}

const StatsSnapshot::Entry* StatsSnapshot::find(std::string_view name) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const Entry& e, std::string_view n) { return e.name < n; });
  if (it == entries.end() || it->name != name) return nullptr;
  return &*it;
}

std::uint64_t StatsSnapshot::value(std::string_view name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->value : 0;
}

util::Json StatsSnapshot::to_json() const {
  util::Json j = util::Json::object();
  for (const Entry& e : entries) {
    switch (e.kind) {
      case MetricKind::kCounter:
        j.set(e.name, e.value);
        break;
      case MetricKind::kGauge: {
        util::Json g = util::Json::object();
        g.set("value", e.value);
        g.set("high_water", e.high_water);
        j.set(e.name, std::move(g));
        break;
      }
      case MetricKind::kHistogram: {
        util::Json h = util::Json::object();
        h.set("count", e.hist.count);
        h.set("sum", e.hist.sum);
        util::Json bounds = util::Json::array();
        for (const std::uint64_t b : e.hist.bounds) bounds.push_back(b);
        util::Json buckets = util::Json::array();
        for (const std::uint64_t b : e.hist.buckets) buckets.push_back(b);
        h.set("bounds", std::move(bounds));
        h.set("buckets", std::move(buckets));
        j.set(e.name, std::move(h));
        break;
      }
    }
  }
  return j;
}

StatsSnapshot StatsSnapshot::from_json(const util::Json& j) {
  StatsSnapshot snap;
  for (const util::Json::Member& m : j.members()) {
    Entry e;
    e.name = m.first;
    const util::Json& v = m.second;
    if (v.is_number()) {
      e.kind = MetricKind::kCounter;
      e.value = static_cast<std::uint64_t>(v.as_int());
    } else if (v.find("high_water") != nullptr) {
      e.kind = MetricKind::kGauge;
      e.value = static_cast<std::uint64_t>(v.find("value")->as_int());
      e.high_water = static_cast<std::uint64_t>(v.find("high_water")->as_int());
    } else {
      e.kind = MetricKind::kHistogram;
      e.hist.count = static_cast<std::uint64_t>(v.find("count")->as_int());
      e.hist.sum = static_cast<std::uint64_t>(v.find("sum")->as_int());
      for (const util::Json& b : v.find("bounds")->items()) {
        e.hist.bounds.push_back(static_cast<std::uint64_t>(b.as_int()));
      }
      for (const util::Json& b : v.find("buckets")->items()) {
        e.hist.buckets.push_back(static_cast<std::uint64_t>(b.as_int()));
      }
    }
    snap.entries.push_back(std::move(e));
  }
  snap.sort();
  return snap;
}

}  // namespace rogue::obs
