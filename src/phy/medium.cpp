#include "phy/medium.hpp"

#include <algorithm>
#include <cmath>

#include "sim/trace.hpp"
#include "util/assert.hpp"

namespace rogue::phy {

double distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Radio::Radio(Medium& medium, std::string name)
    : medium_(medium), name_(std::move(name)) {
  trace_actor_ = medium_.simulator().tracer().actor(name_);
  medium_.attach(this);
}

Radio::~Radio() {
  medium_.simulator().cancel(attempt_timer_);
  medium_.detach(this);
}

util::Bytes Radio::acquire_buffer(std::size_t reserve_hint) {
  return medium_.simulator().buffer_pool().acquire(reserve_hint);
}

void Radio::trim_tx_state() {
  plan_ = DeliveryPlan{};
  pair_cache_ = util::FlatU64Map<RssiCacheEntry>{};
}

// Every setter below routes through the medium so the cell-local
// invalidation fires: the radio appears, disappears or changes as a
// receiver only for the plans whose neighborhoods hold its cell.
void Radio::set_channel(Channel ch) {
  if (ch == channel_) return;
  channel_ = ch;
  medium_.radio_retuned(*this);
}

void Radio::set_position(Position p) {
  position_ = p;
  ++geom_epoch_;
  medium_.radio_moved(*this);
}

void Radio::set_tx_power_dbm(double p) {
  tx_power_dbm_ = p;
  ++geom_epoch_;
  medium_.radio_retuned(*this);
}

void Radio::set_sensitivity_dbm(double s) {
  sensitivity_dbm_ = s;
  medium_.radio_retuned(*this);
}

void Radio::transmit(util::Bytes frame) {
  // Frames queue synchronously inside delivery handlers but hit the air
  // from CSMA timers; stamp the chain now so the response still inherits
  // the inbound frame's causal context when it finally transmits.
  queue_.push_back(
      QueuedFrame{std::move(frame), medium_.simulator().tracer().current()});
  if (!attempt_pending_) {
    attempt_pending_ = true;
    backoff_attempts_ = 0;
    attempt_timer_ = medium_.simulator().after(0, [this] { attempt_transmit(); });
  }
}

void Radio::attempt_transmit() {
  if (queue_head_ == queue_.size()) {
    attempt_pending_ = false;
    return;
  }
  sim::Simulator& sim = medium_.simulator();
  const sim::Time now = sim.now();

  // Our own transmitter is still keyed: wait for it to finish.
  if (own_busy_until_ > now) {
    attempt_timer_ = sim.at(own_busy_until_, [this] { attempt_transmit(); });
    return;
  }
  // CSMA: defer while another (visible) transmission occupies the channel.
  const sim::Time busy_until = medium_.channel_busy_for(*this);
  if (busy_until > now && backoff_attempts_ < 16) {
    ++deferred_;
    ++medium_.deferral_count_;
    ++backoff_attempts_;
    contended_ = false;  // channel state changed: re-draw the backoff slot
    const sim::Time backoff =
        sim.rng().uniform_u64(10, medium_.config().max_backoff_us);
    attempt_timer_ = sim.at(busy_until + backoff, [this] { attempt_transmit(); });
    return;
  }
  // Contention window: even on an idle channel, wait a random slot before
  // keying up (DIFS + backoff). Without this, request/response peers key
  // up simultaneously inside the sensing blind window and collide.
  if (!contended_) {
    contended_ = true;
    const sim::Time slot = sim.rng().uniform_u64(5, 120);
    attempt_timer_ = sim.after(slot, [this] { attempt_transmit(); });
    return;
  }
  contended_ = false;

  QueuedFrame next = std::move(queue_[queue_head_++]);
  if (queue_head_ == queue_.size()) {
    queue_.clear();
    queue_head_ = 0;
  }
  backoff_attempts_ = 0;
  own_busy_until_ = now + medium_.airtime(next.frame.size()) + 10;  // +SIFS
  ++frames_sent_;
  const obs::Tracer::IdScope causal(sim.tracer(), next.chain);
  medium_.transmit(*this, std::move(next.frame));
  attempt_timer_ = sim.at(own_busy_until_, [this] { attempt_transmit(); });
}

Medium::Medium(sim::Simulator& simulator, MediumConfig config)
    : sim_(simulator), config_(config) {
  cell_size_m_ = audible_range(grid_power_ceiling_, grid_sens_floor_);
  stat_frame_bytes_ = sim_.stats().histogram("phy.frame_bytes",
                                             {64, 128, 256, 512, 1024, 1536});
  deliver_scope_ = sim_.profiler().intern("phy.deliver");
  plan_scope_ = sim_.profiler().intern("phy.plan_rebuild");
  obs::Tracer& tracer = sim_.tracer();
  trace_tx_ = tracer.name("phy.tx");
  trace_rx_ = tracer.name("phy.rx");
  trace_rx_late_ = tracer.name("phy.rx-late");
  trace_drop_margin_ = tracer.name("phy.drop-margin");
  trace_drop_loss_ = tracer.name("phy.drop-loss");
  trace_drop_corrupt_ = tracer.name("phy.drop-collision");
}

void Medium::publish(obs::Tallies& out) const {
  // Derived counts: every non-sender receiver visit performs exactly one
  // RSSI lookup, and a visit that neither dropped nor lacked a handler was
  // a delivery — so the common-path quantities need no per-event counter.
  out.counter("phy.tx_frames", tx_count_);
  out.counter("phy.collisions", collision_count_);
  out.counter("phy.delivered", rssi_lookup_count_ - drop_margin_count_ -
                                   drop_loss_count_ - no_handler_count_);
  out.counter("phy.drop_below_sensitivity", drop_margin_count_);
  out.counter("phy.drop_random_loss", drop_loss_count_);
  out.counter("phy.rssi_cache_hits", rssi_lookup_count_ - rssi_miss_count_);
  out.counter("phy.rssi_cache_misses", rssi_miss_count_);
  out.counter("phy.csma_deferrals", deferral_count_);
  // The chaos pair joins together, once either is non-zero, so snapshots
  // of runs without transport chaos keep their exact names.
  if (chaos_delayed_count_ != 0 || chaos_duplicated_count_ != 0) {
    out.counter("phy.chaos_delayed", chaos_delayed_count_);
    out.counter("phy.chaos_duplicated", chaos_duplicated_count_);
  }
}

sim::Time Medium::airtime(std::size_t bytes) const {
  const double data_us = static_cast<double>(bytes) * 8.0 / config_.bitrate_bps * 1e6;
  return config_.preamble_us + static_cast<sim::Time>(data_us);
}

sim::Time Medium::channel_busy_for(const Radio& listener) const {
  const sim::Time now = sim_.now();
  const Cell& home = cells_[listener.cell_];
  sim::Time busy = 0;
  for (const auto& tx : active_) {
    if (tx.channel != listener.channel_ || tx.end_time <= now) continue;
    // Blind window: very recent starts are not yet sensed.
    if (tx.start_time + config_.sense_latency_us > now) continue;
    // Carrier sense is as local as reception: only transmitters in the
    // listener's 3x3 neighborhood are audible energy.
    if (cell_chebyshev(tx.cx, tx.cy, home.cx, home.cy) > 1) continue;
    busy = std::max(busy, tx.end_time);
  }
  return busy;
}

double Medium::rssi_at(double tx_power_dbm, double dist_m) const {
  const double d = std::max(dist_m, 0.5);  // clamp: no near-field singularity
  const double loss =
      config_.ref_loss_dbm + 10.0 * config_.path_loss_exponent * std::log10(d);
  return tx_power_dbm - loss;
}

double Medium::audible_range(double tx_power_dbm, double sensitivity_dbm) const {
  // Invert rssi_at(): the distance at which tx power minus path loss equals
  // sensitivity minus the most favourable +rssi_noise_db fade. The small
  // absolute slack absorbs the round trip through pow/log10 so a receiver
  // parked exactly on the audibility boundary never falls outside the
  // sender's neighborhood.
  const double budget = tx_power_dbm - (sensitivity_dbm - config_.rssi_noise_db) -
                        config_.ref_loss_dbm;
  const double d = std::pow(10.0, budget / (10.0 * config_.path_loss_exponent));
  return std::max(d, 1.0) + 1e-6;
}

// ---- Grid internals ---------------------------------------------------------

std::uint64_t Medium::cell_key(std::int32_t cx, std::int32_t cy) {
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
      static_cast<std::uint32_t>(cy);
  // The XOR keeps the key nonzero (FlatU64Map reserves 0) for every
  // coordinate pair grid_coords() can produce: key 0 would need |cx|, |cy|
  // beyond the +/-2^30 clamp.
  return packed ^ 0x9e3779b97f4a7c15ull;
}

std::pair<std::int32_t, std::int32_t> Medium::grid_coords(const Position& p) const {
  constexpr double kLimit = 1073741824.0;  // 2^30: keeps cell_key() nonzero
  const double fx = std::clamp(std::floor(p.x / cell_size_m_), -kLimit, kLimit);
  const double fy = std::clamp(std::floor(p.y / cell_size_m_), -kLimit, kLimit);
  return {static_cast<std::int32_t>(fx), static_cast<std::int32_t>(fy)};
}

std::uint32_t Medium::cell_at(std::int32_t cx, std::int32_t cy) {
  const auto [slot, inserted] = cell_index_.try_emplace(cell_key(cx, cy));
  if (!inserted) return *slot - 1;
  const auto ci = static_cast<std::uint32_t>(cells_.size());
  *slot = ci + 1;
  Cell cell{cx, cy, 0, {}, {}};
  for (std::uint32_t k = 0; k < 9; ++k) {
    const std::int32_t dx = static_cast<std::int32_t>(k % 3) - 1;
    const std::int32_t dy = static_cast<std::int32_t>(k / 3) - 1;
    const std::uint32_t ni = find_cell(cx + dx, cy + dy);  // k == 4: ci
    cell.neighbors[k] = ni;
    // The neighbor sees this cell at the mirrored offset.
    if (k != 4 && ni != Radio::kNoCell) cells_[ni].neighbors[8 - k] = ci;
  }
  cells_.push_back(std::move(cell));
  return ci;
}

std::uint32_t Medium::find_cell(std::int32_t cx, std::int32_t cy) const {
  const std::uint32_t* slot = cell_index_.find(cell_key(cx, cy));
  return slot != nullptr ? *slot - 1 : Radio::kNoCell;
}

std::int32_t Medium::cell_chebyshev(std::int32_t ax, std::int32_t ay,
                                    std::int32_t bx, std::int32_t by) {
  // 64-bit intermediates: coordinate differences can exceed int32 range.
  const std::int64_t dx = std::int64_t{ax} - bx;
  const std::int64_t dy = std::int64_t{ay} - by;
  const std::int64_t d = std::max(dx < 0 ? -dx : dx, dy < 0 ? -dy : dy);
  return d > 3 ? 3 : static_cast<std::int32_t>(d);  // callers compare <= 2
}

void Medium::touch(std::uint32_t ci) {
  // Neighborhoods are symmetric, so the cells around `ci` are exactly the
  // cells whose neighborhoods hold it. A new cell's first insertion
  // touches its neighbors too, so their plans pick up the new members.
  for (const std::uint32_t ni : cells_[ci].neighbors) {
    if (ni != Radio::kNoCell) ++cells_[ni].epoch;
  }
}

void Medium::grid_insert(Radio* radio) {
  const auto [cx, cy] = grid_coords(radio->position_);
  const std::uint32_t ci = cell_at(cx, cy);
  Cell& cell = cells_[ci];
  // Sorted by attach_seq_ so a neighborhood gather restores the global
  // attach order with one small sort.
  const auto pos = std::lower_bound(
      cell.members.begin(), cell.members.end(), radio,
      [](const Radio* a, const Radio* b) { return a->attach_seq_ < b->attach_seq_; });
  cell.members.insert(pos, radio);
  touch(ci);
  radio->cell_ = ci;
}

void Medium::grid_remove(Radio* radio) {
  std::erase(cells_[radio->cell_].members, radio);
  touch(radio->cell_);
  radio->cell_ = Radio::kNoCell;
}

void Medium::radio_moved(Radio& radio) {
  const auto [cx, cy] = grid_coords(radio.position_);
  const Cell& cell = cells_[radio.cell_];
  if (cell.cx == cx && cell.cy == cy) {
    // Same cell: geometry changed, so every plan whose neighborhood holds
    // this cell must refresh its RSSIs — but only those. Senders more than
    // one cell away never heard this radio and keep their plans.
    touch(radio.cell_);
    return;
  }
  grid_remove(&radio);
  grid_insert(&radio);
}

void Medium::radio_retuned(Radio& radio) {
  ensure_grid_bounds(radio);
  touch(radio.cell_);
}

void Medium::ensure_grid_bounds(const Radio& radio) {
  bool widened = false;
  if (radio.tx_power_dbm_ > grid_power_ceiling_) {
    grid_power_ceiling_ = radio.tx_power_dbm_;
    widened = true;
  }
  if (radio.sensitivity_dbm_ < grid_sens_floor_) {
    grid_sens_floor_ = radio.sensitivity_dbm_;
    widened = true;
  }
  if (!widened) return;
  const double need = audible_range(grid_power_ceiling_, grid_sens_floor_);
  if (need > cell_size_m_) regrid(need);
}

void Medium::regrid(double new_cell_m) {
  // Rare (a radio was tuned beyond every earlier one): rebuild every cell
  // at the wider side. grid_epoch_ stales every outstanding plan at once.
  cell_size_m_ = new_cell_m;
  ++grid_epoch_;
  cells_.clear();
  cell_index_.clear();
  for (Radio* radio : radios_) grid_insert(radio);
}

std::vector<const Radio*> Medium::cell_members(std::int32_t cx,
                                                    std::int32_t cy) const {
  const std::uint32_t ci = find_cell(cx, cy);
  if (ci == Radio::kNoCell) return {};
  return {cells_[ci].members.begin(), cells_[ci].members.end()};
}

// ---- Membership -------------------------------------------------------------

void Medium::attach(Radio* radio) {
  radio->attach_seq_ = next_attach_seq_++;
  radio->radios_index_ = radios_.size();
  radios_.push_back(radio);
  *by_seq_.try_emplace(radio->attach_seq_).first = radio;
  // A fresh radio has the default power and sensitivity the grid bounds
  // start from, so only its setters can widen them.
  grid_insert(radio);
}

void Medium::detach(Radio* radio) {
  Radio* last = radios_.back();
  radios_[radio->radios_index_] = last;
  last->radios_index_ = radio->radios_index_;
  radios_.pop_back();
  *by_seq_.try_emplace(radio->attach_seq_).first = nullptr;
  // Stale PlanEntry::rx pointers into this radio are never dereferenced:
  // only plans whose neighborhood holds its cell can list it, and touching
  // the cell forces each of them to rebuild before its next walk.
  grid_remove(radio);
  // attach_seq_ values are never reused, but dropping every pair-cache
  // slice on a (rare) detach keeps them from accumulating dead pairs.
  // The bump invalidates lazily; each slice empties on its next probe.
  ++cache_generation_;
  // Any in-flight transmission from this radio is corrupted here, which is
  // what makes deliver_impl()'s sender pointer safe to dereference: a
  // non-corrupted ActiveTx implies its sender is still attached.
  for (auto& tx : active_) {
    if (tx.sender == radio) tx.corrupted = true;
  }
}

// ---- Delivery ---------------------------------------------------------------

const Radio::DeliveryPlan& Medium::delivery_plan(const Radio& sender,
                                                 Channel channel) {
  Radio::DeliveryPlan& plan = sender.plan_;
  const Cell& home = cells_[sender.cell_];
  if (plan.grid_epoch == grid_epoch_ && plan.channel == channel &&
      plan.cell == sender.cell_ && plan.neigh_epoch == home.epoch) {
    return plan;
  }
  const obs::Profiler::Scope scope(sim_.profiler(), plan_scope_);
  ++plan_rebuild_count_;
  plan.grid_epoch = grid_epoch_;
  plan.channel = channel;
  plan.cell = sender.cell_;
  plan.neigh_epoch = home.epoch;
  plan.entries.clear();
  // pair_rssi keeps the per-pair epoch cache: a rebuild triggered by one
  // radio's move only recomputes the pairs whose endpoints changed.
  std::size_t runs = 0;  // cells that contributed receivers
  for (const std::uint32_t ci : home.neighbors) {
    if (ci == Radio::kNoCell) continue;
    const std::size_t before = plan.entries.size();
    for (Radio* rx : cells_[ci].members) {
      if (rx == &sender || rx->channel_ != channel) continue;
      plan.entries.push_back(
          Radio::PlanEntry{rx, pair_rssi(sender, *rx), rx->sensitivity_dbm_});
    }
    if (plan.entries.size() != before) ++runs;
  }
  // Receivers must be visited in attach_seq_ order so a delivery's RNG
  // draw sequence cannot depend on cell geometry. Each cell's run is
  // already sorted, so a one-run plan (a world in one cell) is done; a
  // 9-way union is small, so one sort beats a heap merge.
  if (runs > 1) std::sort(plan.entries.begin(), plan.entries.end(),
            [](const Radio::PlanEntry& a, const Radio::PlanEntry& b) {
              return a.rx->attach_seq_ < b.rx->attach_seq_;
            });
  return plan;
}

double Medium::pair_rssi(const Radio& tx, const Radio& rx) {
  if (!config_.pair_rssi_cache) {
    // Metro-scale worlds: constant mobility stales every entry before its
    // next use while tens of thousands of per-sender slices cost real
    // memory, so compute directly. Every probe counts as a miss.
    ++rssi_miss_count_;
    return rssi_at(tx.tx_power_dbm_, distance(tx.position_, rx.position_));
  }
  if (tx.cache_gen_seen_ != cache_generation_) {
    tx.pair_cache_.clear();
    tx.cache_gen_seen_ = cache_generation_;
  }
  const auto [slot, inserted] = tx.pair_cache_.try_emplace(rx.attach_seq_);
  Radio::RssiCacheEntry& entry = *slot;
  if (inserted || entry.tx_epoch != tx.geom_epoch_ ||
      entry.rx_epoch != rx.geom_epoch_) {
    ++rssi_miss_count_;  // recompute path: the increment is noise here
    entry.tx_epoch = tx.geom_epoch_;
    entry.rx_epoch = rx.geom_epoch_;
    entry.rssi_dbm =
        rssi_at(tx.tx_power_dbm_, distance(tx.position_, rx.position_));
  }
  return entry.rssi_dbm;
}

void Medium::transmit(Radio& sender, util::Bytes frame) {
  ++tx_count_;
  sim_.stats().observe(stat_frame_bytes_, frame.size());
  if (capture_ != nullptr) capture_->capture_frame(sim_.now(), frame);
  const sim::Time end = sim_.now() + airtime(frame.size());
  const std::uint64_t id = next_tx_id_++;

  const Cell& home = cells_[sender.cell_];
  // No pruning needed: every entry's deliver event erases it, and events
  // fire in time order, so nothing in active_ is ever past its end_time.
  // Overlap on the same channel: two concurrent audible transmissions
  // corrupt each other (no capture effect) when the senders are within two
  // cells — any receiver hearing both is within one cell of each, so
  // farther pairs cannot share a victim.
  obs::Tracer& tracer = sim_.tracer();
  const bool tracing = tracer.enabled();
  bool collided = false;
  for (auto& tx : active_) {
    if (tx.channel != sender.channel() || tx.end_time <= sim_.now()) continue;
    if (cell_chebyshev(tx.cx, tx.cy, home.cx, home.cy) > 2) continue;
    if (tracing && !tx.corrupted) {
      // A not-yet-corrupted entry's sender is alive (detach corrupts its
      // in-flight transmissions), so the actor deref is safe here.
      tracer.instant(trace_drop_corrupt_, tx.sender->trace_actor_,
                     obs::TraceLayer::kPhy, tx.trace_id);
    }
    tx.corrupted = true;
    ++collision_count_;
    collided = true;
  }
  // Causal chain id: a frame transmitted from inside a delivery handler
  // (probe response, auth reply, EAPOL M2...) inherits the inbound frame's
  // chain; anything else starts a fresh seed-derived chain.
  std::uint64_t trace_id = 0;
  if (tracing) {
    trace_id = tracer.current();
    if (trace_id == 0) trace_id = tracer.new_trace_id();
    tracer.instant(trace_tx_, sender.trace_actor_, obs::TraceLayer::kPhy,
                   trace_id, frame.size());
    if (collided) {
      tracer.instant(trace_drop_corrupt_, sender.trace_actor_,
                     obs::TraceLayer::kPhy, trace_id);
    }
  }
  active_.push_back(ActiveTx{id, sender.channel(), sim_.now(), end, &sender,
                             collided, home.cx, home.cy, trace_id});

  // Exactly 48 captured bytes: stays in EventFn's inline storage. The
  // frame buffer is recycled once every receiver has been handed its view.
  sim_.at(end, [this, id, sender_ptr = &sender, f = std::move(frame)]() mutable {
    deliver(id, sender_ptr, f);
    sim_.buffer_pool().release(std::move(f));
  });
}

void Medium::deliver(std::uint64_t tx_id, const Radio* sender, const util::Bytes& frame) {
  // The RAII scope lives in this wrapper so the (usual) unprofiled path
  // runs deliver_impl() with no cleanup object in its frame — keeping the
  // receiver loop free of exception-unwind bookkeeping.
  if (sim_.profiler().enabled()) {
    const obs::Profiler::Scope scope(sim_.profiler(), deliver_scope_);
    deliver_impl(tx_id, sender, frame);
    return;
  }
  deliver_impl(tx_id, sender, frame);
}

void Medium::deliver_impl(std::uint64_t tx_id, const Radio* sender,
                          const util::Bytes& frame) {
  const auto it = std::find_if(active_.begin(), active_.end(),
                               [&](const ActiveTx& tx) { return tx.id == tx_id; });
  ROGUE_ASSERT(it != active_.end());
  const ActiveTx tx = *it;
  active_.erase(it);
  // A detached-mid-flight sender's transmissions were corrupted by
  // detach(), so a surviving entry's sender pointer is safe to follow.
  if (tx.corrupted) return;

  // Batched fan-out: one walk over the sender's flattened delivery plan
  // (the neighborhood's radios on the channel in attach order, minus the
  // sender). The plan carries pairwise RSSI
  // and receiver sensitivity inline — the loop streams a contiguous array
  // and only dereferences a Radio on frames that actually land.
  //
  // Counting stays off the common path: one bulk add per delivery plus
  // increments on the rare skip branches. publish() derives the hot
  // quantities (cache hits, delivered) from these by subtraction.
  const Radio::DeliveryPlan& plan = delivery_plan(*sender, tx.channel);
  rssi_lookup_count_ += plan.entries.size();
  const double floor_loss = std::min(1.0, config_.base_loss_prob + extra_loss_);
  const double noise_span = config_.rssi_noise_db;
  const double margin_scale = config_.margin_scale_db;
  const sim::Time now = sim_.now();
  util::Prng& rng = sim_.rng();
  obs::Tracer& tracer = sim_.tracer();
  const bool tracing = tracer.enabled();
  const bool chaos =
      reorder_prob_ > 0.0 || duplicate_prob_ > 0.0 || jitter_max_us_ > 0;
  // Hand the frame to one receiver under the frame's causal context, so
  // any response it transmits inherits the chain.
  const auto hand_off = [&](Radio* rx, double rssi) {
    ++rx->frames_received_;
    if (tracing) {
      tracer.instant(trace_rx_, rx->trace_actor_, obs::TraceLayer::kPhy,
                     tx.trace_id,
                     static_cast<std::uint64_t>(static_cast<std::int64_t>(rssi)));
      const obs::Tracer::IdScope causal(tracer, tx.trace_id);
      rx->handler_(frame, RxInfo{now, rssi, tx.channel});
      return;
    }
    rx->handler_(frame, RxInfo{now, rssi, tx.channel});
  };
  for (const Radio::PlanEntry& entry : plan.entries) {
    const double noise = noise_span * (2.0 * rng.uniform01() - 1.0);
    const double rssi = entry.rssi_dbm + noise;
    const double margin = rssi - entry.sens_dbm;
    if (margin < 0.0) {
      ++drop_margin_count_;
      if (tracing) {
        tracer.instant(trace_drop_margin_, entry.rx->trace_actor_,
                       obs::TraceLayer::kPhy, tx.trace_id);
      }
      continue;
    }
    const double success =
        (1.0 - floor_loss) * (1.0 - std::exp(-margin / margin_scale));
    if (!rng.chance(success)) {
      ++drop_loss_count_;
      if (tracing) {
        tracer.instant(trace_drop_loss_, entry.rx->trace_actor_,
                       obs::TraceLayer::kPhy, tx.trace_id);
      }
      continue;
    }
    Radio* rx = entry.rx;
    if (!rx->handler_) {
      ++no_handler_count_;
      continue;
    }
    if (!chaos) {
      hand_off(rx, rssi);
      continue;
    }
    // Transport-chaos path (fault windows only): the extra RNG draws below
    // happen iff a knob is nonzero, so chaos-free runs keep the exact draw
    // sequence of the loop above.
    sim::Time extra = 0;
    if (jitter_max_us_ > 0) extra += rng.uniform_u64(0, jitter_max_us_);
    if (reorder_prob_ > 0.0 && rng.chance(reorder_prob_)) {
      // Held back far enough to land behind several later transmissions.
      extra += rng.uniform_u64(500, 3000);
    }
    const bool duplicated = duplicate_prob_ > 0.0 && rng.chance(duplicate_prob_);
    if (extra == 0 && !duplicated) {
      hand_off(rx, rssi);
      continue;
    }
    if (extra == 0) {
      hand_off(rx, rssi);
    } else {
      ++chaos_delayed_count_;
      deliver_late(rx, tx.channel, rssi, now + extra, frame, tx.cx, tx.cy,
                   tx.trace_id);
    }
    if (duplicated) {
      ++chaos_duplicated_count_;
      deliver_late(rx, tx.channel, rssi, now + extra + rng.uniform_u64(100, 1000),
                   frame, tx.cx, tx.cy, tx.trace_id);
    }
  }
}

void Medium::deliver_late(Radio* rx, Channel channel, double rssi, sim::Time at,
                          const util::Bytes& frame, std::int32_t from_cx,
                          std::int32_t from_cy, std::uint64_t trace_id) {
  // The original frame buffer is recycled when the delivery event returns,
  // so a held-back copy needs its own pooled buffer. The receiver rides
  // along as its attach_seq_ — never as a pointer — because it may be
  // destroyed before the event fires.
  util::Bytes copy = sim_.buffer_pool().acquire(frame.size());
  copy.assign(frame.begin(), frame.end());
  sim_.at(at, [this, seq = rx->attach_seq_, channel, rssi, from_cx, from_cy,
               trace_id, f = std::move(copy)]() mutable {
    // The world may have changed while the frame was held: deliver only if
    // the receiver is still attached, tuned to the channel, listening and
    // within audible range of the cell the frame left from. A radio that
    // migrated out of that 3x3 neighborhood mid-flight can no longer hear
    // the transmitter. (After a regrid the captured coordinates refer to
    // the old cell size; the check stays a sound approximation and regrids
    // are rare.)
    Radio* const* slot = by_seq_.find(seq);
    Radio* live = slot != nullptr ? *slot : nullptr;
    if (live != nullptr && live->channel_ == channel && live->handler_ &&
        cell_chebyshev(cells_[live->cell_].cx, cells_[live->cell_].cy, from_cx,
                       from_cy) <= 1) {
      ++live->frames_received_;
      obs::Tracer& tracer = sim_.tracer();
      if (tracer.enabled()) {
        tracer.instant(trace_rx_late_, live->trace_actor_,
                       obs::TraceLayer::kPhy, trace_id);
        const obs::Tracer::IdScope causal(tracer, trace_id);
        live->handler_(f, RxInfo{sim_.now(), rssi, channel});
      } else {
        live->handler_(f, RxInfo{sim_.now(), rssi, channel});
      }
    }
    sim_.buffer_pool().release(std::move(f));
  });
}

void Medium::set_loss_override(double extra_loss_prob) {
  ROGUE_ASSERT(extra_loss_prob >= 0.0);
  extra_loss_ = extra_loss_prob;
}

void Medium::set_reorder(double probability) {
  ROGUE_ASSERT(probability >= 0.0 && probability <= 1.0);
  reorder_prob_ = probability;
}

void Medium::set_duplicate(double probability) {
  ROGUE_ASSERT(probability >= 0.0 && probability <= 1.0);
  duplicate_prob_ = probability;
}

void Medium::set_jitter_ms(double max_ms) {
  ROGUE_ASSERT(max_ms >= 0.0);
  jitter_max_us_ = static_cast<sim::Time>(max_ms * 1000.0);
}

}  // namespace rogue::phy
