#include "net/network.h"

#include <utility>

namespace dqme::net {

Network::Network(sim::Simulator& sim, int n, std::unique_ptr<DelayModel> delay,
                 uint64_t seed)
    : sim_(sim),
      delay_(std::move(delay)),
      rng_(seed),
      sites_(static_cast<size_t>(n), nullptr),
      alive_(static_cast<size_t>(n), true),
      last_delivery_(static_cast<size_t>(n) * static_cast<size_t>(n), 0) {
  DQME_CHECK(n > 0);
  DQME_CHECK(delay_ != nullptr);
}

void Network::attach(SiteId id, NetSite* site) {
  DQME_CHECK(0 <= id && id < size());
  DQME_CHECK(site != nullptr);
  sites_[static_cast<size_t>(id)] = site;
}

uint32_t Network::acquire_flight() {
  ++stats_.flights_acquired;
  if (flight_free_ != kNilFlight) {
    uint32_t idx = flight_free_;
    flight_free_ = flights_[idx].next_free;
    flights_[idx].next_free = kNilFlight;
    return idx;
  }
  flights_.emplace_back();
  return static_cast<uint32_t>(flights_.size() - 1);
}

void Network::release_flight(uint32_t idx) {
  Flight& f = flights_[idx];
  f.inline_count = 0;
  f.spill.clear();
  f.spill_locks.clear();
  f.spill_causes.clear();
  ++f.gen;  // invalidates any OpenFlight record pointing at this slot
  f.next_free = flight_free_;
  flight_free_ = idx;
}

PayloadId Network::acquire_payload() {
  ++stats_.payloads_acquired;
  if (payload_free_ != kNilFlight) {
    const PayloadId idx = payload_free_;
    SidePayload& p = payloads_[idx];
    payload_free_ = p.next_free;
    p.next_free = kNilFlight;
    p.kv = KvFields{};
    p.token.ln.clear();  // capacity survives for the next token hop
    p.token.queue.clear();
    return idx;
  }
  payloads_.emplace_back();
  return static_cast<PayloadId>(payloads_.size() - 1);
}

void Network::release_payload(PayloadId id) {
  payloads_[id].next_free = payload_free_;
  payload_free_ = id;
}

KvFields& Network::attach_kv(Message& m) {
  if (m.payload == kNoPayload) m.payload = acquire_payload();
  return payloads_[m.payload].kv;
}

TokenPayload& Network::attach_token(Message& m) {
  if (m.payload == kNoPayload) m.payload = acquire_payload();
  return payloads_[m.payload].token;
}

KvFields Network::read_kv(const Message& m) const {
  DQME_CHECK_MSG(m.payload != kNoPayload, "message carries no kv payload");
  return payloads_[m.payload].kv;
}

TokenPayload Network::take_token(const Message& m) {
  DQME_CHECK_MSG(m.payload != kNoPayload, "message carries no token payload");
  return std::move(payloads_[m.payload].token);
}

void Network::send(SiteId src, SiteId dst, const Message& m, LockId lock) {
  const uint32_t idx = acquire_flight();
  Flight& f = flights_[idx];
  f.inline_msgs[0] = m;
  f.inline_locks[0] = lock;
  f.inline_causes[0] = send_cause_;
  f.inline_count = 1;
  stage(src, dst, idx);
}

void Network::send_bundle(SiteId src, SiteId dst, const Message* msgs,
                          size_t n, LockId lock) {
  DQME_CHECK(n > 0);
  const uint32_t idx = acquire_flight();
  Flight& f = flights_[idx];
  const size_t inl = n < 2 ? n : 2;
  for (size_t i = 0; i < inl; ++i) {
    f.inline_msgs[i] = msgs[i];
    f.inline_locks[i] = lock;
    f.inline_causes[i] = send_cause_;
  }
  f.inline_count = static_cast<uint32_t>(inl);
  if (n > 2) {
    f.spill.assign(msgs + 2, msgs + n);
    f.spill_locks.assign(n - 2, lock);
    f.spill_causes.assign(n - 2, send_cause_);
  }
  stage(src, dst, idx);
}

void Network::set_lock_piggyback(Time window) {
  pb_window_ = window;
  if (window >= 0) {
    if (open_.empty())
      open_.assign(static_cast<size_t>(size()) * static_cast<size_t>(size()),
                   OpenFlight{});
  } else {
    open_.clear();
    open_.shrink_to_fit();
  }
}

void Network::stage(SiteId src, SiteId dst, uint32_t flight) {
  DQME_CHECK(0 <= src && src < size());
  DQME_CHECK(0 <= dst && dst < size());
  Flight& f = flights_[flight];
  const Time now = sim_.now();
  const auto stamp = [&](Message& m) {
    m.src = src;
    m.dst = dst;
    m.sent_at = now;
  };
  for (uint32_t i = 0; i < f.inline_count; ++i) stamp(f.inline_msgs[i]);
  for (Message& m : f.spill) stamp(m);

  if (!alive_[static_cast<size_t>(src)]) {  // crashed sites are silent
    // Never-delivered payloads would leak their slots otherwise.
    for (uint32_t i = 0; i < f.inline_count; ++i)
      if (f.inline_msgs[i].payload != kNoPayload)
        release_payload(f.inline_msgs[i].payload);
    for (const Message& m : f.spill)
      if (m.payload != kNoPayload) release_payload(m.payload);
    release_flight(flight);
    return;
  }

  const size_t count = f.inline_count + f.spill.size();
  if (src == dst) {
    // Local short-circuit: delivered as a fresh event (never inline, so a
    // site's handler is never re-entered), with no wire cost.
    stats_.local_deliveries += count;
    sim_.schedule_after(0, [this, flight] { deliver_flight(flight); });
    return;
  }

  stats_.control_messages += count;
  for (uint32_t i = 0; i < f.inline_count; ++i)
    stats_.by_type[static_cast<size_t>(f.inline_msgs[i].type)] += 1;
  for (const Message& m : f.spill)
    stats_.by_type[static_cast<size_t>(m.type)] += 1;

  const size_t chan = static_cast<size_t>(src) * static_cast<size_t>(size()) +
                      static_cast<size_t>(dst);
  if (controlled_) {
    // A wire message to a dead receiver evaporates now rather than sitting
    // in a parked queue no strategy should ever have to drain: the clock
    // path would drop it at arrival anyway, and dropping here keeps the
    // enabled-action set (non-empty channels) meaningful. One flight is
    // one schedule action, so lock piggybacking is off in this mode.
    stats_.wire_messages += 1;
    if (!alive_[static_cast<size_t>(dst)]) {
      drop_flight(flight);
      return;
    }
    parked_[chan].push_back(flight);
    ++parked_total_;
    return;
  }

  if (pb_window_ >= 0) {
    // Lock piggybacking: ride the channel's open flight when it is still
    // undelivered (strictly — at now == deliver the delivery event may
    // already have fired this instant) and young enough. Appending keeps
    // the open flight's delivery instant, so FIFO and the delivery floor
    // are untouched; the appended messages cost no new wire message.
    OpenFlight& rec = open_[chan];
    if (rec.flight != kNilFlight && flights_[rec.flight].gen == rec.gen &&
        now < rec.deliver && now - rec.created <= pb_window_) {
      Flight& open = flights_[rec.flight];
      for (uint32_t i = 0; i < f.inline_count; ++i) {
        if (open.inline_count < 2) {
          open.inline_msgs[open.inline_count] = f.inline_msgs[i];
          open.inline_locks[open.inline_count] = f.inline_locks[i];
          open.inline_causes[open.inline_count] = f.inline_causes[i];
          ++open.inline_count;
        } else {
          open.spill.push_back(f.inline_msgs[i]);
          open.spill_locks.push_back(f.inline_locks[i]);
          open.spill_causes.push_back(f.inline_causes[i]);
        }
      }
      for (size_t i = 0; i < f.spill.size(); ++i) {
        open.spill.push_back(f.spill[i]);
        open.spill_locks.push_back(f.spill_locks[i]);
        open.spill_causes.push_back(f.spill_causes[i]);
      }
      stats_.piggybacked_messages += count;
      release_flight(flight);
      return;
    }
  }

  stats_.wire_messages += 1;
  Time at = sim_.now() + delay_->sample(rng_, src, dst);
  // FIFO floor: never deliver before anything previously sent on the
  // channel. Equal instants are fine — the simulator breaks ties in
  // scheduling order, which equals sending order.
  if (at < last_delivery_[chan]) at = last_delivery_[chan];
  last_delivery_[chan] = at;

  if (pb_window_ >= 0)
    open_[chan] = OpenFlight{flight, f.gen, now, at};

  sim_.schedule_at(at, [this, flight] { deliver_flight(flight); });
}

void Network::deliver_flight(uint32_t idx) {
  // Receivers send messages from inside on_message, which can grow
  // flights_ and invalidate references — copy the inline messages out (a
  // memcpy) before touching any handler. The subscriber branch resolves once
  // per flight: a detached run never tests the list per message.
  const bool hooked = !deliver_subs_.empty();
  const uint32_t n = flights_[idx].inline_count;
  const std::array<Message, 2> local = flights_[idx].inline_msgs;
  const std::array<LockId, 2> local_locks = flights_[idx].inline_locks;
  const std::array<CauseId, 2> local_causes = flights_[idx].inline_causes;
  if (flights_[idx].spill.empty()) {
    // Fast path: 1-2 messages, the dominant shapes.
    if (hooked) {
      for (uint32_t i = 0; i < n; ++i)
        deliver_one<true>(local[i], local_locks[i], local_causes[i]);
    } else {
      for (uint32_t i = 0; i < n; ++i)
        deliver_one<false>(local[i], local_locks[i], local_causes[i]);
    }
    release_flight(idx);
    return;
  }

  for (uint32_t i = 0; i < n; ++i) {
    if (hooked)
      deliver_one<true>(local[i], local_locks[i], local_causes[i]);
    else
      deliver_one<false>(local[i], local_locks[i], local_causes[i]);
  }
  // The spill vector must survive the handlers — index on every access.
  for (size_t i = 0; i < flights_[idx].spill.size(); ++i) {
    const Message m = flights_[idx].spill[i];
    const LockId lock = flights_[idx].spill_locks[i];
    const CauseId cause = flights_[idx].spill_causes[i];
    if (hooked)
      deliver_one<true>(m, lock, cause);
    else
      deliver_one<false>(m, lock, cause);
  }
  release_flight(idx);
}

template <bool kHooked>
void Network::deliver_one(const Message& m, LockId lock, CauseId cause) {
  if (!alive_[static_cast<size_t>(m.dst)] ||
      !alive_[static_cast<size_t>(m.src)]) {
    // Fail-silent crash semantics: a message from/to a crashed site
    // evaporates. (Messages a site sent *before* crashing are still
    // delivered in reality; we drop those too, which is the conservative
    // choice for the §6 recovery protocol — it must not depend on them.)
    stats_.dropped_at_crashed += 1;
    if (m.payload != kNoPayload) release_payload(m.payload);
    return;
  }
  stats_.delivered_messages += 1;
  // Causal context for the handler: an attached recorder reads
  // delivering_cause() inside its delivery callback, and anything the
  // handler sends is stamped with send_cause_ — which the recorder
  // overwrites per recorded edge, so only observed runs ever see a
  // non-kNoCause value here.
  delivering_cause_ = cause;
  if constexpr (kHooked)
    for (const DeliverFn& fn : deliver_subs_) fn(m, lock);
  NetSite* site = sites_[static_cast<size_t>(m.dst)];
  DQME_CHECK_MSG(site != nullptr, "no receiver attached for site " << m.dst);
  site->on_message(m, lock);
  delivering_cause_ = kNoCause;
  send_cause_ = kNoCause;
  // The payload's lifetime is the flight: the handler has returned (and
  // taken what it wanted), so the slot recycles.
  if (m.payload != kNoPayload) release_payload(m.payload);
}

void Network::drop_flight(uint32_t idx) {
  Flight& f = flights_[idx];
  stats_.dropped_at_crashed += f.inline_count + f.spill.size();
  for (uint32_t i = 0; i < f.inline_count; ++i)
    if (f.inline_msgs[i].payload != kNoPayload)
      release_payload(f.inline_msgs[i].payload);
  for (const Message& m : f.spill)
    if (m.payload != kNoPayload) release_payload(m.payload);
  release_flight(idx);
}

void Network::set_controlled(bool on) {
  if (on == controlled_) return;
  if (on) {
    parked_.assign(static_cast<size_t>(size()) * static_cast<size_t>(size()),
                   {});
  } else {
    DQME_CHECK_MSG(parked_total_ == 0,
                   "disabling controlled delivery with flights still parked");
    parked_.clear();
    parked_.shrink_to_fit();
  }
  controlled_ = on;
}

void Network::parked_channels(std::vector<Channel>& out) const {
  out.clear();
  if (parked_total_ == 0) return;
  const size_t n = static_cast<size_t>(size());
  for (size_t chan = 0; chan < parked_.size(); ++chan) {
    if (parked_[chan].empty()) continue;
    out.push_back(Channel{static_cast<SiteId>(chan / n),
                          static_cast<SiteId>(chan % n)});
  }
}

size_t Network::parked_count(SiteId src, SiteId dst) const {
  DQME_CHECK(0 <= src && src < size());
  DQME_CHECK(0 <= dst && dst < size());
  const size_t chan = static_cast<size_t>(src) * static_cast<size_t>(size()) +
                      static_cast<size_t>(dst);
  return parked_[chan].size();
}

Time Network::parked_sent_at(SiteId src, SiteId dst, size_t index) const {
  const size_t chan = static_cast<size_t>(src) * static_cast<size_t>(size()) +
                      static_cast<size_t>(dst);
  DQME_CHECK(index < parked_[chan].size());
  const Flight& f = flights_[parked_[chan][index]];
  DQME_CHECK(f.inline_count > 0);
  return f.inline_msgs[0].sent_at;
}

bool Network::deliver_parked(SiteId src, SiteId dst, size_t index) {
  DQME_CHECK_MSG(controlled_, "deliver_parked outside controlled mode");
  DQME_CHECK(0 <= src && src < size());
  DQME_CHECK(0 <= dst && dst < size());
  const size_t chan = static_cast<size_t>(src) * static_cast<size_t>(size()) +
                      static_cast<size_t>(dst);
  auto& q = parked_[chan];
  if (index >= q.size()) return false;
  const uint32_t flight = q[index];
  q.erase(q.begin() + static_cast<ptrdiff_t>(index));
  --parked_total_;
  deliver_flight(flight);
  return true;
}

void Network::crash(SiteId id) {
  DQME_CHECK(0 <= id && id < size());
  alive_[static_cast<size_t>(id)] = false;
  if (controlled_ && parked_total_ > 0) {
    // Parked flights touching the dead site would be dropped at delivery
    // anyway (deliver_one checks both endpoints); sweeping them now keeps
    // the enabled set honest and recycles their payload slots immediately.
    const size_t n = static_cast<size_t>(size());
    for (size_t chan = 0; chan < parked_.size(); ++chan) {
      const SiteId src = static_cast<SiteId>(chan / n);
      const SiteId dst = static_cast<SiteId>(chan % n);
      if (src != id && dst != id) continue;
      for (uint32_t flight : parked_[chan]) drop_flight(flight);
      parked_total_ -= parked_[chan].size();
      parked_[chan].clear();
    }
  }
  for (const CrashFn& fn : crash_subs_) fn(id);
}

int Network::alive_count() const {
  int n = 0;
  for (bool a : alive_)
    if (a) ++n;
  return n;
}

void Network::copy_state_from(const Network& other) {
  DQME_CHECK_MSG(controlled_ && other.controlled_,
                 "copy_state_from is for controlled networks");
  DQME_CHECK(size() == other.size());
  alive_ = other.alive_;
  last_delivery_ = other.last_delivery_;
  stats_ = other.stats_;
  flights_ = other.flights_;
  flight_free_ = other.flight_free_;
  payloads_ = other.payloads_;
  payload_free_ = other.payload_free_;
  send_cause_ = other.send_cause_;
  delivering_cause_ = other.delivering_cause_;
  parked_total_ = other.parked_total_;
  parked_ = other.parked_;
}

}  // namespace dqme::net
