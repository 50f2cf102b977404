#include "bgp/simulator.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "netbase/telemetry.h"

namespace anyopt::bgp {

namespace {

/// Pre-resolved simulator metrics (one registry lookup per process).
/// Decision-step tallies count, per route comparison run by the decision
/// process, the step that produced the verdict — the paper's §4.2 story
/// (how often the vendor arrival-order step was load-bearing) read straight
/// off a campaign.
struct SimMetrics {
  telemetry::Counter* runs;
  telemetry::Counter* events;
  telemetry::Counter* withdraws;
  telemetry::Counter* scratch_reuse;
  telemetry::Gauge* queue_peak;
  telemetry::Histogram* convergence_s;
  telemetry::Histogram* events_per_run;
  std::array<telemetry::Counter*, 10> decision_step;

  static const SimMetrics& get() {
    static const SimMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      SimMetrics out{&reg.counter("bgp.sim.runs"),
                     &reg.counter("bgp.sim.events"),
                     &reg.counter("bgp.sim.withdraw_events"),
                     &reg.counter("sim.scratch_reuse"),
                     &reg.gauge("bgp.sim.queue_peak"),
                     &reg.histogram("bgp.sim.convergence_s"),
                     &reg.histogram("bgp.sim.events_per_run"),
                     {}};
      constexpr const char* kStepNames[10] = {
          nullptr,
          "bgp.decision.local_pref",
          "bgp.decision.as_path_length",
          "bgp.decision.origin",
          "bgp.decision.med",
          "bgp.decision.ebgp_over_ibgp",
          "bgp.decision.igp_cost",
          "bgp.decision.oldest_route",
          "bgp.decision.router_id",
          "bgp.decision.neighbor_address",
      };
      out.decision_step[0] = nullptr;
      for (int s = 1; s < 10; ++s) {
        out.decision_step[s] = &reg.counter(kStepNames[s]);
      }
      return out;
    }();
    return m;
  }
};

/// Pre-resolved overlay metrics (one registry lookup per process).
struct OverlayMetrics {
  telemetry::Counter* forks;
  telemetry::Counter* copied_as;
  telemetry::Counter* delta_events;

  static const OverlayMetrics& get() {
    static const OverlayMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      return OverlayMetrics{&reg.counter("sim.overlay.forks"),
                            &reg.counter("sim.overlay.copied_as"),
                            &reg.counter("sim.overlay.delta_events")};
    }();
    return m;
  }
};

/// Pre-resolved retained-bytes gauge for recycled scratch arenas (see
/// netbase/resmon.h for the `bytes.*` family the sampler exports).
telemetry::Gauge& scratch_bytes_gauge() {
  static telemetry::Gauge& g =
      telemetry::Registry::global().gauge("bytes.sim_scratch");
  return g;
}

}  // namespace

struct Simulator::Event {
  double time_s = 0;
  std::uint64_t seq = 0;  ///< FIFO tie-break for equal timestamps
  AsId to;
  UpdateMsg msg;

  friend bool operator>(const Event& a, const Event& b) {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    return a.seq > b.seq;
  }
};

/// Last advertisement sent per (AS, neighbor slot); `valid == false` = none.
struct Simulator::Advertised {
  bool valid = false;
  std::vector<AsId> path;
  std::uint8_t prepend = 0;
};

/// The recycled buffers behind a SimScratch.  Everything here is storage
/// only — each run resets whatever it borrows before reading it, so a
/// scratch can hop between simulators (even differently sized worlds).
struct SimScratch::Impl {
  std::vector<RoutingState::AsState> as_state;          ///< per-AS RIBs
  std::vector<Simulator::Event> events;                 ///< queue container
  std::vector<double> session_clock;
  std::vector<std::vector<Simulator::Advertised>> advertised;
  /// Bytes last reported into the `bytes.sim_scratch` gauge; the delta
  /// discipline keeps the gauge a live total across all worker arenas.
  std::int64_t reported_bytes = 0;

  ~Impl() { report(0); }

  /// Replaces this arena's contribution to the retained-bytes gauge.
  void report(std::int64_t now_bytes) {
    if (now_bytes != reported_bytes) {
      scratch_bytes_gauge().add(now_bytes - reported_bytes);
      reported_bytes = now_bytes;
    }
  }

  /// Approximate heap bytes this arena currently retains (capacities of
  /// the dominant buffers; nested AS-path storage included because it is
  /// the bulk of a recycled RIB).
  [[nodiscard]] std::int64_t retained_bytes() const {
    std::size_t b = as_state.capacity() * sizeof(RoutingState::AsState) +
                    events.capacity() * sizeof(Simulator::Event) +
                    session_clock.capacity() * sizeof(double) +
                    advertised.capacity() * sizeof(advertised[0]);
    for (const RoutingState::AsState& s : as_state) {
      b += s.rib.capacity() * sizeof(RibEntry) +
           s.best.equal_best.capacity() * sizeof(int);
      for (const RibEntry& e : s.rib) {
        b += e.as_path.capacity() * sizeof(AsId);
      }
    }
    for (const std::vector<Simulator::Advertised>& row : advertised) {
      b += row.capacity() * sizeof(Simulator::Advertised);
      for (const Simulator::Advertised& adv : row) {
        b += adv.path.capacity() * sizeof(AsId);
      }
    }
    return static_cast<std::int64_t>(b);
  }
};

/// Run continuation: everything beyond the RIBs a resumed run needs — the
/// per-neighbor advertisement ledger (with its COW flags when the run was
/// an overlay), the per-session delivery clocks and the arrival-seq
/// high-water mark.
struct RoutingState::Cont {
  std::vector<std::vector<Simulator::Advertised>> advertised;
  std::vector<std::uint8_t> adv_copied;  ///< per-AS COW flags; empty = own
  std::vector<double> session_clock;
  std::uint64_t arrival_seq = 0;
};

RoutingState::RoutingState() = default;
RoutingState::~RoutingState() = default;
RoutingState::RoutingState(RoutingState&&) noexcept = default;
RoutingState& RoutingState::operator=(RoutingState&&) noexcept = default;

/// The frozen buffers of a campaign-shared base.  Immutable once
/// `converge_base` returns; overlays only ever read them.
struct BaseState::Impl {
  std::vector<RoutingState::AsState> as;
  std::vector<std::vector<Simulator::Advertised>> advertised;
  std::vector<double> session_clock;
  std::uint64_t arrival_seq = 0;
  double horizon_s = 0;
  std::size_t events = 0;
};

BaseState::BaseState() : impl_(std::make_unique<Impl>()) {}
BaseState::~BaseState() = default;
BaseState::BaseState(BaseState&&) noexcept = default;
BaseState& BaseState::operator=(BaseState&&) noexcept = default;

std::size_t BaseState::events() const { return impl_->events; }

double BaseState::converged_at_s() const { return impl_->horizon_s; }

SimScratch::SimScratch() : impl_(std::make_unique<Impl>()) {}
SimScratch::~SimScratch() = default;
SimScratch::SimScratch(SimScratch&&) noexcept = default;
SimScratch& SimScratch::operator=(SimScratch&&) noexcept = default;

void SimScratch::recycle(RoutingState&& state) {
  impl_->as_state = std::move(state.as_);
  if (state.cont_ != nullptr) {
    // A kept continuation owns its own ledger/clock storage; reclaim it too.
    impl_->advertised = std::move(state.cont_->advertised);
    impl_->session_clock = std::move(state.cont_->session_clock);
    state.cont_.reset();
  }
  state.as_.clear();
  state.copied_.clear();
  state.base_ = nullptr;
  // Retained-bytes accounting: the recycle point is where the arena's
  // footprint settles, so the walk (same order of work as the per-run
  // buffer reset) only happens when telemetry is on.
  if (telemetry::enabled()) impl_->report(impl_->retained_bytes());
}

Simulator::Simulator(const topo::Internet& net,
                     std::vector<OriginAttachment> attachments,
                     SimulatorOptions options)
    : net_(net),
      attachments_(std::move(attachments)),
      options_(options),
      policy_(net) {
  const std::size_t n = net_.graph.as_count();
  adj_.resize(n);
  host_attach_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& nbrs = net_.graph.nodes()[i].neighbors;
    auto& out = adj_[i];
    out.reserve(nbrs.size());
    for (const topo::Neighbor& nb : nbrs) {
      const bool dup = std::any_of(
          out.begin(), out.end(),
          [&](const DedupNeighbor& d) { return d.as == nb.as; });
      if (!dup) out.push_back({nb.as, nb.relation, nb.link});
    }
    std::sort(out.begin(), out.end(),
              [](const DedupNeighbor& a, const DedupNeighbor& b) {
                return a.as < b.as;
              });
  }
  attachment_pop_.assign(attachments_.size(), 0);
  for (AttachmentIndex i = 0; i < attachments_.size(); ++i) {
    const OriginAttachment& at = attachments_[i];
    host_attach_[at.neighbor.value()].push_back(i);
    if (net_.pops.has(at.neighbor)) {
      attachment_pop_[i] = net_.pops.network(at.neighbor).nearest_pop(at.where);
    }
  }
}

int Simulator::neighbor_slot(AsId as, AsId neighbor) const {
  const auto& out = adj_[as.value()];
  const auto it = std::lower_bound(
      out.begin(), out.end(), neighbor,
      [](const DedupNeighbor& d, AsId target) { return d.as < target; });
  if (it == out.end() || it->as != neighbor) return -1;
  return static_cast<int>(it - out.begin());
}

int Simulator::attachment_slot(AsId as, AttachmentIndex idx) const {
  const auto& list = host_attach_[as.value()];
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i] == idx) {
      return static_cast<int>(adj_[as.value()].size() + i);
    }
  }
  return -1;
}

/// Mode descriptor for one engine run: exactly one of clean (both `base`
/// null and `resuming` false), forked overlay (`base` set), or resumed
/// continuation (`resuming`, `resume` holds the prior state).
struct Simulator::OverlayRun {
  const BaseState* base = nullptr;  ///< fork source; null unless forking
  RoutingState resume;              ///< moved-in prior state when resuming
  bool resuming = false;
  std::span<const AttachmentIndex> reage;
  bool keep_continuation = false;
  OverlayStats* stats = nullptr;
};

RoutingState Simulator::run(std::span<const Injection> injections,
                            std::uint64_t run_nonce,
                            SimScratch* scratch) const {
  return run_impl(injections, run_nonce, scratch, nullptr);
}

RoutingState Simulator::run_impl(std::span<const Injection> injections,
                                 std::uint64_t run_nonce, SimScratch* scratch,
                                 OverlayRun* overlay) const {
  // One relaxed load up front; every instrumentation site below branches on
  // this cached bool, so the disabled path adds no clocks and no atomics.
  const bool telem = telemetry::enabled();
  telemetry::ScopedTimer span(
      "bgp.sim.run", "bgp", nullptr,
      telem && telemetry::tracing()
          ? telemetry::make_args("nonce", run_nonce)
          : std::string{});
  std::size_t queue_peak = 0;
  std::array<std::uint64_t, 10> step_tally{};

  const std::size_t n = net_.graph.as_count();
  SimScratch::Impl* sc = scratch != nullptr ? scratch->impl_.get() : nullptr;

  const bool fork = overlay != nullptr && overlay->base != nullptr;
  const bool resuming = overlay != nullptr && overlay->resuming;
  const bool keep = overlay != nullptr && overlay->keep_continuation;

  RoutingState state;
  const BaseState::Impl* bs = nullptr;
  if (resuming) {
    state = std::move(overlay->resume);
    if (state.cont_ == nullptr) {
      throw std::logic_error(
          "resume_overlay: prior state was not built with keep_continuation");
    }
    bs = state.base_ != nullptr ? state.base_->impl_.get() : nullptr;
  } else if (fork) {
    bs = overlay->base->impl_.get();
    state.base_ = overlay->base;
  }
  state.sim_ = this;
  state.run_nonce_ = run_nonce;
  state.events_ = 0;  // counts THIS phase's events (delta-only for overlays)
  // Overlay deltas are scheduled relative to where the prior phase left off.
  const double t_base = resuming ? state.last_event_s_
                        : fork   ? bs->horizon_s
                                 : 0.0;
  if (fork) state.last_event_s_ = t_base;

  // Seed per-AS RIB storage from the scratch when one is supplied.  Reused
  // entries keep their heap blocks (the AS-path vectors are the dominant
  // allocation of a clean run) but are reset to the not-present state the
  // engine expects; nothing below ever reads a field of a non-present
  // entry, so stale bytes cannot leak into results.  A forked overlay also
  // borrows the recycled pages but leaves them stale: each page is either
  // copy-assigned from the base on first write or never read at all.
  const bool reused = !resuming && sc != nullptr && !sc->as_state.empty();
  if (reused) {
    state.as_ = std::move(sc->as_state);
    sc->as_state.clear();
  }
  if (!resuming) state.as_.resize(n);
  if (fork) {
    state.copied_.assign(n, 0);
  } else if (!resuming) {
    state.copied_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      auto& as_state = state.as_[i];
      as_state.rib.resize(adj_[i].size() + host_attach_[i].size());
      if (reused) {
        for (RibEntry& entry : as_state.rib) {
          entry.present = false;
          entry.as_path.clear();
        }
        as_state.best.best = -1;
        as_state.best.equal_best.clear();
      }
    }
  }
  if (telem && reused) SimMetrics::get().scratch_reuse->add(1);

  Rng rng{options_.seed ^ (0x9e3779b97f4a7c15ULL * (run_nonce + 1))};
  // Deterministic per-session processing delay: stable across runs so BGP
  // races resolve consistently between repeated experiments.
  const auto session_delay_ms = [this](std::uint64_t key) {
    std::uint64_t h = (key + 1) * 0x9e3779b97f4a7c15ULL ^ options_.seed;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
    const double u =
        (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;  // (0, 1]
    return -options_.processing_delay_mean_ms * std::log(u);
  };
  std::uint64_t event_seq = 0;
  // Arrival sequencing continues across fork/resume so the oldest-route
  // tie-break stays bit-exact: every route installed by an overlay delta is
  // strictly newer than every base route, exactly as if the delta had been
  // injected at the end of one long clean run.
  std::uint64_t arrival_seq = fork       ? bs->arrival_seq
                              : resuming ? state.cont_->arrival_seq
                                         : 0;
  // The queue adapter exposes its container so a scratch can reclaim the
  // storage once the run drains it.
  struct EventQueue
      : std::priority_queue<Event, std::vector<Event>, std::greater<>> {
    explicit EventQueue(std::vector<Event>&& storage) {
      storage.clear();
      c = std::move(storage);
    }
    [[nodiscard]] std::vector<Event> reclaim() && { return std::move(c); }
  };
  EventQueue queue(sc != nullptr ? std::move(sc->events)
                                 : std::vector<Event>{});
  if (sc != nullptr) sc->events.clear();

  // BGP runs over TCP: updates on one session are delivered IN ORDER.
  // Each directed session keeps a delivery clock; a later update can never
  // arrive before an earlier one, or a stale announcement could overwrite
  // its own replacement at the receiver.
  std::vector<double> session_clock_local;
  std::vector<double>& session_clock =
      (sc != nullptr && !keep) ? sc->session_clock : session_clock_local;
  if (fork) {
    session_clock = bs->session_clock;  // FIFO continuity across the fork
  } else if (resuming) {
    session_clock = std::move(state.cont_->session_clock);
  } else {
    session_clock.assign(net_.graph.link_count() * 2 + attachments_.size(),
                         -1.0);
  }
  const auto fifo = [&session_clock](std::size_t session, double t) {
    if (t <= session_clock[session]) t = session_clock[session] + 1e-9;
    session_clock[session] = t;
    return t;
  };

  // Last advertisement sent per (AS, neighbor slot); `valid` false = none.
  // advertised[as][slot] holds the as_path sent, with a validity flag.
  std::vector<std::vector<Advertised>> advertised_local;
  std::vector<std::vector<Advertised>>& advertised =
      (sc != nullptr && !keep) ? sc->advertised : advertised_local;
  std::vector<std::uint8_t> adv_copied;  // ledger COW flags (bs != nullptr)
  if (fork) {
    // Rows are copy-assigned from the base ledger on first write; stale
    // recycled contents are never read (adv_copied gates every access).
    advertised.resize(n);
    adv_copied.assign(n, 0);
  } else if (resuming) {
    advertised = std::move(state.cont_->advertised);
    adv_copied = std::move(state.cont_->adv_copied);
  } else {
    advertised.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      advertised[i].resize(adj_[i].size());
      for (Advertised& adv : advertised[i]) {
        adv.valid = false;
        adv.path.clear();
      }
    }
  }

  std::size_t copied_now = 0;
  // Copy-on-write page accessors: reads of untouched ASes go to the base,
  // the first write deep-copies the page (reusing any recycled capacity).
  // With no base (`bs == nullptr`) both are plain pass-throughs.
  const auto state_page = [&](std::size_t i) -> RoutingState::AsState& {
    if (bs != nullptr && state.copied_[i] == 0) {
      state.as_[i] = bs->as[i];
      state.copied_[i] = 1;
      ++copied_now;
    }
    return state.as_[i];
  };
  const auto adv_page = [&](std::size_t i) -> std::vector<Advertised>& {
    if (bs != nullptr && adv_copied[i] == 0) {
      advertised[i] = bs->advertised[i];
      adv_copied[i] = 1;
    }
    return advertised[i];
  };

  // Re-runs best-path selection at `u` and exports the diff owed to each
  // neighbor against what was last sent, scheduling updates/withdraws at
  // `now_s`.  Shared by the event loop and the re-aging pass.
  const auto redecide_and_export = [&](AsId u, double now_s) {
    const topo::AsNode& node = net_.graph.node(u);
    auto& as_state = state_page(u.value());

    // --- Re-run the decision process. ---
    DecisionOptions dopts;
    dopts.prefer_oldest =
        options_.arrival_order_tiebreak && node.prefers_oldest;
    BestSet new_best;
    DecisionStep decided_at = DecisionStep::kLocalPref;
    for (int i = 0; i < static_cast<int>(as_state.rib.size()); ++i) {
      if (!as_state.rib[i].present) continue;
      if (new_best.best < 0) {
        new_best.best = i;
        continue;
      }
      if (compare_routes(as_state.rib[i], as_state.rib[new_best.best], dopts,
                         telem ? &decided_at : nullptr) < 0) {
        new_best.best = i;
      }
      if (telem) ++step_tally[static_cast<int>(decided_at)];
    }
    if (new_best.best >= 0) {
      for (int i = 0; i < static_cast<int>(as_state.rib.size()); ++i) {
        if (as_state.rib[i].present &&
            multipath_equal(as_state.rib[i], as_state.rib[new_best.best])) {
          new_best.equal_best.push_back(i);
        }
      }
    }
    as_state.best = std::move(new_best);

    // --- Export: diff the advertisement owed to each neighbor against
    // what was last sent, and schedule updates/withdraws. ---
    const RibEntry* best =
        as_state.best.best >= 0 ? &as_state.rib[as_state.best.best] : nullptr;
    auto& adv_row = adv_page(u.value());
    for (std::size_t i = 0; i < adj_[u.value()].size(); ++i) {
      const DedupNeighbor& nb = adj_[u.value()][i];
      bool send_path = false;
      std::vector<AsId> path;
      if (best != nullptr &&
          PolicyEngine::may_export(best->learned_from, nb.relation) &&
          nb.as != best->neighbor) {  // split horizon toward the sender
        path.reserve(best->as_path.size() + 1);
        path.push_back(u);
        path.insert(path.end(), best->as_path.begin(), best->as_path.end());
        send_path = true;
      }
      Advertised& adv = adv_row[i];
      if (send_path) {
        if (adv.valid && adv.path == path &&
            adv.prepend == best->origin_prepend) {
          continue;  // no change
        }
        adv.valid = true;
        adv.path = path;
        adv.prepend = best->origin_prepend;
      } else {
        if (!adv.valid) continue;  // nothing to withdraw
        adv.valid = false;
        adv.path.clear();
      }
      const topo::AsLink& link = net_.graph.link(nb.link);
      // Update propagation across the AS from where the route entered to
      // this egress.  iBGP rides the backbone at line rate, so only a
      // fraction of the geodesic delay differentiates egress ports — large
      // enough that changing the injection PoP shifts a few downstream
      // races (the §4.3 representative-site effect), small enough that
      // same-AS announcement order has no catchment impact (§4.2).
      constexpr double kIbgpPropagationScale = 0.15;
      const double intra_ms =
          best != nullptr
              ? kIbgpPropagationScale *
                    geo::one_way_latency_ms(best->at, link.where)
              : 0.0;
      Event out;
      out.time_s = fifo(
          std::size_t{nb.link.value()} * 2 +
              (net_.graph.link(nb.link).a == u ? 0 : 1),
          now_s +
              (intra_ms + link.latency_ms +
               session_delay_ms((std::uint64_t{nb.link.value()} << 20) ^
                                u.value()) +
               rng.exponential(options_.run_jitter_mean_ms)) /
                  1e3);
      out.seq = event_seq++;
      out.to = nb.as;
      out.msg.withdraw = !send_path;
      out.msg.sender = u;
      // Route lineage: receivers record which origin session the path
      // descends from, which is what lets an overlay find every route
      // affected by re-aging an attachment.  The decision process only
      // consults `attachment` between same-address (origin) entries, so
      // propagating it changes no clean-run outcome.
      out.msg.attachment = send_path ? best->attachment : kNoAttachment;
      if (send_path) {
        out.msg.as_path = std::move(path);
        out.msg.origin_prepend = best->origin_prepend;
      }
      out.msg.sender_router_id = node.router_id;
      out.msg.at = link.where;
      queue.push(std::move(out));
      if (telem && queue.size() > queue_peak) queue_peak = queue.size();
    }
  };

  // Schedule origin injections.
  double last_time = -1;
  for (const Injection& inj : injections) {
    if (inj.time_s < last_time) {
      throw std::invalid_argument("injections must be sorted by time");
    }
    last_time = inj.time_s;
    assert(inj.attachment < attachments_.size());
    const OriginAttachment& at = attachments_[inj.attachment];
    if (at.filtered && !inj.withdraw) continue;  // dropped by their import policy
    Event ev;
    ev.time_s = fifo(net_.graph.link_count() * 2 + inj.attachment,
                     (t_base + inj.time_s) +
                         (at.latency_ms +
                          session_delay_ms(0xA77AC4ULL + inj.attachment) +
                          rng.exponential(options_.run_jitter_mean_ms)) /
                             1e3);
    ev.seq = event_seq++;
    ev.to = at.neighbor;
    ev.msg.withdraw = inj.withdraw;
    ev.msg.sender = AsId{};  // invalid => origin
    ev.msg.attachment = inj.attachment;
    ev.msg.origin_prepend = inj.prepend;
    ev.msg.sender_router_id = 0;
    ev.msg.at = at.where;
    queue.push(std::move(ev));
    if (telem && queue.size() > queue_peak) queue_peak = queue.size();
  }

  // --- Re-aging pass (overlay order-leg derivation). ---
  if (overlay != nullptr && !overlay->reage.empty()) {
    // Give every installed route descending from the listed attachments a
    // fresh arrival_seq — preserving their relative order but making them
    // globally newest, exactly what those routes would carry had their
    // attachments announced LAST.  Each rewritten entry's AS then re-runs
    // its decision process; only genuine best-path flips export, so the
    // cascade that follows is the true propagation cost of the order
    // change, not a replay of the whole schedule.
    std::vector<std::uint8_t> in_set(attachments_.size(), 0);
    for (const AttachmentIndex a : overlay->reage) in_set[a] = 1;
    struct Reaged {
      std::uint64_t old_seq;
      std::uint32_t as;
      std::uint32_t slot;
    };
    std::vector<Reaged> refs;
    std::vector<std::uint8_t> affected(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const RoutingState::AsState& s =
          (bs != nullptr && state.copied_[i] == 0) ? bs->as[i] : state.as_[i];
      for (std::size_t j = 0; j < s.rib.size(); ++j) {
        const RibEntry& e = s.rib[j];
        if (e.present && e.attachment != kNoAttachment &&
            in_set[e.attachment] != 0) {
          refs.push_back({e.arrival_seq, static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(j)});
          affected[i] = 1;
        }
      }
    }
    std::sort(refs.begin(), refs.end(),
              [](const Reaged& a, const Reaged& b) {
                return a.old_seq < b.old_seq;  // install seqs are unique
              });
    for (const Reaged& r : refs) {
      RibEntry& e = state_page(r.as).rib[r.slot];
      e.arrival_seq = ++arrival_seq;
      e.arrival_time_s = t_base;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (affected[i] != 0) {
        redecide_and_export(AsId{static_cast<std::uint32_t>(i)}, t_base);
      }
    }
  }

  const std::size_t max_events =
      options_.max_events != 0
          ? options_.max_events
          : 500 * std::max<std::size_t>(net_.graph.link_count(), 1);

  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    if (++state.events_ > max_events) {
      // Diagnostics go through the event sink, never stdio (library code).
      if (telem) {
        telemetry::Registry::global().instant(
            "bgp.sim.event_budget_exceeded", "bgp",
            telemetry::make_args("max_events", max_events));
      }
      throw std::runtime_error("BGP simulation exceeded event budget — "
                               "policy oscillation?");
    }
    state.last_event_s_ = ev.time_s;
    const AsId u = ev.to;
    const topo::AsNode& node = net_.graph.node(u);
    auto& as_state = state_page(u.value());

    // --- Install / withdraw into the right Adj-RIB-In slot. ---
    int slot = -1;
    topo::Relation learned_from = topo::Relation::kProvider;
    if (!ev.msg.sender.valid()) {
      slot = attachment_slot(u, ev.msg.attachment);
      assert(slot >= 0);
      // The origin is this AS's customer (transit attachment) or peer.
      const OriginAttachment& at = attachments_[ev.msg.attachment];
      learned_from = at.neighbor_is == topo::Relation::kProvider
                         ? topo::Relation::kCustomer
                         : topo::Relation::kPeer;
    } else {
      slot = neighbor_slot(u, ev.msg.sender);
      assert(slot >= 0);
      learned_from = adj_[u.value()][slot].relation;
    }

    RibEntry& entry = as_state.rib[slot];
    if (ev.msg.withdraw) {
      if (!entry.present) continue;  // stale withdraw
      entry.present = false;
      // A processed withdrawal re-runs best-path selection below; a later
      // re-advertisement of the same session then re-enters with a NEW
      // arrival_seq, which is what lets a flap permanently change
      // arrival-order ties (§4.2).
      if (telem) SimMetrics::get().withdraws->add(1);
    } else {
      // Loop prevention: drop announcements already carrying us.
      if (std::find(ev.msg.as_path.begin(), ev.msg.as_path.end(), u) !=
          ev.msg.as_path.end()) {
        continue;
      }
      const bool same_content = entry.present &&
                                entry.as_path == ev.msg.as_path &&
                                entry.origin_prepend == ev.msg.origin_prepend;
      entry.present = true;
      entry.neighbor = ev.msg.sender;
      entry.learned_from = learned_from;
      entry.attachment = ev.msg.attachment;
      entry.as_path = ev.msg.as_path;
      entry.origin_prepend = ev.msg.origin_prepend;
      // MED is non-transitive: it is only seen by the AS the origin
      // session terminates in, never re-advertised.
      entry.med = ev.msg.sender.valid()
                      ? 0
                      : attachments_[ev.msg.attachment].med;
      entry.local_pref =
          policy_.import_local_pref(u, learned_from, ev.msg.as_path);
      // Interior (hot-potato) cost to this next hop: stable per session,
      // deterministically derived so re-runs and reversed-order experiments
      // see identical costs (only genuine cost ties reach the arrival-order
      // step, §4.2).
      entry.nexthop_igp_cost = 0;
      if (node.igp_spread > 0) {
        std::uint64_t h = 0x9e3779b97f4a7c15ULL * (u.value() + 1);
        h ^= ev.msg.sender.valid()
                 ? 0xbf58476d1ce4e5b9ULL * (ev.msg.sender.value() + 2)
                 : 0x94d049bb133111ebULL * (ev.msg.attachment + 2);
        h ^= h >> 31;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        entry.nexthop_igp_cost =
            static_cast<int>(h % static_cast<std::uint64_t>(
                                     node.igp_spread + 1));
      }
      if (!same_content) {
        entry.arrival_seq = ++arrival_seq;
        entry.arrival_time_s = ev.time_s;
      }
      entry.neighbor_router_id = ev.msg.sender_router_id;
      entry.at = ev.msg.at;
    }

    redecide_and_export(u, ev.time_s);
  }
  // Hand the drained queue container back to the scratch for the next run.
  if (sc != nullptr) sc->events = std::move(queue).reclaim();
  if (keep) {
    state.cont_ = std::make_unique<RoutingState::Cont>();
    state.cont_->advertised = std::move(advertised);
    state.cont_->adv_copied = std::move(adv_copied);
    state.cont_->session_clock = std::move(session_clock);
    state.cont_->arrival_seq = arrival_seq;
  } else {
    if (resuming) state.cont_.reset();  // consumed
    if (sc != nullptr) {
      // Overlay phases keep their ledger/clock storage local (the scratch's
      // copies must survive the run); donate it back instead of freeing.
      if (&advertised == &advertised_local) {
        sc->advertised = std::move(advertised_local);
      }
      if (&session_clock == &session_clock_local) {
        sc->session_clock = std::move(session_clock_local);
      }
    }
  }
  if (telem) {
    const SimMetrics& m = SimMetrics::get();
    m.runs->add(1);
    m.events->add(state.events_);
    m.events_per_run->record(static_cast<double>(state.events_));
    m.queue_peak->update_max(static_cast<std::int64_t>(queue_peak));
    m.convergence_s->record(state.last_event_s_);
    for (int s = 1; s < 10; ++s) {
      if (step_tally[s] != 0) m.decision_step[s]->add(step_tally[s]);
    }
  }
  if (fork || resuming) {
    if (overlay->stats != nullptr) {
      overlay->stats->copied_as += copied_now;
      overlay->stats->delta_events += state.events_;
    }
    if (telem) {
      const OverlayMetrics& om = OverlayMetrics::get();
      om.forks->add(1);
      om.copied_as->add(copied_now);
      om.delta_events->add(state.events_);
    }
  }
  return state;
}

RoutingState Simulator::announce_sequence(
    std::span<const AttachmentIndex> order, double spacing_s,
    std::uint64_t run_nonce, SimScratch* scratch) const {
  std::vector<Injection> schedule;
  schedule.reserve(order.size());
  double t = 0;
  for (const AttachmentIndex a : order) {
    schedule.push_back(Injection{t, a, false});
    t += spacing_s;
  }
  return run(schedule, run_nonce, scratch);
}

BaseState Simulator::converge_base(std::span<const Injection> injections,
                                   std::uint64_t run_nonce) const {
  OverlayRun overlay;
  overlay.keep_continuation = true;
  RoutingState state = run_impl(injections, run_nonce, nullptr, &overlay);
  BaseState base;
  BaseState::Impl& b = *base.impl_;
  b.as = std::move(state.as_);
  b.advertised = std::move(state.cont_->advertised);
  b.session_clock = std::move(state.cont_->session_clock);
  b.arrival_seq = state.cont_->arrival_seq;
  b.horizon_s = state.last_event_s_;
  b.events = state.events_;
  return base;
}

RoutingState Simulator::run_overlay(const BaseState& base,
                                    std::span<const Injection> delta,
                                    std::uint64_t run_nonce,
                                    SimScratch* scratch,
                                    std::span<const AttachmentIndex> reage,
                                    bool keep_continuation,
                                    OverlayStats* stats) const {
  OverlayRun overlay;
  overlay.base = &base;
  overlay.reage = reage;
  overlay.keep_continuation = keep_continuation;
  overlay.stats = stats;
  return run_impl(delta, run_nonce, scratch, &overlay);
}

RoutingState Simulator::resume_overlay(RoutingState&& prior,
                                       std::span<const Injection> delta,
                                       std::uint64_t run_nonce,
                                       SimScratch* scratch,
                                       std::span<const AttachmentIndex> reage,
                                       bool keep_continuation,
                                       OverlayStats* stats) const {
  OverlayRun overlay;
  overlay.resume = std::move(prior);
  overlay.resuming = true;
  overlay.reage = reage;
  overlay.keep_continuation = keep_continuation;
  overlay.stats = stats;
  return run_impl(delta, run_nonce, scratch, &overlay);
}

std::size_t RoutingState::overlay_copied_bytes() const {
  if (base_ == nullptr) return 0;
  std::size_t b = copied_.capacity() * sizeof(std::uint8_t) +
                  as_.capacity() * sizeof(AsState);
  for (std::size_t i = 0; i < copied_.size(); ++i) {
    if (copied_[i] == 0) continue;
    b += as_[i].rib.capacity() * sizeof(RibEntry) +
         as_[i].best.equal_best.capacity() * sizeof(int);
    for (const RibEntry& e : as_[i].rib) {
      b += e.as_path.capacity() * sizeof(AsId);
    }
  }
  return b;
}

const RoutingState::AsState& RoutingState::state_of(AsId as) const {
  const std::size_t i = as.value();
  if (base_ == nullptr || copied_[i] != 0) return as_[i];
  return base_->impl_->as[i];
}

const RibEntry* RoutingState::best(AsId as) const {
  const auto& s = state_of(as);
  return s.best.best >= 0 ? &s.rib[s.best.best] : nullptr;
}

std::span<const RibEntry> RoutingState::rib(AsId as) const {
  return state_of(as).rib;
}

const BestSet& RoutingState::best_set(AsId as) const {
  return state_of(as).best;
}

ResolvedPath RoutingState::resolve(AsId from, const geo::Coordinates& from_loc,
                                   std::uint64_t flow_hash) const {
  if (from.value() >= as_.size()) {
    // Client AS id beyond the converged range (sparse id spaces at
    // Internet scale, external ASNs, AsId{}): unreachable, never an
    // out-of-bounds index — mirrored by CompactState::resolve.
    return ResolvedPath{};
  }
  // The array-of-structs view over this state's per-AS RIBs, feeding the
  // one shared walk implementation (bgp/walk.h) both layouts instantiate.
  struct View {
    const RoutingState* st;
    const Simulator* sim;
    [[nodiscard]] const topo::Internet& net() const { return sim->net_; }
    [[nodiscard]] int best(AsId as) const {
      return st->state_of(as).best.best;
    }
    [[nodiscard]] std::span<const int> equal_best(AsId as) const {
      return st->state_of(as).best.equal_best;
    }
    [[nodiscard]] bool slot_present(AsId as, std::size_t slot) const {
      return st->state_of(as).rib[slot].present;
    }
    [[nodiscard]] AsId slot_neighbor(AsId as, std::size_t slot) const {
      return st->state_of(as).rib[slot].neighbor;
    }
    [[nodiscard]] std::uint8_t slot_prepend(AsId as, std::size_t slot) const {
      return st->state_of(as).rib[slot].origin_prepend;
    }
    [[nodiscard]] std::uint32_t slot_med(AsId as, std::size_t slot) const {
      return st->state_of(as).rib[slot].med;
    }
    [[nodiscard]] std::size_t adj_count(AsId as) const {
      return sim->adj_[as.value()].size();
    }
    [[nodiscard]] std::span<const AttachmentIndex> host_slots(AsId as) const {
      return sim->host_attach_[as.value()];
    }
    [[nodiscard]] const OriginAttachment& attachment(
        AttachmentIndex idx) const {
      return sim->attachments_[idx];
    }
    [[nodiscard]] std::size_t attachment_pop(AttachmentIndex idx) const {
      return sim->attachment_pop(idx);
    }
    [[nodiscard]] geo::Coordinates crossing_where(AsId as, std::size_t /*slot*/,
                                                  AsId neighbor) const {
      const int at = sim->neighbor_slot(as, neighbor);
      assert(at >= 0);
      return net().graph.link(sim->adj_[as.value()][at].link).where;
    }
  };
  return walk_resolve(View{this, sim_}, run_nonce_, from, from_loc, flow_hash,
                      nullptr);
}

}  // namespace anyopt::bgp
