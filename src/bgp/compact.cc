#include "bgp/compact.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "netbase/telemetry.h"

namespace anyopt::bgp {

namespace {

/// Pre-resolved forwarding-cache metrics (one registry lookup per process).
struct ResolveMetrics {
  telemetry::Counter* cache_hit;
  telemetry::Counter* cache_miss;

  static const ResolveMetrics& get() {
    static const ResolveMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      return ResolveMetrics{&reg.counter("bgp.resolve.cache_hit"),
                            &reg.counter("bgp.resolve.cache_miss")};
    }();
    return m;
  }
};

/// FNV-1a over an AS path's id values (interning bucket key).
[[nodiscard]] std::uint64_t path_hash(std::span<const AsId> path) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const AsId as : path) {
    h ^= as.value();
    h *= 1099511628211ULL;
  }
  return h;
}

/// Section tags of the persisted table encoding (see `encode`).  Tags
/// start at 2: the result store frames payload records as
/// `[tag-1 key][body sections]`, so a RIB record's body can be these
/// sections verbatim without colliding with the key tag.
enum CompactTag : std::uint64_t {
  kTagMeta = 2,    ///< counts + prefix key
  kTagSlots = 3,   ///< per-AS slot/adjacency CSR
  kTagFields = 4,  ///< per-slot field columns
  kTagPaths = 5,   ///< interned path pool + per-slot (offset, length)
  kTagBest = 6,    ///< best slot per AS
  kTagEquals = 7,  ///< multipath-eligible set (equal-best CSR)
};

}  // namespace

/// The structure-of-arrays view bgp/walk.h's shared walk reads — the SoA
/// twin of the view inside `RoutingState::resolve`.
struct CompactState::View {
  const CompactState* cs;
  [[nodiscard]] const topo::Internet& net() const {
    return cs->sim_->internet();
  }
  [[nodiscard]] int best(AsId as) const { return cs->best_[as.value()]; }
  [[nodiscard]] std::span<const int> equal_best(AsId as) const {
    const std::uint32_t begin = cs->equal_begin_[as.value()];
    const std::uint32_t end = cs->equal_begin_[as.value() + 1];
    return {cs->equal_.data() + begin, end - begin};
  }
  [[nodiscard]] std::size_t slot_at(AsId as, std::size_t slot) const {
    return cs->slot_begin_[as.value()] + slot;
  }
  [[nodiscard]] bool slot_present(AsId as, std::size_t slot) const {
    return cs->present_[slot_at(as, slot)] != 0;
  }
  [[nodiscard]] AsId slot_neighbor(AsId as, std::size_t slot) const {
    return AsId{cs->neighbor_[slot_at(as, slot)]};
  }
  [[nodiscard]] std::uint8_t slot_prepend(AsId as, std::size_t slot) const {
    return cs->prepend_[slot_at(as, slot)];
  }
  [[nodiscard]] std::uint32_t slot_med(AsId as, std::size_t slot) const {
    return cs->med_[slot_at(as, slot)];
  }
  [[nodiscard]] std::size_t adj_count(AsId as) const {
    return cs->adj_count_[as.value()];
  }
  [[nodiscard]] std::span<const AttachmentIndex> host_slots(AsId as) const {
    const std::uint32_t begin = cs->host_begin_[as.value()];
    const std::uint32_t end = cs->host_begin_[as.value() + 1];
    return {cs->host_pool_.data() + begin, end - begin};
  }
  [[nodiscard]] const OriginAttachment& attachment(AttachmentIndex idx) const {
    return cs->sim_->attachments()[idx];
  }
  [[nodiscard]] std::size_t attachment_pop(AttachmentIndex idx) const {
    return cs->sim_->attachment_pop(idx);
  }
  [[nodiscard]] geo::Coordinates crossing_where(AsId as, std::size_t slot,
                                                AsId /*neighbor*/) const {
    // Slot order mirrors the engine's sorted, deduplicated adjacency, so
    // the chosen slot IS the neighbor's slot — no lookup needed.
    return cs->link_where_[cs->adj_begin_[as.value()] + slot];
  }
};

CompactState CompactState::freeze(const Simulator& sim,
                                  const RoutingState& state,
                                  std::size_t cache_capacity) {
  CompactState out;
  out.sim_ = &sim;
  out.run_nonce_ = state.run_nonce_;
  const std::size_t n = sim.adj_.size();
  out.as_count_ = n;

  // Sizing pass: the three CSR tables (all slots, neighbor slots, host
  // attachments) are exact, so every column below is a single allocation.
  out.slot_begin_.resize(n + 1);
  out.adj_begin_.resize(n + 1);
  out.host_begin_.resize(n + 1);
  out.adj_count_.resize(n);
  std::uint32_t slots = 0;
  std::uint32_t adjs = 0;
  std::uint32_t hosts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.slot_begin_[i] = slots;
    out.adj_begin_[i] = adjs;
    out.host_begin_[i] = hosts;
    const auto adj = static_cast<std::uint32_t>(sim.adj_[i].size());
    const auto host = static_cast<std::uint32_t>(sim.host_attach_[i].size());
    out.adj_count_[i] = adj;
    slots += adj + host;
    adjs += adj;
    hosts += host;
  }
  out.slot_begin_[n] = slots;
  out.adj_begin_[n] = adjs;
  out.host_begin_[n] = hosts;

  out.present_.resize(slots);
  out.neighbor_.assign(slots, AsId::kInvalid);
  out.prepend_.resize(slots);
  out.med_.resize(slots);
  out.attachment_.assign(slots, kNoAttachment);
  out.path_off_.resize(slots);
  out.path_len_.resize(slots);
  out.link_where_.resize(adjs);
  out.host_pool_.reserve(hosts);
  out.best_.resize(n);
  out.equal_begin_.resize(n + 1);

  // Interning index: path hash -> candidate (offset, length) pairs in the
  // pool (chained on the rare collisions).
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      interned;
  const auto intern = [&](std::span<const AsId> path) {
    auto& candidates = interned[path_hash(path)];
    for (const auto& [off, len] : candidates) {
      if (len == path.size() &&
          std::equal(path.begin(), path.end(), out.path_pool_.begin() + off)) {
        return std::pair<std::uint32_t, std::uint32_t>{off, len};
      }
    }
    const auto off = static_cast<std::uint32_t>(out.path_pool_.size());
    const auto len = static_cast<std::uint32_t>(path.size());
    out.path_pool_.insert(out.path_pool_.end(), path.begin(), path.end());
    candidates.emplace_back(off, len);
    ++out.unique_paths_;
    return std::pair<std::uint32_t, std::uint32_t>{off, len};
  };

  std::uint32_t equal_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const AsId as{static_cast<std::uint32_t>(i)};
    const std::span<const RibEntry> rib = state.rib(as);
    const std::uint32_t base = out.slot_begin_[i];
    assert(rib.size() == out.slot_begin_[i + 1] - base);
    for (std::size_t s = 0; s < rib.size(); ++s) {
      const RibEntry& entry = rib[s];
      if (!entry.present) continue;  // non-present slots stay normalized
      const std::uint32_t at = base + static_cast<std::uint32_t>(s);
      out.present_[at] = 1;
      out.neighbor_[at] = entry.neighbor.value();
      out.prepend_[at] = entry.origin_prepend;
      out.med_[at] = entry.med;
      out.attachment_[at] = entry.attachment;
      if (!entry.as_path.empty()) {
        const auto [off, len] = intern(entry.as_path);
        out.path_off_[at] = off;
        out.path_len_[at] = static_cast<std::uint16_t>(len);
      }
    }
    for (std::size_t j = 0; j < sim.adj_[i].size(); ++j) {
      out.link_where_[out.adj_begin_[i] + j] =
          sim.net_.graph.link(sim.adj_[i][j].link).where;
    }
    out.host_pool_.insert(out.host_pool_.end(), sim.host_attach_[i].begin(),
                          sim.host_attach_[i].end());
    const BestSet& bs = state.best_set(as);
    out.best_[i] = bs.best;
    out.equal_begin_[i] = equal_total;
    equal_total += static_cast<std::uint32_t>(bs.equal_best.size());
  }
  out.equal_begin_[n] = equal_total;
  out.equal_.reserve(equal_total);
  for (std::size_t i = 0; i < n; ++i) {
    const BestSet& bs = state.best_set(AsId{static_cast<std::uint32_t>(i)});
    out.equal_.insert(out.equal_.end(), bs.equal_best.begin(),
                      bs.equal_best.end());
  }

  out.cache_.resize(std::min(n, cache_capacity));
  return out;
}

ResolvedPath CompactState::resolve(AsId from, const geo::Coordinates& from_loc,
                                   std::uint64_t flow_hash) const {
  if (sim_ == nullptr || from.value() >= as_count_) {
    // Decoded (table-only) state, or a client AS id beyond the frozen
    // range (sparse id spaces must not index out of bounds): unreachable.
    return ResolvedPath{};
  }
  if (cache_.empty() || from.value() >= cache_.size()) {
    // The id lies beyond the (possibly budget-capped) cache range: plain
    // walk, no memoization.
    return walk_resolve(View{this}, run_nonce_, from, from_loc, flow_hash,
                        nullptr);
  }
  CachedWalk& walk = cache_[from.value()];
  const bool telem = telemetry::enabled();
  switch (walk.state) {
    case CachedWalk::State::kCached:
      cache_hits_.n.fetch_add(1, std::memory_order_relaxed);
      if (telem) ResolveMetrics::get().cache_hit->add(1);
      return walk_replay(walk, from_loc);
    case CachedWalk::State::kUncached:
      cache_misses_.n.fetch_add(1, std::memory_order_relaxed);
      if (telem) ResolveMetrics::get().cache_miss->add(1);
      return walk_resolve(View{this}, run_nonce_, from, from_loc, flow_hash,
                          nullptr);
    case CachedWalk::State::kUnknown:
      break;
  }
  cache_misses_.n.fetch_add(1, std::memory_order_relaxed);
  if (telem) ResolveMetrics::get().cache_miss->add(1);
  return walk_resolve(View{this}, run_nonce_, from, from_loc, flow_hash,
                      &walk);
}

std::size_t CompactState::retained_bytes() const {
  return slot_begin_.capacity() * sizeof(std::uint32_t) +
         adj_count_.capacity() * sizeof(std::uint32_t) +
         present_.capacity() * sizeof(std::uint8_t) +
         neighbor_.capacity() * sizeof(std::uint32_t) +
         prepend_.capacity() * sizeof(std::uint8_t) +
         med_.capacity() * sizeof(std::uint32_t) +
         attachment_.capacity() * sizeof(std::uint32_t) +
         path_off_.capacity() * sizeof(std::uint32_t) +
         path_len_.capacity() * sizeof(std::uint16_t) +
         path_pool_.capacity() * sizeof(AsId) +
         best_.capacity() * sizeof(std::int32_t) +
         equal_begin_.capacity() * sizeof(std::uint32_t) +
         equal_.capacity() * sizeof(int) +
         adj_begin_.capacity() * sizeof(std::uint32_t) +
         link_where_.capacity() * sizeof(geo::Coordinates) +
         host_begin_.capacity() * sizeof(std::uint32_t) +
         host_pool_.capacity() * sizeof(AttachmentIndex);
}

std::size_t CompactState::resolve_cache_bytes() const {
  std::size_t b = cache_.capacity() * sizeof(CachedWalk);
  for (const CachedWalk& w : cache_) {
    b += w.as_path.capacity() * sizeof(AsId) +
         w.hop_ms.capacity() * sizeof(double);
  }
  return b;
}

void CompactState::encode(codec::Writer& out) const {
  codec::Writer meta;
  meta.put_varint(as_count_);
  meta.put_varint(present_.size());
  meta.put_u64le(prefix_key_);
  meta.put_varint(unique_paths_);
  out.put_section(kTagMeta, meta);

  codec::Writer csr;  // per-AS slot counts + neighbor-slot counts
  for (std::size_t i = 0; i < as_count_; ++i) {
    csr.put_varint(slot_begin_[i + 1] - slot_begin_[i]);
    csr.put_varint(adj_count_[i]);
  }
  out.put_section(kTagSlots, csr);

  codec::Writer fields;
  for (const std::uint8_t p : present_) fields.put_u8(p);
  // +1-shifted so the invalid sentinel encodes as one byte, not ten.
  for (const std::uint32_t v : neighbor_) {
    fields.put_varint(v == AsId::kInvalid ? 0 : std::uint64_t{v} + 1);
  }
  for (const std::uint8_t p : prepend_) fields.put_u8(p);
  for (const std::uint32_t m : med_) fields.put_varint(m);
  for (const std::uint32_t a : attachment_) {
    fields.put_varint(a == kNoAttachment ? 0 : std::uint64_t{a} + 1);
  }
  out.put_section(kTagFields, fields);

  codec::Writer paths;
  paths.put_varint(path_pool_.size());
  for (const AsId as : path_pool_) paths.put_varint(as.value());
  for (std::size_t s = 0; s < path_off_.size(); ++s) {
    paths.put_varint(path_off_[s]);
    paths.put_varint(path_len_[s]);
  }
  out.put_section(kTagPaths, paths);

  codec::Writer bests;
  for (const std::int32_t b : best_) bests.put_svarint(b);
  codec::Writer equals;
  for (std::size_t i = 0; i < as_count_; ++i) {
    equals.put_varint(equal_begin_[i + 1] - equal_begin_[i]);
  }
  for (const int e : equal_) equals.put_varint(static_cast<std::uint64_t>(e));
  out.put_section(kTagBest, bests);
  out.put_section(kTagEquals, equals);
}

Result<CompactState> CompactState::decode(
    std::span<const std::uint8_t> payload) {
  CompactState out;
  codec::Reader reader(payload);
  std::size_t slot_count = 0;
  bool saw_meta = false;
  while (!reader.at_end()) {
    Result<codec::Section> section = reader.read_section();
    if (!section.ok()) return section.error();
    codec::Reader body(section.value().body);
    switch (section.value().tag) {
      case kTagMeta: {
        auto n = body.read_varint();
        auto slots = body.read_varint();
        auto prefix = body.read_u64le();
        auto uniq = body.read_varint();
        if (!n.ok()) return n.error();
        if (!slots.ok()) return slots.error();
        if (!prefix.ok()) return prefix.error();
        if (!uniq.ok()) return uniq.error();
        out.as_count_ = n.value();
        slot_count = slots.value();
        out.prefix_key_ = prefix.value();
        out.unique_paths_ = uniq.value();
        saw_meta = true;
        break;
      }
      case kTagSlots: {
        if (!saw_meta) return Error::parse("compact rib: CSR before meta");
        out.slot_begin_.resize(out.as_count_ + 1);
        out.adj_begin_.resize(out.as_count_ + 1);
        out.adj_count_.resize(out.as_count_);
        std::uint32_t slots = 0;
        std::uint32_t adjs = 0;
        for (std::size_t i = 0; i < out.as_count_; ++i) {
          auto width = body.read_varint();
          auto adj = body.read_varint();
          if (!width.ok()) return width.error();
          if (!adj.ok()) return adj.error();
          if (adj.value() > width.value()) {
            return Error::parse("compact rib: neighbor slots exceed slots");
          }
          out.slot_begin_[i] = slots;
          out.adj_begin_[i] = adjs;
          out.adj_count_[i] = static_cast<std::uint32_t>(adj.value());
          slots += static_cast<std::uint32_t>(width.value());
          adjs += static_cast<std::uint32_t>(adj.value());
        }
        out.slot_begin_[out.as_count_] = slots;
        out.adj_begin_[out.as_count_] = adjs;
        if (slots != slot_count) {
          return Error::parse("compact rib: CSR total != slot count");
        }
        break;
      }
      case kTagFields: {
        out.present_.resize(slot_count);
        out.neighbor_.resize(slot_count);
        out.prepend_.resize(slot_count);
        out.med_.resize(slot_count);
        out.attachment_.resize(slot_count);
        for (auto& p : out.present_) {
          auto v = body.read_u8();
          if (!v.ok()) return v.error();
          p = v.value();
        }
        for (auto& nb : out.neighbor_) {
          auto v = body.read_varint();
          if (!v.ok()) return v.error();
          nb = v.value() == 0 ? AsId::kInvalid
                              : static_cast<std::uint32_t>(v.value() - 1);
        }
        for (auto& p : out.prepend_) {
          auto v = body.read_u8();
          if (!v.ok()) return v.error();
          p = v.value();
        }
        for (auto& m : out.med_) {
          auto v = body.read_varint();
          if (!v.ok()) return v.error();
          m = static_cast<std::uint32_t>(v.value());
        }
        for (auto& a : out.attachment_) {
          auto v = body.read_varint();
          if (!v.ok()) return v.error();
          a = v.value() == 0 ? kNoAttachment
                             : static_cast<std::uint32_t>(v.value() - 1);
        }
        break;
      }
      case kTagPaths: {
        auto pool = body.read_varint();
        if (!pool.ok()) return pool.error();
        out.path_pool_.resize(pool.value());
        for (auto& as : out.path_pool_) {
          auto v = body.read_varint();
          if (!v.ok()) return v.error();
          as = AsId{static_cast<std::uint32_t>(v.value())};
        }
        out.path_off_.resize(slot_count);
        out.path_len_.resize(slot_count);
        for (std::size_t s = 0; s < slot_count; ++s) {
          auto off = body.read_varint();
          auto len = body.read_varint();
          if (!off.ok()) return off.error();
          if (!len.ok()) return len.error();
          if (off.value() + len.value() > out.path_pool_.size()) {
            return Error::parse("compact rib: path reference out of pool");
          }
          out.path_off_[s] = static_cast<std::uint32_t>(off.value());
          out.path_len_[s] = static_cast<std::uint16_t>(len.value());
        }
        break;
      }
      case kTagBest: {
        out.best_.resize(out.as_count_);
        for (std::size_t i = 0; i < out.as_count_; ++i) {
          auto v = body.read_svarint();
          if (!v.ok()) return v.error();
          out.best_[i] = static_cast<std::int32_t>(v.value());
        }
        break;
      }
      case kTagEquals: {
        out.equal_begin_.resize(out.as_count_ + 1);
        std::uint32_t total = 0;
        for (std::size_t i = 0; i < out.as_count_; ++i) {
          auto width = body.read_varint();
          if (!width.ok()) return width.error();
          out.equal_begin_[i] = total;
          total += static_cast<std::uint32_t>(width.value());
        }
        out.equal_begin_[out.as_count_] = total;
        out.equal_.resize(total);
        for (auto& e : out.equal_) {
          auto v = body.read_varint();
          if (!v.ok()) return v.error();
          e = static_cast<int>(v.value());
        }
        break;
      }
      default:
        break;  // forward compatibility: skip unknown sections
    }
  }
  if (!saw_meta) return Error::parse("compact rib: missing meta section");
  return out;
}

bool CompactState::rib_equals(const CompactState& other) const {
  return as_count_ == other.as_count_ && prefix_key_ == other.prefix_key_ &&
         unique_paths_ == other.unique_paths_ &&
         slot_begin_ == other.slot_begin_ && adj_count_ == other.adj_count_ &&
         present_ == other.present_ && neighbor_ == other.neighbor_ &&
         prepend_ == other.prepend_ && med_ == other.med_ &&
         attachment_ == other.attachment_ && path_off_ == other.path_off_ &&
         path_len_ == other.path_len_ && path_pool_ == other.path_pool_ &&
         best_ == other.best_ && equal_begin_ == other.equal_begin_ &&
         equal_ == other.equal_;
}

}  // namespace anyopt::bgp
