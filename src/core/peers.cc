#include "core/peers.h"

#include <algorithm>
#include <optional>

#include "measure/campaign_runner.h"
#include "netbase/rng.h"
#include "netbase/stats.h"

namespace anyopt::core {

OnePassPeerSelector::OnePassPeerSelector(
    const measure::Orchestrator& orchestrator, OnePassOptions options)
    : orchestrator_(orchestrator), options_(options) {}

OnePassResult OnePassPeerSelector::run(
    const anycast::AnycastConfig& baseline) const {
  const auto& deployment = orchestrator_.world().deployment();
  OnePassResult result;

  // Enumerate the whole campaign up front — the baseline plus one config
  // per peer — and submit it as one batch.  Nonces are content-derived
  // (hashed from the peer's attachment index, not a running counter), so
  // each peer's measurement is the same no matter which peers are measured
  // alongside it or on which thread it runs.
  const auto peers = deployment.all_peer_attachments();
  const measure::CampaignRunner runner(
      orchestrator_,
      measure::CampaignRunnerOptions{.threads = options_.threads,
                                     .store = options_.store});
  const std::uint64_t baseline_nonce =
      mix64(options_.nonce_base, 0xBA5E11E5ULL);
  // Session flaps rewrite the base schedule itself — no overlay can
  // express them, so flapped campaigns run classic end to end (with
  // classic nonces, bit-identical to a non-incremental selector).
  const bool flaps_planned =
      orchestrator_.faults() != nullptr &&
      !orchestrator_.faults()->flaps().empty();
  // Incremental: converge the transit-only baseline once with the classic
  // baseline nonce — the empty-delta overlay over it reproduces the
  // classic baseline census bit for bit — then fork one overlay per peer,
  // each propagating only that peer's announcement at the slot the
  // classic schedule would give it.
  std::optional<bgp::BaseState> base_state;
  if (options_.incremental && baseline.enabled_peers.empty() &&
      !flaps_planned) {
    base_state.emplace(orchestrator_.converge_base(baseline, baseline_nonce));
  }
  const bgp::BaseState* shared = base_state ? &*base_state : nullptr;
  const double peer_t =
      static_cast<double>(baseline.announce_order.size()) *
      baseline.spacing_s;
  // Overlay peers carry a tagged nonce family: a per-peer overlay draws
  // different jitter streams than the classic run of the same config, so
  // its census — and store key — must never collide with a classic
  // campaign's.
  const std::uint64_t peer_tag = mix64(
      shared != nullptr ? mix64(options_.nonce_base, 0x1C2E57ULL)
                        : options_.nonce_base,
      0x9EE2ULL);
  std::vector<measure::ExperimentSpec> specs(1);
  specs.reserve(peers.size() + 1);
  specs[0].config = baseline;
  specs[0].nonce = baseline_nonce;
  specs[0].base = shared;
  for (const bgp::AttachmentIndex peer : peers) {
    measure::ExperimentSpec spec = specs[0];
    spec.config.enabled_peers = {peer};
    spec.nonce = mix64(peer_tag, peer);
    if (shared != nullptr) spec.delta = {bgp::Injection{peer_t, peer, false}};
    specs.push_back(std::move(spec));
  }
  const std::vector<measure::Census> censuses = runner.run(specs);

  const measure::Census& base = censuses.front();
  // Empty-census contract (see Census::mean_rtt): 0.0 here means "no
  // target measured" — an unreachable baseline deployment or a round
  // killed by fault injection — not a zero-latency network.  Downstream
  // delta_ms comparisons still order peers consistently in that case
  // (every peer census is compared against the same baseline), and
  // callers that must distinguish check base.reachable_count().
  result.baseline_mean_rtt = base.mean_rtt();

  for (std::size_t k = 0; k < peers.size(); ++k) {
    const bgp::AttachmentIndex peer = peers[k];
    const measure::Census& census = censuses[k + 1];
    ++result.experiments;

    PeerMeasurement m;
    m.attachment = peer;
    m.site = deployment.attachments()[peer].site;
    // Same contract: a peer whose census measured nothing reports
    // mean_rtt() == 0.0.  Such a peer also has catchment_size == 0, so the
    // `beneficial` flag below can never be set by the misleading
    // 0.0 - baseline < 0 delta.
    m.mean_rtt_ms = census.mean_rtt();
    m.delta_ms = m.mean_rtt_ms - result.baseline_mean_rtt;
    for (std::size_t t = 0; t < census.attachment_of_target.size(); ++t) {
      if (census.attachment_of_target[t] == peer) {
        ++m.catchment_size;
        if (census.rtt_ms[t] >= 0) {
          m.catchment_rtts.push_back(
              {static_cast<std::uint32_t>(t), census.rtt_ms[t]});
        }
      }
    }
    m.beneficial = m.catchment_size > 0 && m.delta_ms < 0;
    if (m.catchment_size > 0) ++result.reachable_peers;
    result.peers.push_back(std::move(m));
  }

  // Conservative greedy inclusion: rank beneficial peers by catchment size
  // (descending) and add one at a time, assuming each added peer attracts
  // its entire one-pass catchment; keep it only if the estimated mean RTT
  // drops.
  std::vector<const PeerMeasurement*> ranked;
  for (const PeerMeasurement& m : result.peers) {
    if (m.beneficial) ranked.push_back(&m);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const PeerMeasurement* a, const PeerMeasurement* b) {
              return a->catchment_size > b->catchment_size;
            });

  // Current per-target RTT estimate, starting from the baseline census.
  std::vector<double> current = base.rtt_ms;
  auto mean_of = [](const std::vector<double>& rtts) {
    stats::Online acc;
    for (const double r : rtts) {
      if (r >= 0) acc.add(r);
    }
    return acc.mean();
  };
  double current_mean = mean_of(current);

  for (const PeerMeasurement* peer : ranked) {
    std::vector<double> candidate = current;
    for (const auto& [t, rtt] : peer->catchment_rtts) {
      candidate[t] = rtt;
    }
    const double candidate_mean = mean_of(candidate);
    if (candidate_mean < current_mean) {
      result.chosen.push_back(peer->attachment);
      current = std::move(candidate);
      current_mean = candidate_mean;
    }
  }

  result.with_beneficial_peers = baseline;
  result.with_beneficial_peers.enabled_peers = result.chosen;
  result.predicted_mean_rtt = current_mean;
  return result;
}

}  // namespace anyopt::core
