#include "iql/federation.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "iql/parser.h"

namespace idm::iql {

namespace {

Micros WallNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Federation::Federation(Clock* clock, Options options)
    : clock_(clock), options_(options), cache_(options.cache) {
  if (options_.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
}

Federation::~Federation() = default;

void Federation::SetObservability(obs::Observability* obs) {
  obs_ = obs;
  if (obs == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  obs::MetricsRegistry& reg = obs->metrics();
  metrics_.queries = reg.counter("fed.queries");
  metrics_.peer_rpcs = reg.counter("fed.peer.rpcs");
  metrics_.peer_failures = reg.counter("fed.peer.failures");
  metrics_.retries = reg.counter("fed.retries");
  metrics_.cache_hits = reg.counter("fed.cache.hits");
}

Status Federation::AddPeer(std::string name, const Dataspace* peer,
                           PeerLatency latency, FaultInjector* link) {
  if (peer == nullptr) return Status::InvalidArgument("null peer");
  for (const Peer& existing : peers_) {
    if (existing.name == name) {
      return Status::AlreadyExists("peer '" + name + "' already joined");
    }
  }
  peers_.push_back({std::move(name), peer, latency, link});
  return Status::OK();
}

Federation::PeerOutcome Federation::QueryPeer(
    const Peer& peer, const std::string& iql, const std::string& cache_key,
    bool cacheable, Rng* jitter, Clock* clock, util::ExecContext* ctx,
    obs::TraceSpan* span) const {
  PeerOutcome outcome;
  if (ctx != nullptr && ctx->doomed()) {
    // The caller's context is already doomed (overrun or cancelled):
    // abandon this peer before shipping anything.
    outcome.error = ctx->status();
    return outcome;
  }
  // Charges simulated network/backoff cost against the outcome (and, in
  // serial mode, incrementally against the clock) and the peer's deadline
  // budget.
  auto charge = [&](Micros micros) {
    if (clock != nullptr) clock->AdvanceMicros(micros);
    outcome.charged += micros;
  };

  // The peer's dataspace version pins the cache entry: any change on the
  // peer advances its epoch and invalidates.
  uint64_t epoch = peer.dataspace->module().versions().current();
  if (cacheable && cache_.enabled()) {
    std::string key = peer.name + '\n' + cache_key;
    if (std::optional<QueryResult> hit = cache_.Lookup(key, epoch)) {
      outcome.reached = true;
      outcome.cache_hit = true;
      if (metrics_.cache_hits != nullptr) metrics_.cache_hits->Inc();
      if (span != nullptr) span->SetAttr("outcome", "cache_hit");
      outcome.rows.reserve(hit->rows.size());
      for (size_t r = 0; r < hit->rows.size(); ++r) {
        FederatedRow row;
        row.peer = peer.name;
        row.id = hit->rows[r][0];
        row.uri = peer.dataspace->UriOf(row.id);
        row.name = peer.dataspace->NameOf(row.id);
        row.score = hit->ranked() ? hit->scores[r] : 0.0;
        outcome.rows.push_back(std::move(row));
      }
      return outcome;
    }
  }

  // Effective per-peer budget: the configured deadline, clamped to what
  // remains of the caller's deadline — a federation running out of time
  // gives each remaining peer only the leftover budget.
  Micros deadline = options_.per_peer_deadline_micros;
  if (ctx != nullptr) {
    Micros remaining = ctx->remaining_micros();
    if (remaining != std::numeric_limits<Micros>::max() &&
        (deadline == 0 || remaining < deadline)) {
      deadline = remaining;
    }
  }
  for (int attempt = 1; attempt <= options_.retry.max_attempts; ++attempt) {
    // Per-peer deadline: abandon the peer rather than let a dead link's
    // round trips dominate the federation's latency.
    if (deadline > 0 &&
        outcome.charged + peer.latency.per_query_micros > deadline) {
      outcome.error = Status::DeadlineExceeded(
          "peer '" + peer.name + "' exceeded its deadline of " +
          std::to_string(deadline) + "us");
      break;
    }
    charge(peer.latency.per_query_micros);  // one shipped round trip
    if (metrics_.peer_rpcs != nullptr) metrics_.peer_rpcs->Inc();

    // The network path may fail independently of the peer's evaluator.
    if (peer.link != nullptr) {
      Status link_status = peer.link->OnOperation("ship to " + peer.name);
      if (!link_status.ok()) {
        outcome.error = link_status;
        if (!link_status.IsRetryable() ||
            attempt == options_.retry.max_attempts) {
          break;
        }
        ++outcome.retries;
        if (metrics_.retries != nullptr) metrics_.retries->Inc();
        charge(options_.retry.BackoffMicros(attempt, jitter));
        continue;
      }
    }

    Dataspace::QueryOptions peer_options;
    if (ctx != nullptr) {
      // The peer evaluates under a deadline derived from what is left of
      // this peer's budget after the round trips already charged, and
      // inherits the caller's simulated per-step evaluation cost.
      if (deadline > 0) {
        peer_options.limits.deadline_micros =
            std::max<Micros>(deadline - outcome.charged, 1);
      }
      peer_options.limits.micros_per_step = ctx->limits().micros_per_step;
    }
    auto result = ctx != nullptr ? peer.dataspace->Query(iql, peer_options)
                                 : peer.dataspace->Query(iql);
    if (!result.ok()) {
      // Evaluation errors (parse, unsupported operator) are answers of
      // this peer, not link weather: no retry.
      outcome.error = result.status();
      break;
    }
    if (result->columns.size() != 1) {
      // Joins produce peer-local pairs; shipping them is future work, as
      // in the paper. Report the restriction instead of silent data loss.
      outcome.error = Status::Unimplemented(
          "federated joins are not supported; ship a unary query");
      break;
    }
    charge(static_cast<Micros>(result->rows.size()) *
           peer.latency.per_result_micros);
    outcome.reached = true;
    outcome.degraded = !result->meta.complete;
    outcome.rows.reserve(result->rows.size());
    for (size_t r = 0; r < result->rows.size(); ++r) {
      FederatedRow row;
      row.peer = peer.name;
      row.id = result->rows[r][0];
      row.uri = peer.dataspace->UriOf(row.id);
      row.name = peer.dataspace->NameOf(row.id);
      row.score = result->ranked() ? result->scores[r] : 0.0;
      outcome.rows.push_back(std::move(row));
    }
    if (cacheable && cache_.enabled()) {
      cache_.Insert(peer.name + '\n' + cache_key, epoch, *result);
    }
    break;
  }
  if (span != nullptr) {
    // The cache-hit path returned above, so "outcome" is still unset here.
    span->SetAttr("outcome", outcome.reached ? "reached" : "failed");
    span->SetAttr("rows", static_cast<int64_t>(outcome.rows.size()));
    span->SetAttr("retries", static_cast<int64_t>(outcome.retries));
    span->SetAttr("charged_micros", static_cast<int64_t>(outcome.charged));
  }
  if (!outcome.reached && metrics_.peer_failures != nullptr) {
    metrics_.peer_failures->Inc();
  }
  return outcome;
}

Result<FederatedResult> Federation::Query(const std::string& iql) const {
  return Query(iql, nullptr);
}

Result<FederatedResult> Federation::Query(const std::string& iql,
                                          util::ExecContext* ctx) const {
  if (peers_.empty()) {
    return Status::FailedPrecondition("federation has no peers");
  }
  Micros start = WallNow();
  std::shared_ptr<obs::Trace> trace =
      obs_ != nullptr ? obs_->StartTrace(obs::kFederationTrace, "federation")
                      : nullptr;
  obs::TraceSpan* root = trace == nullptr ? nullptr : trace->root();
  if (metrics_.queries != nullptr) metrics_.queries->Inc();

  // Normalize the query text once so cache keys are whitespace/escape
  // insensitive; unparseable or clock-dependent queries bypass the cache
  // (peers may still answer or fail them on their own terms).
  std::string cache_key = iql;
  bool cacheable = false;
  if (cache_.enabled()) {
    auto parsed = ParseQuery(iql);
    if (parsed.ok() && IsCacheable(*parsed)) {
      // The same canonical key the local result cache uses (DESIGN.md
      // §16): reordered conjuncts / set-op arms share per-peer entries.
      cache_key = CanonicalQueryKey(*parsed);
      cacheable = true;
    }
  }

  // One RPC span per peer, pre-created in registration order so the trace
  // tree is deterministic regardless of scatter scheduling.
  std::vector<obs::TraceSpan*> peer_spans(peers_.size(), nullptr);
  if (root != nullptr) {
    for (size_t i = 0; i < peers_.size(); ++i) {
      peer_spans[i] = root->AddChild("peer.rpc");
      if (peer_spans[i] != nullptr) {
        peer_spans[i]->SetAttr("peer", peers_[i].name);
      }
    }
  }

  std::vector<PeerOutcome> outcomes;
  if (pool_ != nullptr) {
    // Scatter: each peer's full ship/retry loop is one task with its own
    // deterministic jitter stream; the clock is charged at gather time.
    outcomes = util::OrderedParallelMap<PeerOutcome>(
        pool_.get(), peers_.size(), [&](size_t i) {
          Rng jitter(options_.jitter_seed ^
                     (0x9E3779B97F4A7C15ULL * (i + 1)));
          PeerOutcome outcome =
              QueryPeer(peers_[i], iql, cache_key, cacheable, &jitter,
                        /*clock=*/nullptr, ctx, peer_spans[i]);
          if (peer_spans[i] != nullptr) peer_spans[i]->End();
          return outcome;
        });
  } else {
    // Serial: one jitter stream across peers in registration order and
    // incremental clock charging — the pre-parallel behavior.
    Rng jitter(options_.jitter_seed);
    outcomes.reserve(peers_.size());
    for (size_t i = 0; i < peers_.size(); ++i) {
      outcomes.push_back(QueryPeer(peers_[i], iql, cache_key, cacheable,
                                   &jitter, clock_, ctx, peer_spans[i]));
      if (peer_spans[i] != nullptr) peer_spans[i]->End();
    }
  }

  // Gather in registration order: deterministic regardless of scheduling.
  FederatedResult merged;
  Status first_error;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    PeerOutcome& outcome = outcomes[i];
    if (pool_ != nullptr && clock_ != nullptr && outcome.charged > 0) {
      clock_->AdvanceMicros(outcome.charged);
    }
    merged.elapsed_micros += outcome.charged;
    merged.retries += outcome.retries;
    if (outcome.cache_hit) ++merged.cache_hits;
    if (outcome.degraded) ++merged.peers_degraded;
    if (outcome.reached) {
      ++merged.peers_reached;
      merged.rows.insert(merged.rows.end(),
                         std::make_move_iterator(outcome.rows.begin()),
                         std::make_move_iterator(outcome.rows.end()));
    } else {
      Status error = outcome.error.ok()
                         ? Status::Unavailable("peer '" + peers_[i].name +
                                               "' not reached")
                         : outcome.error;
      ++merged.peers_failed;
      if (merged.failures.size() < 8) {
        merged.failures.push_back(peers_[i].name + ": " + error.ToString());
      }
      if (first_error.ok()) first_error = error;
    }
  }
  auto finish_trace = [&]() {
    if (obs_ == nullptr) return;
    if (root != nullptr) {
      root->SetAttr("peers_reached",
                    static_cast<int64_t>(merged.peers_reached));
      root->SetAttr("peers_failed", static_cast<int64_t>(merged.peers_failed));
      root->SetAttr("rows", static_cast<int64_t>(merged.rows.size()));
    }
    obs_->FinishTrace(obs::kFederationTrace, std::move(trace));
  };
  if (merged.peers_reached == 0) {
    finish_trace();
    return first_error;
  }

  // Merge order: descending peer-local score, then peer, then uri —
  // deterministic across runs.
  std::sort(merged.rows.begin(), merged.rows.end(),
            [](const FederatedRow& a, const FederatedRow& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.peer != b.peer) return a.peer < b.peer;
              return a.uri < b.uri;
            });
  merged.elapsed_micros += WallNow() - start;
  finish_trace();
  return merged;
}

}  // namespace idm::iql
