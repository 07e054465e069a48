#include "iql/dataspace.h"

#include "iql/parser.h"
#include "iql/query_footprint.h"
#include "util/string_util.h"

namespace idm::iql {

namespace {

/// Change-record budget for proving a cached entry alive: beyond this,
/// scanning costs more than re-evaluating is likely to — give up.
constexpr size_t kMaxValidationScan = 64;

}  // namespace

Dataspace::Dataspace(Config config)
    : config_(std::move(config)),
      classes_(core::ClassRegistry::Standard()),
      cache_(config_.cache),
      admission_(config_.admission) {
  module_.SetClock(&clock_);
  sync_ = std::make_unique<rvm::SynchronizationManager>(
      &module_, rvm::ConverterRegistry::Standard(), config_.indexing);
  processor_ = std::make_unique<QueryProcessor>(&module_, &classes_, &clock_,
                                                config_.query);
  if (config_.observability.enabled) {
    // Created before InitStorage so startup recovery is traced and counted
    // like any later storage activity. Metric handles are resolved once
    // here; the per-query path then pays a single null test per site.
    obs_ = std::make_unique<obs::Observability>(&clock_, config_.observability);
    obs::MetricsRegistry& reg = obs_->metrics();
    qmetrics_.queries = reg.counter("iql.queries");
    qmetrics_.cache_hits = reg.counter("iql.cache.hits");
    qmetrics_.cache_misses = reg.counter("iql.cache.misses");
    qmetrics_.degraded = reg.counter("iql.degraded");
    qmetrics_.shed = reg.counter("iql.shed");
    qmetrics_.latency_micros = reg.histogram("iql.latency_micros");
    qmetrics_.queue_wait_micros = reg.histogram("iql.queue_wait_micros");
    smetrics_.opened = reg.counter("sub.opened");
    smetrics_.pumps = reg.counter("sub.pumps");
    smetrics_.deltas = reg.counter("sub.deltas");
    smetrics_.skipped = reg.counter("sub.skipped");
    smetrics_.fastpath = reg.counter("sub.fastpath");
    smetrics_.recomputes = reg.counter("sub.recomputes");
    smetrics_.degraded = reg.counter("sub.degraded");
    rmetrics_.defects = reg.counter("repair.defects");
    rmetrics_.quarantined = reg.counter("repair.quarantined");
    rmetrics_.rescues = reg.counter("repair.rescues");
    module_.SetObservability(obs_.get());
    sync_->SetObservability(obs_.get());
  }
  if (!config_.storage_dir.empty()) {
    storage_status_ = InitStorage();
    if (!storage_status_.ok()) engine_.reset();
  }
}

Result<std::unique_ptr<Dataspace>> Dataspace::Open(Config config) {
  auto dataspace = std::make_unique<Dataspace>(std::move(config));
  IDM_RETURN_NOT_OK(dataspace->storage_status());
  return dataspace;
}

Status Dataspace::InitStorage() {
  std::shared_ptr<obs::Trace> trace =
      obs_ != nullptr ? obs_->StartTrace(obs::kStorageTrace, "recovery")
                      : nullptr;
  obs::TraceSpan* root = trace == nullptr ? nullptr : trace->root();
  Status status = [&]() -> Status {
    storage::Env* env =
        config_.env != nullptr ? config_.env : storage::Env::Default();
    IDM_ASSIGN_OR_RETURN(
        storage::StorageEngine::Recovered recovered,
        storage::StorageEngine::Open(env, config_.storage_dir, config_.storage,
                                     &clock_, root));
    if (recovered.snapshot.has_value()) {
      obs::ScopedSpan restore_span(root, "snapshot.restore");
      IDM_RETURN_NOT_OK(module_.RestoreSnapshot(*recovered.snapshot)
                            .WithContext("restoring checkpoint"));
    }
    // Replay runs with the engine still detached, so recovered mutations are
    // applied but not re-logged.
    {
      obs::ScopedSpan replay_span(root, "wal.replay");
      if (replay_span) {
        replay_span.get()->SetAttr(
            "mutations", static_cast<int64_t>(recovered.mutations.size()));
      }
      IDM_RETURN_NOT_OK(module_.ReplayMutations(recovered.mutations)
                            .WithContext("WAL replay"));
    }
    recovery_stats_ = recovered.stats;
    engine_ = std::move(recovered.engine);
    module_.AttachStorage(engine_.get());
    engine_->SetObservability(obs_.get());
    if (obs_ != nullptr) {
      // Recovery outcomes as metrics: what startup found is part of the
      // unified introspection surface, not just the RecoveryStats struct.
      obs::MetricsRegistry& reg = obs_->metrics();
      reg.gauge("storage.recovery.generation")
          ->Set(static_cast<int64_t>(recovery_stats_.generation));
      reg.gauge("storage.recovery.had_checkpoint")
          ->Set(recovery_stats_.had_checkpoint ? 1 : 0);
      reg.gauge("storage.recovery.checkpoint_fallback")
          ->Set(recovery_stats_.checkpoint_fallback ? 1 : 0);
      reg.gauge("storage.recovery.last_commit_seq")
          ->Set(static_cast<int64_t>(recovery_stats_.last_commit_seq));
      reg.counter("storage.recovery.replayed_mutations")
          ->Inc(recovery_stats_.replayed_mutations);
      reg.gauge("storage.recovery.torn_tail_dropped")
          ->Set(recovery_stats_.torn_tail_dropped ? 1 : 0);
      reg.counter("storage.recovery.dropped_records")
          ->Inc(recovery_stats_.dropped_records);
      reg.counter("storage.recovery.quarantined_files")
          ->Inc(recovery_stats_.quarantined_files);
    }
    if (config_.scrub.enabled) {
      scrubber_ = std::make_unique<repair::Scrubber>(engine_.get(), &clock_,
                                                     config_.scrub);
      EnsurePostSyncHook();
    }
    return Status::OK();
  }();
  if (obs_ != nullptr) obs_->FinishTrace(obs::kStorageTrace, std::move(trace));
  return status;
}

Status Dataspace::Checkpoint() {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("dataspace has no storage engine");
  }
  std::shared_ptr<obs::Trace> trace =
      obs_ != nullptr ? obs_->StartTrace(obs::kStorageTrace, "checkpoint")
                      : nullptr;
  obs::TraceSpan* root = trace == nullptr ? nullptr : trace->root();
  Status status = [&]() -> Status {
    IDM_RETURN_NOT_OK(engine_->Commit(root));
    storage::Snapshot snapshot;
    {
      obs::ScopedSpan export_span(root, "snapshot.export");
      snapshot = module_.ExportSnapshot();
    }
    return engine_->Checkpoint(snapshot, root);
  }();
  if (obs_ != nullptr) obs_->FinishTrace(obs::kStorageTrace, std::move(trace));
  return status;
}

Status Dataspace::SyncStorage() {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("dataspace has no storage engine");
  }
  return engine_->SyncNow();
}

void Dataspace::AttachSource(std::shared_ptr<rvm::DataSource> source) {
  sync_->AttachSource(std::move(source));
}

Result<rvm::SourceIndexStats> Dataspace::AddFileSystem(
    const std::string& name, std::shared_ptr<vfs::VirtualFileSystem> fs,
    const std::string& root_path) {
  return sync_->RegisterSource(std::make_shared<rvm::FileSystemSource>(
      name, std::move(fs), root_path));
}

Result<rvm::SourceIndexStats> Dataspace::AddImap(
    const std::string& name, std::shared_ptr<email::ImapServer> server) {
  return sync_->RegisterSource(
      std::make_shared<rvm::ImapSource>(name, std::move(server)));
}

Result<rvm::SourceIndexStats> Dataspace::AddRss(
    const std::string& name, std::shared_ptr<stream::FeedServer> server) {
  auto source = std::make_shared<rvm::RssSource>(name, std::move(server));
  // Prime the stream buffer with one poll so the initial index sees the
  // already-published items.
  IDM_RETURN_NOT_OK(source->Poll().status());
  return sync_->RegisterSource(std::move(source));
}

Result<rvm::SourceIndexStats> Dataspace::AddRelational(
    const std::string& name, std::shared_ptr<rel::RelationalDb> db) {
  return sync_->RegisterSource(
      std::make_shared<rvm::RelationalSource>(name, std::move(db)));
}

Result<rvm::SourceIndexStats> Dataspace::AddSource(
    std::shared_ptr<rvm::DataSource> source) {
  return sync_->RegisterSource(std::move(source));
}

Result<QueryResult> Dataspace::Query(const std::string& iql) const {
  return Query(iql, QueryOptions());
}

Result<QueryResult> Dataspace::Query(const std::string& iql,
                                     const QueryOptions& options) const {
  return TracedQuery([&](obs::TraceSpan* root) {
    return QueryTraced(iql, options, root);
  });
}

Result<PreparedQuery> Dataspace::Prepare(const std::string& iql) const {
  IDM_ASSIGN_OR_RETURN(::idm::iql::Query parsed, ParseQuery(iql));
  auto query = std::make_shared<const ::idm::iql::Query>(std::move(parsed));
  std::shared_ptr<const PlanProgram> plan = processor_->Plan(*query);
  return PreparedQuery(this, std::move(query), std::move(plan));
}

Result<QueryResult> Dataspace::Execute(const PreparedQuery& prepared,
                                       const QueryOptions& options) const {
  if (!prepared.valid()) {
    return Status::FailedPrecondition("empty PreparedQuery");
  }
  if (prepared.dataspace_ != this) {
    return Status::InvalidArgument(
        "PreparedQuery belongs to a different dataspace");
  }
  return TracedQuery([&](obs::TraceSpan* root) -> Result<QueryResult> {
    AdmissionController::Ticket ticket;
    IDM_RETURN_NOT_OK(Admit(options, root, &ticket));
    return EvalPlanned(prepared.query(), prepared.plan(), options, root);
  });
}

Result<QueryResult> Dataspace::TracedQuery(
    const std::function<Result<QueryResult>(obs::TraceSpan*)>& body) const {
  std::shared_ptr<obs::Trace> trace =
      obs_ != nullptr ? obs_->StartTrace(obs::kQueryTrace, "query") : nullptr;
  obs::TraceSpan* root = trace == nullptr ? nullptr : trace->root();
  Result<QueryResult> result = body(root);
  if (obs_ != nullptr) {
    qmetrics_.queries->Inc();
    if (result.ok()) {
      qmetrics_.latency_micros->Observe(
          static_cast<uint64_t>(result->elapsed_micros));
      if (!result->meta.complete) qmetrics_.degraded->Inc();
    }
    if (root != nullptr && !result.ok()) {
      root->SetAttr("error", result.status().message());
    }
    obs_->FinishTrace(obs::kQueryTrace, std::move(trace));
  }
  return result;
}

Status Dataspace::Admit(const QueryOptions& options, obs::TraceSpan* root,
                        AdmissionController::Ticket* ticket) const {
  // Admission first: a shed query costs one mutex acquisition, not an
  // evaluation. The ticket is held (RAII) until the result is built.
  if (options.bypass_admission || !admission_.enabled()) return Status::OK();
  obs::ScopedSpan admit_span(root, "admission");
  int64_t waited = 0;
  Result<AdmissionController::Ticket> admitted = admission_.Admit(&waited);
  if (qmetrics_.queue_wait_micros != nullptr) {
    qmetrics_.queue_wait_micros->Observe(static_cast<uint64_t>(waited));
  }
  if (admit_span) {
    admit_span.get()->SetAttr("waited_micros", waited);
    admit_span.get()->SetAttr("outcome", admitted.ok() ? "admitted" : "shed");
  }
  if (!admitted.ok()) {
    if (qmetrics_.shed != nullptr) qmetrics_.shed->Inc();
    return admitted.status();
  }
  *ticket = std::move(*admitted);
  return Status::OK();
}

Result<QueryResult> Dataspace::QueryTraced(const std::string& iql,
                                           const QueryOptions& options,
                                           obs::TraceSpan* root) const {
  AdmissionController::Ticket ticket;
  IDM_RETURN_NOT_OK(Admit(options, root, &ticket));

  obs::TraceSpan* parse_span = root == nullptr ? nullptr : root->AddChild("parse");
  IDM_ASSIGN_OR_RETURN(::idm::iql::Query parsed, ParseQuery(iql));
  if (parse_span != nullptr) parse_span->End();

  obs::TraceSpan* plan_span = root == nullptr ? nullptr : root->AddChild("plan");
  std::unique_ptr<PlanProgram> plan = processor_->Plan(parsed);
  if (plan_span != nullptr) {
    plan_span->SetAttr("key", plan->cache_key);
    plan_span->SetAttr("ops", static_cast<int64_t>(plan->ops.size()));
    plan_span->End();
  }

  return EvalPlanned(parsed, *plan, options, root);
}

Result<QueryResult> Dataspace::EvalPlanned(const ::idm::iql::Query& parsed,
                                           const PlanProgram& plan,
                                           const QueryOptions& options,
                                           obs::TraceSpan* root) const {
  // Governed queries run under an ExecContext on the dataspace clock; the
  // simulated evaluation cost they accumulate becomes simulated time.
  std::optional<util::ExecContext> ctx;
  if (options.limits.any()) ctx.emplace(&clock_, options.limits);
  util::ExecContext* ctx_ptr = ctx.has_value() ? &*ctx : nullptr;
  auto evaluate = [&]() -> Result<QueryResult> {
    obs::ScopedSpan eval_span(root, "evaluate");
    Result<QueryResult> result =
        processor_->Evaluate(plan, ctx_ptr, eval_span.get());
    if (ctx_ptr != nullptr && ctx_ptr->charged_micros() > 0) {
      clock_.AdvanceMicros(ctx_ptr->charged_micros());
    }
    return result;
  };

  if (!cache_.enabled()) return evaluate();

  // Key on the plan's *canonical* key (DESIGN.md §16) and the current
  // dataspace version: semantically identical spellings — whitespace and
  // escape variants, reordered and/or conjuncts, reordered union/intersect
  // arms — share one entry, and any Append to the VersionLog (sync,
  // notification, delete) advances the epoch and logically invalidates
  // every entry at once. (The cached result carries the diagnostics —
  // plan text, probe counts — of the spelling that populated the entry.)
  const std::string& key = plan.cache_key;
  const uint64_t epoch = module_.versions().current();
  const bool cacheable = IsCacheable(parsed);
  // Epoch-stale entries with a scoped footprint get a survival proof
  // against the fine-grained epochs before being dropped (DESIGN.md §14).
  const QueryCache::Validator validator =
      [this](const sub::Footprint& footprint, uint64_t entry_epoch) {
        return FootprintSurvives(footprint, entry_epoch);
      };
  {
    obs::ScopedSpan lookup_span(root, "cache.lookup");
    if (!cacheable) {
      if (lookup_span) lookup_span.get()->SetAttr("outcome", "bypass");
    } else if (std::optional<QueryResult> hit =
                   cache_.Lookup(key, epoch, validator)) {
      hit->elapsed_micros = 0;  // served from cache; nothing was evaluated
      if (lookup_span) lookup_span.get()->SetAttr("outcome", "hit");
      if (qmetrics_.cache_hits != nullptr) qmetrics_.cache_hits->Inc();
      return *std::move(hit);
    } else {
      if (lookup_span) lookup_span.get()->SetAttr("outcome", "miss");
      if (qmetrics_.cache_misses != nullptr) qmetrics_.cache_misses->Inc();
    }
  }
  IDM_ASSIGN_OR_RETURN(QueryResult result, evaluate());
  // Insert() itself also refuses incomplete results; partial answers must
  // never satisfy a later ungoverned lookup. Complete results are stored
  // with their dependency footprint so unrelated-substrate writes don't
  // evict them.
  if (cacheable && result.meta.complete) {
    cache_.Insert(key, epoch, result, ComputeFootprint(parsed, module_));
  }
  return result;
}

void Dataspace::EnsureSubscriptionWiring() {
  if (sub_wired_) return;
  sub_wired_ = true;
  // Every live-path version append becomes one MutationEvent. The listener
  // is installed on first Subscribe so a dataspace without live queries
  // never pays the per-mutation fan-out; OnMutation itself drops events
  // when the registry is empty.
  module_.SetMutationListener([this](const index::ChangeRecord& record,
                                     uint32_t source, const std::string& uri,
                                     const std::string& name) {
    sub::MutationEvent event;
    event.version = record.version;
    event.op = record.op;
    event.id = record.id;
    event.source = source;
    event.uri = uri;
    event.name = name;
    subs_.OnMutation(std::move(event));
  });
  // Pump after every completed sync round: mutations land in batches
  // (poll / notification drain), so this is the natural delta boundary.
  EnsurePostSyncHook();
}

void Dataspace::EnsurePostSyncHook() {
  if (post_sync_hooked_) return;
  post_sync_hooked_ = true;
  sync_->SetPostSyncHook([this] { PostSync(); });
}

void Dataspace::PostSync() {
  if (sub_wired_) PumpSubscriptions();
  if (scrubber_ != nullptr) {
    std::vector<repair::ScrubFinding> findings = scrubber_->MaybeScrub();
    // Containment failure here has nowhere to return to — record it the
    // way recovery failures are recorded, and keep the store read-serving.
    Status contained = ContainFindings(findings);
    if (!contained.ok() && storage_status_.ok()) {
      storage_status_ = contained.WithContext("scrub containment");
    }
  }
}

Status Dataspace::ContainFindings(
    const std::vector<repair::ScrubFinding>& findings) {
  if (findings.empty() || engine_ == nullptr) return Status::OK();
  std::shared_ptr<obs::Trace> trace =
      obs_ != nullptr ? obs_->StartTrace(obs::kRepairTrace, "contain")
                      : nullptr;
  obs::TraceSpan* root = trace == nullptr ? nullptr : trace->root();
  Status status = [&]() -> Status {
    for (const repair::ScrubFinding& finding : findings) {
      obs::ScopedSpan q_span(root, "quarantine");
      if (q_span) {
        q_span.get()->SetAttr("artifact", finding.artifact);
        q_span.get()->SetAttr("defect", finding.defect);
      }
      // Copy, not move: the live file stays in place until the rescue
      // checkpoint retires its generation — recovery must keep working if
      // we crash mid-containment.
      IDM_RETURN_NOT_OK(engine_->quarantine()
                            ->CopyAside(finding.artifact, finding.defect)
                            .WithContext("quarantining " + finding.artifact));
      last_defect_ = finding.defect;
      if (rmetrics_.defects != nullptr) {
        rmetrics_.defects->Inc();
        rmetrics_.quarantined->Inc();
      }
    }
    // Rescue: the in-memory structures are authoritative (every committed
    // mutation was applied to them before it hit the damaged platter), so
    // a fresh checkpoint generation rebuilt from them is byte-good. The
    // damaged generation's files are deleted by the rotation — their
    // evidence copies are already in quarantine.
    obs::ScopedSpan rescue_span(root, "rescue.checkpoint");
    IDM_RETURN_NOT_OK(engine_->Commit(rescue_span ? rescue_span.get() : root));
    storage::Snapshot snapshot = module_.ExportSnapshot();
    IDM_RETURN_NOT_OK(
        engine_->Checkpoint(snapshot, rescue_span ? rescue_span.get() : root)
            .WithContext("rescue checkpoint"));
    ++rescues_;
    if (rmetrics_.rescues != nullptr) rmetrics_.rescues->Inc();
    return Status::OK();
  }();
  if (obs_ != nullptr) obs_->FinishTrace(obs::kRepairTrace, std::move(trace));
  return status;
}

Result<std::vector<repair::ScrubFinding>> Dataspace::ScrubNow() {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("dataspace has no storage engine");
  }
  if (scrubber_ == nullptr) {
    // On-demand scrubbing works without background scheduling configured.
    scrubber_ = std::make_unique<repair::Scrubber>(engine_.get(), &clock_,
                                                   config_.scrub);
  }
  std::vector<repair::ScrubFinding> findings = scrubber_->ScrubPass();
  IDM_RETURN_NOT_OK(ContainFindings(findings));
  return findings;
}

Result<std::shared_ptr<sub::Subscription>> Dataspace::Subscribe(
    const std::string& iql, sub::SubscribeOptions options) {
  IDM_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(iql));
  return Subscribe(prepared, std::move(options));
}

Result<std::shared_ptr<sub::Subscription>> Dataspace::Subscribe(
    const PreparedQuery& prepared, sub::SubscribeOptions options) {
  if (!prepared.valid()) {
    return Status::FailedPrecondition("empty PreparedQuery");
  }
  if (prepared.dataspace_ != this) {
    return Status::InvalidArgument(
        "PreparedQuery belongs to a different dataspace");
  }
  // Plan once, recompute many: the handle's query AST and compiled
  // program are shared (immutably) by the initial snapshot and every
  // later maintenance recompute.
  std::shared_ptr<const ::idm::iql::Query> query = prepared.query_;
  std::shared_ptr<const PlanProgram> plan = prepared.plan_;
  const std::string& normalized = plan->normalized;
  EnsureSubscriptionWiring();

  // The maintenance recompute (and the initial snapshot below): evaluate
  // under the subscription's own governance limits, charging simulated
  // evaluation cost to the dataspace clock like any governed Query().
  sub::EvalFn eval = [this, plan,
                      limits = options.limits]() -> sub::EvalOutcome {
    sub::EvalOutcome out;
    std::optional<util::ExecContext> ctx;
    if (limits.any()) ctx.emplace(&clock_, limits);
    util::ExecContext* ctx_ptr = ctx.has_value() ? &*ctx : nullptr;
    Result<QueryResult> result = processor_->Evaluate(*plan, ctx_ptr, nullptr);
    if (ctx_ptr != nullptr && ctx_ptr->charged_micros() > 0) {
      clock_.AdvanceMicros(ctx_ptr->charged_micros());
    }
    if (!result.ok()) {
      out.degraded_reason = result.status().ToString();
      return out;
    }
    out.ok = true;
    out.complete = result->meta.complete;
    out.degraded_reason = result->meta.degraded_reason;
    out.rows = std::move(result->rows);
    return out;
  };

  // Per-view fast path only for shapes where membership is a function of
  // the view itself AND the predicate is clock-independent (a now()-window
  // can silently expire members between events — those shapes recompute).
  // The membership test is compiled once, here, and run per changed view.
  sub::MatchFn match;
  if (QueryProcessor::SupportsMatchesDoc(*query) && IsCacheable(*query)) {
    IDM_ASSIGN_OR_RETURN(QueryProcessor::MatchPlan match_plan,
                         processor_->PlanMatch(*query));
    match = [this, match_plan = std::move(match_plan)](index::DocId id) {
      Result<bool> hit = processor_->MatchesDoc(match_plan, id);
      return hit.ok() && *hit;
    };
  }
  sub::RefreshFn refresh = [this, query] {
    return ComputeFootprint(*query, module_);
  };

  sub::EvalOutcome initial = eval();
  if (!initial.ok) {
    return Status::InvalidArgument("subscribe: initial evaluation failed: " +
                                   initial.degraded_reason);
  }
  sub::Footprint footprint = ComputeFootprint(*query, module_);
  if (smetrics_.opened != nullptr) smetrics_.opened->Inc();
  return subs_.Subscribe(normalized, std::move(footprint), std::move(eval),
                         std::move(match), std::move(refresh),
                         std::move(options), module_.versions().current(),
                         std::move(initial.rows));
}

bool Dataspace::Unsubscribe(uint64_t id) { return subs_.Unsubscribe(id); }

sub::SubscriptionManager::PumpStats Dataspace::PumpSubscriptions() {
  if (subs_.subscription_count() == 0 && subs_.pending_events() == 0) {
    return {};
  }
  std::shared_ptr<obs::Trace> trace =
      obs_ != nullptr ? obs_->StartTrace(obs::kSubTrace, "pump") : nullptr;
  sub::SubscriptionManager::PumpStats stats =
      subs_.Pump(module_.versions().current());
  if (obs_ != nullptr) {
    smetrics_.pumps->Inc();
    smetrics_.deltas->Inc(stats.deltas);
    smetrics_.skipped->Inc(stats.skipped);
    smetrics_.fastpath->Inc(stats.fastpath);
    smetrics_.recomputes->Inc(stats.recomputes);
    smetrics_.degraded->Inc(stats.degraded);
    if (trace != nullptr) {
      obs::TraceSpan* root = trace->root();
      root->SetAttr("pumped", static_cast<int64_t>(stats.pumped));
      root->SetAttr("deltas", static_cast<int64_t>(stats.deltas));
      root->SetAttr("skipped", static_cast<int64_t>(stats.skipped));
      root->SetAttr("fastpath", static_cast<int64_t>(stats.fastpath));
      root->SetAttr("recomputes", static_cast<int64_t>(stats.recomputes));
    }
    obs_->FinishTrace(obs::kSubTrace, std::move(trace));
  }
  return stats;
}

bool Dataspace::FootprintSurvives(const sub::Footprint& footprint,
                                  uint64_t entry_epoch) const {
  const index::EpochMap& epochs = module_.epochs();
  // Fine-grained epoch pre-filter: any write inside the footprint's own
  // substrates kills the entry without a record scan.
  for (uint32_t source : footprint.substrates) {
    if (epochs.SourceEpoch(source) > entry_epoch) return false;
  }
  // Everything since entry_epoch happened outside the substrates; prove
  // record by record that no mutation introduced a pattern match. Names
  // are read from the *current* replica, which is exactly what end-state
  // equivalence needs: the cached result is served only if the dataspace
  // now (not transiently) equals the state it was computed against, and a
  // view whose current name matches a pattern necessarily has a record in
  // this window bearing it.
  std::vector<index::ChangeRecord> records =
      module_.versions().ChangesSince(entry_epoch);
  if (records.size() > kMaxValidationScan) return false;  // churn: give up
  for (const index::ChangeRecord& record : records) {
    if (record.op == index::ChangeRecord::Op::kRemoved) continue;
    const index::CatalogEntry* entry = module_.catalog().Entry(record.id);
    if (entry == nullptr) return false;  // unknown id: be conservative
    sub::MutationEvent event;
    event.version = record.version;
    event.op = record.op;
    event.id = record.id;
    event.source = entry->source;
    event.name = module_.names().NameOf(record.id);
    if (sub::AffectedBy(footprint, event)) return false;
  }
  return true;
}

Result<Dataspace::UpdateResult> Dataspace::ExecuteUpdate(
    const std::string& statement) {
  std::string trimmed(Trim(statement));
  if (!EqualsIgnoreCase(trimmed.substr(0, 7), "delete ")) {
    return Status::ParseError(
        "unsupported update statement (expected: delete <query>)");
  }
  IDM_ASSIGN_OR_RETURN(QueryResult matched,
                       processor_->Execute(trimmed.substr(7)));
  if (matched.columns.size() != 1) {
    return Status::InvalidArgument("delete requires a unary query");
  }

  UpdateResult update;
  for (const auto& row : matched.rows) {
    const index::CatalogEntry* entry = module_.catalog().Entry(row[0]);
    if (entry == nullptr || entry->deleted) continue;
    if (entry->derived) {
      ++update.skipped_derived;
      continue;
    }
    rvm::DataSource* source =
        sync_->FindSource(module_.catalog().SourceName(entry->source));
    if (source == nullptr) {
      ++update.failed;
      continue;
    }
    Status deleted = source->DeleteItem(entry->uri);
    if (!deleted.ok()) {
      ++update.failed;
      continue;
    }
    ++update.deleted;
    IDM_ASSIGN_OR_RETURN(rvm::SyncStats removed,
                         module_.RemoveSubtree(entry->uri));
    update.views_removed += removed.removed;
  }
  // Deleting through a source raises its own change notifications; the
  // removals are already applied above, so drain the queue.
  IDM_RETURN_NOT_OK(sync_->ProcessNotifications().status());
  return update;
}

DataspaceStats Dataspace::Stats() const {
  DataspaceStats stats;
  stats.cache = cache_.stats();
  stats.admission = admission_.stats();
  stats.sync = sync_->totals();
  stats.subscriptions = subs_.GetStats();
  stats.mutations = module_.mutation_count();
  if (engine_ != nullptr) stats.storage = engine_->stats();
  stats.recovery = recovery_stats_;
  if (scrubber_ != nullptr) stats.repair.scrub = scrubber_->stats();
  if (engine_ != nullptr && engine_->quarantine() != nullptr) {
    const storage::QuarantineManager& q = *engine_->quarantine();
    stats.repair.quarantined = q.count();
    stats.repair.quarantined_bytes = q.total_bytes();
    stats.repair.last_quarantined = q.last_artifact();
  }
  stats.repair.rescues = rescues_;
  stats.repair.last_defect = last_defect_;
  if (processor_->pool() != nullptr) {
    stats.pool = processor_->pool()->telemetry();
  }
  if (obs_ != nullptr) stats.metrics = obs_->metrics().Snapshot();
  stats.engine = processor_->engine_stats();
  stats.postings = module_.content().block_stats();
  return stats;
}

std::shared_ptr<const obs::Trace> Dataspace::LastTrace(
    const std::string& category) const {
  return obs_ == nullptr ? nullptr : obs_->LastTrace(category);
}

const std::string& Dataspace::UriOf(index::DocId id) const {
  static const std::string kEmpty;
  const index::CatalogEntry* entry = module_.catalog().Entry(id);
  return entry == nullptr ? kEmpty : entry->uri;
}

const std::string& Dataspace::NameOf(index::DocId id) const {
  return module_.names().NameOf(id);
}

}  // namespace idm::iql
