// Dataspace: the PDSMS facade (paper §5, Figure 4). Wires together the
// standard class registry, the Content2iDM converters, the Replica&Indexes
// module, the Synchronization Manager and the iQL Query Processor behind
// one object — the "iMeMex" of this repository.
//
//   idm::iql::Dataspace ds;
//   ds.AddFileSystem("Filesystem", fs);
//   ds.AddImap("Email / IMAP", server);
//   auto result = ds.Query("//PIM//Introduction[class=\"latex_section\"]");
//
// Querying has ONE canonical entry point: Query(iql, QueryOptions). The
// one-argument Query(iql) is sugar for Query(iql, QueryOptions{}) — the
// default options reproduce the classic ungoverned behavior exactly, and
// every execution knob (resource limits, admission bypass) is a field of
// QueryOptions (iql/query_options.h), never a separate overload.
//
// Introspection likewise has one surface: Stats() returns a DataspaceStats
// snapshot covering cache, admission, sync, storage, repair, the engine and
// the metrics registry; LastTrace() returns the most recent span tree when
// Config::observability is enabled (DESIGN.md §11).

#ifndef IDM_IQL_DATASPACE_H_
#define IDM_IQL_DATASPACE_H_

#include <functional>
#include <memory>
#include <string>

#include "index/inverted_index.h"
#include "iql/admission.h"
#include "iql/prepared_query.h"
#include "iql/query_cache.h"
#include "iql/query_options.h"
#include "iql/query_processor.h"
#include "obs/obs.h"
#include "repair/scrubber.h"
#include "rvm/rvm.h"
#include "storage/engine.h"
#include "sub/subscription.h"
#include "util/exec_context.h"

namespace idm::iql {

/// Integrity / self-healing activity (DESIGN.md §15). All zeros until a
/// scrub runs or something is quarantined; `last_quarantined` names the
/// most recent contained artifact — the "degrade loudly" surface.
struct RepairStats {
  repair::ScrubStats scrub;          ///< scrubber activity since start
  uint64_t quarantined = 0;          ///< artifacts in the quarantine stash
  uint64_t quarantined_bytes = 0;    ///< evidence bytes preserved
  uint64_t rescues = 0;              ///< rescue checkpoints taken
  std::string last_quarantined;      ///< most recent artifact ("" = none)
  std::string last_defect;           ///< what its failed check reported
};

/// One-call introspection snapshot (DESIGN.md §11): everything the
/// dataspace knows about itself, collected by Dataspace::Stats(). Plain
/// values — safe to copy, compare, and ship across threads.
struct DataspaceStats {
  QueryCache::Stats cache;                ///< result-cache hits/misses/…
  AdmissionController::Stats admission;   ///< admitted/shed/queued/…
  rvm::SyncTotals sync;                   ///< cumulative sync activity
  sub::SubscriptionManager::Stats subscriptions;  ///< live-query activity
  uint64_t mutations = 0;                 ///< module mutations since start
  storage::StorageEngine::Stats storage;  ///< zeros when not durable
  storage::RecoveryStats recovery;        ///< what startup recovery found
  RepairStats repair;                     ///< scrub/quarantine/self-heal
  obs::MetricsSnapshot metrics;           ///< empty when observability off
  QueryProcessor::EngineStats engine;     ///< plans compiled, VM runs (§16)
  index::InvertedIndex::BlockStats postings;  ///< block-compression activity
};

class Dataspace {
 public:
  struct Config {
    rvm::IndexingOptions indexing;
    QueryProcessor::Options query;
    /// Result cache fronting the query processor, keyed on (normalized
    /// query text, VersionLog epoch). Enabled by default: every catalog
    /// mutation advances the epoch, so a hit is always exact; queries with
    /// yesterday()/now() literals bypass it (see IsCacheable).
    QueryCache::Options cache;
    /// When non-empty, the dataspace is durable: a storage engine in this
    /// directory write-ahead-logs every mutation, Checkpoint() snapshots
    /// the structures, and construction recovers whatever the directory
    /// holds. Empty (the default) keeps the classic in-memory dataspace —
    /// no storage code runs at all.
    std::string storage_dir;
    storage::StorageOptions storage;
    /// Storage environment; nullptr means the real file system. Tests pass
    /// a MemEnv to run durability and crash scenarios hermetically.
    storage::Env* env = nullptr;
    /// Admission control in front of Query() (DESIGN.md §10): concurrency
    /// limit + bounded wait queue with load shedding. Disabled by default
    /// (max_concurrent == 0) — every query runs immediately, as before.
    AdmissionController::Options admission;
    /// Tracing + metrics (DESIGN.md §11). Off by default: with
    /// enabled == false no Observability object is created, every
    /// instrumentation site sees a null pointer, and the hot path is
    /// byte-identical to a build without the feature.
    obs::Options observability;
    /// Background integrity scrubbing (DESIGN.md §15). Off by default: no
    /// Scrubber is constructed and the write/sync path is byte-identical
    /// to a build without it. Enabled, every sync round runs at most one
    /// interval-gated, ExecContext-budgeted verification slice; a verified
    /// defect is contained (quarantine + rescue checkpoint) immediately.
    repair::ScrubOptions scrub;
  };

  Dataspace() : Dataspace(Config()) {}
  explicit Dataspace(Config config);

  /// Constructs a dataspace and fails loudly when storage recovery fails
  /// (the plain constructor records the failure in storage_status()).
  static Result<std::unique_ptr<Dataspace>> Open(Config config);

  /// OK for in-memory dataspaces and after successful recovery; the
  /// recovery/open error otherwise (the dataspace then starts empty and
  /// NON-durable rather than silently double-applying history).
  const Status& storage_status() const { return storage_status_; }

  /// What recovery found (all zeros for in-memory dataspaces).
  const storage::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

  storage::StorageEngine* storage_engine() { return engine_.get(); }

  /// Commits any staged batch and writes a new checkpoint generation.
  /// Fails with kFailedPrecondition when the dataspace is not durable.
  Status Checkpoint();

  /// Forces every committed batch to the platter (fsync), regardless of
  /// the configured fsync policy.
  Status SyncStorage();

  /// --- integrity (DESIGN.md §15) ------------------------------------------
  /// Runs one full scrub pass over the live generation NOW (works even
  /// with Config::scrub disabled) and contains every verified defect:
  /// damaged artifact copied into quarantine, then a rescue checkpoint
  /// rotates to a clean generation rebuilt from the authoritative
  /// in-memory state. Returns the findings (empty = store verified clean);
  /// fails only when containment itself cannot write.
  Result<std::vector<repair::ScrubFinding>> ScrubNow();

  /// The background scrubber (null when storage or Config::scrub is off).
  repair::Scrubber* scrubber() { return scrubber_.get(); }

  /// The simulated clock shared by all sources registered through this
  /// dataspace (timestamps, latency models, yesterday()).
  SimClock* clock() { return &clock_; }

  /// --- source registration (returns the initial-indexing stats) ----------
  Result<rvm::SourceIndexStats> AddFileSystem(
      const std::string& name, std::shared_ptr<vfs::VirtualFileSystem> fs,
      const std::string& root_path = "/");
  Result<rvm::SourceIndexStats> AddImap(
      const std::string& name, std::shared_ptr<email::ImapServer> server);
  Result<rvm::SourceIndexStats> AddRss(
      const std::string& name, std::shared_ptr<stream::FeedServer> server);
  Result<rvm::SourceIndexStats> AddRelational(
      const std::string& name, std::shared_ptr<rel::RelationalDb> db);
  Result<rvm::SourceIndexStats> AddSource(std::shared_ptr<rvm::DataSource> source);

  /// Re-attaches a source after a durable restart WITHOUT re-indexing it:
  /// the recovered catalog and indexes already describe it, so only the
  /// notification subscription is re-armed (drift is reconciled by the
  /// next sync().Poll()). This is what makes cold restart cheap compared
  /// to a full re-sync — bench_recovery measures exactly this gap.
  void AttachSource(std::shared_ptr<rvm::DataSource> source);

  /// --- querying -----------------------------------------------------------
  /// Per-query execution options (iql/query_options.h — shared with
  /// Federation). The nested name is kept as an alias so existing
  /// `Dataspace::QueryOptions` spellings keep compiling.
  using QueryOptions = ::idm::iql::QueryOptions;

  /// The canonical query entry point: admission control first (when
  /// configured and not bypassed; kResourceExhausted on shed — retryable),
  /// then parse, normalize, cache lookup at the current VersionLog epoch,
  /// and evaluation under the configured limits. A cache hit reports
  /// elapsed_micros = 0 (no evaluation ran). When Config::observability is
  /// enabled, every run records a span tree retrievable via LastTrace().
  Result<QueryResult> Query(const std::string& iql,
                            const QueryOptions& options) const;

  /// Sugar for Query(iql, QueryOptions{}): the classic ungoverned call.
  Result<QueryResult> Query(const std::string& iql) const;

  /// --- prepared queries (DESIGN.md §16) -----------------------------------
  /// Parses, normalizes, and compiles \p iql once into a reusable handle:
  /// Execute(prepared) runs the full Query() path (admission, governance,
  /// result cache, tracing) with parse + plan already paid, and
  /// PreparedQuery::Explain() renders the stable bytecode listing.
  /// Query(iql, options) itself is a thin Prepare + Execute wrapper, and
  /// the result cache is keyed on the plan's canonical key, so prepared
  /// and ad-hoc executions of the same query share cache entries.
  Result<PreparedQuery> Prepare(const std::string& iql) const;

  /// Executes a handle obtained from this dataspace's Prepare().
  Result<QueryResult> Execute(const PreparedQuery& prepared,
                              const QueryOptions& options = {}) const;

  /// --- live queries (continuous subscriptions, DESIGN.md §14) -------------
  using SubscribeOptions = sub::SubscribeOptions;
  using ResultDelta = sub::ResultDelta;
  using Subscription = sub::Subscription;

  /// Registers \p iql as a continuous query: the result set is evaluated
  /// once now (delivered as the handle's first, snapshot delta) and then
  /// maintained incrementally from the mutation stream — every sync round
  /// pumps buffered changes into ordered ResultDeltas, drainable via
  /// Subscription::Drain() or pushed through SubscribeOptions::on_delta.
  /// Maintenance work is charged to the subscription's governance limits;
  /// a degraded recompute delivers an incomplete delta (partial-result
  /// contract) and retries on the next pump. Subscriptions do not survive
  /// a durable restart: re-register after Open() — the recovered state is
  /// the new initial snapshot.
  Result<std::shared_ptr<sub::Subscription>> Subscribe(
      const std::string& iql, sub::SubscribeOptions options = {});

  /// Same, from an already prepared handle: the compiled plan is reused
  /// for the initial snapshot and for every maintenance recompute.
  Result<std::shared_ptr<sub::Subscription>> Subscribe(
      const PreparedQuery& prepared, sub::SubscribeOptions options = {});

  /// Closes a subscription; the handle stays drainable but receives
  /// nothing further. False for unknown ids.
  bool Unsubscribe(uint64_t id);

  /// Applies buffered mutation events to every subscription (one ordered
  /// delta each). Runs automatically after every sync round; call it
  /// directly after module-level mutations done behind the facade's back.
  sub::SubscriptionManager::PumpStats PumpSubscriptions();

  sub::SubscriptionManager& subscriptions() { return subs_; }
  const sub::SubscriptionManager& subscriptions() const { return subs_; }

  /// --- introspection ------------------------------------------------------
  /// One-call snapshot of everything the dataspace knows about itself.
  /// Cheap when observability is off (the metrics snapshot is empty).
  DataspaceStats Stats() const;

  /// The most recent finished trace in \p category (obs::kQueryTrace,
  /// obs::kStorageTrace, …), or null when observability is off / nothing
  /// has been traced yet. The returned tree is immutable and safe to keep
  /// across later queries.
  std::shared_ptr<const obs::Trace> LastTrace(
      const std::string& category = obs::kQueryTrace) const;

  /// The observability sink itself (metrics registry access, manual
  /// traces); null when Config::observability is disabled.
  obs::Observability* observability() const { return obs_.get(); }

  /// Drops all cached results (the epoch key makes this unnecessary for
  /// correctness; useful for measurements).
  void ClearQueryCache() { cache_.Clear(); }

  /// Outcome of an update statement.
  struct UpdateResult {
    size_t deleted = 0;          ///< base items removed from their sources
    size_t views_removed = 0;    ///< views dropped from the indexes
    size_t skipped_derived = 0;  ///< derived views (no independent existence)
    size_t failed = 0;           ///< items the source refused to delete
  };

  /// Executes an iQL update statement. Currently supported:
  ///   delete <query>
  /// which removes every *base* item matched by <query> from its data
  /// source (write-through) and drops it — and everything derived from it —
  /// from catalog and indexes. Derived views matched by the query are
  /// skipped: they have no independent existence (delete the base item
  /// instead). This is the "support for updates" §5.1 announces for iQL.
  Result<UpdateResult> ExecuteUpdate(const std::string& statement);

  /// Uri of a result id (for display), and its stored name.
  const std::string& UriOf(index::DocId id) const;
  const std::string& NameOf(index::DocId id) const;

  /// --- plumbing access ----------------------------------------------------
  rvm::ReplicaIndexesModule& module() { return module_; }
  const rvm::ReplicaIndexesModule& module() const { return module_; }
  rvm::SynchronizationManager& sync() { return *sync_; }
  const core::ClassRegistry& classes() const { return classes_; }
  const QueryProcessor& processor() const { return *processor_; }

 private:
  /// Opens the engine, restores the newest checkpoint, replays the WAL
  /// suffix and attaches the engine to the module.
  Status InitStorage();

  /// Query() body; \p root is the trace root (null when tracing is off)
  /// that admission / parse / plan / cache.lookup / evaluate spans attach
  /// to.
  Result<QueryResult> QueryTraced(const std::string& iql,
                                  const QueryOptions& options,
                                  obs::TraceSpan* root) const;

  /// Shared trace + query-metrics wrapper around one execution — used by
  /// Query() and Execute(PreparedQuery) so both surfaces are observed
  /// identically.
  Result<QueryResult> TracedQuery(
      const std::function<Result<QueryResult>(obs::TraceSpan*)>& body) const;

  /// Admission gate (when configured and not bypassed). On admission
  /// \p ticket holds the slot until the result is built; on shed returns
  /// kResourceExhausted.
  Status Admit(const QueryOptions& options, obs::TraceSpan* root,
               AdmissionController::Ticket* ticket) const;

  /// The tail of the query path for an already parsed + planned query:
  /// governed evaluation plus result-cache lookup/insert keyed on the
  /// plan's canonical key.
  Result<QueryResult> EvalPlanned(const ::idm::iql::Query& parsed,
                                  const PlanProgram& plan,
                                  const QueryOptions& options,
                                  obs::TraceSpan* root) const;

  /// Proves a cached entry's footprint unaffected by the mutations in
  /// (entry_epoch, now] — the query-cache survival validator.
  bool FootprintSurvives(const sub::Footprint& footprint,
                         uint64_t entry_epoch) const;

  /// Installs the module mutation listener + post-sync pump hook. Lazy
  /// (first Subscribe): a dataspace that never subscribes never pays the
  /// per-mutation event fan-out.
  void EnsureSubscriptionWiring();

  /// Installs the single post-sync hook (once). The hook fans out to the
  /// subscription pump and the scrub tick, whichever are armed — the two
  /// features share the SynchronizationManager's one slot.
  void EnsurePostSyncHook();
  /// The post-sync fan-out body.
  void PostSync();

  /// Contains \p findings: evidence into quarantine, rescue checkpoint,
  /// stats + metrics + a kRepairTrace trace. No-op for an empty list.
  Status ContainFindings(const std::vector<repair::ScrubFinding>& findings);

  /// Metric handles resolved once at construction (null when observability
  /// is off — the hot path then pays a single pointer test per site).
  struct QueryMetrics {
    obs::Counter* queries = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* degraded = nullptr;
    obs::Counter* shed = nullptr;
    obs::Histogram* latency_micros = nullptr;
    obs::Histogram* queue_wait_micros = nullptr;
  };

  /// sub.* metric handles (null when observability is off).
  struct SubMetrics {
    obs::Counter* opened = nullptr;
    obs::Counter* pumps = nullptr;
    obs::Counter* deltas = nullptr;
    obs::Counter* skipped = nullptr;
    obs::Counter* fastpath = nullptr;
    obs::Counter* recomputes = nullptr;
    obs::Counter* degraded = nullptr;
  };

  Config config_;
  /// mutable: governed const Query() applies its simulated evaluation cost
  /// (ExecContext::charged_micros) to the clock after evaluating.
  mutable SimClock clock_;
  core::ClassRegistry classes_;
  rvm::ReplicaIndexesModule module_;
  std::unique_ptr<rvm::SynchronizationManager> sync_;
  std::unique_ptr<QueryProcessor> processor_;
  mutable QueryCache cache_;  ///< internally synchronized
  mutable AdmissionController admission_;  ///< internally synchronized
  std::unique_ptr<storage::StorageEngine> engine_;
  storage::RecoveryStats recovery_stats_;
  Status storage_status_;
  std::unique_ptr<obs::Observability> obs_;  ///< null when disabled
  QueryMetrics qmetrics_;
  mutable sub::SubscriptionManager subs_;  ///< internally synchronized
  bool sub_wired_ = false;  ///< mutation listener + pump hook installed
  SubMetrics smetrics_;

  /// repair.* metric handles (null when observability is off).
  struct RepairMetrics {
    obs::Counter* defects = nullptr;
    obs::Counter* quarantined = nullptr;
    obs::Counter* rescues = nullptr;
  };
  std::unique_ptr<repair::Scrubber> scrubber_;  ///< null when scrub off
  bool post_sync_hooked_ = false;
  uint64_t rescues_ = 0;
  std::string last_defect_;
  RepairMetrics rmetrics_;
};

}  // namespace idm::iql

#endif  // IDM_IQL_DATASPACE_H_
