// The two workloads of the dataspace benchmark. Both are closed loops
// against the public API (Dataspace, VirtualFileSystem, ImapServer) on a
// durable dataspace; the generator seed and every query pool and write
// script derive from the run's --seed. BENCHMARK.json says why each
// workload exists.

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench/harness.h"
#include "perfbench/common.h"
#include "perfbench/session.h"

namespace idm::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

workload::DataspaceSpec PaperSpec(uint64_t seed) {
  workload::DataspaceSpec spec = workload::DataspaceSpec::PaperScale();
  spec.seed = seed;
  return spec;
}

/// The desktop dataspace: the paper-shaped generator with every item count
/// divided by 16 (per-item sizes unchanged). An edit costs seconds at
/// paper scale, so a loop of --seconds there would see a handful of edits;
/// here it sees tens.
workload::DataspaceSpec DeskSpec(uint64_t seed) {
  workload::DataspaceSpec spec = PaperSpec(seed);
  constexpr size_t kDivisor = 16;
  spec.fs_folders /= kDivisor;
  spec.fs_text_files /= kDivisor;
  spec.fs_binary_files /= kDivisor;
  spec.fs_latex_docs /= kDivisor;
  spec.fs_xml_docs = std::max<size_t>(2, spec.fs_xml_docs / kDivisor);
  spec.emails /= kDivisor;
  return spec;
}

/// Set-up between host probes (so the run's probe median covers the
/// set-up too); its time goes to the "setup_s" series.
Setup ProbedSetUp(const workload::DataspaceSpec& spec,
                  const iql::Dataspace::Config& config, HostProbe* probe,
                  Record* record) {
  probe->Sample(2);
  Setup setup = SetUp(spec, config);
  record->Sample("setup_s", setup.total_s);
  probe->Sample(2);
  return setup;
}

/// Fig. 6 on a workload's own dataspace: every Table 4 query runs
/// \p rounds times round-robin with the result cache cleared before each
/// run; latencies go to the Q1..Q8 series.
void Table4Probe(iql::Dataspace& ds, int rounds, HostProbe* probe,
                 Record* record) {
  constexpr int kWarmUp = 10;  // untimed rounds first
  for (int round = -kWarmUp; round < rounds; ++round) {
    probe->Tick();
    for (const bench::PaperQuery& query : bench::Table4Queries()) {
      ds.ClearQueryCache();
      Clock::time_point t0 = Clock::now();
      auto result = ds.Query(query.iql);
      double ms = MsSince(t0);
      if (round < 0) continue;
      ++record->attempted;
      if (!result.ok()) {
        ++record->failed;
        continue;
      }
      record->Sample(query.id, ms);
    }
  }
}

/// Runs one query either plainly (Dataspace::Query) or, when \p traced,
/// as Prepare + Execute inside spans; keeps the wall time in ms.
struct Issued {
  Result<iql::QueryResult> result = Status::Internal("not run");
  double ms = 0;
  std::optional<iql::PreparedQuery> prepared;  ///< traced: for the replay
};

Issued IssueQuery(const iql::Dataspace& ds, const std::string& text,
                  Tracer* tracer, uint64_t request, bool traced) {
  Issued issued;
  Clock::time_point t0 = Clock::now();
  if (!traced) {
    issued.result = ds.Query(text);
    issued.ms = MsSince(t0);
    return issued;
  }
  Tracer::Scope root(tracer, "iql.query", request, true);
  Result<iql::PreparedQuery> prepared = Status::Internal("not run");
  {
    Tracer::Scope span(tracer, "iql.prepare", request, true);
    prepared = ds.Prepare(text);
  }
  if (!prepared.ok()) {
    issued.result = prepared.status();
    issued.ms = MsSince(t0);
    return issued;
  }
  {
    Tracer::Scope span(tracer, "iql.execute", request, true);
    issued.result = ds.Execute(*prepared);
  }
  issued.ms = MsSince(t0);
  issued.prepared = std::move(prepared).value();
  return issued;
}

/// Per-layer bookkeeping shared by the workloads' traced runs: evaluation
/// times, probe counters, and traced vs untraced query time.
struct TraceTally {
  ProbeTotals probes;
  double eval_ms = 0;
  double traced_ms = 0, untraced_ms = 0;
  uint64_t traced = 0, untraced = 0;

  /// Books one successful query; replays its index layers when it was
  /// traced and actually evaluated (not a cache hit).
  void Book(const iql::Dataspace& ds, const Issued& issued, Tracer* tracer,
            uint64_t request, bool traced_query) {
    if (!traced_query) {
      untraced_ms += issued.ms;
      ++untraced;
      return;
    }
    traced_ms += issued.ms;
    ++traced;
    const iql::QueryResult& result = *issued.result;
    if (result.elapsed_micros == 0) return;  // served from the cache
    probes.Add(result);
    eval_ms += result.elapsed_micros / 1000.0;
    ReplayIndexLayers(ds, issued.prepared->query(), tracer, request);
  }

  void Report(const Tracer& tracer, Record* record) const {
    probes.Report(record);
    record->Layer("iql.prepare_us", tracer.MeanMs("iql.prepare") * 1000.0);
    record->Layer("iql.execute_ms", tracer.MeanMs("iql.execute"));
    record->Layer("iql.eval_ms",
                  probes.evaluated == 0 ? 0 : eval_ms / probes.evaluated);
    for (const char* layer :
         {"index.live_ids", "index.name_pattern", "index.postings",
          "index.tuple_scan", "index.group_walk"}) {
      // Per evaluated query: a layer a query does not touch adds zero.
      record->Layer(std::string(layer) + "_ms",
                    probes.evaluated == 0
                        ? 0
                        : tracer.TotalMs(layer) / probes.evaluated);
    }
    double traced_qps = traced_ms > 0 ? traced * 1000.0 / traced_ms : 0;
    double untraced_qps = untraced_ms > 0 ? untraced * 1000.0 / untraced_ms : 0;
    record->Layer("trace.traced_queries_per_s", traced_qps);
    record->Layer("trace.untraced_queries_per_s", untraced_qps);
    record->Layer("trace.overhead_pct",
                  traced_qps > 0 ? (untraced_qps / traced_qps - 1) * 100 : 0);
  }
};

/// Cache and admission activity between two Stats() snapshots (traced
/// run).
void ReportQueryLayers(const iql::DataspaceStats& before,
                       const iql::DataspaceStats& after, Record* record) {
  uint64_t hits = after.cache.hits - before.cache.hits;
  uint64_t misses = after.cache.misses - before.cache.misses;
  record->Layer("iql.cache.hit_rate",
                hits + misses == 0 ? 0 : double(hits) / (hits + misses));
  record->Layer("iql.cache.evictions",
                double(after.cache.evictions - before.cache.evictions));
  uint64_t admitted = after.admission.admitted - before.admission.admitted;
  record->Layer("iql.admission.wait_ms",
                admitted == 0 ? 0
                              : (after.admission.queue_wait_micros -
                                 before.admission.queue_wait_micros) /
                                    1000.0 / admitted);
}

/// fig6_uncached ends with a short write epilogue, after its read loop:
/// sixty corpus-sized notes are created, each followed by sync and a search
/// for its token, then the store is crashed and opened five times (each
/// open replays those creates).
void CreateEpilogue(const RunOptions& options, Setup* setup, HostProbe* probe,
                    Record* record, Tracer* tracer) {
  Progress("create epilogue");
  WriteSession session(options.seed, setup, record, tracer);
  session.set_auto_checkpoint(false);
  constexpr int kCreates = 60;
  for (int i = 0; i < kCreates; ++i) {
    probe->Tick();
    session.Write(WriteKind::kCreateNote, tracer->enabled() && i % 2 == 1);
  }
  probe->Sample(3);
  Progress("crash and restart");
  session.CrashAndRestart(/*restarts=*/5);
  Progress("done");
  if (tracer->enabled()) session.ReportLayers();
}

}  // namespace

// ---------------------------------------------------------------------------
// fig6_uncached: Q1-Q8 round-robin, one client, result cache off.

void RunFig6Uncached(const RunOptions& options, Record* record,
                     Tracer* tracer) {
  iql::Dataspace::Config config;
  config.cache.enabled = false;
  HostProbe probe(record);
  Progress("set-up");
  Setup setup = ProbedSetUp(PaperSpec(options.seed), config, &probe, record);
  Progress("loop");
  RecordSetup(setup, record);
  const iql::Dataspace& ds = *setup.ds;
  const std::vector<bench::PaperQuery>& queries = bench::Table4Queries();

  // First run of each query: the reference rows and the Table 4 counts.
  // The generator plants the needles these queries look for; seeds 42 and
  // 1234 reproduce the paper's counts exactly, while on other seeds random
  // text may add a match (Q6's "documents" does on seed 9), so there every
  // planted needle must be found and extra rows are allowed.
  const std::map<std::string, size_t> kExpected = {
      {"Q4", 2}, {"Q5", 2}, {"Q6", 6}, {"Q7", 21}, {"Q8", 16}};
  const bool exact = options.seed == 42 || options.seed == 1234;
  std::vector<uint64_t> reference;
  std::set<index::DocId> q1_rows;
  for (const bench::PaperQuery& query : queries) {
    auto result = ds.Query(query.iql);
    if (!result.ok()) {
      throw std::runtime_error(std::string(query.id) + ": " +
                               result.status().ToString());
    }
    reference.push_back(RowFingerprint(*result));
    std::string id = query.id;
    record->Info(id + ".rows", std::to_string(result->size()));
    auto expected = kExpected.find(id);
    if (expected != kExpected.end()) {
      bool ok = exact ? result->size() == expected->second
                      : result->size() >= expected->second;
      record->Check("table4." + id + "_count", ok,
                    std::to_string(result->size()) + " rows, expected " +
                        (exact ? "" : "at least ") +
                        std::to_string(expected->second));
    }
    if (id == "Q1") {
      for (const auto& row : result->rows) q1_rows.insert(row[0]);
    }
    if (id == "Q2") {
      bool subset = std::all_of(
          result->rows.begin(), result->rows.end(),
          [&](const auto& row) { return q1_rows.count(row[0]) > 0; });
      record->Check("table4.Q2_subset_of_Q1", subset);
    }
  }

  TraceTally tally;
  iql::DataspaceStats before = ds.Stats();
  uint64_t request = 0, completed = 0;
  Clock::time_point start = Clock::now();
  double probing_s = probe.spent_s();
  Clock::time_point deadline = Deadline(options.seconds);
  for (uint64_t round = 0; Clock::now() < deadline; ++round) {
    bool traced = tracer->enabled() && round % 2 == 1;
    probe.Tick();
    for (size_t i = 0; i < queries.size(); ++i) {
      Issued issued = IssueQuery(ds, queries[i].iql, tracer, ++request, traced);
      ++record->attempted;
      if (!issued.result.ok()) {
        ++record->failed;
        continue;
      }
      ++completed;
      record->Sample("query", issued.ms);
      record->Sample(queries[i].id, issued.ms);
      record->Check("repeat_rows_identical",
                    RowFingerprint(*issued.result) == reference[i],
                    std::string(queries[i].id) + " rows changed on a repeat");
      if (tracer->enabled()) tally.Book(ds, issued, tracer, request, traced);
    }
  }
  record->Value("elapsed_s", MsSince(start) / 1000.0 -
                                 (probe.spent_s() - probing_s));
  record->Value("queries", static_cast<double>(completed));
  if (tracer->enabled()) {
    tally.Report(*tracer, record);
    ReportQueryLayers(before, ds.Stats(), record);
  }
  CreateEpilogue(options, &setup, &probe, record, tracer);
  record->Value("rss_mb", PeakRssMb());
}

// ---------------------------------------------------------------------------
// desktop_sync: one user on a durable desktop dataspace; each cycle is one
// write of the seeded script followed by four hot-pool queries. A run
// repeats this on four desktops generated from seeds derived from --seed,
// a quarter of the run each, so every reported median pools four generated
// dataspaces instead of resting on one.

namespace {

/// One desktop of desktop_sync, from set-up to crash recovery: the Fig. 6
/// probe on the dataspace as generated, the write + query loop for
/// \p seconds, the crash suffix and two timed restarts. The data, the write
/// script, the hot pool and the suffix all follow from \p data_seed. Loop
/// time and query counts add to *elapsed_s and *completed.
void RunDesktop(uint64_t data_seed, double seconds, HostProbe* probe,
                TraceTally* tally, Record* record, Tracer* tracer,
                double* elapsed_s, uint64_t* completed) {
  // Admission on, as on a shared desktop service; a single user never
  // queues, so this adds the gate's cost to every query and nothing else.
  iql::Dataspace::Config config;
  config.admission.max_concurrent = 2;
  config.admission.max_queue = 64;
  config.admission.queue_timeout_micros = 120'000'000;
  Setup setup = ProbedSetUp(DeskSpec(data_seed), config, probe, record);
  RecordSetup(setup, record);
  iql::Dataspace& ds = *setup.ds;
  // Fig. 6 on the desktop dataspace as generated (before the writes move
  // notes into the folders the Table 4 queries read).
  Table4Probe(ds, /*rounds=*/100, probe, record);

  WriteSession session(data_seed, &setup, record, tracer);
  // Standing saved searches, drained after every sync.
  std::vector<std::string> standing;
  for (const bench::PaperQuery& query : bench::Table4Queries()) {
    std::string id = query.id;
    if (id == "Q2" || id == "Q4" || id == "Q6" || id == "Q7") {
      standing.push_back(query.iql);
    }
  }
  session.Subscribe(standing);
  // The hot pool: the Table 4 set plus four content words of fixed
  // frequency rank (so every seed searches equally common words); it fits
  // the default result cache.
  std::vector<std::string> hot;
  for (const bench::PaperQuery& query : bench::Table4Queries()) {
    hot.push_back(query.iql);
  }
  std::vector<std::string> words =
      SampleContentWords(DeriveSeed(data_seed, "desktop-words"));
  for (size_t rank : {100, 200, 300, 400}) {
    if (rank < words.size()) hot.push_back("\"" + words[rank] + "\"");
  }
  Rng query_rng(DeriveSeed(data_seed, "desktop-queries"));

  iql::DataspaceStats before = ds.Stats();
  uint64_t request = 0;
  Clock::time_point start = Clock::now();
  double probing_s = probe->spent_s();
  Clock::time_point deadline = Deadline(seconds);
  for (uint64_t cycle = 0; Clock::now() < deadline; ++cycle) {
    bool traced = tracer->enabled() && cycle % 2 == 1;
    probe->Tick();
    session.Write(session.Draw(), traced);
    for (int i = 0; i < 4; ++i) {
      const std::string& text = Pick(query_rng, hot);
      Issued issued = IssueQuery(ds, text, tracer, ++request, traced);
      ++record->attempted;
      if (!issued.result.ok()) {
        ++record->failed;
        continue;
      }
      ++*completed;
      record->Sample("query", issued.ms);
      if (tracer->enabled()) tally->Book(ds, issued, tracer, request, traced);
    }
  }
  *elapsed_s += MsSince(start) / 1000.0 - (probe->spent_s() - probing_s);
  if (tracer->enabled()) ReportQueryLayers(before, ds.Stats(), record);

  // The crash suffix: a checkpoint, then a fixed mix of 24 writes in a
  // seeded order and no checkpoint, so every restart replays the same
  // amount of work.
  session.Checkpoint();
  session.set_auto_checkpoint(false);
  std::vector<WriteKind> suffix;
  suffix.insert(suffix.end(), 8, WriteKind::kCreateNote);
  suffix.insert(suffix.end(), 8, WriteKind::kEditNote);
  suffix.insert(suffix.end(), 4, WriteKind::kDelete);
  suffix.insert(suffix.end(), 4, WriteKind::kMail);
  Rng suffix_rng(DeriveSeed(data_seed, "desktop-suffix"));
  Shuffle(suffix_rng, suffix);
  for (WriteKind kind : suffix) session.Write(kind, tracer->enabled());
  probe->Sample(3);
  session.CrashAndRestart(/*restarts=*/2);
  // The write-path layers of the traced run: the last desktop's session.
  if (tracer->enabled()) session.ReportLayers();
}

}  // namespace

void RunDesktopSync(const RunOptions& options, Record* record,
                    Tracer* tracer) {
  constexpr int kDesktops = 4;
  HostProbe probe(record);
  TraceTally tally;
  double elapsed_s = 0;
  uint64_t completed = 0;
  for (int d = 0; d < kDesktops; ++d) {
    Progress("desktop " + std::to_string(d + 1));
    RunDesktop(DeriveSeed(options.seed, "desktop-" + std::to_string(d)),
               options.seconds / kDesktops, &probe, &tally, record, tracer,
               &elapsed_s, &completed);
  }
  Progress("done");
  record->Value("elapsed_s", elapsed_s);
  record->Value("queries", static_cast<double>(completed));
  if (tracer->enabled()) tally.Report(*tracer, record);
  record->Value("rss_mb", PeakRssMb());
}

}  // namespace idm::perfbench
