// Reproduces paper Figure 6: warm-cache response times for queries Q1-Q8 —
// extended with the parallel-execution and result-cache columns of
// DESIGN.md §8.
//
// As in the paper, each query runs repeatedly until the mean stabilizes;
// reported is the mean of the stable runs. Absolute times are far below the
// paper's (native code vs. 2006 Java on a Pentium M); the shapes under
// test: all queries are interactive (< 1 s), Q1-Q7 are cheap, and Q8 — the
// cross-source join — is the most expensive because forward expansion
// processes many intermediate results.
//
// New columns: the same queries at threads = 4 (speedup tracks the host's
// core count; results are verified byte-identical to serial), and against
// the warm epoch-keyed result cache (speedup independent of cores).

#include <algorithm>
#include <chrono>

#include "bench/harness.h"

using namespace idm;
using namespace idm::bench;

namespace {

double MsNow() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  Pipeline pipeline = BuildPipeline(workload::DataspaceSpec::PaperScale());
  iql::Dataspace& ds = *pipeline.ds;

  constexpr int kWarmup = 2;
  constexpr int kRuns = 7;

  iql::QueryProcessor::Options par_options;
  par_options.threads = 4;
  iql::QueryProcessor parallel(&ds.module(), &ds.classes(), ds.clock(),
                               par_options);

  std::printf("\nFigure 6: Query response times, warm cache\n");
  Rule(118);
  std::printf("%-4s %12s %14s %12s %10s %12s %10s %9s %12s\n", "",
              "serial [ms]", "paper [ms] (~)", "4-thr [ms]", "speedup",
              "cached [ms]", "speedup", "same", "#results");
  Rule(118);
  std::vector<double> means;
  std::vector<ParallelBenchRow> rows;
  bool all_interactive = true;
  bool all_identical = true;
  bool cache_speedup_2x = true;
  for (const PaperQuery& query : Table4Queries()) {
    // Serial, uncached (the paper's measurement).
    double serial_total = 0;
    size_t results = 0, expanded = 0;
    for (int run = 0; run < kWarmup + kRuns; ++run) {
      auto result = ds.processor().Execute(query.iql);
      if (!result.ok()) {
        std::printf("%-4s FAILED: %s\n", query.id,
                    result.status().ToString().c_str());
        return 1;
      }
      if (run >= kWarmup) {
        serial_total += result->elapsed_micros / 1000.0;
        results = result->size();
        expanded = result->expanded_views;
      }
    }
    double serial_ms = serial_total / kRuns;

    // threads = 4, uncached, differentially checked.
    auto serial_result = ds.processor().Execute(query.iql);
    double par_total = 0;
    bool identical = true;
    for (int run = 0; run < kWarmup + kRuns; ++run) {
      double t0 = MsNow();
      auto result = parallel.Execute(query.iql);
      double elapsed = MsNow() - t0;
      if (!result.ok()) {
        std::printf("%-4s FAILED (threads=4): %s\n", query.id,
                    result.status().ToString().c_str());
        return 1;
      }
      identical = identical && result->rows == serial_result->rows &&
                  result->scores == serial_result->scores &&
                  result->columns == serial_result->columns &&
                  result->expanded_views == serial_result->expanded_views;
      if (run >= kWarmup) par_total += elapsed;
    }
    double par_ms = par_total / kRuns;

    // Warm result cache: one miss populates, then hits.
    ds.ClearQueryCache();
    auto miss = ds.Query(query.iql);
    if (!miss.ok()) return 1;
    double hit_total = 0;
    for (int run = 0; run < kRuns; ++run) {
      double t0 = MsNow();
      auto hit = ds.Query(query.iql);
      hit_total += MsNow() - t0;
      identical = identical && hit.ok() && hit->rows == serial_result->rows;
    }
    double hit_ms = hit_total / kRuns;

    double par_speedup = par_ms > 0 ? serial_ms / par_ms : 0;
    double cache_speedup = hit_ms > 0 ? serial_ms / hit_ms : 0;
    cache_speedup_2x = cache_speedup_2x && cache_speedup >= 2.0;
    means.push_back(serial_ms);
    all_interactive = all_interactive && serial_ms < 1000.0;
    all_identical = all_identical && identical;
    std::printf("%-4s %12.2f %14.0f %12.2f %9.2fx %12.4f %9.0fx %9s %12zu\n",
                query.id, serial_ms, query.paper_seconds * 1000, par_ms,
                par_speedup, hit_ms, cache_speedup,
                identical ? "YES" : "NO", results);

    ParallelBenchRow thread_row;
    thread_row.name = query.id;
    thread_row.mode = "threads";
    thread_row.threads = 4;
    thread_row.serial_ms = serial_ms;
    thread_row.mean_ms = par_ms;
    thread_row.speedup = par_speedup;
    thread_row.ops_per_sec = par_ms > 0 ? 1000.0 / par_ms : 0;
    thread_row.identical_to_serial = identical;
    rows.push_back(thread_row);
    ParallelBenchRow cache_row = thread_row;
    cache_row.mode = "cache";
    cache_row.threads = 1;
    cache_row.mean_ms = hit_ms;
    cache_row.speedup = cache_speedup;
    cache_row.ops_per_sec = hit_ms > 0 ? 1000.0 / hit_ms : 0;
    cache_row.cache_hit_rate = ds.Stats().cache.hit_rate();
    rows.push_back(cache_row);
    (void)expanded;
  }
  Rule(118);

  const index::InvertedIndex& content = ds.module().content();
  std::printf("postings memory: blocked %s MB <= uncompressed %s MB: %s\n",
              Mb(content.CompressedPostingsBytes()).c_str(),
              Mb(content.UncompressedPostingsBytes()).c_str(),
              content.CompressedPostingsBytes() <=
                      content.UncompressedPostingsBytes()
                  ? "YES"
                  : "NO");

  iql::QueryCache::Stats stats = ds.Stats().cache;
  std::printf("\nShape checks (paper Section 7.2, 'Query Processing'):\n");
  std::printf("  all queries answer with interactive response times (< 1 s): %s\n",
              all_interactive ? "YES" : "NO");
  double q8 = means.back();
  double max_rest = *std::max_element(means.begin(), means.end() - 1);
  std::printf("  Q8 (cross-source join) is the most expensive query: %s\n",
              q8 >= max_rest ? "YES" : "NO");
  std::printf("  parallel/cached results byte-identical to serial: %s\n",
              all_identical ? "YES" : "NO");
  std::printf("  warm cache speedup >= 2x on every query: %s\n",
              cache_speedup_2x ? "YES" : "NO");
  std::printf("  cache hit rate over the run: %.2f (%zu hits, %zu misses)\n",
              stats.hit_rate(), stats.hits, stats.misses);
  std::printf("  Q8 processes many intermediate results relative to its\n");
  std::printf("  final size (forward expansion, paper's explanation): see\n");
  std::printf("  bench_table4_queries for the expanded-views column.\n");

  WriteParallelJson(
      "BENCH_fig6_parallel.json",
      MetaFor("fig6_query_times", workload::DataspaceSpec::PaperScale()),
      rows);
  return all_identical ? 0 : 1;
}
