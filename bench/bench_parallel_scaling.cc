// Parallel execution and result-cache scaling (DESIGN.md §8).
//
// Runs the Table 4 queries at threads = 1, 2, 4, 8 (uncached, fresh
// QueryProcessor per configuration) and then against the warm result cache.
// For every configuration the rows are differentially checked against the
// serial run — the ordered-merge design promises byte-identical results —
// and the means, speedups, ops/sec and cache hit rate are printed and
// written to BENCH_parallel.json for machines to read.
//
// Thread speedup depends on the host's core count (a 1-core container
// yields ~1.0x by construction); the cache line shows the epoch-keyed
// result cache supplying its speedup independently of cores.

#include <chrono>
#include <cstdio>
#include <vector>

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

  constexpr int kWarmup = 1;
  constexpr int kRuns = 5;
  const std::vector<size_t> kThreads = {1, 2, 4, 8};

  std::vector<ParallelBenchRow> rows;

  // --- serial baselines + per-thread-count measurements ---------------------
  std::printf("\nParallel scaling, uncached (mean of %d runs)\n", kRuns);
  Rule(96);
  std::printf("%-4s %12s", "", "serial [ms]");
  for (size_t t : kThreads) {
    if (t > 1) std::printf("  %8zu thr", t);
  }
  std::printf("  %10s %10s\n", "speedup@4", "identical");
  Rule(96);

  bool all_identical = true;
  for (const PaperQuery& query : Table4Queries()) {
    // One processor per thread count; index 0 (threads=1) is the baseline.
    std::vector<double> means;
    std::vector<bool> identical;
    auto serial_result = ds.processor().Execute(query.iql);
    if (!serial_result.ok()) {
      std::printf("%-4s FAILED: %s\n", query.id,
                  serial_result.status().ToString().c_str());
      return 1;
    }
    for (size_t threads : kThreads) {
      iql::QueryProcessor::Options options;
      options.threads = threads;
      iql::QueryProcessor processor(&ds.module(), &ds.classes(), ds.clock(),
                                    options);
      double total_ms = 0;
      bool same = true;
      for (int run = 0; run < kWarmup + kRuns; ++run) {
        double t0 = MsNow();
        auto result = processor.Execute(query.iql);
        double elapsed = MsNow() - t0;
        if (!result.ok()) {
          std::printf("%-4s FAILED (threads=%zu): %s\n", query.id, threads,
                      result.status().ToString().c_str());
          return 1;
        }
        same = same && result->rows == serial_result->rows &&
               result->scores == serial_result->scores &&
               result->columns == serial_result->columns;
        if (run >= kWarmup) total_ms += elapsed;
      }
      means.push_back(total_ms / kRuns);
      identical.push_back(same);
      all_identical = all_identical && same;
    }
    double serial_ms = means[0];
    for (size_t i = 0; i < kThreads.size(); ++i) {
      ParallelBenchRow row;
      row.name = query.id;
      row.mode = kThreads[i] == 1 ? "serial" : "threads";
      row.threads = kThreads[i];
      row.serial_ms = serial_ms;
      row.mean_ms = means[i];
      row.speedup = means[i] > 0 ? serial_ms / means[i] : 0;
      row.ops_per_sec = means[i] > 0 ? 1000.0 / means[i] : 0;
      row.identical_to_serial = identical[i];
      rows.push_back(row);
    }
    std::printf("%-4s %12.2f", query.id, serial_ms);
    for (size_t i = 1; i < kThreads.size(); ++i) {
      std::printf("  %12.2f", means[i]);
    }
    double speedup4 = means[2] > 0 ? serial_ms / means[2] : 0;
    bool query_identical = true;
    for (bool same : identical) query_identical = query_identical && same;
    std::printf("  %9.2fx %10s\n", speedup4, query_identical ? "YES" : "NO");
  }
  Rule(96);

  // --- warm result cache ----------------------------------------------------
  std::printf("\nResult cache, warm (epoch-keyed; mean of %d hit runs)\n",
              kRuns);
  Rule(72);
  std::printf("%-4s %12s %12s %10s %10s\n", "", "miss [ms]", "hit [ms]",
              "speedup", "identical");
  Rule(72);
  ds.ClearQueryCache();
  for (const PaperQuery& query : Table4Queries()) {
    double t0 = MsNow();
    auto miss = ds.Query(query.iql);
    double miss_ms = MsNow() - t0;
    if (!miss.ok()) {
      std::printf("%-4s FAILED: %s\n", query.id,
                  miss.status().ToString().c_str());
      return 1;
    }
    double total_ms = 0;
    bool same = true;
    for (int run = 0; run < kRuns; ++run) {
      double h0 = MsNow();
      auto hit = ds.Query(query.iql);
      total_ms += MsNow() - h0;
      same = same && hit.ok() && hit->rows == miss->rows &&
             hit->scores == miss->scores;
    }
    double hit_ms = total_ms / kRuns;
    all_identical = all_identical && same;
    ParallelBenchRow row;
    row.name = query.id;
    row.mode = "cache";
    row.threads = 1;
    row.serial_ms = miss_ms;
    row.mean_ms = hit_ms;
    row.speedup = hit_ms > 0 ? miss_ms / hit_ms : 0;
    row.ops_per_sec = hit_ms > 0 ? 1000.0 / hit_ms : 0;
    iql::QueryCache::Stats stats = ds.Stats().cache;
    row.cache_hit_rate = stats.hit_rate();
    row.identical_to_serial = same;
    rows.push_back(row);
    std::printf("%-4s %12.2f %12.4f %9.0fx %10s\n", query.id, miss_ms, hit_ms,
                row.speedup, same ? "YES" : "NO");
  }
  Rule(72);

  const index::InvertedIndex& content = ds.module().content();
  std::printf("postings memory: blocked %s MB <= uncompressed %s MB: %s\n",
              Mb(content.CompressedPostingsBytes()).c_str(),
              Mb(content.UncompressedPostingsBytes()).c_str(),
              content.CompressedPostingsBytes() <=
                      content.UncompressedPostingsBytes()
                  ? "YES"
                  : "NO");

  iql::QueryCache::Stats stats = ds.Stats().cache;
  std::printf("cache: %zu hits / %zu misses (hit rate %.2f), %zu entries, "
              "%zu bytes\n",
              stats.hits, stats.misses, stats.hit_rate(), stats.entries,
              stats.bytes);
  std::printf("all configurations identical to serial: %s\n",
              all_identical ? "YES" : "NO");

  WriteParallelJson(
      "BENCH_parallel.json",
      MetaFor("parallel_scaling", workload::DataspaceSpec::PaperScale()),
      rows);
  return all_identical ? 0 : 1;
}
