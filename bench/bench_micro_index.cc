// Microbenchmarks of the index substrate (google-benchmark): inverted
// index build/lookup, tuple-index range scans, name-index wildcard lookups,
// group-store reachability. These are the primitives behind Fig. 5/6.
//
// After the google-benchmark tables, main() measures the engine axis —
// merge-based postings scans (the governed VM's primitive) vs the
// block-compressed decoders (the ungoverned VM's, DESIGN.md §16) — at 10x the micro
// scale and writes the rows to BENCH_micro_parallel.json in the
// BENCH_parallel.json row schema.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>

#include "bench/harness.h"
#include "core/view_class.h"
#include "index/catalog.h"
#include "index/group_store.h"
#include "index/inverted_index.h"
#include "index/name_index.h"
#include "index/tuple_index.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace idm;
using index::DocId;

std::vector<std::string> MakeDocs(size_t n, size_t words) {
  Rng rng(99);
  workload::TextGenerator text(&rng);
  std::vector<std::string> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; ++i) docs.push_back(text.Words(words));
  return docs;
}

void BM_InvertedIndexAdd(benchmark::State& state) {
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), 120);
  for (auto _ : state) {
    index::InvertedIndex idx;
    for (DocId id = 0; id < docs.size(); ++id) idx.AddDocument(id, docs[id]);
    benchmark::DoNotOptimize(idx.term_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InvertedIndexAdd)->Arg(100)->Arg(1000)->Arg(4000);

void BM_InvertedIndexPhrase(benchmark::State& state) {
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), 120);
  index::InvertedIndex idx;
  for (DocId id = 0; id < docs.size(); ++id) idx.AddDocument(id, docs[id]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.PhraseQuery("the data"));
  }
}
BENCHMARK(BM_InvertedIndexPhrase)->Arg(1000)->Arg(10000);

void BM_InvertedIndexTerm(benchmark::State& state) {
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), 120);
  index::InvertedIndex idx;
  for (DocId id = 0; id < docs.size(); ++id) idx.AddDocument(id, docs[id]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.TermQuery("database"));
  }
}
BENCHMARK(BM_InvertedIndexTerm)->Arg(1000)->Arg(10000);

/// A long document (~2,900 words, the size of a large desktop text file)
/// indexed in the middle of \p n generated 120-word documents: the shape
/// of an edit or delete that rewrites one view's postings in lists that
/// already hold later documents.
struct MidDocIndex {
  index::InvertedIndex idx;
  DocId mid = 0;
  std::string texts[2];
};

MidDocIndex MakeMidDocIndex(size_t n) {
  MidDocIndex out;
  auto docs = MakeDocs(n, 120);
  Rng rng(5);
  workload::TextGenerator text(&rng);
  out.texts[0] = text.Words(2900);
  out.texts[1] = text.Words(2900);
  out.mid = n / 2;
  for (DocId id = 0; id < docs.size(); ++id) {
    out.idx.AddDocument(id, id == out.mid ? out.texts[0] : docs[id]);
  }
  return out;
}

/// Re-indexing the long document: alternates two texts, so each pass
/// replaces shared terms' records and removes/inserts the others.
void BM_InvertedIndexReAdd(benchmark::State& state) {
  MidDocIndex fixture = MakeMidDocIndex(static_cast<size_t>(state.range(0)));
  size_t turn = 1;
  for (auto _ : state) {
    fixture.idx.AddDocument(fixture.mid, fixture.texts[turn]);
    turn ^= 1;
  }
  benchmark::DoNotOptimize(fixture.idx.total_tokens());
}
BENCHMARK(BM_InvertedIndexReAdd)->Arg(1000)->Arg(8000);

/// Deleting the long document (re-added untimed between iterations).
void BM_InvertedIndexRemove(benchmark::State& state) {
  MidDocIndex fixture = MakeMidDocIndex(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fixture.idx.RemoveDocument(fixture.mid);
    state.PauseTiming();
    fixture.idx.AddDocument(fixture.mid, fixture.texts[0]);
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(fixture.idx.total_tokens());
}
BENCHMARK(BM_InvertedIndexRemove)->Arg(1000)->Arg(8000);

// Blocked decoders (the VM's primitives) against the same index shapes as
// the merge-based benchmarks above.
void BM_InvertedIndexPhraseBlocked(benchmark::State& state) {
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), 120);
  index::InvertedIndex idx;
  for (DocId id = 0; id < docs.size(); ++id) idx.AddDocument(id, docs[id]);
  benchmark::DoNotOptimize(idx.PhraseDocs("the data"));  // build blocks
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.PhraseDocs("the data"));
  }
}
BENCHMARK(BM_InvertedIndexPhraseBlocked)->Arg(1000)->Arg(10000);

void BM_InvertedIndexTermBlocked(benchmark::State& state) {
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), 120);
  index::InvertedIndex idx;
  for (DocId id = 0; id < docs.size(); ++id) idx.AddDocument(id, docs[id]);
  benchmark::DoNotOptimize(idx.TermDocs("database"));  // build blocks
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.TermDocs("database"));
  }
}
BENCHMARK(BM_InvertedIndexTermBlocked)->Arg(1000)->Arg(10000);

void BM_TupleIndexScan(benchmark::State& state) {
  index::TupleIndex idx;
  Rng rng(7);
  for (DocId id = 0; id < static_cast<DocId>(state.range(0)); ++id) {
    idx.Add(id, core::TupleComponent::MakeUnchecked(
                    core::FileSystemSchema(),
                    {core::Value::Int(rng.UniformRange(0, 1 << 20)),
                     core::Value::Date(rng.UniformRange(0, 1 << 30)),
                     core::Value::Date(rng.UniformRange(0, 1 << 30))}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Scan("size", index::CompareOp::kGt,
                                      core::Value::Int(1 << 19)));
  }
}
BENCHMARK(BM_TupleIndexScan)->Arg(1000)->Arg(100000);

void BM_NameIndexWildcard(benchmark::State& state) {
  index::NameIndex idx;
  Rng rng(13);
  workload::TextGenerator text(&rng);
  for (DocId id = 0; id < static_cast<DocId>(state.range(0)); ++id) {
    idx.Add(id, text.Words(2) + (id % 7 == 0 ? ".tex" : ".txt"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.LookupPattern("*.tex"));
  }
}
BENCHMARK(BM_NameIndexWildcard)->Arg(1000)->Arg(100000);

/// A name index with Table 4's needles among generated names: 1 name in
/// 97 ends in "Vision" (the others in ".tex", 1 in 7, or ".txt"), 1 in 89
/// starts with "Conclusion", 1 in 50 starts with "figure".
index::NameIndex MakeNameIndex(size_t n) {
  index::NameIndex idx;
  Rng rng(13);
  workload::TextGenerator text(&rng);
  for (DocId id = 0; id < static_cast<DocId>(n); ++id) {
    std::string name = text.Words(2);
    if (id % 89 == 0) name = "Conclusion " + name;
    if (id % 50 == 0) name = "figure" + std::to_string(id) + " " + name;
    if (id % 97 == 0) {
      name += " Vision";
    } else {
      name += id % 7 == 0 ? ".tex" : ".txt";
    }
    idx.Add(id, name);
  }
  return idx;
}

/// LookupPattern by pattern shape: suffixes ("*.tex", "*Vision") walk the
/// suffix lexicon, "?onclusion*" and "*vision*" the trigram postings,
/// "figure*" the name map's prefix range. "scan" has no literal of 3 bytes
/// and the same answer as "*.tex": the cost without the accelerator.
void BM_NameIndexPattern(benchmark::State& state, const char* pattern) {
  const index::NameIndex idx = MakeNameIndex(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.LookupPattern(pattern));
  }
}
BENCHMARK_CAPTURE(BM_NameIndexPattern, suffix, "*.tex")->Arg(100000);
BENCHMARK_CAPTURE(BM_NameIndexPattern, suffix_word, "*Vision")->Arg(100000);
BENCHMARK_CAPTURE(BM_NameIndexPattern, infix, "*vision*")->Arg(100000);
BENCHMARK_CAPTURE(BM_NameIndexPattern, qmark_led, "?onclusion*")->Arg(100000);
BENCHMARK_CAPTURE(BM_NameIndexPattern, prefix, "figure*")->Arg(100000);
BENCHMARK_CAPTURE(BM_NameIndexPattern, scan, "*.?ex")->Arg(100000);

void BM_GroupStoreDescendants(benchmark::State& state) {
  // A wide tree: fanout 10, as deep as the node budget allows.
  index::GroupStore store;
  size_t n = static_cast<size_t>(state.range(0));
  for (DocId id = 0; id * 10 + 10 < n; ++id) {
    std::vector<DocId> children;
    for (int c = 1; c <= 10; ++c) children.push_back(id * 10 + c);
    store.SetChildren(id, std::move(children));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Descendants({0}));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GroupStoreDescendants)->Arg(1000)->Arg(100000);

void BM_CatalogRegister(benchmark::State& state) {
  for (auto _ : state) {
    index::Catalog catalog;
    uint32_t src = catalog.InternSource("fs");
    for (int i = 0; i < state.range(0); ++i) {
      catalog.Register("vfs:/folder/file" + std::to_string(i), "file", src,
                       false);
    }
    benchmark::DoNotOptimize(catalog.live_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CatalogRegister)->Arg(1000)->Arg(10000);

/// The live set of a catalog with 1 id in 100 tombstoned: LiveIds() copies
/// it, LiveSnapshot() shares the published vector.
index::Catalog MakeCatalog(size_t n) {
  index::Catalog catalog;
  uint32_t src = catalog.InternSource("fs");
  for (size_t i = 0; i < n; ++i) {
    catalog.Register("vfs:/folder/file" + std::to_string(i), "file", src,
                     false);
  }
  for (DocId id = 0; id < n; id += 100) catalog.Remove(id);
  return catalog;
}

void BM_CatalogLiveIds(benchmark::State& state) {
  const index::Catalog catalog = MakeCatalog(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(catalog.LiveIds());
}
BENCHMARK(BM_CatalogLiveIds)->Arg(100000);

void BM_CatalogLiveSnapshot(benchmark::State& state) {
  const index::Catalog catalog = MakeCatalog(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(catalog.LiveSnapshot());
}
BENCHMARK(BM_CatalogLiveSnapshot)->Arg(100000);

double MsNow() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The engine axis at 10x the micro scale: merge-based scans (governed
// primitive) vs blocked decoders (ungoverned primitive), p50 over repeated runs,
// results verified identical pairwise.
int EmitEngineAxis() {
  constexpr size_t kDocs = 100000;  // 10x the largest google-benchmark arg
  constexpr int kRuns = 9;
  auto docs = MakeDocs(kDocs, 120);
  index::InvertedIndex idx;
  for (DocId id = 0; id < docs.size(); ++id) idx.AddDocument(id, docs[id]);

  struct Scenario {
    const char* name;
    std::function<std::vector<DocId>()> interp;
    std::function<std::vector<DocId>()> vm;
  };
  const std::vector<Scenario> kScenarios = {
      {"term", [&] { return idx.TermQuery("database"); },
       [&] { return idx.TermDocs("database"); }},
      {"and2", [&] { return idx.AndQuery({"database", "data"}); },
       [&] { return idx.AndDocs({"database", "data"}); }},
      {"and3", [&] { return idx.AndQuery({"database", "data", "the"}); },
       [&] { return idx.AndDocs({"database", "data", "the"}); }},
      {"phrase2", [&] { return idx.PhraseQuery("the data"); },
       [&] { return idx.PhraseDocs("the data"); }},
  };

  std::printf("\nEngine axis at %zu docs (p50 of %d runs)\n", kDocs, kRuns);
  bench::Rule(64);
  std::printf("%-8s %14s %14s %10s %6s\n", "", "interp [ms]", "vm [ms]",
              "speedup", "same");
  bench::Rule(64);
  std::vector<bench::ParallelBenchRow> rows;
  bool all_same = true;
  for (const Scenario& scenario : kScenarios) {
    std::vector<DocId> expect = scenario.interp();
    bool same = scenario.vm() == expect;  // also builds the blocks
    all_same = all_same && same;
    double p50s[2];
    const std::function<std::vector<DocId>()>* fns[2] = {&scenario.interp,
                                                         &scenario.vm};
    for (int e = 0; e < 2; ++e) {
      std::vector<double> times;
      for (int run = 0; run < kRuns; ++run) {
        double t0 = MsNow();
        std::vector<DocId> got = (*fns[e])();
        times.push_back(MsNow() - t0);
        same = same && got == expect;
      }
      p50s[e] = bench::Median(times);
    }
    std::printf("%-8s %14.4f %14.4f %9.2fx %6s\n", scenario.name, p50s[0],
                p50s[1], p50s[1] > 0 ? p50s[0] / p50s[1] : 0,
                same ? "YES" : "NO");
    for (int e = 0; e < 2; ++e) {
      bench::ParallelBenchRow row;
      row.name = scenario.name;
      row.mode = "engine";
      row.engine = e == 0 ? "interp" : "vm";
      row.threads = 1;
      row.serial_ms = p50s[0];
      row.mean_ms = p50s[e];
      row.p50_ms = p50s[e];
      row.speedup = p50s[e] > 0 ? p50s[0] / p50s[e] : 0;
      row.ops_per_sec = p50s[e] > 0 ? 1000.0 / p50s[e] : 0;
      row.identical_to_serial = same;
      rows.push_back(row);
    }
  }
  bench::Rule(64);
  std::printf("postings memory: blocked %s MB <= uncompressed %s MB: %s\n",
              bench::Mb(idx.CompressedPostingsBytes()).c_str(),
              bench::Mb(idx.UncompressedPostingsBytes()).c_str(),
              idx.CompressedPostingsBytes() <= idx.UncompressedPostingsBytes()
                  ? "YES"
                  : "NO");

  bench::BenchMeta meta;
  meta.bench = "micro_index";
  meta.seed = 99;
  meta.scale = "10x";
  bench::WriteParallelJson("BENCH_micro_parallel.json", meta, rows);
  return all_same &&
                 idx.CompressedPostingsBytes() <= idx.UncompressedPostingsBytes()
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return EmitEngineAxis();
}
