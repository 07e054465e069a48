// Reference-oracle tests for the query engine (DESIGN.md §16).
//
// Contract under test: the bytecode VM answers every query exactly like
// the deliberately naive ReferenceEvaluator (reference_eval.h) — columns,
// rows (order included) and tf-idf scores (bitwise) — over the Table 4
// analog catalog, extra operator shapes and a seeded random query
// generator over the workload vocabulary (the fuzz corpus), at thread
// counts 1/2/4/8, and with descendant steps forced forward or backward.
// MatchesDoc, the subscription fast path, is checked view by view against
// the oracle's result sets. At threads = 1 the governed step schedule,
// expansion work and probe counts are pinned by goldens and every §10
// degraded result must be a prefix of the complete one.
//
// The suite also pins the Prepare/Explain handle API: golden Explain()
// listings for the Table 4 shapes, plan-keyed result-cache sharing across
// reordered conjuncts (the §16 cache-key fix), and the PreparedQuery
// lifecycle.

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "iql/dataspace.h"
#include "iql/parser.h"
#include "iql/plan.h"
#include "iql/prepared_query.h"
#include "iql/query_processor.h"
#include "reference_eval.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace idm::iql {
namespace {

/// The Table 4 analog queries (same strings as bench/harness.cc and
/// loadgen's QueryCatalog).
const std::vector<std::string>& Table4Queries() {
  static const std::vector<std::string> kQueries = {
      "\"database\"",
      "\"database tuning\"",
      "[size > 420000 and lastmodified < @12.06.2005]",
      "//papers//*Vision/*[\"Franklin\"]",
      "//VLDB200?//?onclusion*/*[\"systems\"]",
      "union( //VLDB2005//*[\"documents\"], //VLDB2006//*[\"documents\"])",
      "join( //VLDB2006//*[class=\"texref\"] as A, "
      "//VLDB2006//*[class=\"environment\"]//figure* as B, "
      "A.name=B.tuple.label)",
      "join ( //*[class = \"emailmessage\"]//*.tex as A, "
      "//papers//*.tex as B, A.name = B.name )",
  };
  return kQueries;
}

/// Extra shapes that reach operators the Table 4 mix misses.
const std::vector<std::string>& ExtraQueries() {
  static const std::vector<std::string> kQueries = {
      "\"systems\"",
      "//papers//*.tex",
      "//*[class=\"latex_section\"]",
      "[size > 1000 and size < 40000]",
      "//*[name=\"*.tex\" and not \"Franklin\"]",
      "//*[\"database\" or \"systems\"]",
      "//*[\"database\" and \"tuning\" and \"systems\"]",
      "intersect(\"database\", \"systems\")",
      "except(\"database\", \"tuning\")",
      "intersect(//papers//*, union(\"database\", \"systems\"))",
      "//INBOX//*",
      "/*",
      "/*//*.tex",
      // Descendant steps whose descendant set is larger than the name set
      // (every email's subtree, every paper) and smaller (one folder).
      "//*[class=\"emailmessage\"]//*",
      "//papers//*",
      "//VLDB2006//*",
      // A ranked multi-phrase filter with tied scores.
      "\"database\" or \"tuning\"",
  };
  return kQueries;
}

// --- seeded random query generator (the fuzz grammar) ----------------------
// Vocabulary drawn from the workload generator's corpus so predicates hit
// real postings, names, classes, and attributes.

std::string RandomWord(Rng* rng) {
  static const char* kWords[] = {"database", "systems",   "tuning",
                                 "indexing", "documents", "Franklin",
                                 "vision",   "query",     "processing"};
  return kWords[rng->Uniform(sizeof(kWords) / sizeof(kWords[0]))];
}

std::string RandomPhrase(Rng* rng) {
  std::string out = RandomWord(rng);
  if (rng->Uniform(3) == 0) out += " " + RandomWord(rng);
  return "\"" + out + "\"";
}

std::string RandomName(Rng* rng) {
  static const char* kNames[] = {"*",         "papers",   "*.tex",
                                 "VLDB200?",  "figure*",  "INBOX",
                                 "*Vision",   "?onclusion*"};
  return kNames[rng->Uniform(sizeof(kNames) / sizeof(kNames[0]))];
}

std::string RandomClass(Rng* rng) {
  static const char* kClasses[] = {"latex_section", "emailmessage", "texref",
                                   "environment", "file"};
  return kClasses[rng->Uniform(sizeof(kClasses) / sizeof(kClasses[0]))];
}

std::string RandomPred(Rng* rng, int depth) {
  switch (rng->Uniform(depth >= 2 ? 5 : 7)) {
    case 0:
      return RandomPhrase(rng);
    case 1:
      return "size > " + std::to_string(100 + rng->Uniform(50000));
    case 2:
      return "class=\"" + RandomClass(rng) + "\"";
    case 3:
      return "name=\"" + RandomName(rng) + "\"";
    case 4:
      return "lastmodified < @12.06.2005";
    case 5: {
      const char* op = rng->Uniform(2) == 0 ? " and " : " or ";
      std::string out = RandomPred(rng, depth + 1);
      size_t n = 1 + rng->Uniform(2);
      for (size_t i = 0; i < n; ++i) out += op + RandomPred(rng, depth + 1);
      return out;
    }
    default:
      return "not " + RandomPred(rng, depth + 1);
  }
}

std::string RandomPath(Rng* rng) {
  std::string out;
  size_t steps = 1 + rng->Uniform(3);
  for (size_t i = 0; i < steps; ++i) {
    out += (i == 0 || rng->Uniform(2) == 0) ? "//" : "/";
    out += RandomName(rng);
    if (rng->Uniform(3) == 0) out += "[" + RandomPred(rng, 1) + "]";
  }
  return out;
}

std::string RandomQuery(Rng* rng, int depth) {
  switch (rng->Uniform(depth >= 1 ? 2 : 4)) {
    case 0:
      return "[" + RandomPred(rng, 0) + "]";
    case 1:
      return RandomPath(rng);
    case 2: {
      static const char* kOps[] = {"union", "intersect", "except"};
      return std::string(kOps[rng->Uniform(3)]) + "(" +
             RandomQuery(rng, depth + 1) + ", " + RandomQuery(rng, depth + 1) +
             ")";
    }
    default:
      return "join(" + RandomPath(rng) + " as A, " + RandomPath(rng) +
             " as B, A.name=B.name)";
  }
}

/// The fuzz corpus: a fixed seeded draw from the generator above.
const std::vector<std::string>& FuzzCorpus() {
  static const std::vector<std::string> kCorpus = [] {
    std::vector<std::string> corpus;
    Rng rng(0xC0FFEE);
    for (int i = 0; i < 300; ++i) corpus.push_back(RandomQuery(&rng, 0));
    return corpus;
  }();
  return kCorpus;
}

// ---------------------------------------------------------------------------

class VmDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new Dataspace();
    workload::BuiltDataspace built =
        workload::Generate(workload::DataspaceSpec::Small(), ds_->clock());
    built_ = new workload::BuiltDataspace(std::move(built));
    ASSERT_TRUE(ds_->AddFileSystem("Filesystem", built_->fs).ok());
    ASSERT_TRUE(ds_->AddImap("Email / IMAP", built_->imap).ok());
  }

  static void TearDownTestSuite() {
    delete built_;
    built_ = nullptr;
    delete ds_;
    ds_ = nullptr;
  }

  static std::unique_ptr<QueryProcessor> MakeProcessor(
      Dataspace& ds, size_t threads,
      QueryProcessor::Expansion expansion = QueryProcessor::Expansion::kAuto) {
    QueryProcessor::Options options;
    options.threads = threads;
    options.expansion = expansion;
    // Force chunked scans onto the pool even at Small scale.
    options.min_parallel_chunk = threads > 1 ? 8 : 256;
    return std::make_unique<QueryProcessor>(&ds.module(), &ds.classes(),
                                            ds.clock(), options);
  }
  static std::unique_ptr<QueryProcessor> MakeProcessor(size_t threads) {
    return MakeProcessor(*ds_, threads);
  }

  static ReferenceEvaluator Reference(Dataspace& ds) {
    return ReferenceEvaluator(&ds.module(), &ds.classes(), ds.clock());
  }

  /// The VM's answer must be the oracle's: same success, same error text,
  /// and for results the same columns, rows (order included) and scores
  /// (bitwise: same accumulation order).
  static void ExpectMatchesReference(const Result<QueryResult>& expected,
                                     const Result<QueryResult>& vm,
                                     const std::string& query,
                                     size_t threads) {
    SCOPED_TRACE("query=" + query + " threads=" + std::to_string(threads));
    ASSERT_EQ(expected.ok(), vm.ok())
        << (vm.ok() ? expected.status() : vm.status()).ToString();
    if (!expected.ok()) {
      EXPECT_EQ(expected.status().ToString(), vm.status().ToString());
      return;
    }
    EXPECT_EQ(expected->columns, vm->columns);
    EXPECT_EQ(expected->rows, vm->rows);
    EXPECT_EQ(expected->scores, vm->scores);
  }

  static Dataspace* ds_;
  static workload::BuiltDataspace* built_;
};

Dataspace* VmDifferentialTest::ds_ = nullptr;
workload::BuiltDataspace* VmDifferentialTest::built_ = nullptr;

// --- reference oracle -------------------------------------------------------

TEST_F(VmDifferentialTest, VmMatchesReferenceOnCatalogAllThreadCounts) {
  ReferenceEvaluator reference = Reference(*ds_);
  std::vector<std::string> queries = Table4Queries();
  queries.insert(queries.end(), ExtraQueries().begin(), ExtraQueries().end());
  std::vector<Result<QueryResult>> expected;
  for (const std::string& text : queries) {
    Result<Query> query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text;
    expected.push_back(reference.Evaluate(*query));
    ASSERT_TRUE(expected.back().ok()) << text;
  }
  std::vector<QueryResult> serial;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::unique_ptr<QueryProcessor> vm = MakeProcessor(threads);
    for (size_t i = 0; i < queries.size(); ++i) {
      Result<QueryResult> got = vm->Execute(queries[i]);
      ExpectMatchesReference(expected[i], got, queries[i], threads);
      if (!got.ok()) continue;
      // Diagnostics are the engine's own; the pool must not move them.
      if (threads == 1) {
        serial.push_back(*got);
        continue;
      }
      SCOPED_TRACE("query=" + queries[i] + " threads=" +
                   std::to_string(threads));
      EXPECT_EQ(got->plan, serial[i].plan);  // includes the rules ledger
      EXPECT_EQ(got->expanded_views, serial[i].expanded_views);
      EXPECT_EQ(got->probes.name_lookups, serial[i].probes.name_lookups);
      EXPECT_EQ(got->probes.content_phrases, serial[i].probes.content_phrases);
      EXPECT_EQ(got->probes.tuple_scans, serial[i].probes.tuple_scans);
      EXPECT_EQ(got->probes.graph_walks, serial[i].probes.graph_walks);
    }
    EXPECT_EQ(vm->engine_stats().vm_runs, queries.size());
    EXPECT_EQ(vm->engine_stats().plans, queries.size());
  }
  // Every Table 4 analog but Q3 (its size bound is above every Small
  // file) answers something, so the comparison is not vacuous.
  for (size_t i = 0; i < Table4Queries().size(); ++i) {
    EXPECT_EQ(expected[i]->rows.empty(), i == 2) << queries[i];
  }
}

TEST_F(VmDifferentialTest, ForcedExpansionDirectionsMatchReference) {
  // Descendant steps answer the same whichever way they walk: down from
  // the frontier, or up from each candidate.
  ReferenceEvaluator reference = Reference(*ds_);
  std::vector<std::string> queries = Table4Queries();
  queries.insert(queries.end(), ExtraQueries().begin(), ExtraQueries().end());
  for (auto expansion : {QueryProcessor::Expansion::kForward,
                         QueryProcessor::Expansion::kBackward}) {
    for (size_t threads : {1u, 4u}) {
      std::unique_ptr<QueryProcessor> vm =
          MakeProcessor(*ds_, threads, expansion);
      for (const std::string& text : queries) {
        Result<Query> query = ParseQuery(text);
        ASSERT_TRUE(query.ok()) << text;
        ExpectMatchesReference(reference.Evaluate(*query),
                               vm->Evaluate(*query), text, threads);
      }
    }
  }
}

TEST_F(VmDifferentialTest, FuzzGeneratedQueriesAgree) {
  ReferenceEvaluator reference = Reference(*ds_);
  std::vector<Query> parsed;
  std::vector<std::string> texts;
  for (const std::string& text : FuzzCorpus()) {
    Result<Query> query = ParseQuery(text);
    if (!query.ok()) continue;  // generator can overrun parser limits
    parsed.push_back(std::move(*query));
    texts.push_back(text);
  }
  ASSERT_GT(parsed.size(), 200u);  // the grammar must mostly parse
  std::vector<Result<QueryResult>> expected;
  size_t nonempty = 0;
  for (const Query& query : parsed) {
    expected.push_back(reference.Evaluate(query));
    if (expected.back().ok() && !expected.back()->rows.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, parsed.size() / 4);  // most draws are not vacuous
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::unique_ptr<QueryProcessor> vm = MakeProcessor(threads);
    for (size_t i = 0; i < parsed.size(); ++i) {
      ExpectMatchesReference(expected[i], vm->Evaluate(parsed[i]), texts[i],
                             threads);
    }
  }
}

TEST_F(VmDifferentialTest, MatchesDocAgreesWithReference) {
  // A private Small dataspace with a deleted subtree, so dead ids are in
  // the catalog next to the live ones.
  Dataspace local;
  workload::BuiltDataspace built =
      workload::Generate(workload::DataspaceSpec::Small(), local.clock());
  ASSERT_TRUE(local.AddFileSystem("Filesystem", built.fs).ok());
  ASSERT_TRUE(local.AddImap("Email / IMAP", built.imap).ok());
  auto update = local.ExecuteUpdate("delete //papers//*.tex");
  ASSERT_TRUE(update.ok()) << update.status();
  ASSERT_GT(update->deleted, 0u);

  const index::Catalog& catalog = local.module().catalog();
  std::vector<index::DocId> ids;
  std::optional<index::DocId> deleted;
  for (index::DocId id = 0; id < catalog.total_count(); ++id) {
    if (!catalog.Entry(id)->deleted) {
      ids.push_back(id);
    } else if (!deleted.has_value()) {
      deleted = id;
    }
  }
  ASSERT_TRUE(deleted.has_value());
  ids.push_back(*deleted);
  ids.push_back(catalog.total_count() + 17);  // never registered

  std::vector<std::string> texts = Table4Queries();
  texts.insert(texts.end(), ExtraQueries().begin(), ExtraQueries().end());
  texts.insert(texts.end(), FuzzCorpus().begin(), FuzzCorpus().end());
  ReferenceEvaluator reference = Reference(local);
  std::vector<Query> shapes;
  std::vector<std::set<index::DocId>> members;
  for (const std::string& text : texts) {
    Result<Query> query = ParseQuery(text);
    if (!query.ok() || !QueryProcessor::SupportsMatchesDoc(*query)) continue;
    Result<std::set<index::DocId>> expected = reference.Members(*query);
    ASSERT_TRUE(expected.ok()) << text;
    members.push_back(std::move(*expected));
    shapes.push_back(std::move(*query));
  }
  ASSERT_GT(shapes.size(), 50u);
  for (size_t threads : {1u, 4u}) {
    std::unique_ptr<QueryProcessor> vm = MakeProcessor(local, threads);
    for (size_t s = 0; s < shapes.size(); ++s) {
      SCOPED_TRACE("shape=" + ToString(shapes[s]) +
                   " threads=" + std::to_string(threads));
      // The full evaluation agrees with the oracle on the mutated catalog.
      Result<QueryResult> full = vm->Evaluate(shapes[s]);
      ASSERT_TRUE(full.ok());
      std::set<index::DocId> rows;
      for (const auto& row : full->rows) rows.insert(row[0]);
      EXPECT_EQ(rows, members[s]);
      Result<QueryProcessor::MatchPlan> plan = vm->PlanMatch(shapes[s]);
      ASSERT_TRUE(plan.ok()) << plan.status();
      for (index::DocId id : ids) {
        Result<bool> hit = vm->MatchesDoc(*plan, id);
        ASSERT_TRUE(hit.ok()) << hit.status();
        EXPECT_EQ(*hit, members[s].count(id) > 0) << "id=" << id;
      }
    }
  }
  // Unsupported shapes are refused, not guessed.
  Result<Query> ranked = ParseQuery("\"database\"");
  ASSERT_TRUE(ranked.ok());
  EXPECT_FALSE(MakeProcessor(local, 1)->PlanMatch(*ranked).ok());
}

TEST_F(VmDifferentialTest, GovernedStepBudgetsKeepGoldenSchedule) {
  // At threads = 1 governed evaluation is deterministic: the steps a
  // complete governed run counts are pinned per Table 4 query, and every
  // budgeted run degrades to a prefix of the complete result (§10) —
  // the empty one for ranked queries, whose order is not a
  // materialization order.
  const std::vector<uint64_t> kCompleteSteps = {10,  8,    0,    436,
                                                85,  2068, 2272, 1741};
  const std::vector<bool> kRanked = {true,  true,  false, false,
                                     false, false, false, false};
  // The complete run's expansion work and probe counts
  // {name, content, tuple, graph}, governed or not.
  const std::vector<size_t> kExpanded = {0, 0, 0, 425, 54, 52, 127, 651};
  const std::vector<std::vector<uint64_t>> kProbes = {
      {0, 1, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {2, 1, 0, 1},
      {2, 1, 0, 1}, {2, 2, 0, 2}, {3, 0, 0, 3}, {3, 0, 0, 2}};
  std::unique_ptr<QueryProcessor> vm = MakeProcessor(1);
  ASSERT_EQ(kCompleteSteps.size(), Table4Queries().size());
  for (size_t q = 0; q < Table4Queries().size(); ++q) {
    const std::string& query = Table4Queries()[q];
    SCOPED_TRACE("Q" + std::to_string(q + 1) + " " + query);
    Result<QueryResult> plain = vm->Execute(query);
    util::ExecContext unlimited(ds_->clock(), util::ExecContext::Limits());
    Result<QueryResult> complete = vm->Execute(query, &unlimited);
    ASSERT_TRUE(plain.ok() && complete.ok());
    ASSERT_TRUE(complete->meta.complete);
    EXPECT_EQ(complete->meta.steps_used, kCompleteSteps[q]);
    EXPECT_EQ(complete->rows, plain->rows);
    EXPECT_EQ(complete->scores, plain->scores);
    EXPECT_EQ(complete->ranked(), kRanked[q]);
    for (const QueryResult* run : {&*plain, &*complete}) {
      EXPECT_EQ(run->expanded_views, kExpanded[q]);
      EXPECT_EQ(run->probes.name_lookups, kProbes[q][0]);
      EXPECT_EQ(run->probes.content_phrases, kProbes[q][1]);
      EXPECT_EQ(run->probes.tuple_scans, kProbes[q][2]);
      EXPECT_EQ(run->probes.graph_walks, kProbes[q][3]);
    }
    for (uint64_t budget : {1u, 7u, 33u, 250u, 5000u}) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      util::ExecContext::Limits limits;
      limits.max_steps = budget;
      util::ExecContext ctx(ds_->clock(), limits);
      Result<QueryResult> run = vm->Execute(query, &ctx);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->meta.complete, budget >= kCompleteSteps[q]);
      if (run->meta.complete) {
        EXPECT_EQ(run->rows, complete->rows);
        EXPECT_EQ(run->scores, complete->scores);
        EXPECT_EQ(run->meta.steps_used, kCompleteSteps[q]);
        continue;
      }
      ASSERT_LE(run->rows.size(), complete->rows.size());
      EXPECT_TRUE(std::equal(run->rows.begin(), run->rows.end(),
                             complete->rows.begin()));
      if (kRanked[q]) {
        EXPECT_TRUE(run->rows.empty());
        EXPECT_TRUE(run->scores.empty());
      }
    }
  }
}

// --- block-compressed postings ---------------------------------------------

TEST_F(VmDifferentialTest, BlockedPostingsMatchGovernedScans) {
  const index::InvertedIndex& content = ds_->module().content();
  for (const char* term : {"database", "systems", "tuning", "nosuchterm"}) {
    SCOPED_TRACE(term);
    EXPECT_EQ(content.TermDocs(term), content.TermQuery(term));
  }
  EXPECT_EQ(content.AndDocs({"database", "tuning"}),
            content.AndQuery({"database", "tuning"}));
  EXPECT_EQ(content.AndDocs({"database", "systems", "tuning"}),
            content.AndQuery({"database", "systems", "tuning"}));
  for (const char* phrase :
       {"database tuning", "database systems", "the", "no such phrase here"}) {
    SCOPED_TRACE(phrase);
    EXPECT_EQ(content.PhraseDocs(phrase), content.PhraseQuery(phrase));
  }
  for (const char* term : {"database", "systems", "nosuchterm"}) {
    SCOPED_TRACE(term);
    EXPECT_EQ(content.TermTfDocs(term), content.TermQueryWithTf(term));
  }
  index::InvertedIndex::BlockStats stats = content.block_stats();
  EXPECT_GT(stats.built_lists, 0u);
  // The acceptance bound: block-accelerated postings must not cost more
  // memory than the uncompressed (docid + position arrays) baseline.
  EXPECT_LE(content.CompressedPostingsBytes(),
            content.UncompressedPostingsBytes());
}

// --- plan-keyed result cache (the §16 cache-key fix) -----------------------

TEST_F(VmDifferentialTest, ReorderedConjunctsShareOneCacheEntry) {
  // Two spellings of the Table 4 Q3 analog: same conjunction, reordered.
  const std::string spelling_a =
      "[size > 420001 and lastmodified < @12.06.2005]";
  const std::string spelling_b =
      "[lastmodified < @12.06.2005 and size > 420001]";
  QueryCache::Stats before = ds_->Stats().cache;
  Result<QueryResult> a = ds_->Query(spelling_a);
  Result<QueryResult> b = ds_->Query(spelling_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows, b->rows);
  QueryCache::Stats after = ds_->Stats().cache;
  EXPECT_EQ(after.misses, before.misses + 1);  // only the first evaluated
  EXPECT_EQ(after.hits, before.hits + 1);      // the reordering hit
  EXPECT_EQ(b->elapsed_micros, 0);             // served from cache
}

TEST_F(VmDifferentialTest, ReorderedSetOpArmsShareOneCacheEntry) {
  const std::string spelling_a =
      "union(//VLDB2005//*[\"documents\"], //VLDB2006//*[\"documents\"])";
  const std::string spelling_b =
      "union(//VLDB2006//*[\"documents\"], //VLDB2005//*[\"documents\"])";
  QueryCache::Stats before = ds_->Stats().cache;
  Result<QueryResult> a = ds_->Query(spelling_a);
  Result<QueryResult> b = ds_->Query(spelling_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows, b->rows);
  QueryCache::Stats after = ds_->Stats().cache;
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST_F(VmDifferentialTest, CanonicalKeysDistinguishNonEquivalentQueries) {
  auto key = [](const std::string& text) {
    Result<Query> query = ParseQuery(text);
    EXPECT_TRUE(query.ok()) << text;
    return CanonicalQueryKey(*query);
  };
  // Commutative reorderings collapse...
  EXPECT_EQ(key("[\"database\" and \"tuning\"]"),
            key("[\"tuning\" and \"database\"]"));
  EXPECT_EQ(key("intersect(\"a b\", \"c\")"), key("intersect(\"c\", \"a b\")"));
  // ...but except arms beyond the first, and join input order, must not.
  EXPECT_NE(key("except(\"database\", \"tuning\")"),
            key("except(\"tuning\", \"database\")"));
  EXPECT_NE(key("[\"database\" or \"tuning\"]"),
            key("[\"database\" and \"tuning\"]"));
}

// --- PreparedQuery lifecycle -----------------------------------------------

TEST_F(VmDifferentialTest, PreparedQueryExecutesLikeQuery) {
  Result<PreparedQuery> prepared = ds_->Prepare("//papers//*.tex");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->valid());
  Result<QueryResult> via_handle = prepared->Execute();
  Result<QueryResult> via_text = ds_->Query("//papers//*.tex");
  ASSERT_TRUE(via_handle.ok() && via_text.ok());
  EXPECT_EQ(via_handle->rows, via_text->rows);
  EXPECT_EQ(prepared->fingerprint(), Fingerprint64(prepared->cache_key()));
  EXPECT_EQ(prepared->normalized(), "//papers//*.tex");
  // Prepared and ad-hoc executions share cache entries (plan-keyed).
  QueryCache::Stats before = ds_->Stats().cache;
  ASSERT_TRUE(prepared->Execute().ok());
  EXPECT_EQ(ds_->Stats().cache.hits, before.hits + 1);
  // The footprint names what the query reads (scoped: name patterns).
  sub::Footprint footprint = prepared->Footprint();
  EXPECT_TRUE(footprint.scoped());
  EXPECT_FALSE(footprint.patterns.empty());
}

TEST_F(VmDifferentialTest, PreparedQueryRejectsMisuse) {
  PreparedQuery empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.Execute().ok());
  EXPECT_FALSE(ds_->Execute(empty).ok());
  // A handle from one dataspace cannot execute against another.
  Dataspace other;
  Result<PreparedQuery> prepared = other.Prepare("\"database\"");
  ASSERT_TRUE(prepared.ok());
  Result<QueryResult> cross = ds_->Execute(*prepared);
  EXPECT_FALSE(cross.ok());
  // Parse errors surface at Prepare, not Execute.
  EXPECT_FALSE(ds_->Prepare("union(").ok());
}

TEST_F(VmDifferentialTest, SubscribeAcceptsPreparedQuery) {
  Dataspace local;
  Result<PreparedQuery> prepared = local.Prepare("\"database\"");
  ASSERT_TRUE(prepared.ok());
  auto subscription = local.Subscribe(*prepared);
  ASSERT_TRUE(subscription.ok());
  EXPECT_TRUE(local.Unsubscribe((*subscription)->id()));
}

// --- Explain goldens --------------------------------------------------------

// Golden Explain() listings for every Table 4 shape. The dataspace
// processor is serial (threads = 1), so the plan shape — and the FNV-1a
// fingerprint of the canonical key — is stable across platforms. Goldens
// index into Table4Queries() by position.
TEST_F(VmDifferentialTest, ExplainGoldensForTable4Shapes) {
  const std::vector<std::string> kGoldens = {
      // Q1: ranked keyword.
      R"(query: "database"
key: filter:"database"
fingerprint: 0x6f7df765cda280be
program: filter regs=2 ranked
  0: r0 = live
  1: r1 = phrase "database" & r0
  2: materialize r1 governed
  3: rank-or-clear
)",
      // Q2: ranked phrase.
      R"(query: "database tuning"
key: filter:"database tuning"
fingerprint: 0x83b36aafeff805d9
program: filter regs=2 ranked
  0: r0 = live
  1: r1 = phrase "database tuning" & r0
  2: materialize r1 governed
  3: rank-or-clear
)",
      // Q3: attribute conjunction — note the canonical key sorts the
      // conjuncts, and the program short-circuits via if-empty.
      R"(query: (size > 420000 and lastmodified < @12.06.2005)
key: filter:and(lastmodified < @12.06.2005, size > 420000)
fingerprint: 0xc0a6c0eff7924f5f
program: filter regs=4
  0: r0 = live
  1: r1 = r0
  2: r2 = tuple-scan size > 420000 & r1
  3: r1 = r2
  4: if-empty r1 goto 7
  5: r3 = tuple-scan lastmodified < 12/06/2005 00:00 & r1
  6: r1 = r3
  7: materialize r1 governed
)",
      // Q4: path with descendant, child step, and phrase predicate.
      R"(query: //papers//*Vision/*["Franklin"]
key: path://papers//*Vision/*["Franklin"]
fingerprint: 0x9b4cd29a39c5c62b
program: path regs=5
  0: r1 = name-match "papers"
  1: r0 = r1
  2: if-empty r0 goto 10
  3: r2 = name-match "*Vision"
  4: r0 = expand frontier=r0 names=r2
  5: if-empty r0 goto 10
  6: r3 = name-match "*"
  7: r0 = step-child frontier=r0 names=r3
  8: r4 = phrase "Franklin" & r0
  9: r0 = r4
  10: materialize r0 governed
)",
      // Q5: wildcard-heavy path.
      R"(query: //VLDB200?//?onclusion*/*["systems"]
key: path://VLDB200?//?onclusion*/*["systems"]
fingerprint: 0x9fe03a5213cef88f
program: path regs=5
  0: r1 = name-match "VLDB200?"
  1: r0 = r1
  2: if-empty r0 goto 10
  3: r2 = name-match "?onclusion*"
  4: r0 = expand frontier=r0 names=r2
  5: if-empty r0 goto 10
  6: r3 = name-match "*"
  7: r0 = step-child frontier=r0 names=r3
  8: r4 = phrase "systems" & r0
  9: r0 = r4
  10: materialize r0 governed
)",
      // Q6: union of two paths (sub-programs).
      R"(query: union(//VLDB2005//*["documents"], //VLDB2006//*["documents"])
key: union(path://VLDB2005//*["documents"], path://VLDB2006//*["documents"])
fingerprint: 0x11b6b046055cff7e
program: union regs=1
  0: r0 = union subs[0..2)
  1: materialize r0 governed
  sub[0]: path regs=4
    0: r1 = name-match "VLDB2005"
    1: r0 = r1
    2: if-empty r0 goto 7
    3: r2 = name-match "*"
    4: r0 = expand frontier=r0 names=r2
    5: r3 = phrase "documents" & r0
    6: r0 = r3
    7: materialize r0
  sub[1]: path regs=4
    0: r1 = name-match "VLDB2006"
    1: r0 = r1
    2: if-empty r0 goto 7
    3: r2 = name-match "*"
    4: r0 = expand frontier=r0 names=r2
    5: r3 = phrase "documents" & r0
    6: r0 = r3
    7: materialize r0
)",
      // Q7: join on name = tuple attribute.
      R"(query: join(//VLDB2006//*[class="texref"] as A, //VLDB2006//*[class="environment"]//figure* as B, A.name=B.tuple.label)
key: join(path://VLDB2006//*[class="texref"] as A, path://VLDB2006//*[class="environment"]//figure* as B, A.name=B.tuple.label)
fingerprint: 0xfff64da5b60b56cb
program: join regs=0
  0: hash-join A.name = B.tuple.label
  left (A): path regs=4
    0: r1 = name-match "VLDB2006"
    1: r0 = r1
    2: if-empty r0 goto 7
    3: r2 = name-match "*"
    4: r0 = expand frontier=r0 names=r2
    5: r3 = class-filter "texref" over r0
    6: r0 = r3
    7: materialize r0
  right (B): path regs=5
    0: r1 = name-match "VLDB2006"
    1: r0 = r1
    2: if-empty r0 goto 10
    3: r2 = name-match "*"
    4: r0 = expand frontier=r0 names=r2
    5: r3 = class-filter "environment" over r0
    6: r0 = r3
    7: if-empty r0 goto 10
    8: r4 = name-match "figure*"
    9: r0 = expand frontier=r0 names=r4
    10: materialize r0
)",
      // Q8: join on name = name.
      R"(query: join(//*[class="emailmessage"]//*.tex as A, //papers//*.tex as B, A.name=B.name)
key: join(path://*[class="emailmessage"]//*.tex as A, path://papers//*.tex as B, A.name=B.name)
fingerprint: 0xdb81c60c67b22b16
program: join regs=0
  0: hash-join A.name = B.name
  left (A): path regs=4
    0: r1 = name-match "*"
    1: r0 = r1
    2: r2 = class-filter "emailmessage" over r0
    3: r0 = r2
    4: if-empty r0 goto 7
    5: r3 = name-match "*.tex"
    6: r0 = expand frontier=r0 names=r3
    7: materialize r0
  right (B): path regs=3
    0: r1 = name-match "papers"
    1: r0 = r1
    2: if-empty r0 goto 5
    3: r2 = name-match "*.tex"
    4: r0 = expand frontier=r0 names=r2
    5: materialize r0
)",
  };
  ASSERT_EQ(kGoldens.size(), Table4Queries().size());
  for (size_t i = 0; i < kGoldens.size(); ++i) {
    SCOPED_TRACE("Q" + std::to_string(i + 1));
    Result<PreparedQuery> prepared = ds_->Prepare(Table4Queries()[i]);
    ASSERT_TRUE(prepared.ok());
    EXPECT_EQ(prepared->Explain(), kGoldens[i]);
  }
}

}  // namespace
}  // namespace idm::iql
