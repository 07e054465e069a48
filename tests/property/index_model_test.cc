// Property tests: index structures behave identically to naive reference
// models under random operation sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "index/catalog.h"
#include "index/group_store.h"
#include "index/inverted_index.h"
#include "index/name_index.h"
#include "index/tuple_index.h"
#include "index/version_log.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace idm::index {
namespace {

class ModelSweep : public ::testing::TestWithParam<uint64_t> {};

// --- InvertedIndex vs. model -------------------------------------------------

TEST_P(ModelSweep, InvertedIndexMatchesModelUnderChurn) {
  Rng rng(GetParam());
  const char* kWords[] = {"red", "blue", "fox", "dog", "idm", "vldb"};
  InvertedIndex index;
  // doc -> its words in position order.
  std::map<DocId, std::vector<std::string>> model;

  auto random_doc = [&]() {
    std::vector<std::string> words;
    size_t n = 1 + rng.Uniform(8);
    for (size_t i = 0; i < n; ++i) {
      words.push_back(kWords[rng.Uniform(std::size(kWords))]);
    }
    return words;
  };
  auto join = [](const std::vector<std::string>& words) {
    std::string text;
    for (const std::string& word : words) {
      if (!text.empty()) text += ' ';
      text += word;
    }
    return text;
  };

  for (int step = 0; step < 400; ++step) {
    // The id window drifts upward, so appends past the current maximum
    // follow removals of the tail as well as out-of-order splices.
    DocId id = rng.Uniform(40) + static_cast<DocId>(step / 10);
    if (rng.Chance(0.7)) {
      std::vector<std::string> words = random_doc();
      index.AddDocument(id, join(words));
      model[id] = std::move(words);
    } else {
      index.RemoveDocument(id);
      model.erase(id);
    }
    if (step % 20 != 0) continue;
    // Verify every term: doc ids and term frequencies on both read paths.
    for (const char* word : kWords) {
      std::vector<DocId> expected;
      std::vector<std::pair<DocId, uint32_t>> expected_tf;
      for (const auto& [doc_id, words] : model) {
        uint32_t tf = static_cast<uint32_t>(
            std::count(words.begin(), words.end(), word));
        if (tf == 0) continue;
        expected.push_back(doc_id);
        expected_tf.emplace_back(doc_id, tf);
      }
      EXPECT_EQ(index.TermQuery(word), expected) << word << " at step " << step;
      EXPECT_EQ(index.TermQueryWithTf(word), expected_tf)
          << word << " at step " << step;
      EXPECT_EQ(index.TermTfDocs(word), expected_tf)
          << word << " at step " << step;
    }
    // Every two-word phrase, classic and blocked.
    for (const char* first : kWords) {
      for (const char* second : kWords) {
        std::vector<DocId> expected;
        for (const auto& [doc_id, words] : model) {
          for (size_t i = 0; i + 1 < words.size(); ++i) {
            if (words[i] == first && words[i + 1] == second) {
              expected.push_back(doc_id);
              break;
            }
          }
        }
        std::string phrase = std::string(first) + " " + second;
        EXPECT_EQ(index.PhraseQuery(phrase), expected)
            << phrase << " at step " << step;
        EXPECT_EQ(index.PhraseDocs(phrase), expected)
            << phrase << " at step " << step;
      }
    }
    uint64_t tokens = 0;
    for (const auto& [doc_id, words] : model) tokens += words.size();
    EXPECT_EQ(index.total_tokens(), tokens) << "at step " << step;
    EXPECT_EQ(index.doc_count(), model.size());
    // The checkpoint image is a fixed point of Serialize -> Deserialize.
    std::string image = index.Serialize();
    auto restored = InvertedIndex::Deserialize(image);
    ASSERT_TRUE(restored.ok()) << "at step " << step;
    EXPECT_EQ(restored->Serialize(), image) << "at step " << step;
  }
}

TEST_P(ModelSweep, InvertedIndexTfMatchesModel) {
  Rng rng(GetParam());
  InvertedIndex index;
  std::map<DocId, size_t> expected_tf;
  for (DocId id = 0; id < 30; ++id) {
    size_t tf = 1 + rng.Uniform(6);
    std::string doc;
    for (size_t i = 0; i < tf; ++i) doc += "needle ";
    for (size_t i = 0; i < rng.Uniform(5); ++i) doc += "hay ";
    index.AddDocument(id, doc);
    expected_tf[id] = tf;
  }
  auto with_tf = index.TermQueryWithTf("needle");
  ASSERT_EQ(with_tf.size(), expected_tf.size());
  for (const auto& [id, tf] : with_tf) {
    EXPECT_EQ(tf, expected_tf[id]) << id;
  }
  EXPECT_EQ(index.DocumentFrequency("needle"), 30u);
  EXPECT_EQ(index.DocumentFrequency("missing"), 0u);
}

// --- TupleIndex vs. naive scan -----------------------------------------------

TEST_P(ModelSweep, TupleIndexMatchesNaiveScan) {
  Rng rng(GetParam());
  TupleIndex index;
  std::map<DocId, int64_t> model;  // one int attribute "v"
  core::Schema schema = core::Schema().Add("v", core::Domain::kInt);

  for (int step = 0; step < 200; ++step) {
    DocId id = rng.Uniform(50);
    if (rng.Chance(0.75)) {
      int64_t value = rng.UniformRange(-20, 20);
      index.Add(id, core::TupleComponent::MakeUnchecked(
                        schema, {core::Value::Int(value)}));
      model[id] = value;
    } else {
      index.Remove(id);
      model.erase(id);
    }
    if (step % 25 != 0) continue;
    static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                     CompareOp::kLt, CompareOp::kLe,
                                     CompareOp::kGt, CompareOp::kGe};
    for (CompareOp op : kOps) {
      int64_t pivot = rng.UniformRange(-20, 20);
      std::vector<DocId> expected;
      for (const auto& [doc_id, value] : model) {
        bool match = false;
        switch (op) {
          case CompareOp::kEq: match = value == pivot; break;
          case CompareOp::kNe: match = value != pivot; break;
          case CompareOp::kLt: match = value < pivot; break;
          case CompareOp::kLe: match = value <= pivot; break;
          case CompareOp::kGt: match = value > pivot; break;
          case CompareOp::kGe: match = value >= pivot; break;
        }
        if (match) expected.push_back(doc_id);
      }
      EXPECT_EQ(index.Scan("v", op, core::Value::Int(pivot)), expected)
          << "op " << static_cast<int>(op) << " pivot " << pivot;
    }
  }
}

// --- GroupStore invariants -----------------------------------------------------

TEST_P(ModelSweep, GroupStoreParentChildDuality) {
  Rng rng(GetParam());
  GroupStore store;
  for (int step = 0; step < 300; ++step) {
    DocId parent = rng.Uniform(30);
    if (rng.Chance(0.8)) {
      std::vector<DocId> children;
      std::set<DocId> used;
      size_t n = rng.Uniform(6);
      for (size_t i = 0; i < n; ++i) {
        DocId child = rng.Uniform(30);
        if (used.insert(child).second) children.push_back(child);
      }
      store.SetChildren(parent, children);
    } else {
      store.RemoveAllEdgesOf(parent);
    }

    // Invariant: (p -> c) in children iff (c -> p) in parents; edge_count
    // equals the total child-list length.
    size_t edges = 0;
    for (DocId p = 0; p < 30; ++p) {
      for (DocId c : store.Children(p)) {
        auto parents = store.Parents(c);
        EXPECT_TRUE(std::binary_search(parents.begin(), parents.end(), p))
            << p << "->" << c;
        ++edges;
      }
    }
    EXPECT_EQ(store.edge_count(), edges);
    for (DocId c = 0; c < 30; ++c) {
      for (DocId p : store.Parents(c)) {
        const auto& children = store.Children(p);
        EXPECT_NE(std::find(children.begin(), children.end(), c),
                  children.end())
            << c << "<-" << p;
      }
    }
  }
}

TEST_P(ModelSweep, GroupStoreDescendantsMatchNaiveClosure) {
  Rng rng(GetParam());
  GroupStore store;
  constexpr DocId kNodes = 20;
  for (DocId p = 0; p < kNodes; ++p) {
    std::vector<DocId> children;
    std::set<DocId> used;
    for (size_t i = 0; i < rng.Uniform(4); ++i) {
      DocId c = rng.Uniform(kNodes);
      if (used.insert(c).second) children.push_back(c);
    }
    store.SetChildren(p, children);
  }
  for (DocId root = 0; root < kNodes; ++root) {
    // Naive closure.
    std::set<DocId> expected;
    std::vector<DocId> frontier{root};
    while (!frontier.empty()) {
      DocId node = frontier.back();
      frontier.pop_back();
      for (DocId c : store.Children(node)) {
        if (expected.insert(c).second) frontier.push_back(c);
      }
    }
    auto actual = store.Descendants({root});
    EXPECT_EQ(std::set<DocId>(actual.begin(), actual.end()), expected)
        << "root " << root;
  }
}

// --- NameIndex wildcard vs. reference matcher --------------------------------

bool ReferenceMatch(const std::string& pattern, const std::string& text,
                    size_t pi = 0, size_t ti = 0) {
  if (pi == pattern.size()) return ti == text.size();
  if (pattern[pi] == '*') {
    for (size_t skip = 0; ti + skip <= text.size(); ++skip) {
      if (ReferenceMatch(pattern, text, pi + 1, ti + skip)) return true;
    }
    return false;
  }
  if (ti == text.size()) return false;
  char p = static_cast<char>(std::tolower(pattern[pi]));
  char t = static_cast<char>(std::tolower(text[ti]));
  if (pattern[pi] != '?' && p != t) return false;
  return ReferenceMatch(pattern, text, pi + 1, ti + 1);
}

TEST_P(ModelSweep, WildcardMatchAgreesWithReference) {
  Rng rng(GetParam());
  static const char kPatternChars[] = "ab?*.X";
  static const char kTextChars[] = "ab.Xx";
  for (int i = 0; i < 2000; ++i) {
    std::string pattern, text;
    for (size_t j = 0; j < rng.Uniform(8); ++j) {
      pattern += kPatternChars[rng.Uniform(6)];
    }
    for (size_t j = 0; j < rng.Uniform(8); ++j) {
      text += kTextChars[rng.Uniform(5)];  // no metacharacters in text
    }
    EXPECT_EQ(WildcardMatch(pattern, text), ReferenceMatch(pattern, text))
        << "'" << pattern << "' vs '" << text << "'";
  }
}

// --- NameIndex accelerated LookupPattern vs. brute force ---------------------

/// Expected LookupPattern answer: every replica id whose name matches.
std::vector<DocId> BruteForcePattern(const std::map<DocId, std::string>& replica,
                                     const std::string& pattern) {
  std::vector<DocId> out;
  for (const auto& [id, name] : replica) {
    if (WildcardMatch(pattern, name)) out.push_back(id);
  }
  return out;
}

/// A name from a small stem vocabulary, so distinct names collide, empty
/// and reappear under churn; case varies so lowering is exercised.
std::string RandomName(Rng& rng) {
  static const char* kStems[] = {"Vision",  "conclusion", "Conclusions",
                                 "figure",  "fig",        "paper",
                                 "a",       "ab",         "onclusion",
                                 "visions", "tex",        ""};
  static const char* kTails[] = {"", ".tex", ".TeX", ".txt", "1", "s.tex"};
  std::string name = kStems[rng.Uniform(std::size(kStems))];
  name += kTails[rng.Uniform(std::size(kTails))];
  for (char& c : name) {
    if (rng.Chance(0.2)) c = static_cast<char>(std::toupper(c));
  }
  return name;
}

/// Patterns of every shape the accelerator distinguishes: prefix-only,
/// suffix-only, '?'-led, several '*' segments, literals under kGram bytes,
/// mixed case, "" and "*"; plus random ones over the names' alphabet.
std::vector<std::string> PatternSet(Rng& rng) {
  std::vector<std::string> patterns = {
      "fig*",       "FIGURE*",     "*.tex",      "*.TEX",     "*Vision",
      "*vision*",   "?onclusion*", "?ONCLUSION", "*on*sion*", "*a*",
      "a*",         "*b",          "ab*",        "*",         "",
      "?",          "??",          "*.t?x",      "paper*tex", "*sion",
      "fig?re.tex", "*x",          "*s.tex",     "?*.txt",    "*?*",
      "con*s",      "*zzz*",       "*ex1",       "vision",    "Fig"};
  static const char kChars[] = "aAbcinostvx.*?";
  for (int i = 0; i < 40; ++i) {
    std::string pattern;
    for (size_t j = 0, n = rng.Uniform(9); j < n; ++j) {
      pattern += kChars[rng.Uniform(sizeof(kChars) - 1)];
    }
    patterns.push_back(pattern);
  }
  return patterns;
}

void ExpectPatternsMatchReplica(const NameIndex& index,
                                const std::map<DocId, std::string>& replica,
                                const std::vector<std::string>& patterns,
                                const std::string& when) {
  for (const std::string& pattern : patterns) {
    EXPECT_EQ(index.LookupPattern(pattern), BruteForcePattern(replica, pattern))
        << "pattern '" << pattern << "' " << when;
  }
}

TEST_P(ModelSweep, NamePatternLookupMatchesBruteForce) {
  Rng rng(GetParam());
  const std::vector<std::string> patterns = PatternSet(rng);
  NameIndex index;
  std::map<DocId, std::string> replica;

  for (int step = 0; step < 400; ++step) {
    DocId id = rng.Uniform(50);
    double roll = rng.NextDouble();
    if (roll < 0.55) {  // add, or rename an existing id
      std::string name = RandomName(rng);
      index.Add(id, name);
      replica[id] = name;
    } else if (roll < 0.85) {
      index.Remove(id);
      replica.erase(id);
    } else {  // unknown id: a no-op
      index.Remove(1000 + id);
    }
    if (step % 25 == 0) {
      ExpectPatternsMatchReplica(index, replica, patterns,
                                 "at step " + std::to_string(step));
    }
  }

  // A distinct name that empties and reappears under another id (and case).
  index.Add(900, "Unique.tex");
  replica[900] = "Unique.tex";
  ExpectPatternsMatchReplica(index, replica, {"*que.tex", "?nique*", "uni*"},
                             "after adding a new distinct name");
  index.Remove(900);
  replica.erase(900);
  EXPECT_TRUE(index.LookupPattern("*que.tex").empty());
  EXPECT_TRUE(index.LookupPattern("?nique*").empty());
  index.Add(901, "UNIQUE.TEX");
  replica[901] = "UNIQUE.TEX";
  ExpectPatternsMatchReplica(index, replica, {"*que.tex", "?nique*", "uni*"},
                             "after the name reappeared");

  ExpectPatternsMatchReplica(index, replica, patterns, "after churn");
  auto restored = NameIndex::Deserialize(index.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectPatternsMatchReplica(*restored, replica, patterns, "after round trip");
}

// --- Catalog + VersionLog serialization under churn ---------------------------

TEST_P(ModelSweep, CatalogSerializationIsLossless) {
  Rng rng(GetParam());
  Catalog catalog;
  uint32_t src = catalog.InternSource("s");
  for (int step = 0; step < 150; ++step) {
    DocId id = catalog.Register("uri" + std::to_string(rng.Uniform(40)),
                                rng.Chance(0.5) ? "file" : "", src,
                                rng.Chance(0.3));
    if (rng.Chance(0.25)) catalog.Remove(id);
  }
  auto restored = Catalog::Deserialize(catalog.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->live_count(), catalog.live_count());
  EXPECT_EQ(restored->total_count(), catalog.total_count());
  for (DocId id = 0; id < catalog.total_count(); ++id) {
    const CatalogEntry* a = catalog.Entry(id);
    const CatalogEntry* b = restored->Entry(id);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->uri, b->uri);
    EXPECT_EQ(a->class_name, b->class_name);
    EXPECT_EQ(a->derived, b->derived);
    EXPECT_EQ(a->deleted, b->deleted);
  }
}

TEST_P(ModelSweep, VersionLogLiveAtMatchesModel) {
  Rng rng(GetParam());
  VersionLog log;
  std::set<DocId> model;
  std::vector<std::set<DocId>> history{model};  // history[v] = live at v
  for (int step = 0; step < 120; ++step) {
    DocId id = rng.Uniform(25);
    if (model.count(id) == 0) {
      log.Append(ChangeRecord::Op::kAdded, id);
      model.insert(id);
    } else if (rng.Chance(0.5)) {
      log.Append(ChangeRecord::Op::kUpdated, id);
    } else {
      log.Append(ChangeRecord::Op::kRemoved, id);
      model.erase(id);
    }
    history.push_back(model);
  }
  for (Version v = 0; v < history.size(); ++v) {
    auto live = log.LiveAt(v);
    EXPECT_EQ(std::set<DocId>(live.begin(), live.end()), history[v])
        << "version " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace idm::index
