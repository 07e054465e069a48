#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include "index/analyzer.h"
#include "storage/crc32.h"
#include "util/rng.h"

namespace idm::index {
namespace {

TEST(AnalyzerTest, TokenizesLowercaseWithPositions) {
  auto tokens = Tokenize("The Quick, brown FOX!");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].term, "the");
  EXPECT_EQ(tokens[3].term, "fox");
  EXPECT_EQ(tokens[3].position, 3u);
}

TEST(AnalyzerTest, NumbersAndUnderscores) {
  auto tokens = Tokenize("VLDB2006 latex_section");
  ASSERT_EQ(tokens.size(), 3u);  // '_' separates
  EXPECT_EQ(tokens[0].term, "vldb2006");
}

TEST(AnalyzerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("... --- !!!").empty());
}

TEST(AnalyzerTest, LooksLikeText) {
  EXPECT_TRUE(LooksLikeText("plain old text\nwith lines"));
  EXPECT_TRUE(LooksLikeText(""));
  EXPECT_FALSE(LooksLikeText(std::string("\x00\x01\x02\x03", 4)));
  std::string mostly_binary;
  for (int i = 0; i < 256; ++i) mostly_binary += static_cast<char>(i % 32);
  EXPECT_FALSE(LooksLikeText(mostly_binary));
}

class InvertedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index_.AddDocument(1, "the quick brown fox");
    index_.AddDocument(2, "the lazy dog sleeps");
    index_.AddDocument(3, "quick quick slow");
    index_.AddDocument(5, "Mike Franklin wrote about dataspaces");
  }
  InvertedIndex index_;
};

TEST_F(InvertedIndexTest, TermQuery) {
  EXPECT_EQ(index_.TermQuery("quick"), (std::vector<DocId>{1, 3}));
  EXPECT_EQ(index_.TermQuery("THE"), (std::vector<DocId>{1, 2}));
  EXPECT_TRUE(index_.TermQuery("missing").empty());
}

TEST_F(InvertedIndexTest, AndOrQueries) {
  EXPECT_EQ(index_.AndQuery({"the", "quick"}), (std::vector<DocId>{1}));
  EXPECT_EQ(index_.OrQuery({"fox", "dog"}), (std::vector<DocId>{1, 2}));
  EXPECT_TRUE(index_.AndQuery({"fox", "dog"}).empty());
  EXPECT_TRUE(index_.AndQuery({}).empty());
}

TEST_F(InvertedIndexTest, PhraseQueryRequiresAdjacency) {
  EXPECT_EQ(index_.PhraseQuery("quick brown"), (std::vector<DocId>{1}));
  EXPECT_EQ(index_.PhraseQuery("Mike Franklin"), (std::vector<DocId>{5}));
  EXPECT_TRUE(index_.PhraseQuery("brown quick").empty());
  EXPECT_TRUE(index_.PhraseQuery("the dog").empty());  // not adjacent
  EXPECT_EQ(index_.PhraseQuery("the lazy dog sleeps"), (std::vector<DocId>{2}));
}

TEST_F(InvertedIndexTest, PhraseNormalizesCaseAndPunctuation) {
  EXPECT_EQ(index_.PhraseQuery("MIKE, franklin!"), (std::vector<DocId>{5}));
}

TEST_F(InvertedIndexTest, SingleTermPhraseDegrades) {
  EXPECT_EQ(index_.PhraseQuery("quick"), (std::vector<DocId>{1, 3}));
  EXPECT_TRUE(index_.PhraseQuery("").empty());
}

TEST_F(InvertedIndexTest, RepeatedTermPhrase) {
  EXPECT_EQ(index_.PhraseQuery("quick quick"), (std::vector<DocId>{3}));
}

TEST_F(InvertedIndexTest, RemoveDocument) {
  index_.RemoveDocument(1);
  EXPECT_EQ(index_.TermQuery("quick"), (std::vector<DocId>{3}));
  EXPECT_TRUE(index_.TermQuery("fox").empty());
  EXPECT_EQ(index_.doc_count(), 3u);
  index_.RemoveDocument(99);  // no-op
  EXPECT_EQ(index_.doc_count(), 3u);
}

TEST_F(InvertedIndexTest, ReAddReplaces) {
  index_.AddDocument(1, "entirely new words");
  EXPECT_TRUE(index_.TermQuery("fox").empty());
  EXPECT_EQ(index_.TermQuery("entirely"), (std::vector<DocId>{1}));
}

TEST_F(InvertedIndexTest, OutOfOrderDocIdsStaySorted) {
  InvertedIndex index;
  index.AddDocument(9, "alpha");
  index.AddDocument(3, "alpha");
  index.AddDocument(6, "alpha");
  EXPECT_EQ(index.TermQuery("alpha"), (std::vector<DocId>{3, 6, 9}));
}

TEST_F(InvertedIndexTest, MemoryUsageGrowsWithContent) {
  size_t before = index_.MemoryUsage();
  index_.AddDocument(100, std::string("filler words here and more ") +
                              std::string(5000, 'x'));
  EXPECT_GT(index_.MemoryUsage(), before);
}

// Byte-identity golden: a fixed churn script touching every mutation shape
// (in-order and out-of-order adds, re-adds with overlapping, disjoint and
// identical term sets, removes of a list's first, middle, last and only
// posting, an append after a tail removal) followed by a seeded random
// churn. The CRCs pin Serialize() — the checkpoint image — so any change to
// how postings are spliced must leave every blob, doc count and append
// cursor exactly as a decode + re-encode of the list would.
TEST(InvertedIndexGoldenTest, ChurnKeepsSerializedImage) {
  InvertedIndex index;
  // Ids spread so merged and split doc deltas cross varint byte widths.
  index.AddDocument(10, "alpha beta gamma alpha");
  index.AddDocument(100, "beta gamma delta");
  index.AddDocument(250, "alpha delta epsilon");
  index.AddDocument(300, "gamma gamma gamma zeta");
  index.AddDocument(20000, "alpha beta omega");
  index.AddDocument(150, "beta delta eta");  // out of order, middle
  index.AddDocument(5, "alpha theta");       // out of order, front
  index.AddDocument(100, "beta iota delta delta");   // overlapping re-add
  index.AddDocument(250, "kappa lambda");            // disjoint re-add
  index.AddDocument(300, "gamma gamma gamma zeta");  // identical re-add
  index.AddDocument(20000, "omega alpha beta omega");  // tail re-add
  index.RemoveDocument(5);      // first posting of alpha, only of theta
  index.RemoveDocument(150);    // middle posting of beta and delta
  index.RemoveDocument(20000);  // last posting of alpha, beta and omega
  index.AddDocument(400, "alpha omega mu");  // append after tail removal
  index.AddDocument(500, "");
  index.AddDocument(500, "nu theta xi");  // re-add of an empty document
  index.AddDocument(7, "alpha alpha kappa");
  index.RemoveDocument(99);  // unknown id
  const std::string scripted = index.Serialize();
  EXPECT_EQ(scripted.size(), 833u);
  EXPECT_EQ(storage::Crc32(scripted), 1060373999u);

  Rng rng(2006);
  const char* kWords[] = {"red",  "green", "blue", "fox",  "dog",
                          "idm",  "vldb",  "data", "space", "view"};
  for (int step = 0; step < 600; ++step) {
    // Ids drift upward so appends past the maximum mix with splices.
    DocId id = rng.Uniform(80) + static_cast<DocId>(step / 4) * 3;
    uint64_t op = rng.Uniform(10);
    if (op < 7) {
      std::string doc;
      size_t n = rng.Uniform(14);
      for (size_t i = 0; i < n; ++i) {
        if (i > 0) doc += ' ';
        doc += kWords[rng.Uniform(std::size(kWords))];
      }
      index.AddDocument(id, doc);
    } else {
      index.RemoveDocument(id);
    }
  }
  const std::string churned = index.Serialize();
  EXPECT_EQ(churned.size(), 13578u);
  EXPECT_EQ(storage::Crc32(churned), 3096837711u);
  EXPECT_EQ(index.total_tokens(), 1678u);
}

TEST(InvertedIndexPropertyTest, MatchesNaiveScanOnRandomCorpus) {
  // Property: index results == naive substring-of-token-sequence scan.
  Rng rng(1234);
  const char* kWords[] = {"red", "green", "blue", "fox", "dog", "idm"};
  std::vector<std::string> docs;
  InvertedIndex index;
  for (DocId id = 0; id < 60; ++id) {
    std::string doc;
    size_t n = 3 + rng.Uniform(12);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) doc += ' ';
      doc += kWords[rng.Uniform(std::size(kWords))];
    }
    docs.push_back(doc);
    index.AddDocument(id, doc);
  }
  for (int trial = 0; trial < 40; ++trial) {
    std::string phrase = std::string(kWords[rng.Uniform(std::size(kWords))]) +
                         " " + kWords[rng.Uniform(std::size(kWords))];
    std::vector<DocId> expected;
    for (DocId id = 0; id < docs.size(); ++id) {
      std::string padded = " " + docs[id] + " ";
      if (padded.find(" " + phrase + " ") != std::string::npos) {
        expected.push_back(id);
      }
    }
    EXPECT_EQ(index.PhraseQuery(phrase), expected) << phrase;
  }
}

}  // namespace
}  // namespace idm::index
